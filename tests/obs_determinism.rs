//! Observation must never change results: with `jcc-obs` recording metrics,
//! with or without the span tree, every engine produces results
//! *identical* to an unobserved run —
//! same ReachGraph, same exploration tallies — and the published counters
//! agree exactly with the results they describe. (The obs design records
//! into local tallies flushed after the fact, so this is by construction;
//! these tests keep it that way.)

use std::sync::{Mutex, MutexGuard, OnceLock};

use jcc_core::model::ast::Component;
use jcc_core::model::{examples, parse_component};
use jcc_core::obs;
use jcc_core::petri::{JavaNet, ReachGraph, ReachLimits, Reduction, SymmetrySpec};
use jcc_core::vm::{
    compile, explore, timeline_of_outcome, CallSpec, ExploreConfig, ExploreResult, ThreadSpec,
    Value, Vm,
};

/// Serializes tests in this binary: they flip the process-global obs level.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with obs at `level` on a freshly reset registry, restoring the
/// default (off) level afterwards.
fn with_level<T>(level: obs::ObsLevel, f: impl FnOnce() -> T) -> T {
    with_obs(level, false, f)
}

/// [`with_level`], with the live span tree on or off for the run.
fn with_obs<T>(level: obs::ObsLevel, span_tree: bool, f: impl FnOnce() -> T) -> T {
    obs::set_level(level);
    obs::global().reset();
    obs::SpanTree::reset();
    obs::set_span_tree(span_tree);
    let result = f();
    obs::set_span_tree(false);
    obs::set_level(obs::ObsLevel::Off);
    result
}

/// Everything observable about a reach graph, in canonical order.
type GraphFingerprint = (Vec<Vec<u32>>, Vec<Vec<(usize, usize)>>, Vec<usize>);

fn graph_fingerprint(g: &ReachGraph) -> GraphFingerprint {
    let markings = g.markings().map(<[u32]>::to_vec).collect::<Vec<_>>();
    let successors = (0..g.stats().states)
        .map(|i| {
            g.successors(i)
                .iter()
                .map(|&(t, j)| (t.index(), j as usize))
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    (markings, successors, g.dead_states())
}

#[test]
fn reach_graph_unchanged_by_observation() {
    let _guard = obs_lock();
    for n in 1..=3 {
        let j = JavaNet::new(n);
        let explore = || ReachGraph::explore(j.net(), ReachLimits::default());
        let reference_fp = graph_fingerprint(&with_level(obs::ObsLevel::Off, explore));
        for span_tree in [false, true] {
            let g = with_obs(obs::ObsLevel::Summary, span_tree, explore);
            assert_eq!(
                graph_fingerprint(&g),
                reference_fp,
                "n={n} span_tree={span_tree}"
            );
        }
    }
}

#[test]
fn reach_counters_agree_with_stats() {
    let _guard = obs_lock();
    let j = JavaNet::new(2);
    let g = with_level(obs::ObsLevel::Summary, || {
        ReachGraph::explore(j.net(), ReachLimits::default())
    });
    let reg = obs::global();
    assert_eq!(reg.counter("petri.reach.explorations").get(), 1);
    assert_eq!(
        reg.counter("petri.reach.states").get(),
        g.stats().states as u64
    );
    assert_eq!(reg.counter("petri.reach.edges").get(), g.stats().edges as u64);
    // The sequential BFS timed itself into a phase histogram.
    let phases = reg.histogram_values();
    assert!(
        phases.iter().any(|(name, s)| name == "span.petri.reach.sequential" && s.count == 1),
        "missing reach span: {:?}",
        phases.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
}

#[test]
fn a_rejected_symmetry_spec_is_counted_and_changes_nothing() {
    // Lanes starting at the shared lock place instead of the first thread
    // place: not an automorphism, so the exploration must ignore the spec,
    // count the rejection once and produce the unreduced graph.
    let _guard = obs_lock();
    let j = JavaNet::new(2);
    let bogus = SymmetrySpec {
        first_place: 0,
        ..j.thread_symmetry()
    };
    assert!(!bogus.is_automorphism(j.net()));
    let full = with_level(obs::ObsLevel::Off, || {
        ReachGraph::explore(j.net(), ReachLimits::default())
    });
    let limits = ReachLimits {
        reduction: Reduction {
            ample: false,
            symmetry: Some(bogus),
        },
        ..ReachLimits::default()
    };
    let g = with_level(obs::ObsLevel::Summary, || {
        ReachGraph::explore(j.net(), limits)
    });
    assert_eq!(
        obs::global().counter("petri.reach.symmetry_rejected").get(),
        1
    );
    assert_eq!(graph_fingerprint(&g), graph_fingerprint(&full));
}

fn pc_vm() -> Vm {
    let c = examples::producer_consumer();
    Vm::new(
        compile(&c).unwrap(),
        vec![
            ThreadSpec {
                name: "c".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("ab".into())])],
            },
        ],
    )
}

#[test]
fn explore_tally_unchanged_by_observation() {
    let _guard = obs_lock();
    let reference = with_level(obs::ObsLevel::Off, || {
        explore(pc_vm(), &ExploreConfig::default(), None)
    });
    for span_tree in [false, true] {
        let observed = with_obs(obs::ObsLevel::Summary, span_tree, || {
            explore(pc_vm(), &ExploreConfig::default(), None)
        });
        assert_eq!(observed.tally(), reference.tally(), "span_tree={span_tree}");
        // And the flushed counters describe exactly this exploration.
        let reg = obs::global();
        assert_eq!(reg.counter("vm.explore.runs").get(), 1);
        assert_eq!(
            reg.counter("vm.explore.states").get(),
            reference.states as u64
        );
        assert_eq!(
            reg.counter("vm.explore.transitions").get(),
            reference.transitions as u64
        );
        assert_eq!(
            reg.counter("vm.explore.completed_paths").get(),
            reference.completed_paths as u64
        );
        // The search's own counts are exact too, and observation leaves
        // them alone.
        assert_eq!(
            (observed.memo_hits, observed.stepless_joins),
            (reference.memo_hits, reference.stepless_joins)
        );
        assert_eq!(
            reg.counter("vm.explore.memo_hits").get(),
            reference.memo_hits as u64
        );
        assert_eq!(
            reg.counter("vm.explore.stepless_joins").get(),
            reference.stepless_joins as u64
        );
    }
}

#[test]
fn vm_transition_counters_populated_under_observation() {
    let _guard = obs_lock();
    with_level(obs::ObsLevel::Summary, || {
        let _ = explore(pc_vm(), &ExploreConfig::default(), None);
    });
    let reg = obs::global();
    // Producer/consumer explorations fire lock requests, acquisitions,
    // waits, releases and notifications across the schedule tree.
    for t in ["T1", "T2", "T3", "T4", "T5"] {
        assert!(
            reg.counter(&format!("vm.transition.{t}")).get() > 0,
            "vm.transition.{t} never fired"
        );
    }
}

/// Explore `threads` on `c` event-free and with a coverage tracker (which
/// reads events), each under observation: both results with the
/// `vm.transition.T1`–`T5` counters they left.
fn free_and_recorded(c: &Component, threads: Vec<ThreadSpec>) -> [(ExploreResult, [u64; 5]); 2] {
    let make_vm = || Vm::new(compile(c).unwrap(), threads.clone());
    let counts = || {
        ["T1", "T2", "T3", "T4", "T5"]
            .map(|t| obs::global().counter(&format!("vm.transition.{t}")).get())
    };
    let free = with_level(obs::ObsLevel::Summary, || {
        (
            explore(make_vm(), &ExploreConfig::default(), None),
            counts(),
        )
    });
    let cofgs = jcc_core::cofg::build_component_cofgs(c);
    let mut tracker = jcc_core::cofg::CoverageTracker::new(cofgs);
    let recorded = with_level(obs::ObsLevel::Summary, || {
        let r = explore(make_vm(), &ExploreConfig::default(), Some(&mut tracker));
        (r, counts())
    });
    [free, recorded]
}

#[test]
fn stepless_joins_skip_no_firings() {
    // An event-free search settles some joins without stepping, but only
    // over lock-free steps that do not fault, which fire no Figure-1
    // transition: its counts equal a recording search's, which steps
    // every transition. Here `bad` faults while it holds the monitor,
    // which releases it (T4), on paths that also join.
    let _guard = obs_lock();
    let c = parse_component(
        "class Bad { int n = 0; boolean b = false; \
         synchronized void bad() { while (!b) { wait(); } if (n) { n = 1; } } \
         synchronized void ok() { n = 2; b = true; notifyAll(); } }",
    )
    .unwrap();
    let threads = ["bad", "ok", "bad"]
        .map(|m| ThreadSpec {
            name: m.into(),
            calls: vec![CallSpec::new(m, vec![])],
        })
        .to_vec();
    let [(free, free_counts), (recorded, recorded_counts)] = free_and_recorded(&c, threads);
    assert_eq!(free.tally(), recorded.tally());
    assert!(free.fault_paths > 0 && free.stepless_joins > 0, "{free:?}");
    assert_eq!(recorded.stepless_joins, 0);
    assert_eq!(free.memo_hits, recorded.memo_hits);
    assert!(free_counts[3] > 0, "{free_counts:?}");
    assert_eq!(free_counts, recorded_counts);
}

#[test]
fn transition_counters_do_not_count_witness_replays() {
    // An event-free exploration rebuilds its deadlock witness by replaying
    // the path; the replay's firings were counted when the search took
    // them, so the counters match a recording exploration's exactly.
    let _guard = obs_lock();
    let thread = |name: &str, method: &str| ThreadSpec {
        name: name.into(),
        calls: vec![CallSpec::new(method, vec![])],
    };
    let [(free, free_counts), (recorded, recorded_counts)] = free_and_recorded(
        &examples::lock_order_deadlock(),
        vec![thread("f", "forward"), thread("b", "backward")],
    );
    assert!(free.deadlock_witness.is_some());
    assert_eq!(
        format!("{:?}", free.deadlock_witness),
        format!("{:?}", recorded.deadlock_witness)
    );
    assert!(free_counts[1] > 0, "{free_counts:?}");
    assert_eq!(free_counts, recorded_counts);
}

#[test]
fn explore_layer_split_is_sampled_only_under_observation() {
    // One stepped transition in 64 is timed into the step / encode /
    // dedup histograms and one undo in 64 into the undo histogram — under
    // observation only, and without touching the search. A join settled
    // without stepping is neither stepped nor undone.
    let _guard = obs_lock();
    let layers = [
        "vm.explore.step_ns",
        "vm.explore.encode_ns",
        "vm.explore.dedup_ns",
        "vm.explore.undo_ns",
    ];
    let counts = || layers.map(|name| obs::global().histogram(name).snapshot().count);
    let off = with_level(obs::ObsLevel::Off, || {
        explore(pc_vm(), &ExploreConfig::default(), None)
    });
    assert_eq!(counts(), [0; 4]);
    let on = with_level(obs::ObsLevel::Summary, || {
        explore(pc_vm(), &ExploreConfig::default(), None)
    });
    assert_eq!(on.tally(), off.tally());
    assert!(on.stepless_joins > 0, "{on:?}");
    let sampled = (on.transitions - on.stepless_joins).div_ceil(64) as u64;
    assert!(sampled > 1, "{} transitions", on.transitions);
    assert_eq!(counts(), [sampled; 4]);
}

#[test]
fn timeline_renderings_identical_at_any_observation_level() {
    // The causal timeline is a pure function of the witness trace, and the
    // exhaustive DFS fixes the witness — so both the ASCII chart and the
    // Chrome-trace JSON must be byte-identical whatever the observation
    // level.
    let _guard = obs_lock();
    let c = examples::lock_order_deadlock();
    let cofgs = jcc_core::cofg::build_component_cofgs(&c);
    let make_vm = || {
        Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "f".into(),
                    calls: vec![CallSpec::new("forward", vec![])],
                },
                ThreadSpec {
                    name: "b".into(),
                    calls: vec![CallSpec::new("backward", vec![])],
                },
            ],
        )
    };
    let renderings: Vec<(String, String)> = [
        (obs::ObsLevel::Off, false),
        (obs::ObsLevel::Summary, false),
        (obs::ObsLevel::Summary, true),
    ]
    .into_iter()
    .map(|(level, span_tree)| {
        with_obs(level, span_tree, || {
            let census = explore(make_vm(), &ExploreConfig::default(), None);
            let witness = census.first_witness().expect("lock-order deadlocks");
            let t = timeline_of_outcome(witness, Some(&cofgs));
            (t.render_ascii(), t.to_chrome_string())
        })
    })
    .collect();
    let (ascii, chrome) = &renderings[0];
    assert!(ascii.contains("causal timeline"), "{ascii}");
    assert!(chrome.contains("\"traceEvents\":"), "{chrome}");
    for (i, (a, c)) in renderings.iter().enumerate().skip(1) {
        assert_eq!(a, ascii, "ascii differs at observation level index {i}");
        assert_eq!(
            c, chrome,
            "chrome trace differs at observation level index {i}"
        );
    }
}

/// Run `f` with the ENTIRE live-introspection stack active: summary
/// metrics, span tree, progress publication, a heartbeat watcher, and the
/// metrics exposition endpoint (scraped once mid-run to exercise the
/// render path).
fn with_live_stack<T>(f: impl FnOnce() -> T) -> T {
    use std::time::Duration;
    obs::set_level(obs::ObsLevel::Summary);
    obs::global().reset();
    obs::SpanTree::reset();
    obs::set_span_tree(true);
    obs::set_progress(true);
    let heartbeat = obs::Heartbeat::start(Duration::from_millis(5), |_| {});
    let server = obs::ExposeServer::start(0).expect("bind ephemeral port");
    let result = f();
    let scrape = obs::fetch_metrics(server.local_addr()).expect("scrape mid-stack");
    assert!(scrape.contains("# TYPE"), "scrape renders: {scrape}");
    server.stop();
    heartbeat.stop();
    obs::set_progress(false);
    obs::set_span_tree(false);
    obs::set_level(obs::ObsLevel::Off);
    result
}

#[test]
fn reach_graph_unchanged_by_live_introspection() {
    // The tentpole guarantee: the full live stack (span tree recording
    // the engine's spans, heartbeats draining the progress cell,
    // exposition serving scrapes) produces byte-identical reachability
    // graphs.
    let _guard = obs_lock();
    let j = JavaNet::new(3);
    let reference = with_level(obs::ObsLevel::Off, || {
        ReachGraph::explore(j.net(), ReachLimits::default())
    });
    let g = with_live_stack(|| ReachGraph::explore(j.net(), ReachLimits::default()));
    assert_eq!(
        graph_fingerprint(&g),
        graph_fingerprint(&reference),
        "live stack changed the graph"
    );
}

#[test]
fn explore_verdicts_unchanged_by_live_introspection() {
    let _guard = obs_lock();
    let reference = with_level(obs::ObsLevel::Off, || {
        explore(pc_vm(), &ExploreConfig::default(), None)
    });
    let live = with_live_stack(|| explore(pc_vm(), &ExploreConfig::default(), None));
    assert_eq!(live.tally(), reference.tally());
}

#[test]
fn observation_off_records_nothing() {
    let _guard = obs_lock();
    obs::set_level(obs::ObsLevel::Off);
    obs::global().reset();
    let _ = explore(pc_vm(), &ExploreConfig::default(), None);
    let reg = obs::global();
    assert!(
        reg.counter_values().iter().all(|(_, v)| *v == 0),
        "counters must stay zero with obs off: {:?}",
        reg.counter_values()
    );
}
