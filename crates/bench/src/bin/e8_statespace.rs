//! E8 — state-space growth: the N-thread petri composition and VM schedule
//! exploration of the producer–consumer, versus thread count.

use std::time::Instant;

use jcc_core::cofg::{build_component_cofgs, CoverageTracker};
use jcc_core::model::examples;
use jcc_core::obs::bench::{ab_best_of_blocks, AB_BLOCKS, AB_BLOCK_SECS};
use jcc_core::petri::{JavaNet, ReachGraph, ReachLimits, ReachStats};
use jcc_core::vm::{
    compile, explore, timeline_of_outcome, CallSpec, ExploreConfig, RunConfig, ThreadSpec, Value,
    Vm,
};

fn main() {
    let mut reporter = jcc_core::obs::BenchReporter::init("e8_statespace");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }
    say!("=== E8: state-space growth ===\n");

    say!("--- Figure-1 net composed for N threads ---");
    say!(
        "{:>8} {:>10} {:>10} {:>12} {:>12}",
        "threads", "states", "edges", "edges*", "dead*"
    );
    for n in 1..=6 {
        let j = JavaNet::new(n);
        let g = ReachGraph::explore(j.net(), ReachLimits::default());
        let gf = ReachGraph::explore_filtered(
            j.net(),
            ReachLimits::default(),
            j.notify_side_condition(),
        );
        // Publishes the per-transition petri.firing.T* counters.
        let _ = g.firing_counts_by_kind(j.net());
        say!(
            "{:>8} {:>10} {:>10} {:>12} {:>12}",
            n,
            g.stats().states,
            g.stats().edges,
            gf.stats().edges,
            gf.dead_states().len()
        );
    }
    say!(
        "(* under the dashed-arc side condition: notifications need a notifier inside the \
         monitor — the dead states are the all-threads-waiting lost-wakeup configurations)"
    );

    say!("\n--- VM schedule exploration: producer-consumer ---");
    say!(
        "{:>10} {:>10} {:>12} {:>11} {:>10}",
        "consumers", "states", "transitions", "completed†", "deadlocks"
    );
    let component = examples::producer_consumer();
    let compiled = compile(&component).unwrap();
    let mut tracker = CoverageTracker::new(build_component_cofgs(&component));
    for consumers in 1..=3 {
        let mut threads = vec![ThreadSpec {
            name: "p".into(),
            calls: vec![CallSpec::new(
                "send",
                vec![Value::Str("x".repeat(consumers).into())],
            )],
        }];
        for i in 0..consumers {
            threads.push(ThreadSpec {
                name: format!("c{i}"),
                calls: vec![CallSpec::new("receive", vec![])],
            });
        }
        let vm = Vm::new(compiled.clone(), threads);
        let r = explore(vm, &ExploreConfig::default(), Some(&mut tracker));
        say!(
            "{:>10} {:>10} {:>12} {:>11} {:>10}",
            consumers, r.states, r.transitions, r.completed_paths, r.deadlock_paths
        );
    }
    say!(
        "\n(† distinct terminal completion states after state-merging; each consumer \
         receives one character and the send provides exactly enough, so no schedule \
         deadlocks)"
    );
    let arc_coverage_pct = tracker.ratio() * 100.0;
    say!(
        "CoFG arc coverage over all explored schedules: {}/{} ({arc_coverage_pct:.1}%)",
        tracker.covered_arcs(),
        tracker.total_arcs()
    );
    reporter.set_derived("arc_coverage_pct", arc_coverage_pct);

    // One concrete schedule's causal timeline, exported in Chrome Trace
    // Event Format (load the file in Perfetto / chrome://tracing). The
    // timeline is a pure function of the recorded trace, so this costs the
    // benchmark nothing and can never change a result.
    {
        let mut threads = vec![ThreadSpec {
            name: "producer".into(),
            calls: vec![CallSpec::new("send", vec![Value::Str("xxx".into())])],
        }];
        for i in 0..3 {
            threads.push(ThreadSpec {
                name: format!("consumer-{i}"),
                calls: vec![CallSpec::new("receive", vec![])],
            });
        }
        let mut vm = Vm::new(compiled.clone(), threads);
        let outcome = vm.run(&RunConfig::default());
        let cofgs = build_component_cofgs(&component);
        let timeline = timeline_of_outcome(&outcome, Some(&cofgs));
        reporter.write_chrome_trace(&timeline);
    }

    say!("\n--- exploration wall clock ---");
    let big = JavaNet::new(6);
    let t0 = Instant::now();
    let seq = ReachGraph::explore(big.net(), ReachLimits::default());
    let seq_time = t0.elapsed();
    say!(
        "petri reachability (N=6, {} states): {:.1?}",
        seq.stats().states,
        seq_time
    );
    reporter.set_derived("petri_seq_seconds", seq_time.as_secs_f64());

    // --- state-space reduction: ample sets + thread-symmetry quotient ---
    // The same net explored full and reduced. The reduced run reaches the
    // same deadlock verdicts over a fraction of the states, so its
    // *equivalent* throughput — full-size states per reduced-run second —
    // is the figure an exploration user experiences.
    {
        use jcc_core::petri::Reduction;
        let n = 10;
        let j = JavaNet::new(n);
        let t0 = Instant::now();
        let full = ReachGraph::explore(j.net(), ReachLimits::default());
        let full_secs = t0.elapsed().as_secs_f64().max(1e-9);
        let t0 = Instant::now();
        let reduced = ReachGraph::explore(
            j.net(),
            ReachLimits {
                reduction: Reduction::full(Some(j.thread_symmetry())),
                ..ReachLimits::default()
            },
        );
        let red_secs = t0.elapsed().as_secs_f64().max(1e-9);
        // Verdict equivalence (the orbit-level proof lives in the petri
        // test suite); here the deadlock-freedom verdicts must agree.
        assert_eq!(
            full.dead_states().is_empty(),
            reduced.dead_states().is_empty(),
            "reduction changed the deadlock verdict"
        );
        assert!(reduced.stats().states < full.stats().states);
        let reduction_factor = full.stats().states as f64 / reduced.stats().states.max(1) as f64;
        let equiv_rate = full.stats().states as f64 / red_secs;
        say!(
            "\n--- reduction: JavaNet(N={n}) full vs ample+symmetry ---\n\
             full {} states in {full_secs:.3}s ({:.0} states/s); reduced {} states in \
             {red_secs:.3}s -> x{reduction_factor:.1} fewer states, \
             {equiv_rate:.0} equivalent states/s",
            full.stats().states,
            full.stats().states as f64 / full_secs,
            reduced.stats().states,
        );
        reporter.set_derived("reduction_factor", reduction_factor);
        reporter.set_derived("reduction_equiv_states_per_sec", equiv_rate);

        // The VM explorer's knobs on the 4-consumer producer–consumer
        // (consumers share a name, so they form one symmetry group).
        let mk = || {
            Vm::new(compiled.clone(), {
                let mut t = vec![ThreadSpec {
                    name: "p".into(),
                    calls: vec![CallSpec::new("send", vec![Value::Str("xxxx".into())])],
                }];
                for _ in 0..4 {
                    t.push(ThreadSpec {
                        name: "c".into(),
                        calls: vec![CallSpec::new("receive", vec![])],
                    });
                }
                t
            })
        };
        let vm_full = explore(mk(), &ExploreConfig::default(), None);
        let vm_reduced = explore(
            mk(),
            &ExploreConfig {
                symmetry: true,
                ample: true,
                ..ExploreConfig::default()
            },
            None,
        );
        assert_eq!(
            vm_full.found_failure(),
            vm_reduced.found_failure(),
            "reduction changed the VM failure verdict"
        );
        let vm_reduction_factor = vm_full.states as f64 / vm_reduced.states.max(1) as f64;
        say!(
            "vm explorer (4 symmetric consumers): full {} states, reduced {} \
             (x{vm_reduction_factor:.1}, {} branches pruned)",
            vm_full.states, vm_reduced.states, vm_reduced.ample_pruned
        );
        reporter.set_derived("vm_reduction_factor", vm_reduction_factor);
    }

    let vm = Vm::new(compiled.clone(), {
        let mut t = vec![ThreadSpec {
            name: "p".into(),
            calls: vec![CallSpec::new("send", vec![Value::Str("xxx".into())])],
        }];
        for i in 0..3 {
            t.push(ThreadSpec {
                name: format!("c{i}"),
                calls: vec![CallSpec::new("receive", vec![])],
            });
        }
        t
    });
    let t0 = Instant::now();
    let seq = explore(vm, &ExploreConfig::default(), None);
    let seq_time = t0.elapsed();
    say!(
        "vm schedule exploration (3 consumers, {} states): {:.1?}",
        seq.states,
        seq_time
    );
    reporter.set_derived("vm_seq_seconds", seq_time.as_secs_f64());

    // --- obs overhead self-measurement ---
    // The same N=6 reachability, observed vs unobserved. The acceptance
    // bar for the obs subsystem is < 5% at `summary` level. One
    // exploration takes about a millisecond, so the shared harness times
    // the arms run by run, alternating, in calibrated blocks.
    let saved_level = reporter.level();
    let timed_at = |level, stats: &mut Option<ReachStats>| {
        jcc_core::obs::set_level(level);
        let t0 = Instant::now();
        let g = ReachGraph::explore(big.net(), ReachLimits::default());
        let secs = t0.elapsed().as_secs_f64();
        *stats = Some(g.stats().clone());
        secs
    };
    let (mut stats_off, mut stats_on) = (None, None);
    let ab = ab_best_of_blocks(
        || timed_at(jcc_core::obs::ObsLevel::Off, &mut stats_off),
        || timed_at(jcc_core::obs::ObsLevel::Summary, &mut stats_on),
    );
    jcc_core::obs::set_level(saved_level);
    assert_eq!(stats_off, stats_on, "observation must not change results");
    let states_off = stats_off.map_or(0, |s| s.states);
    // Anything the subtraction says below zero is measurement noise, not a
    // speedup from observing: the harness reports that residue separately
    // so a noisy host is visible, but never as negative overhead.
    let (overhead_pct, noise_floor_pct) = (ab.overhead_pct(), ab.noise_floor_pct());
    say!(
        "\n--- obs overhead (petri reach N=6, {} states, arms alternating in blocks of >= {} ms, \
         warmed, best of {AB_BLOCKS}) ---\n\
         off: {:.4}s, summary: {:.4}s -> overhead {:.2}% (noise floor {:.2}%, budget: < 5%)",
        states_off,
        AB_BLOCK_SECS * 1e3,
        ab.best_off,
        ab.best_on,
        overhead_pct,
        noise_floor_pct
    );
    reporter.set_derived("obs_overhead_pct", overhead_pct);
    reporter.set_derived("obs_noise_floor_pct", noise_floor_pct);

    // --- capture-latency percentiles ---
    // A 100k-event exercise of the lock-free capture path (the always-on
    // monitor's producer side), against the sampled per-event latency
    // histogram. Forced to `summary` like the overhead arms, restored
    // after.
    {
        use jcc_core::petri::{EventKind, Transition as T};
        use jcc_core::runtime::EventLog;
        jcc_core::obs::set_level(jcc_core::obs::ObsLevel::Summary);
        let log = EventLog::new();
        for i in 0..100_000u64 {
            let t = if i % 2 == 0 { T::T2 } else { T::T4 };
            log.log_as(1 + (i & 3), EventKind::Transition { t, lock: i & 7 });
            if i % 4096 == 0 {
                log.drain_for_each(|_| {});
            }
        }
        log.drain_for_each(|_| {});
        assert_eq!(log.drop_count(), 0, "drained capture must be lossless");
        jcc_core::obs::set_level(saved_level);
        let snap = jcc_core::obs::global()
            .histogram("runtime.capture.latency_ns")
            .snapshot();
        let (p50, p90, p99) = (
            snap.percentile(50.0).unwrap_or(0),
            snap.percentile(90.0).unwrap_or(0),
            snap.percentile(99.0).unwrap_or(0),
        );
        say!(
            "\n--- capture latency (100k events, {} samples, log2 buckets) ---\n\
             p50 {p50} ns, p90 {p90} ns, p99 {p99} ns",
            snap.count
        );
        reporter.set_derived("capture_latency_p50_ns", p50 as f64);
        reporter.set_derived("capture_latency_p90_ns", p90 as f64);
        reporter.set_derived("capture_latency_p99_ns", p99 as f64);
    }

    // Per-engine throughput: each engine's states over its own span's
    // total time, so neither figure mixes workloads the way the run-wide
    // `states_per_sec` does.
    let reg = jcc_core::obs::global();
    let rate = |states: &str, span: &str| {
        let secs = reg.histogram(span).snapshot().sum as f64 / 1e9;
        reg.counter(states).get() as f64 / secs.max(1e-9)
    };
    reporter.set_derived(
        "petri_states_per_sec",
        rate("petri.reach.states", "span.petri.reach.sequential"),
    );
    reporter.set_derived(
        "vm_states_per_sec",
        rate("vm.explore.states", "span.vm.explore"),
    );
    reporter.finish();
}
