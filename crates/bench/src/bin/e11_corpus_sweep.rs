//! E11 — the corpus scaling sweep: seeded generated components of
//! increasing size, swept through the analyzer and the exhaustive VM
//! exploration, publishing states/sec and diagnostic-count scaling curves
//! to `BENCH_e11.json`.
//!
//! Where E8 benchmarks one fixed net, E11 asks how the toolchain *scales*:
//! `jcc_components::gen` emits a valid-by-construction monitor at each
//! size on the ladder (guards, wait sites, locks and padding all grow
//! linearly), and for each size the sweep records
//!
//! * `size<n>_states` / `size<n>_transitions` — the exhaustive census,
//! * `size<n>_states_per_sec` — sequential exploration throughput,
//! * `size<n>_diag_count` — total analyzer diagnostics (all severities),
//!
//! plus the usual auto-derived aggregate `states_per_sec`, which the
//! ledger's floor rule gates (with the ladder's `reduction_factor`) via
//! `jcc-report ci/bench_baseline_e11.json BENCH_e11.json --gate`.
//!
//! **Determinism gates** (asserted, not just reported): the generated
//! source is byte-identical across two in-process generations; the
//! portfolio census at 2 and 4 workers equals the sequential census; and
//! the whole sweep, run twice, produces the same canonical curve. The
//! timing-free part of the curve is written to `BENCH_e11_curve.txt`,
//! which is byte-identical for a fixed seed across runs, machines and
//! thread counts — that file (not the timing-bearing JSON) is the
//! reproducibility artifact CI uploads.

use std::fmt::Write as _;
use std::time::Instant;

use jcc_core::analyze::{analyze, Severity};
use jcc_core::components::gen::{call_plan, generate, generate_source, GenConfig};
use jcc_core::petri::Parallelism;
use jcc_core::vm::{
    compile, explore, explore_portfolio, CallSpec, ExploreConfig, ExploreResult,
    PortfolioConfig, ThreadSpec, Vm,
};

/// The size ladder: `GenConfig::sized(n)` for each entry.
const SIZES: [usize; 4] = [1, 2, 3, 4];

/// The sweep's fixed seed — the curve is a function of nothing else.
const SEED: u64 = 2024;

/// FNV-1a, for a stable source fingerprint without a hasher dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario_vm(cfg: &GenConfig) -> Vm {
    let component = generate(cfg);
    let compiled = compile(&component).expect("generated component compiles");
    let threads: Vec<ThreadSpec> = call_plan(cfg)
        .into_iter()
        .enumerate()
        .map(|(i, calls)| ThreadSpec {
            name: format!("t{i}"),
            calls: calls
                .into_iter()
                .map(|m| CallSpec::new(m, vec![]))
                .collect(),
        })
        .collect();
    Vm::new(compiled, threads)
}

/// [`scenario_vm`] with every thread sharing one display name, so threads
/// with identical call sessions form symmetry groups (names are
/// display-only; the semantics are unchanged).
fn symmetric_scenario_vm(cfg: &GenConfig) -> Vm {
    let component = generate(cfg);
    let compiled = compile(&component).expect("generated component compiles");
    let threads: Vec<ThreadSpec> = call_plan(cfg)
        .into_iter()
        .map(|calls| ThreadSpec {
            name: "w".into(),
            calls: calls
                .into_iter()
                .map(|m| CallSpec::new(m, vec![]))
                .collect(),
        })
        .collect();
    Vm::new(compiled, threads)
}

/// One pass over the ladder. Returns the canonical (timing-free) curve and
/// the per-size figures `(states, seconds, diag_count)`.
fn sweep(check_portfolio: bool) -> (String, Vec<(usize, usize, f64, usize)>) {
    let mut curve = String::new();
    let mut figures = Vec::new();
    for &n in &SIZES {
        let cfg = GenConfig::sized(n, SEED);
        let src = generate_source(&cfg);
        assert_eq!(
            src,
            generate_source(&cfg),
            "size {n}: generation must be deterministic"
        );
        let component = generate(&cfg);
        let report = analyze(&component);
        assert_eq!(
            report.count(Severity::High),
            0,
            "size {n}: generated component must stay High-clean:\n{}",
            report.render()
        );
        let diag_count = report.at_least(Severity::Low).count();

        let explore_cfg = ExploreConfig::default();
        let t0 = Instant::now();
        let seq = explore(scenario_vm(&cfg), &explore_cfg, None);
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        assert!(!seq.truncated, "size {n}: raise limits, census truncated");
        assert!(seq.completed_paths > 0, "size {n}: no completed schedules");
        assert_eq!(
            seq.deadlock_paths, 0,
            "size {n}: generated scenario must be deadlock-free"
        );

        if check_portfolio {
            for threads in [2usize, 4] {
                let p = explore_portfolio(
                    scenario_vm(&cfg),
                    &PortfolioConfig {
                        explore: ExploreConfig {
                            parallelism: Parallelism::with_threads(threads),
                            ..explore_cfg
                        },
                        ..PortfolioConfig::default()
                    },
                );
                let census: ExploreResult =
                    p.result.expect("census completes without early_exit");
                assert_eq!(
                    census.tally(),
                    seq.tally(),
                    "size {n}: census diverged at {threads} workers"
                );
            }
        }

        writeln!(
            curve,
            "size={n} guards={} wait_sites={} locks={} padding={} seed={SEED} \
             src_fnv1a={:#018x} states={} transitions={} completed_paths={} \
             diag_count={diag_count}",
            cfg.guards,
            cfg.wait_sites.max(cfg.guards),
            cfg.locks,
            cfg.padding,
            fnv1a(src.as_bytes()),
            seq.states,
            seq.transitions,
            seq.completed_paths,
        )
        .unwrap();
        figures.push((n, seq.states, secs, diag_count));
    }
    (curve, figures)
}

fn main() {
    let mut reporter = jcc_core::obs::BenchReporter::init("e11_corpus_sweep");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }

    say!("E11 corpus sweep: sizes {SIZES:?}, seed {SEED}");
    let (curve, figures) = sweep(true);
    // Gate: a second full pass (portfolio checks elided — the censuses
    // already proved thread-count independence) reproduces the curve
    // byte for byte.
    let (curve_again, _) = sweep(false);
    assert_eq!(curve, curve_again, "sweep curve must be reproducible");

    say!("\ncanonical curve:\n{curve}");
    std::fs::write("BENCH_e11_curve.txt", &curve).expect("write curve artifact");
    say!("curve artifact written to ./BENCH_e11_curve.txt");

    let mut prev_states = 0usize;
    for (n, states, secs, diags) in &figures {
        say!(
            "size {n}: {states} states in {secs:.3}s ({:.0} states/sec), {diags} diagnostics",
            *states as f64 / secs
        );
        assert!(
            *states > prev_states,
            "size {n}: state space must grow along the ladder"
        );
        prev_states = *states;
        reporter.set_derived(&format!("size{n}_states"), *states as f64);
        reporter.set_derived(
            &format!("size{n}_states_per_sec"),
            *states as f64 / secs,
        );
        reporter.set_derived(&format!("size{n}_diag_count"), *diags as f64);
    }
    // --- reduction on/off: ample + symmetry across the ladder ---
    // Each size explored full and reduced; the failure-class existence
    // booleans must agree (the proof-grade differential lives in
    // tests/reduction_equivalence.rs — this arm is the scaling figure).
    say!("\nreduction (ample + thread symmetry) vs full exploration:");
    let mut full_total = 0f64;
    let mut reduced_total = 0f64;
    for &n in &SIZES {
        let cfg = GenConfig::sized(n, SEED);
        let full = explore(scenario_vm(&cfg), &ExploreConfig::default(), None);
        let t0 = Instant::now();
        let reduced = explore(
            symmetric_scenario_vm(&cfg),
            &ExploreConfig {
                symmetry: true,
                ample: true,
                ..ExploreConfig::default()
            },
            None,
        );
        let red_secs = t0.elapsed().as_secs_f64().max(1e-9);
        assert!(!reduced.truncated, "size {n}: reduced census truncated");
        assert_eq!(
            (
                full.completed_paths > 0,
                full.deadlock_paths > 0,
                full.fault_paths > 0,
                full.cycle_paths > 0,
            ),
            (
                reduced.completed_paths > 0,
                reduced.deadlock_paths > 0,
                reduced.fault_paths > 0,
                reduced.cycle_paths > 0,
            ),
            "size {n}: reduction changed the failure classes"
        );
        assert!(reduced.states <= full.states, "size {n}: reduction grew states");
        full_total += full.states as f64;
        reduced_total += reduced.states as f64;
        say!(
            "size {n}: full {} states, reduced {} in {red_secs:.3}s \
             (x{:.2}, {} branches pruned)",
            full.states,
            reduced.states,
            full.states as f64 / reduced.states.max(1) as f64,
            reduced.ample_pruned
        );
        reporter.set_derived(&format!("size{n}_reduced_states"), reduced.states as f64);
    }
    reporter.set_derived("reduction_factor", full_total / reduced_total.max(1.0));

    reporter.set_derived("sweep_sizes", SIZES.len() as f64);
    reporter.set_derived(
        "curve_fnv1a",
        (fnv1a(curve.as_bytes()) >> 11) as f64, // keep it exactly representable in f64
    );
    reporter.finish();
}
