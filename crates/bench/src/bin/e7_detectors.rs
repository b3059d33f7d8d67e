//! E7 — the runtime detectors the paper cites: the Eraser lockset race
//! detector on an FF-T1 specimen, and lock-order cycle detection on a
//! lock-inversion specimen, with classification into Table-1 classes.

use jcc_core::detect::classify::{classify_cycles, classify_races};
use jcc_core::detect::lockorder::LockOrderGraph;
use jcc_core::detect::lockset::LocksetAnalyzer;
use jcc_core::model::examples;
use jcc_core::vm::{compile, explore, CallSpec, ExploreConfig, RunConfig, ThreadSpec, Vm};

fn main() {
    let mut reporter = jcc_core::obs::BenchReporter::init("e7_detectors");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }
    say!("=== E7: Eraser lockset + lock-order deadlock detection ===\n");

    // --- FF-T1: the racy counter ---
    say!("--- RacyCounter (unsynchronized increment) ---");
    let c = examples::racy_counter();
    let mut vm = Vm::new(
        compile(&c).unwrap(),
        vec![
            ThreadSpec {
                name: "a".into(),
                calls: vec![CallSpec::new("increment", vec![])],
            },
            ThreadSpec {
                name: "b".into(),
                calls: vec![CallSpec::new("increment", vec![])],
            },
        ],
    );
    let out = vm.run(&RunConfig::default());
    let races = LocksetAnalyzer::analyze(&out.trace);
    for finding in classify_races(&races) {
        say!("  {finding}");
    }
    // Interference witnessed concretely: some schedule loses an update.
    let vm2 = Vm::new(
        compile(&c).unwrap(),
        vec![
            ThreadSpec {
                name: "a".into(),
                calls: vec![CallSpec::new("increment", vec![])],
            },
            ThreadSpec {
                name: "b".into(),
                calls: vec![CallSpec::new("increment", vec![])],
            },
        ],
    );
    let result = explore(vm2, &ExploreConfig::default(), None);
    say!(
        "  exhaustive check: {} schedules complete; interference makes the final count \
         schedule-dependent (lockset flags the cause statically-on-trace)",
        result.completed_paths
    );

    // --- FF-T2: opposite lock orders ---
    say!("\n--- LockOrder (forward: a then b; backward: b then a) ---");
    let c = examples::lock_order_deadlock();
    let mut vm = Vm::new(
        compile(&c).unwrap(),
        vec![ThreadSpec {
            name: "probe".into(),
            calls: vec![
                CallSpec::new("forward", vec![]),
                CallSpec::new("backward", vec![]),
            ],
        }],
    );
    let out = vm.run(&RunConfig::default());
    let graph = LockOrderGraph::build(&out.trace);
    say!("  lock-order edges: {:?}", graph.edges());
    let cycles = graph.cycles();
    for finding in classify_cycles(&cycles) {
        say!("  {finding}");
    }
    // Confirm the predicted deadlock actually exists under some schedule.
    let vm2 = Vm::new(
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
    );
    let result = explore(vm2, &ExploreConfig::default(), None);
    say!(
        "  exhaustive confirmation: {} of {} terminal paths deadlock (predicted by the cycle)",
        result.deadlock_paths,
        result.deadlock_paths + result.completed_paths
    );
    reporter.set_derived("races_found", races.len() as f64);
    reporter.set_derived("lock_order_cycles", cycles.len() as f64);
    reporter.finish();
}
