//! Deadlock hunting: lock-order-graph prediction (a single probe thread),
//! exhaustive confirmation (a model checker over all schedules), and the
//! Table-1 classification of what was found.
//!
//! Run with `cargo run --example deadlock_hunt`.

use jcc_core::detect::classify::{classify_cycles, classify_explore};
use jcc_core::detect::lockorder::LockOrderGraph;
use jcc_core::model::examples;
use jcc_core::vm::{compile, explore, CallSpec, ExploreConfig, RunConfig, ThreadSpec, Vm};

fn main() {
    let component = examples::lock_order_deadlock();
    let compiled = compile(&component).unwrap();

    // Phase 1 — prediction: run each method once on a single thread and
    // build the lock-order graph. No deadlock happens, but the graph
    // already contains the inverted edge pair.
    println!("phase 1: single-threaded probe");
    let mut probe = Vm::new(
        compiled.clone(),
        vec![ThreadSpec {
            name: "probe".into(),
            calls: vec![
                CallSpec::new("forward", vec![]),
                CallSpec::new("backward", vec![]),
            ],
        }],
    );
    let out = probe.run(&RunConfig::default());
    assert!(!out.verdict.is_failure(), "probe itself cannot deadlock");
    let graph = LockOrderGraph::build(&out.trace);
    println!("  lock-order edges: {:?}", graph.edges());
    let cycles = graph.cycles();
    for finding in classify_cycles(&cycles) {
        println!("  predicted: {finding}");
    }
    assert!(!cycles.is_empty());

    // Phase 2 — confirmation: explore every 2-thread schedule.
    println!("\nphase 2: exhaustive schedule exploration with two threads");
    let vm = Vm::new(
        compiled,
        vec![
            ThreadSpec {
                name: "fwd".into(),
                calls: vec![CallSpec::new("forward", vec![])],
            },
            ThreadSpec {
                name: "bwd".into(),
                calls: vec![CallSpec::new("backward", vec![])],
            },
        ],
    );
    let result = explore(vm, &ExploreConfig::default(), None);
    println!(
        "  {} states, {} transitions: {} schedules complete, {} deadlock",
        result.states, result.transitions, result.completed_paths, result.deadlock_paths
    );
    for finding in classify_explore(&result) {
        println!("  confirmed: {finding}");
    }
    let witness = result.deadlock_witness.expect("deadlock witness");
    println!("\n  witness interleaving:");
    print!(
        "{}",
        jcc_core::vm::trace::render_trace(
            &witness.trace,
            &["fwd".to_string(), "bwd".to_string()],
            &["this".to_string(), "a".to_string(), "b".to_string()],
        )
    );
}
