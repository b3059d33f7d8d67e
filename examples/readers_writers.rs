//! Readers–writers: its MIR run natively with writer preference, plus the
//! model-level demonstration that `notify` instead of `notifyAll` is fatal
//! here — waiters wait on *different* predicates, so a single wake-up can
//! be consumed by a thread that just re-waits (FF-T5).
//!
//! Run with `cargo run --example readers_writers`.

use std::sync::Arc;

use jcc_core::detect::classify::classify_explore;
use jcc_core::model::examples;
use jcc_core::model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
use jcc_core::runtime::{EventLog, NativeComponent};
use jcc_core::vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Value, Vm};

fn main() {
    // --- native: three readers share, a writer excludes ---
    let component = examples::readers_writers();
    let log = EventLog::new();
    let rw = Arc::new(NativeComponent::new(compile(&component).unwrap(), &log));
    let op = |rw: &NativeComponent, method: &str| rw.call(method, &[]).unwrap();
    let writing = |rw: &NativeComponent| rw.field("writing") == Some(Value::Bool(true));
    let readers: Vec<_> = (0..3)
        .map(|i| {
            let rw = Arc::clone(&rw);
            std::thread::spawn(move || {
                op(&rw, "startRead");
                let snapshot = (rw.field("readers").unwrap(), writing(&rw));
                op(&rw, "endRead");
                (i, snapshot)
            })
        })
        .collect();
    for h in readers {
        let (i, (readers_now, writing)) = h.join().unwrap();
        println!("reader {i} saw {readers_now} concurrent reader(s), writing={writing}");
        assert!(!writing);
    }
    op(&rw, "startWrite");
    assert!(writing(&rw));
    op(&rw, "endWrite");
    println!("writer held exclusive access\n");

    // --- model: the notify-for-notifyAll mutation is a real FF-T5 here ---
    let mutation = enumerate_mutations(&component)
        .into_iter()
        .find(|m| {
            m.kind == MutationKind::NotifyInsteadOfNotifyAll && m.method == "endWrite"
        })
        .expect("endWrite has a notifyAll");
    let mutant = apply_mutation(&component, &mutation).unwrap();

    // One writer working, one reader and one more writer queueing up.
    let scenario = vec![
        ThreadSpec {
            name: "writer-1".into(),
            calls: vec![
                CallSpec::new("startWrite", vec![]),
                CallSpec::new("endWrite", vec![]),
            ],
        },
        ThreadSpec {
            name: "reader".into(),
            calls: vec![
                CallSpec::new("startRead", vec![]),
                CallSpec::new("endRead", vec![]),
            ],
        },
        ThreadSpec {
            name: "writer-2".into(),
            calls: vec![
                CallSpec::new("startWrite", vec![]),
                CallSpec::new("endWrite", vec![]),
            ],
        },
    ];

    let correct = explore(
        Vm::new(compile(&component).unwrap(), scenario.clone()),
        &ExploreConfig::default(),
        None,
    );
    println!(
        "correct component: {} schedules complete, {} deadlock",
        correct.completed_paths, correct.deadlock_paths
    );

    let mutated = explore(
        Vm::new(compile(&mutant).unwrap(), scenario),
        &ExploreConfig::default(),
        None,
    );
    println!(
        "endWrite::notify mutant: {} schedules complete, {} deadlock",
        mutated.completed_paths, mutated.deadlock_paths
    );
    for finding in classify_explore(&mutated) {
        println!("  classified: {finding}");
    }
    assert!(
        mutated.deadlock_paths > correct.deadlock_paths,
        "the mutant must introduce lost-wakeup deadlocks"
    );
    println!("\nthe single notify can be consumed by the reader, which re-waits");
    println!("(writers are preferred), stranding writer-2 forever — FF-T5.");
}
