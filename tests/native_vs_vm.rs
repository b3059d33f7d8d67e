//! Integration: the native runtime and the VM agree — same CoFG coverage
//! semantics, same transition vocabulary, same completion behaviour.

use std::sync::Arc;

use jcc_core::clock::{Schedule, TestDriver};
use jcc_core::cofg::{build_component_cofgs, CoverageTracker};
use jcc_core::components::ProducerConsumer;
use jcc_core::model::examples;
use jcc_core::petri::{EventKind, Transition};
use jcc_core::runtime::EventLog;
use jcc_core::vm::trace::apply_trace;
use jcc_core::vm::{compile, CallSpec, RunConfig, ThreadSpec, Value, Vm};

/// Run the same logical test natively and on the VM; both must cover the
/// same CoFG arcs.
#[test]
fn coverage_agrees_between_native_and_vm() {
    let component = examples::producer_consumer();

    // VM: consumer waits, producer sends one char.
    let mut vm = Vm::new(
        compile(&component).unwrap(),
        vec![
            ThreadSpec {
                name: "c".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("x".into())])],
            },
        ],
    );
    let out = vm.run(&RunConfig::default());
    let mut vm_cov = CoverageTracker::new(build_component_cofgs(&component));
    apply_trace(&out.trace, &mut vm_cov);

    // Native: same shape, forced by the abstract clock (consumer first).
    let log = EventLog::new();
    let pc = Arc::new(ProducerConsumer::new(&log));
    let c = Arc::clone(&pc);
    let p = Arc::clone(&pc);
    let schedule = Schedule::new()
        .call("receive", 1, move |_| {
            c.receive().unwrap();
        })
        .call("send", 2, move |_| {
            p.send("x").unwrap();
        });
    let (records, _) = TestDriver::new().run(schedule);
    assert!(records.iter().all(|r| !r.suspended()), "{records:?}");
    let mut native_cov = CoverageTracker::new(build_component_cofgs(&component));
    apply_trace(&log.snapshot(), &mut native_cov);

    assert_eq!(native_cov.strays, 0);
    assert_eq!(
        vm_cov.covered_arcs(),
        native_cov.covered_arcs(),
        "vm uncovered: {:?}, native uncovered: {:?}",
        vm_cov.uncovered(),
        native_cov.uncovered()
    );
    assert_eq!(vm_cov.uncovered(), native_cov.uncovered());
}

/// The native monitor's transition stream tells the same story as the
/// model: a blocked consumer fires T1,T2 (entry), T3 (wait), T5,T2 (wake +
/// re-acquire), T4 (release).
#[test]
fn native_transition_sequence_matches_model() {
    let log = EventLog::new();
    let pc = Arc::new(ProducerConsumer::new(&log));
    let c = Arc::clone(&pc);
    let p = Arc::clone(&pc);
    let schedule = Schedule::new()
        .call("receive", 1, move |_| {
            c.receive().unwrap();
        })
        .call("send", 2, move |_| {
            p.send("y").unwrap();
        });
    let (_, _) = TestDriver::new().run(schedule);

    // Extract the consumer thread's transitions (the thread that waited).
    let events = log.snapshot();
    let waiter = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Transition {
                t: Transition::T3, ..
            } => Some(e.thread),
            _ => None,
        })
        .expect("someone waited");
    let seq: Vec<Transition> = events
        .iter()
        .filter(|e| e.thread == waiter)
        .filter_map(|e| match e.kind {
            EventKind::Transition { t, .. } => Some(t),
            _ => None,
        })
        .collect();
    assert_eq!(
        seq,
        vec![
            Transition::T1,
            Transition::T2,
            Transition::T3,
            Transition::T5,
            Transition::T2,
            Transition::T4
        ],
        "the consumer's life cycle must walk the Figure-1 model"
    );
}

/// Native components agree with their models on visible results.
#[test]
fn native_and_vm_return_same_values() {
    // VM result.
    let component = examples::producer_consumer();
    let mut vm = Vm::new(
        compile(&component).unwrap(),
        vec![
            ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("ab".into())])],
            },
            ThreadSpec {
                name: "c".into(),
                calls: vec![
                    CallSpec::new("receive", vec![]),
                    CallSpec::new("receive", vec![]),
                ],
            },
        ],
    );
    let out = vm.run(&RunConfig::default());
    let vm_chars: Vec<String> = out.results[1]
        .iter()
        .map(|r| match &r.returned {
            Some(Value::Str(s)) => s.to_string(),
            other => panic!("{other:?}"),
        })
        .collect();

    // Native result.
    let log = EventLog::new();
    let pc = ProducerConsumer::new(&log);
    pc.send("ab").unwrap();
    let native_chars = vec![
        pc.receive().unwrap().to_string(),
        pc.receive().unwrap().to_string(),
    ];
    assert_eq!(vm_chars, native_chars);
    assert_eq!(native_chars, vec!["a", "b"]);
}
