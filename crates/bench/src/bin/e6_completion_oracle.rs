//! E6 — the completion-time oracle on native threads: seed Table-1 faults
//! into the Figure-2 monitor with the mutation operators, run the mutant
//! natively under a deterministic ConAn-style schedule, and show that
//! checking call completion times detects each fault and narrows it to the
//! classes the paper predicts.

use std::sync::Arc;

use jcc_core::clock::{CallRecord, Schedule, TestDriver};
use jcc_core::detect::completion::{check_completions, CompletionExpectation, Expectation};
use jcc_core::model::ast::Component;
use jcc_core::model::examples;
use jcc_core::model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
use jcc_core::runtime::{EventLog, NativeComponent};
use jcc_core::vm::{compile, Value};

fn run_schedule(component: &Component) -> Vec<CallRecord> {
    let log = EventLog::new();
    let pc = Arc::new(NativeComponent::new(
        compile(component).expect("compiles"),
        &log,
    ));
    let call = |method: &'static str, args: Vec<Value>| {
        let pc = Arc::clone(&pc);
        move |_: &_| drop(pc.call(method, &args))
    };
    // The canonical deterministic test: a consumer that must block at t=1,
    // a producer that releases it at t=2, a second consumer at t=3 that
    // must block forever (only one character was sent).
    let schedule = Schedule::new()
        .call("receive#1", 1, call("receive", vec![]))
        .call("send(x)", 2, call("send", vec![Value::Str("x".into())]))
        .call("receive#2", 3, call("receive", vec![]));
    TestDriver::new().run(schedule).0
}

fn expectations() -> Vec<Expectation> {
    vec![
        // The first receive completes exactly when the send wakes it.
        Expectation::new("receive#1", CompletionExpectation::Between(2, 3)),
        Expectation::new("send(x)", CompletionExpectation::Between(2, 3)),
        // The second receive must stay suspended.
        Expectation::new("receive#2", CompletionExpectation::Never),
    ]
}

fn main() {
    let mut reporter = jcc_core::obs::BenchReporter::init("e6_completion_oracle");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }
    say!("=== E6: the completion-time oracle (ConAn technique) ===\n");
    let correct = examples::producer_consumer();
    let seeded = [
        (MutationKind::DropNotify, "send"),
        (MutationKind::SpuriousWait, "send"),
        (MutationKind::NegateWaitCondition, "receive"),
    ];
    let mut cases = vec![("correct component".to_string(), correct.clone(), None)];
    for (kind, method) in seeded {
        let mutation = enumerate_mutations(&correct)
            .into_iter()
            .find(|m| m.kind == kind && m.method == method)
            .expect("the operator applies to Figure 2");
        let mutant = apply_mutation(&correct, &mutation).expect("a valid mutant");
        cases.push((mutation.label(), mutant, Some(kind)));
    }

    let mut faults_flagged = 0usize;
    for (label, component, kind) in cases {
        say!("--- {label} ---");
        let records = run_schedule(&component);
        for r in &records {
            say!(
                "  {} released t={} completed {:?}",
                r.label,
                r.released_at,
                r.completed_at
            );
        }
        let violations = check_completions(&records, &expectations());
        let Some(kind) = kind else {
            assert!(
                violations.is_empty(),
                "the correct component fails: {violations:?}"
            );
            say!("  oracle: PASS (all completion times as expected)\n");
            continue;
        };
        assert!(!violations.is_empty(), "{label}: the fault went unnoticed");
        faults_flagged += 1;
        for v in &violations {
            let candidates: Vec<String> = v.candidate_classes().iter().map(|c| c.code()).collect();
            say!(
                "  oracle: FAIL on {} — {:?}; candidate classes: {}",
                v.label,
                v.deviation,
                candidates.join(", ")
            );
        }
        let class = kind.seeded_class();
        assert!(
            violations
                .iter()
                .any(|v| v.candidate_classes().contains(&class)),
            "{label}: the seeded {} is in no violation's candidate set",
            class.code()
        );
        say!("  seeded class: {}\n", class.code());
    }
    assert_eq!(faults_flagged, 3, "every seeded fault is flagged");
    reporter.set_derived("faults_flagged", faults_flagged as f64);
    reporter.finish();
}
