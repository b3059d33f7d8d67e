//! E6 — the completion-time oracle on native threads: seed Table-1 faults
//! into the Figure-2 monitor with the mutation operators, run the mutant
//! natively under a deterministic ConAn-style schedule, and show that
//! checking call completion times detects each fault and narrows it to the
//! classes the paper predicts.

use jcc_core::detect::completion::{
    check_completions, CallRecord, CompletionExpectation, Expectation,
};
use jcc_core::model::ast::Component;
use jcc_core::model::examples;
use jcc_core::model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
use jcc_core::runtime::exec::{run_clocked, Release};
use jcc_core::vm::{compile, CallSpec, Value};

fn run_schedule(component: &Component) -> Vec<CallRecord> {
    // The canonical deterministic test: a consumer that must block at t=1,
    // a producer that releases it at t=2, a second consumer at t=3 that
    // must block forever (only one character was sent).
    let receive = || CallSpec::new("receive", vec![]);
    let schedule = [
        Release::new("receive#1", 1, receive()),
        Release::new(
            "send(x)",
            2,
            CallSpec::new("send", vec![Value::Str("x".into())]),
        ),
        Release::new("receive#2", 3, receive()),
    ];
    run_clocked(&compile(component).expect("compiles"), &schedule)
        .expect("a small schedule")
        .records
}

fn expectations() -> Vec<Expectation> {
    vec![
        // The first receive completes exactly when the send wakes it.
        Expectation::new("receive#1", CompletionExpectation::At(2)),
        Expectation::new("send(x)", CompletionExpectation::At(2)),
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
            let candidates: Vec<&str> = v.candidate_classes().iter().map(|c| c.code()).collect();
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
