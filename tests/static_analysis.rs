//! Integration: the static Table-1 analyzer (`jcc-analyze`) end to end —
//! the zero-false-positive gate over the clean corpus, positive/negative
//! fixtures per failure class, mutant-seeded detection, and property
//! tests (no panics, byte-identical determinism) over the mutant corpus.

use std::collections::BTreeSet;

use proptest::prelude::*;

use jcc_core::analyze::{analyze, AnalysisReport, Severity};
use jcc_core::components::zoo::full_corpus;
use jcc_core::model::mutate::{all_mutants, MutationKind};
use jcc_core::model::{examples, parse_component, Component};

/// Check codes present in `report` at `min` severity or above.
fn codes(report: &AnalysisReport, min: Severity) -> BTreeSet<String> {
    report
        .at_least(min)
        .map(|d| d.check.code().to_string())
        .collect()
}

// ---------- the CI gate: no High diagnostics on correct code ----------

#[test]
fn clean_corpus_earns_zero_high_severity_diagnostics() {
    // The full corpus: the five seed monitors plus the component zoo.
    for (name, c) in full_corpus() {
        let report = analyze(&c);
        assert_eq!(
            report.count(Severity::High),
            0,
            "{name} (correct) got High diagnostics:\n{}",
            report.render()
        );
    }
}

// ---------- per-class fixtures: positive AND negative ----------

#[test]
fn lock_order_cycle_flags_cyclic_specimens_only() {
    // Positive: both deadlock specimens carry a cycle.
    let r = analyze(&examples::lock_order_deadlock());
    assert!(codes(&r, Severity::High).contains("lock-order-cycle"), "{}", r.render());
    assert!(r.classes(Severity::High).contains("FF-T2"));
    let r = analyze(&examples::dining_deadlock());
    assert!(codes(&r, Severity::High).contains("lock-order-cycle"), "{}", r.render());
    // Negative: the ordered variant acquires the same locks acyclically.
    let r = analyze(&examples::dining_ordered());
    assert!(!codes(&r, Severity::High).contains("lock-order-cycle"), "{}", r.render());
    assert_eq!(r.count(Severity::High), 0);
}

#[test]
fn unlocked_field_access_flags_the_racy_counter_only() {
    // Positive: increment touches `count` without the lock that get() uses.
    let r = analyze(&examples::racy_counter());
    assert!(codes(&r, Severity::High).contains("unlocked-field-access"), "{}", r.render());
    assert!(r.classes(Severity::High).contains("FF-T1"));
    // Negative: the same counter with both methods synchronized.
    let safe = parse_component(
        "class SafeCounter {
           int count = 0;
           synchronized void increment() { count = count + 1; }
           synchronized int get() { return count; }
         }",
    )
    .unwrap();
    let r = analyze(&safe);
    assert_eq!(r.count(Severity::High), 0, "{}", r.render());
}

#[test]
fn monitor_not_held_flags_unsynchronized_wait_only() {
    // Positive: wait without the monitor (validate() would reject this too;
    // the analyzer localizes it with a class and severity).
    let bad = parse_component("class W { void m() { wait(); } }").unwrap();
    let r = analyze(&bad);
    assert!(codes(&r, Severity::High).contains("monitor-not-held"), "{}", r.render());
    assert!(r.classes(Severity::High).contains("FF-T1"));
    // Negative: a disciplined guarded wait with a notifier.
    let good = parse_component(
        "class G {
           boolean ready = false;
           synchronized void consume() { while (!ready) { wait(); } ready = false; }
           synchronized void produce() { ready = true; notifyAll(); }
         }",
    )
    .unwrap();
    let r = analyze(&good);
    assert_eq!(r.count(Severity::High), 0, "{}", r.render());
}

#[test]
fn nested_monitor_wait_flags_wait_holding_a_second_lock() {
    // Positive: waits on `this` while still holding `a` — the classic
    // nested-monitor deadlock (FF-T2).
    let bad = parse_component(
        "class N {
           final Object a = new Object();
           boolean ready = false;
           synchronized void m() {
             synchronized (a) {
               while (!ready) { wait(); }
             }
           }
           synchronized void poke() { ready = true; notifyAll(); }
         }",
    )
    .unwrap();
    let r = analyze(&bad);
    assert!(codes(&r, Severity::High).contains("nested-monitor-wait"), "{}", r.render());
    assert!(r.classes(Severity::High).contains("FF-T2"));
    // Negative: the corpus never waits with an extra lock held.
    for (name, c) in examples::corpus() {
        let r = analyze(&c);
        assert!(!codes(&r, Severity::High).contains("nested-monitor-wait"), "{name}");
    }
}

#[test]
fn unconditional_wait_flags_bare_wait_only() {
    // Positive: a wait with no guard predicate at all (EF-T3).
    let bad = parse_component(
        "class U {
           synchronized void park() { wait(); }
           synchronized void poke() { notifyAll(); }
         }",
    )
    .unwrap();
    let r = analyze(&bad);
    assert!(codes(&r, Severity::High).contains("unconditional-wait"), "{}", r.render());
    assert!(r.classes(Severity::High).contains("EF-T3"));
    // Negative: every corpus wait re-checks a predicate.
    for (name, c) in examples::corpus() {
        let r = analyze(&c);
        assert!(!codes(&r, Severity::High).contains("unconditional-wait"), "{name}");
    }
}

#[test]
fn wait_not_in_loop_flags_if_guarded_wait_only() {
    // Positive: guarded, but by `if` — the post-wake re-check is missing
    // (EF-T5). Subsumption: NOT also reported as unconditional.
    let bad = parse_component(
        "class OneShot {
           boolean fired = false;
           synchronized void arm() { if (!fired) { wait(); } }
           synchronized void fire() { fired = true; notifyAll(); }
         }",
    )
    .unwrap();
    let r = analyze(&bad);
    let got = codes(&r, Severity::Medium);
    assert!(got.contains("wait-not-in-loop"), "{}", r.render());
    assert!(!got.contains("unconditional-wait"), "{}", r.render());
    assert!(r.classes(Severity::Medium).contains("EF-T5"));
    // Negative: while-guarded waits are fine.
    let r = analyze(&examples::producer_consumer());
    assert!(!codes(&r, Severity::Medium).contains("wait-not-in-loop"), "{}", r.render());
}

#[test]
fn no_notifier_for_wait_flags_orphaned_waiters_only() {
    // Positive: nothing in the component ever notifies the waited lock.
    let bad = parse_component(
        "class Orphan {
           boolean ready = false;
           synchronized void consume() { while (!ready) { wait(); } }
         }",
    )
    .unwrap();
    let r = analyze(&bad);
    assert!(codes(&r, Severity::High).contains("no-notifier-for-wait"), "{}", r.render());
    assert!(r.classes(Severity::High).contains("FF-T5"));
    // Negative: every corpus wait has a notifier on the same lock.
    for (name, c) in examples::corpus() {
        let r = analyze(&c);
        assert!(!codes(&r, Severity::High).contains("no-notifier-for-wait"), "{name}");
    }
}

// ---------- mutant-seeded detection: the check fires on the mutant,
// ---------- never on its correct parent ----------

/// For each corpus mutant of `kind`, assert the mutant's report contains a
/// (check, class, method) identity at >= Medium that the parent's lacks,
/// and that `expected_check` is among the new identities' checks.
fn assert_mutants_raise(kind: MutationKind, expected_check: &str) {
    let mut seen = 0;
    for (name, parent) in examples::corpus() {
        let parent_ids = analyze(&parent).identities(Severity::Medium);
        for (mutation, mutant) in all_mutants(&parent) {
            if mutation.kind != kind {
                continue;
            }
            seen += 1;
            let mutant_ids = analyze(&mutant).identities(Severity::Medium);
            let new: Vec<_> = mutant_ids.difference(&parent_ids).collect();
            assert!(
                new.iter().any(|(check, _, _)| check == expected_check),
                "{name} / {}: expected new `{expected_check}`, got {new:?}",
                mutation.label()
            );
        }
    }
    assert!(seen > 0, "no {kind:?} mutants in the corpus");
}

#[test]
fn spurious_wait_mutants_raise_unconditional_wait() {
    assert_mutants_raise(MutationKind::SpuriousWait, "unconditional-wait");
}

#[test]
fn if_instead_of_while_mutants_raise_wait_not_in_loop() {
    assert_mutants_raise(MutationKind::WaitIfInsteadOfWhile, "wait-not-in-loop");
}

#[test]
fn hold_lock_forever_mutants_raise_loop_holds_lock_forever() {
    assert_mutants_raise(MutationKind::HoldLockForever, "loop-holds-lock-forever");
}

#[test]
fn redundant_sync_mutants_raise_redundant_sync() {
    assert_mutants_raise(MutationKind::AddRedundantSync, "redundant-sync");
}

#[test]
fn early_return_mutants_raise_unreachable_after_return() {
    assert_mutants_raise(MutationKind::EarlyReturn, "unreachable-after-return");
}

#[test]
fn drop_notify_mutants_raise_an_ff_t5_check() {
    // The concrete check depends on whether the dropped notify was the
    // *only* notifier of its lock (no-notifier-for-wait) or one of several
    // (missed-notification); both carry FF-T5.
    for (name, parent) in examples::corpus() {
        let parent_ids = analyze(&parent).identities(Severity::Medium);
        for (mutation, mutant) in all_mutants(&parent) {
            if mutation.kind != MutationKind::DropNotify {
                continue;
            }
            let mutant_ids = analyze(&mutant).identities(Severity::Medium);
            let new: Vec<_> = mutant_ids.difference(&parent_ids).collect();
            assert!(
                new.iter().any(|(_, class, _)| class == "FF-T5"),
                "{name} / {}: expected a new FF-T5 diagnostic, got {new:?}",
                mutation.label()
            );
        }
    }
}

// ---------- zoo fixtures: mutant positive, clean parent negative ----------

fn zoo_component(name: &str) -> Component {
    full_corpus()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not in the corpus"))
        .1
}

/// For each mutant of `kind` seeded into the named zoo component, assert
/// the analyzer reports a new `(check, class, method)` identity whose
/// check is `expected_check` — and, as the negative, that the clean parent
/// earns zero High diagnostics.
fn assert_zoo_mutants_raise(name: &str, kind: MutationKind, expected_check: &str) {
    let parent = zoo_component(name);
    let parent_report = analyze(&parent);
    assert_eq!(
        parent_report.count(Severity::High),
        0,
        "{name} (correct) got High diagnostics:\n{}",
        parent_report.render()
    );
    let parent_ids = parent_report.identities(Severity::Medium);
    let mut seen = 0;
    for (mutation, mutant) in all_mutants(&parent) {
        if mutation.kind != kind {
            continue;
        }
        seen += 1;
        let mutant_ids = analyze(&mutant).identities(Severity::Medium);
        let new: Vec<_> = mutant_ids.difference(&parent_ids).collect();
        assert!(
            new.iter().any(|(check, _, _)| check == expected_check),
            "{name} / {}: expected new `{expected_check}`, got {new:?}",
            mutation.label()
        );
    }
    assert!(seen > 0, "no {kind:?} mutants on {name}");
}

#[test]
fn future_cell_spurious_wait_mutants_raise_unconditional_wait() {
    assert_zoo_mutants_raise("FutureCell", MutationKind::SpuriousWait, "unconditional-wait");
}

#[test]
fn thread_pool_if_guarded_wait_mutants_raise_wait_not_in_loop() {
    assert_zoo_mutants_raise(
        "ThreadPool",
        MutationKind::WaitIfInsteadOfWhile,
        "wait-not-in-loop",
    );
}

#[test]
fn bounded_stack_drop_notify_mutants_raise_an_ff_t5_check() {
    // Dropping one of BoundedStack's two broadcasts leaves the other, so
    // the analyzer reports missed-notification (or, were it the only
    // notifier, no-notifier-for-wait) — either way a new FF-T5 identity.
    let parent = zoo_component("BoundedStack");
    let parent_ids = analyze(&parent).identities(Severity::Medium);
    let mut seen = 0;
    for (mutation, mutant) in all_mutants(&parent) {
        if mutation.kind != MutationKind::DropNotify {
            continue;
        }
        seen += 1;
        let mutant_ids = analyze(&mutant).identities(Severity::Medium);
        let new: Vec<_> = mutant_ids.difference(&parent_ids).collect();
        assert!(
            new.iter().any(|(_, class, _)| class == "FF-T5"),
            "BoundedStack / {}: expected a new FF-T5 diagnostic, got {new:?}",
            mutation.label()
        );
    }
    assert!(seen > 0, "no DropNotify mutants on BoundedStack");
}

#[test]
fn exchanger_hold_lock_forever_mutants_raise_loop_holds_lock_forever() {
    assert_zoo_mutants_raise(
        "Exchanger",
        MutationKind::HoldLockForever,
        "loop-holds-lock-forever",
    );
}

// ---------- properties: no panics, deterministic output ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Analyzing any corpus component or any of its mutants never panics,
    /// and two runs over the same input render byte-identically (text and
    /// JSON both).
    #[test]
    fn analyzer_is_total_and_deterministic_over_mutants(
        component_index in 0usize..5,
        mutant_selector in 0usize..65,
    ) {
        let corpus = examples::corpus();
        let (_, parent) = &corpus[component_index];
        // Selector 0 analyzes the unmutated parent; anything else picks a
        // mutant (wrapping around the component's mutant count).
        let subject = if mutant_selector == 0 {
            parent.clone()
        } else {
            let mutants = all_mutants(parent);
            mutants[(mutant_selector - 1) % mutants.len()].1.clone()
        };
        let a = analyze(&subject);
        let b = analyze(&subject);
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(a.to_json_string(), b.to_json_string());
        // The JSON is schema-tagged and structurally parseable.
        let parsed = jcc_core::obs::json::Json::parse(&a.to_json_string()).unwrap();
        prop_assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some(jcc_core::analyze::SCHEMA)
        );
    }
}
