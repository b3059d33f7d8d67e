//! Guard-predicate analysis: linking every `wait` to the condition that
//! guards it and every `notify` to the waiters it must wake.
//!
//! A monitor's wait loop `while (pred) { wait(); }` re-checks `pred` after
//! each wake-up; the fields `pred` reads are the wait's *guard fields* —
//! the state another thread must change (and then notify) to release the
//! waiter. From that link the analysis flags:
//!
//! - waits whose monitor nothing ever notifies (FF-T5, structural);
//! - methods that change a waiter's guard fields without notifying its
//!   monitor — lost/missed-notification candidates (FF-T5, heuristic);
//! - single `notify` on a monitor whose waiters guard on *different*
//!   predicates, where the one wake-up can land on a waiter that cannot
//!   use it (FF-T5);
//! - waits not re-checked in a loop (EF-T5) and waits under no condition
//!   at all (EF-T3).

use std::collections::{BTreeMap, BTreeSet};

use jcc_model::ast::{Block, Component, Expr, LValue, Stmt, StmtPath, ELSE_OFFSET};
use jcc_model::pretty::print_expr;
use jcc_petri::{Deviation, FailureClass, Transition};

use crate::diag::{CheckId, Diagnostic, Severity};
use crate::locks::{LockId, LockTable};

fn class(d: Deviation, t: Transition) -> FailureClass {
    FailureClass::new(d, t)
}

/// One `wait` statement and its guarding context.
#[derive(Debug)]
struct WaitSite {
    method: String,
    path: StmtPath,
    lock: LockId,
    /// Canonical text of the nearest enclosing loop (else branch) condition;
    /// `None` for an unconditional wait.
    predicate: Option<String>,
    /// Fields the predicate reads.
    guard_fields: BTreeSet<String>,
    /// Whether some enclosing statement is a `while` loop.
    in_loop: bool,
}

/// One `notify`/`notifyAll` statement.
#[derive(Debug)]
struct NotifySite {
    method: String,
    path: StmtPath,
    lock: LockId,
    all: bool,
}

#[derive(Debug, Default)]
struct Collected {
    waits: Vec<WaitSite>,
    notifies: Vec<NotifySite>,
    /// Fields each method assigns (anywhere in its body).
    assigns: BTreeMap<String, BTreeSet<String>>,
}

fn expr_fields(expr: &Expr, out: &mut BTreeSet<String>) {
    match expr {
        Expr::Field(name) => {
            out.insert(name.clone());
        }
        Expr::Unary(_, a) => expr_fields(a, out),
        Expr::Binary(_, a, b) => {
            expr_fields(a, out);
            expr_fields(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_fields(a, out);
            }
        }
        _ => {}
    }
}

/// Guard entries are the enclosing `while`/`if` conditions, innermost last.
struct Guard<'a> {
    cond: &'a Expr,
    is_loop: bool,
}

fn collect_block<'a>(
    block: &'a Block,
    offset: usize,
    method: &str,
    table: &LockTable,
    prefix: &mut Vec<usize>,
    guards: &mut Vec<Guard<'a>>,
    out: &mut Collected,
) {
    for (i, stmt) in block.iter().enumerate() {
        prefix.push(offset + i);
        match stmt {
            Stmt::Wait { lock } => {
                if let Some(id) = table.resolve(lock) {
                    // The predicate is the nearest enclosing *loop*
                    // condition when one exists (the re-checked guard),
                    // otherwise the nearest `if` condition.
                    let guard = guards
                        .iter()
                        .rev()
                        .find(|g| g.is_loop)
                        .or_else(|| guards.last());
                    let mut guard_fields = BTreeSet::new();
                    if let Some(g) = guard {
                        expr_fields(g.cond, &mut guard_fields);
                    }
                    out.waits.push(WaitSite {
                        method: method.to_string(),
                        path: StmtPath(prefix.clone()),
                        lock: id,
                        predicate: guard.map(|g| print_expr(g.cond)),
                        guard_fields,
                        in_loop: guards.iter().any(|g| g.is_loop),
                    });
                }
            }
            Stmt::Notify { lock } | Stmt::NotifyAll { lock } => {
                if let Some(id) = table.resolve(lock) {
                    out.notifies.push(NotifySite {
                        method: method.to_string(),
                        path: StmtPath(prefix.clone()),
                        lock: id,
                        all: matches!(stmt, Stmt::NotifyAll { .. }),
                    });
                }
            }
            Stmt::Assign {
                target: LValue::Field(f),
                ..
            } => {
                out.assigns
                    .entry(method.to_string())
                    .or_default()
                    .insert(f.clone());
            }
            Stmt::While { cond, body } => {
                guards.push(Guard { cond, is_loop: true });
                collect_block(body, 0, method, table, prefix, guards, out);
                guards.pop();
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                guards.push(Guard {
                    cond,
                    is_loop: false,
                });
                collect_block(then_branch, 0, method, table, prefix, guards, out);
                collect_block(else_branch, ELSE_OFFSET, method, table, prefix, guards, out);
                guards.pop();
            }
            Stmt::Synchronized { body, .. } => {
                collect_block(body, 0, method, table, prefix, guards, out);
            }
            _ => {}
        }
        prefix.pop();
    }
}

fn collect(component: &Component, table: &LockTable) -> Collected {
    let mut out = Collected::default();
    for method in &component.methods {
        let mut prefix = Vec::new();
        let mut guards = Vec::new();
        collect_block(
            &method.body,
            0,
            &method.name,
            table,
            &mut prefix,
            &mut guards,
            &mut out,
        );
    }
    out
}

/// Run the guard-predicate checks over the component.
pub fn run(component: &Component, table: &LockTable, out: &mut Vec<Diagnostic>) {
    let _span = jcc_obs::span!("analyze.guards");
    let info = collect(component, table);

    // Which monitors have any notifier, deduped through the lock table
    // (a BTreeSet of dense ids — two spellings of the same monitor
    // collapse, distinct monitors with equal display names do not).
    let notified: BTreeSet<LockId> = info.notifies.iter().map(|n| n.lock).collect();

    // Guard fields / distinct predicates per monitor.
    let mut guard_fields_by_lock: BTreeMap<LockId, BTreeSet<String>> = BTreeMap::new();
    let mut predicates_by_lock: BTreeMap<LockId, BTreeSet<String>> = BTreeMap::new();
    for w in &info.waits {
        guard_fields_by_lock
            .entry(w.lock)
            .or_default()
            .extend(w.guard_fields.iter().cloned());
        predicates_by_lock.entry(w.lock).or_default().insert(
            w.predicate
                .clone()
                .unwrap_or_else(|| "<unconditional>".to_string()),
        );
    }

    for w in &info.waits {
        // FF-T5 structural: a wait nothing can ever wake.
        if !notified.contains(&w.lock) {
            out.push(Diagnostic {
                check: CheckId::NoNotifierForWait,
                class: class(Deviation::FailureToFire, Transition::T5),
                severity: Severity::High,
                src: None,
                method: w.method.clone(),
                path: Some(w.path.clone()),
                message: format!(
                    "`wait` on `{}` but no statement in the component ever \
                     notifies that monitor — every waiter is suspended forever",
                    table.name(w.lock)
                ),
            });
        }
        // EF-T3 / EF-T5: unguarded or un-re-checked waits. An
        // unconditional wait subsumes the weaker wait-not-in-loop finding
        // for the same statement.
        if w.predicate.is_none() {
            out.push(Diagnostic {
                check: CheckId::UnconditionalWait,
                class: class(Deviation::ErroneousFiring, Transition::T3),
                severity: Severity::High,
                src: None,
                method: w.method.clone(),
                path: Some(w.path.clone()),
                message: "`wait` under no condition at all: the thread suspends \
                          regardless of the component's state"
                    .into(),
            });
        } else if !w.in_loop {
            out.push(Diagnostic {
                check: CheckId::WaitNotInLoop,
                class: class(Deviation::ErroneousFiring, Transition::T5),
                severity: Severity::Medium,
                src: None,
                method: w.method.clone(),
                path: Some(w.path.clone()),
                message: format!(
                    "`wait` guarded by `if ({})` is not re-checked in a loop: a \
                     premature wake-up re-enters the critical section with the \
                     predicate still false",
                    w.predicate.as_deref().unwrap_or("?")
                ),
            });
        }
    }

    // FF-T5 heuristic: a method moves a waiter's guard state but never
    // notifies the waiter's monitor. Skipped when the monitor has no
    // notifier at all (the structural check above already fires).
    for method in &component.methods {
        let Some(assigned) = info.assigns.get(&method.name) else {
            continue;
        };
        let notifies_here: BTreeSet<LockId> = info
            .notifies
            .iter()
            .filter(|n| n.method == method.name)
            .map(|n| n.lock)
            .collect();
        for (&lock, guard_fields) in &guard_fields_by_lock {
            if !notified.contains(&lock) || notifies_here.contains(&lock) {
                continue;
            }
            let touched: Vec<&str> = assigned
                .intersection(guard_fields)
                .map(String::as_str)
                .collect();
            if !touched.is_empty() {
                out.push(Diagnostic {
                    check: CheckId::MissedNotification,
                    class: class(Deviation::FailureToFire, Transition::T5),
                    severity: Severity::Medium,
                    src: None,
                    method: method.name.clone(),
                    path: None,
                    message: format!(
                        "assigns `{}` — guard state of waiters on `{}` — without \
                         notifying that monitor: a waiter whose predicate just \
                         became true is never woken",
                        touched.join("`, `"),
                        table.name(lock)
                    ),
                });
            }
        }
    }

    // FF-T5: single notify with heterogeneous waiters; advisory style note
    // when the waiters are uniform.
    for n in info.notifies.iter().filter(|n| !n.all) {
        let Some(predicates) = predicates_by_lock.get(&n.lock) else {
            continue; // no waiters on this monitor
        };
        if predicates.len() >= 2 {
            let preds: Vec<&str> = predicates.iter().map(String::as_str).collect();
            out.push(Diagnostic {
                check: CheckId::NotifySingleHeterogeneous,
                class: class(Deviation::FailureToFire, Transition::T5),
                severity: Severity::Medium,
                src: None,
                method: n.method.clone(),
                path: Some(n.path.clone()),
                message: format!(
                    "single `notify` on `{}` whose waiters guard on different \
                     predicates ({}): the one wake-up can be consumed by a \
                     waiter that cannot proceed, losing the notification",
                    table.name(n.lock),
                    preds.join("; ")
                ),
            });
        } else {
            out.push(Diagnostic {
                check: CheckId::NotifyInsteadOfNotifyAllStyle,
                class: class(Deviation::FailureToFire, Transition::T5),
                severity: Severity::Low,
                src: None,
                method: n.method.clone(),
                path: Some(n.path.clone()),
                message: format!(
                    "single `notify` on `{}`: waiters are uniform today, but \
                     `notifyAll` is robust to future waiter diversity",
                    table.name(n.lock)
                ),
            });
        }
    }

    // EF-T1 candidate (migrated lint): a synchronized method that neither
    // uses the monitor nor touches shared state.
    for method in &component.methods {
        if !method.synchronized {
            continue;
        }
        let uses_monitor = info
            .waits
            .iter()
            .any(|w| w.method == method.name)
            || info.notifies.iter().any(|n| n.method == method.name);
        let touches_shared = info.assigns.contains_key(&method.name)
            || method_reads_fields(method);
        if !uses_monitor && !touches_shared {
            out.push(Diagnostic {
                check: CheckId::PossiblyUnnecessarySync,
                class: class(Deviation::ErroneousFiring, Transition::T1),
                severity: Severity::Low,
                src: None,
                method: method.name.clone(),
                path: None,
                message: "synchronized method neither waits, notifies, nor touches \
                          a shared field — the monitor may be unnecessary"
                    .into(),
            });
        }
    }
}

fn method_reads_fields(method: &jcc_model::ast::Method) -> bool {
    fn block_reads(block: &Block) -> bool {
        block.iter().any(|stmt| match stmt {
            Stmt::While { cond, body } => reads(cond) || block_reads(body),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => reads(cond) || block_reads(then_branch) || block_reads(else_branch),
            Stmt::Assign { value, .. } => reads(value),
            Stmt::Local { init, .. } => reads(init),
            Stmt::Return(Some(e)) => reads(e),
            Stmt::Synchronized { body, .. } => block_reads(body),
            _ => false,
        })
    }
    fn reads(e: &Expr) -> bool {
        let mut fields = BTreeSet::new();
        expr_fields(e, &mut fields);
        !fields.is_empty()
    }
    block_reads(&method.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples;
    use jcc_model::parse_component;

    fn analyze_src(src: &str) -> Vec<Diagnostic> {
        let c = parse_component(src).expect("fixture parses");
        let table = LockTable::new(&c);
        let mut out = Vec::new();
        run(&c, &table, &mut out);
        out
    }

    fn run_on(c: &Component) -> Vec<Diagnostic> {
        let table = LockTable::new(c);
        let mut out = Vec::new();
        run(c, &table, &mut out);
        out
    }

    fn has(diags: &[Diagnostic], check: CheckId) -> bool {
        diags.iter().any(|d| d.check == check)
    }

    #[test]
    fn no_notifier_fires_per_wait_and_respects_lock_identity() {
        let d = analyze_src(
            "class X { int v = 0;
               synchronized void m() { while (v == 0) { wait(); } } }",
        );
        assert!(has(&d, CheckId::NoNotifierForWait));

        // The notifier is on a *different* monitor than the wait: a name
        // comparison would miss this, the lock table does not.
        let d = analyze_src(
            "class X { final Object a = new Object(); int v = 0;
               synchronized void m() { while (v == 0) { wait(); } }
               void k() { synchronized (a) { a.notifyAll(); } } }",
        );
        assert!(has(&d, CheckId::NoNotifierForWait));

        // Same monitor: no finding.
        let d = analyze_src(
            "class X { int v = 0;
               synchronized void m() { while (v == 0) { wait(); } }
               synchronized void k() { v = 1; notifyAll(); } }",
        );
        assert!(!has(&d, CheckId::NoNotifierForWait));
    }

    #[test]
    fn wait_not_in_loop_vs_unconditional() {
        let d = analyze_src(
            "class X { boolean go = false;
               synchronized void m() { if (!go) { wait(); } notifyAll(); } }",
        );
        assert!(has(&d, CheckId::WaitNotInLoop));
        assert!(!has(&d, CheckId::UnconditionalWait));

        let d = analyze_src(
            "class X { boolean go = false;
               synchronized void m() { wait(); notifyAll(); } }",
        );
        assert!(has(&d, CheckId::UnconditionalWait));
        assert!(
            !has(&d, CheckId::WaitNotInLoop),
            "unconditional-wait subsumes wait-not-in-loop"
        );

        // A wait inside if inside while is re-checked: neither fires.
        let d = analyze_src(
            "class X { int v = 0;
               synchronized void m() { while (v == 0) { if (v == 0) { wait(); } } notifyAll(); } }",
        );
        assert!(!has(&d, CheckId::WaitNotInLoop));
        assert!(!has(&d, CheckId::UnconditionalWait));
    }

    #[test]
    fn missed_notification_fires_when_guard_field_assigned_without_notify() {
        // k assigns v (the guard field of m's wait) and never notifies,
        // while another notifier exists (so the structural check is quiet).
        let d = analyze_src(
            "class X { int v = 0;
               synchronized void m() { while (v == 0) { wait(); } }
               synchronized void k() { v = 1; }
               synchronized void init() { v = 0; notifyAll(); } }",
        );
        let hits: Vec<_> = d
            .iter()
            .filter(|x| x.check == CheckId::MissedNotification)
            .collect();
        assert!(hits.iter().any(|x| x.method == "k"), "{hits:?}");
    }

    #[test]
    fn missed_notification_quiet_on_producer_consumer() {
        let d = run_on(&examples::producer_consumer());
        assert!(!has(&d, CheckId::MissedNotification), "{d:?}");
    }

    #[test]
    fn semaphore_acquire_is_the_known_benign_medium() {
        // Semaphore.acquire consumes a permit (assigning the guard field)
        // without notifying — correct for a semaphore, but statically
        // indistinguishable from a dropped notify. Documented benign
        // Medium; must never be High.
        let d = run_on(&examples::semaphore());
        let hits: Vec<_> = d
            .iter()
            .filter(|x| x.check == CheckId::MissedNotification)
            .collect();
        assert!(hits.iter().any(|x| x.method == "acquire"), "{hits:?}");
        assert!(hits.iter().all(|x| x.severity == Severity::Medium));
    }

    #[test]
    fn heterogeneous_notify_fires_on_producer_consumer_mutant() {
        use jcc_model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
        let c = examples::producer_consumer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::NotifyInsteadOfNotifyAll && m.method == "receive")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let d = run_on(&mutant);
        let hit = d
            .iter()
            .find(|x| x.check == CheckId::NotifySingleHeterogeneous)
            .expect("heterogeneous waiters flagged");
        assert_eq!(hit.severity, Severity::Medium);
        assert!(hit.message.contains("curPos == 0"), "{}", hit.message);
        assert!(hit.message.contains("curPos > 0"), "{}", hit.message);
    }

    #[test]
    fn homogeneous_notify_is_only_a_style_note() {
        use jcc_model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
        let c = examples::semaphore();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::NotifyInsteadOfNotifyAll)
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let d = run_on(&mutant);
        assert!(!has(&d, CheckId::NotifySingleHeterogeneous));
        let hit = d
            .iter()
            .find(|x| x.check == CheckId::NotifyInsteadOfNotifyAllStyle)
            .expect("style note present");
        assert_eq!(hit.severity, Severity::Low);
    }

    #[test]
    fn possibly_unnecessary_sync_is_low_and_quiet_on_corpus() {
        let d = analyze_src(
            "class X { synchronized int m(int v) { return v + 1; } }",
        );
        let hit = d
            .iter()
            .find(|x| x.check == CheckId::PossiblyUnnecessarySync)
            .expect("lint fires");
        assert_eq!(hit.severity, Severity::Low);
        for (name, c) in examples::corpus() {
            let d = run_on(&c);
            assert!(!has(&d, CheckId::PossiblyUnnecessarySync), "{name}: {d:?}");
        }
    }

    #[test]
    fn drop_notify_mutants_are_flagged_across_the_corpus() {
        use jcc_model::mutate::{all_mutants, MutationKind};
        for (name, c) in examples::corpus() {
            for (m, mutant) in all_mutants(&c) {
                if m.kind != MutationKind::DropNotify {
                    continue;
                }
                let d = run_on(&mutant);
                let parent = run_on(&c);
                let fresh_ff_t5 = d
                    .iter()
                    .filter(|x| x.class.code() == "FF-T5" && x.severity >= Severity::Medium)
                    .count()
                    > parent
                        .iter()
                        .filter(|x| x.class.code() == "FF-T5" && x.severity >= Severity::Medium)
                        .count();
                assert!(fresh_ff_t5, "{name} {} not flagged", m.label());
            }
        }
    }
}
