//! Checks powered by the locks-held dataflow: monitor discipline, field
//! protection, redundant regions, spin loops and dead code.

use std::collections::BTreeSet;

use jcc_model::ast::{visit_stmts, Block, Component, Expr, LValue, Stmt, StmtPath};
use jcc_petri::{Deviation, FailureClass, Transition};

use crate::dataflow::walk_method;
use crate::diag::{CheckId, Diagnostic, Severity};
use crate::locks::LockTable;

fn class(d: Deviation, t: Transition) -> FailureClass {
    FailureClass::new(d, t)
}

/// Fields an expression reads.
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

/// Locals an expression reads.
fn expr_vars(expr: &Expr, out: &mut BTreeSet<String>) {
    match expr {
        Expr::Var(name) => {
            out.insert(name.clone());
        }
        Expr::Unary(_, a) => expr_vars(a, out),
        Expr::Binary(_, a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_vars(a, out);
            }
        }
        _ => {}
    }
}

/// The field accesses a single statement performs *itself* (its own
/// expressions — not those of statements nested inside its blocks, which
/// get their own flow events). Returns (reads, writes).
fn stmt_field_accesses(stmt: &Stmt) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    match stmt {
        Stmt::While { cond, .. } | Stmt::If { cond, .. } => expr_fields(cond, &mut reads),
        Stmt::Assign { target, value } => {
            expr_fields(value, &mut reads);
            if let LValue::Field(name) = target {
                writes.insert(name.clone());
            }
        }
        Stmt::Local { init, .. } => expr_fields(init, &mut reads),
        Stmt::Return(Some(e)) => expr_fields(e, &mut reads),
        _ => {}
    }
    (reads, writes)
}

/// A loop body "makes progress" towards changing `cond` if it contains a
/// `wait` (suspending is progress: another thread runs), a `return`, or an
/// assignment to any field/local the condition reads.
fn loop_can_make_progress(cond: &Expr, body: &Block) -> bool {
    let mut cond_fields = BTreeSet::new();
    let mut cond_vars = BTreeSet::new();
    expr_fields(cond, &mut cond_fields);
    expr_vars(cond, &mut cond_vars);
    let mut progress = false;
    visit_stmts(body, &mut |s| match s {
        Stmt::Wait { .. } | Stmt::Return(_) => progress = true,
        Stmt::Assign { target, .. } => match target {
            LValue::Field(f) if cond_fields.contains(f) => progress = true,
            LValue::Local(v) if cond_vars.contains(v) => progress = true,
            _ => {}
        },
        _ => {}
    });
    progress
}

/// Run every dataflow-backed check over the component.
pub fn run(component: &Component, table: &LockTable, out: &mut Vec<Diagnostic>) {
    let _span = jcc_obs::span!("analyze.dataflow");

    // Pass 1: which fields are ever accessed under a lock / with none held
    // (for the protected-field interference check).
    let mut locked_fields: BTreeSet<String> = BTreeSet::new();
    let mut unlocked: Vec<(String, StmtPath, String, bool)> = Vec::new(); // (method, path, field, is_write)
    for method in &component.methods {
        walk_method(table, method, |ev| {
            let (reads, writes) = stmt_field_accesses(ev.stmt);
            if ev.locks.any_held() {
                locked_fields.extend(reads);
                locked_fields.extend(writes);
            } else {
                for f in reads {
                    unlocked.push((method.name.clone(), ev.path.clone(), f, false));
                }
                for f in writes {
                    unlocked.push((method.name.clone(), ev.path.clone(), f, true));
                }
            }
        });
    }
    for (method, path, field, is_write) in unlocked {
        if locked_fields.contains(&field) {
            let kind = if is_write { "written" } else { "read" };
            out.push(Diagnostic {
                check: CheckId::UnlockedFieldAccess,
                class: class(Deviation::FailureToFire, Transition::T1),
                severity: if is_write { Severity::High } else { Severity::Medium },
                src: None,
                method,
                path: Some(path),
                message: format!(
                    "field `{field}` is {kind} with no lock held, but is \
                     protected by a monitor elsewhere in the component"
                ),
            });
        }
    }

    // Pass 2: per-statement monitor-discipline, spin-loop and dead-code
    // checks.
    for method in &component.methods {
        // (first-dead-stmt anchors, any unreachable notify?) per method.
        let mut dead_anchors: Vec<StmtPath> = Vec::new();
        let mut dead_notify = false;
        walk_method(table, method, |ev| {
            if !ev.reachable {
                // Loop-caused dead code is the non-terminating loop's
                // fault, and that loop already gets its own FF-T4
                // diagnostic — don't pile dead-code reports on top.
                if !ev.dead_by_loop {
                    if ev.first_unreachable {
                        dead_anchors.push(ev.path.clone());
                    }
                    if matches!(ev.stmt, Stmt::Notify { .. } | Stmt::NotifyAll { .. }) {
                        dead_notify = true;
                    }
                }
                return; // discipline checks only apply to live code
            }
            match ev.stmt {
                Stmt::Wait { lock } | Stmt::Notify { lock } | Stmt::NotifyAll { lock } => {
                    let op = match ev.stmt {
                        Stmt::Wait { .. } => "wait",
                        Stmt::Notify { .. } => "notify",
                        _ => "notifyAll",
                    };
                    let id = table.resolve(lock);
                    match id {
                        Some(id) if ev.locks.holds(id) => {}
                        _ => out.push(Diagnostic {
                            check: CheckId::MonitorNotHeld,
                            class: class(Deviation::FailureToFire, Transition::T1),
                            severity: Severity::High,
                            src: None,
                            method: method.name.clone(),
                            path: Some(ev.path.clone()),
                            message: format!(
                                "`{op}` on `{lock}` without holding its monitor \
                                 (IllegalMonitorStateException at run time)"
                            ),
                        }),
                    }
                    // Nested-monitor lockout: suspending while holding a
                    // second lock means nothing can reach the notifier.
                    if matches!(ev.stmt, Stmt::Wait { .. }) {
                        let others: Vec<&str> = ev
                            .locks
                            .held_ids()
                            .filter(|h| Some(*h) != id)
                            .map(|h| table.name(h))
                            .collect();
                        if !others.is_empty() {
                            out.push(Diagnostic {
                                check: CheckId::NestedMonitorWait,
                                class: class(Deviation::FailureToFire, Transition::T2),
                                severity: Severity::High,
                                src: None,
                                method: method.name.clone(),
                                path: Some(ev.path.clone()),
                                message: format!(
                                    "`wait` on `{lock}` while still holding `{}` — \
                                     a nested-monitor lockout: waiters keep the outer \
                                     lock, so the notifier can never run",
                                    others.join("`, `")
                                ),
                            });
                        }
                    }
                }
                Stmt::Synchronized { lock, .. } => {
                    if let Some(id) = table.resolve(lock) {
                        if ev.locks.holds(id) {
                            out.push(Diagnostic {
                                check: CheckId::RedundantSync,
                                class: class(Deviation::ErroneousFiring, Transition::T1),
                                severity: Severity::Medium,
                                src: None,
                                method: method.name.clone(),
                                path: Some(ev.path.clone()),
                                message: format!(
                                    "`synchronized ({lock})` while `{}` is already \
                                     held — reentrancy makes this a redundant region",
                                    table.name(id)
                                ),
                            });
                        }
                    }
                }
                Stmt::While { cond, body } if !loop_can_make_progress(cond, body) => {
                    let literal_spin = matches!(cond, Expr::Bool(true));
                    let held: Vec<&str> = ev.locks.held_ids().map(|h| table.name(h)).collect();
                    if !literal_spin {
                        out.push(Diagnostic {
                            check: CheckId::GuardLoopWithoutWait,
                            class: class(Deviation::FailureToFire, Transition::T3),
                            severity: Severity::Medium,
                            src: None,
                            method: method.name.clone(),
                            path: Some(ev.path.clone()),
                            message: "guard loop never waits: the body neither \
                                      suspends nor changes anything the condition \
                                      reads"
                                .into(),
                        });
                    }
                    if held.is_empty() {
                        if literal_spin {
                            out.push(Diagnostic {
                                check: CheckId::LoopHoldsLockForever,
                                class: class(Deviation::FailureToFire, Transition::T4),
                                severity: Severity::Medium,
                                src: None,
                                method: method.name.clone(),
                                path: Some(ev.path.clone()),
                                message: "`while (true)` with no `wait` or `return` \
                                          in the body never terminates"
                                    .into(),
                            });
                        }
                    } else {
                        out.push(Diagnostic {
                            check: CheckId::LoopHoldsLockForever,
                            class: class(Deviation::FailureToFire, Transition::T4),
                            severity: Severity::High,
                            src: None,
                            method: method.name.clone(),
                            path: Some(ev.path.clone()),
                            message: format!(
                                "loop can never terminate while holding `{}`: the \
                                 body neither waits nor changes the condition, and \
                                 no other thread can enter the monitor to do so",
                                held.join("`, `")
                            ),
                        });
                    }
                }
                _ => {}
            }
        });
        for anchor in dead_anchors {
            if dead_notify {
                out.push(Diagnostic {
                    check: CheckId::UnreachableAfterReturn,
                    class: class(Deviation::ErroneousFiring, Transition::T4),
                    severity: Severity::High,
                    src: None,
                    method: method.name.clone(),
                    path: Some(anchor.clone()),
                    message: "unreachable code after `return` includes a notification: \
                              the monitor is released before waiters can ever be woken"
                        .into(),
                });
                out.push(Diagnostic {
                    check: CheckId::UnreachableAfterReturn,
                    class: class(Deviation::FailureToFire, Transition::T5),
                    severity: Severity::Medium,
                    src: None,
                    method: method.name.clone(),
                    path: Some(anchor),
                    message: "a notification that can never execute is a lost \
                              notification for every waiter depending on it"
                        .into(),
                });
            } else {
                out.push(Diagnostic {
                    check: CheckId::UnreachableAfterReturn,
                    class: class(Deviation::ErroneousFiring, Transition::T4),
                    severity: Severity::Low,
                    src: None,
                    method: method.name.clone(),
                    path: Some(anchor),
                    message: "statements after an unconditional `return` can never \
                              execute"
                        .into(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::parser::parse_component;

    fn analyze_src(src: &str) -> Vec<Diagnostic> {
        let c = parse_component(src).expect("fixture parses");
        let table = LockTable::new(&c);
        let mut out = Vec::new();
        run(&c, &table, &mut out);
        out
    }

    fn has(diags: &[Diagnostic], check: CheckId) -> bool {
        diags.iter().any(|d| d.check == check)
    }

    #[test]
    fn monitor_not_held_fires_on_unsynchronized_wait() {
        let d = analyze_src("class X { var v: int = 0; fn m() { wait; } }");
        assert!(has(&d, CheckId::MonitorNotHeld));
        assert!(d.iter().all(|x| x.class.code() != "FF-T2"));
    }

    #[test]
    fn monitor_not_held_quiet_on_synchronized_method() {
        let d = analyze_src(
            "class X { var v: int = 0; synchronized fn m() { while (v == 0) { wait; } notifyAll; } }",
        );
        assert!(!has(&d, CheckId::MonitorNotHeld));
    }

    #[test]
    fn nested_monitor_wait_fires_only_for_second_lock() {
        let d = analyze_src(
            "class X { lock a; synchronized fn m() { synchronized (a) { wait; } } }",
        );
        assert!(has(&d, CheckId::NestedMonitorWait));
        // Reentrant same-lock nesting is not a nested-monitor wait.
        let d = analyze_src(
            "class X { synchronized fn m() { synchronized (this) { wait; } } }",
        );
        assert!(!has(&d, CheckId::NestedMonitorWait));
        assert!(has(&d, CheckId::RedundantSync));
    }

    #[test]
    fn unlocked_field_access_fires_on_racy_writer_not_on_clean_monitor() {
        let d = analyze_src(
            "class X { var count: int = 0;
               fn inc() { let t: int = count; count = t + 1; }
               synchronized fn get() -> int { return count; } }",
        );
        let hits: Vec<_> = d
            .iter()
            .filter(|x| x.check == CheckId::UnlockedFieldAccess)
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|x| x.severity == Severity::High));
        assert!(hits.iter().any(|x| x.severity == Severity::Medium));

        let d = analyze_src(
            "class X { var v: int = 0; synchronized fn m() { v = v + 1; } }",
        );
        assert!(!has(&d, CheckId::UnlockedFieldAccess));
    }

    #[test]
    fn unprotected_everywhere_field_is_not_reported() {
        // A field never accessed under any lock has no protection protocol
        // to violate — not this check's business.
        let d = analyze_src("class X { var v: int = 0; fn m() { v = 1; } }");
        assert!(!has(&d, CheckId::UnlockedFieldAccess));
    }

    #[test]
    fn spin_loop_holding_lock_is_high() {
        let d = analyze_src(
            "class X { var v: int = 0; synchronized fn m() { while (true) { skip; } v = 1; } }",
        );
        let hit = d
            .iter()
            .find(|x| x.check == CheckId::LoopHoldsLockForever)
            .expect("spin loop flagged");
        assert_eq!(hit.severity, Severity::High);
        assert_eq!(hit.class.code(), "FF-T4");
    }

    #[test]
    fn guard_loop_without_wait_fires_when_body_cannot_progress() {
        let d = analyze_src(
            "class X { var v: int = 0; synchronized fn m() { while (v == 0) { skip; } } }",
        );
        assert!(has(&d, CheckId::GuardLoopWithoutWait));
        assert!(has(&d, CheckId::LoopHoldsLockForever));

        // A wait in the body is progress.
        let d = analyze_src(
            "class X { var v: int = 0; synchronized fn m() { while (v == 0) { wait; } } }",
        );
        assert!(!has(&d, CheckId::GuardLoopWithoutWait));
        assert!(!has(&d, CheckId::LoopHoldsLockForever));

        // Assigning a condition variable is progress.
        let d = analyze_src(
            "class X { synchronized fn m() { let i: int = 0; while (i < 3) { i = i + 1; } } }",
        );
        assert!(!has(&d, CheckId::GuardLoopWithoutWait));
    }

    #[test]
    fn dead_notify_after_return_is_high_with_lost_notification() {
        let d = analyze_src(
            "class X { var v: int = 0;
               synchronized fn m() { v = 1; return; notifyAll; } }",
        );
        let hits: Vec<_> = d
            .iter()
            .filter(|x| x.check == CheckId::UnreachableAfterReturn)
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|x| x.severity == Severity::High
            && x.class.code() == "EF-T4"));
        assert!(hits.iter().any(|x| x.severity == Severity::Medium
            && x.class.code() == "FF-T5"));
    }

    #[test]
    fn loop_caused_dead_code_is_the_loops_fault_alone() {
        // The never-terminating loop gets FF-T4; the statements it makes
        // unreachable (including a notifyAll) must NOT also earn
        // dead-code/lost-notification diagnostics.
        let d = analyze_src(
            "class X { var v: int = 0;
               synchronized fn m() { while (true) { skip; } v = 1; notifyAll; } }",
        );
        assert!(has(&d, CheckId::LoopHoldsLockForever));
        assert!(!has(&d, CheckId::UnreachableAfterReturn), "{d:?}");
    }

    #[test]
    fn plain_dead_code_is_low() {
        let d = analyze_src("class X { fn m() { return; skip; } }");
        let hit = d
            .iter()
            .find(|x| x.check == CheckId::UnreachableAfterReturn)
            .expect("dead code flagged");
        assert_eq!(hit.severity, Severity::Low);
    }

    #[test]
    fn redundant_sync_on_aux_lock() {
        let d = analyze_src(
            "class X { lock a; var v: int = 0;
               fn m() { synchronized (a) { synchronized (a) { v = 1; } } } }",
        );
        assert!(has(&d, CheckId::RedundantSync));
        // Different locks nested is not redundant.
        let d = analyze_src(
            "class X { lock a; lock b; var v: int = 0;
               fn m() { synchronized (a) { synchronized (b) { v = 1; } } } }",
        );
        assert!(!has(&d, CheckId::RedundantSync));
    }
}
