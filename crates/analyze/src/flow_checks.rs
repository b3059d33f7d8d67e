//! Checks powered by the locks-held dataflow: monitor discipline, field
//! protection, redundant regions, spin loops and dead code.
//!
//! The checks are a [`FlowVisitor`] fed by the analyzer's one walk per
//! method. Discipline, spin-loop and dead-code findings are local to a
//! statement or method and are pushed as soon as they are known; the
//! protected-field check needs the whole component (which fields are ever
//! accessed under a lock), so it keeps the unlocked accesses until the
//! component is walked.

use jcc_model::ast::{Component, Expr, LValue, Method, Stmt, StmtPath};
use jcc_petri::{Deviation, FailureClass, Transition};

use crate::dataflow::{
    for_each_field, own_expr, reads_name, FlowEvent, FlowVisitor, PathRef, Paths, Walker,
};
use crate::diag::{CheckId, Diagnostic, Severity};
use crate::locks::LockTable;

fn class(d: Deviation, t: Transition) -> FailureClass {
    FailureClass::new(d, t)
}

/// A field access made with no lock held.
struct Access<'a> {
    method: &'a str,
    path: PathRef,
    field: &'a str,
    write: bool,
}

/// The dataflow-backed checks, fed one method at a time.
pub(crate) struct FlowChecks<'a, 't> {
    table: &'t LockTable,
    /// The method being walked.
    method: &'a str,
    /// Fields accessed with some monitor held, anywhere in the component
    /// (sorted and deduplicated by [`FlowChecks::finish`]).
    locked: Vec<&'a str>,
    /// Accesses with no monitor held, checked against `locked` at the end.
    unlocked: Vec<Access<'a>>,
    paths: Paths,
    /// Per open `while` loop, innermost last: whether its body so far can
    /// make progress (waits, returns, or assigns what the condition reads).
    loops: Vec<bool>,
    /// The method's first-dead-statement anchors.
    dead_anchors: Vec<StmtPath>,
    /// Whether the method has an unreachable notification.
    dead_notify: bool,
    diags: Vec<Diagnostic>,
}

impl<'a, 't> FlowChecks<'a, 't> {
    /// Checks that name locks through `table`.
    pub(crate) fn new(table: &'t LockTable) -> FlowChecks<'a, 't> {
        FlowChecks {
            table,
            method: "",
            locked: Vec::new(),
            unlocked: Vec::new(),
            paths: Paths::default(),
            loops: Vec::new(),
            dead_anchors: Vec::new(),
            dead_notify: false,
            diags: Vec::new(),
        }
    }

    fn push(
        &mut self,
        check: CheckId,
        class: FailureClass,
        severity: Severity,
        path: Option<StmtPath>,
        message: String,
    ) {
        self.diags.push(Diagnostic {
            check,
            class,
            severity,
            src: None,
            method: self.method.to_string(),
            path,
            message,
        });
    }

    /// Record the field accesses the statement itself makes (reachable or
    /// not) as locked or unlocked.
    fn field_accesses(&mut self, ev: &FlowEvent<'a, '_>) {
        let write = match ev.stmt {
            Stmt::Assign {
                target: LValue::Field(f),
                ..
            } => Some(f.as_str()),
            _ => None,
        };
        let read = own_expr(ev.stmt);
        if ev.locks.any_held() {
            if let Some(e) = read {
                for_each_field(e, &mut |f| self.locked.push(f));
            }
            self.locked.extend(write);
            return;
        }
        let mut path = None;
        let mut access = |this: &mut Self, field, write| {
            let path = *path.get_or_insert_with(|| this.paths.push(ev.path));
            this.unlocked.push(Access {
                method: this.method,
                path,
                field,
                write,
            });
        };
        if let Some(e) = read {
            for_each_field(e, &mut |f| access(self, f, false));
        }
        if let Some(f) = write {
            access(self, f, true);
        }
    }

    /// Loop progress: a `wait` or `return` moves every enclosing loop; an
    /// assignment moves the loops whose condition reads its target.
    fn progress(&mut self, ev: &FlowEvent<'a, '_>) {
        let target = match ev.stmt {
            Stmt::Wait { .. } | Stmt::Return(_) => {
                self.loops.iter_mut().for_each(|p| *p = true);
                return;
            }
            Stmt::Assign { target, .. } => target,
            _ => return,
        };
        let (name, field) = match target {
            LValue::Field(f) => (f, true),
            LValue::Local(v) => (v, false),
        };
        let conds = ev.guards.iter().filter(|g| g.is_loop);
        for (p, g) in self.loops.iter_mut().zip(conds) {
            if !*p && reads_name(g.cond, name, field) {
                *p = true;
            }
        }
    }

    /// Monitor discipline on a live statement.
    fn discipline(&mut self, ev: &FlowEvent<'a, '_>) {
        match ev.stmt {
            Stmt::Wait { lock } | Stmt::Notify { lock } | Stmt::NotifyAll { lock } => {
                let op = match ev.stmt {
                    Stmt::Wait { .. } => "wait",
                    Stmt::Notify { .. } => "notify",
                    _ => "notifyAll",
                };
                let id = ev.lock;
                match id {
                    Some(id) if ev.locks.holds(id) => {}
                    _ => self.push(
                        CheckId::MonitorNotHeld,
                        class(Deviation::FailureToFire, Transition::T1),
                        Severity::High,
                        Some(StmtPath(ev.path.to_vec())),
                        format!(
                            "`{op}` on `{lock}` without holding its monitor \
                             (IllegalMonitorStateException at run time)"
                        ),
                    ),
                }
                // Nested-monitor lockout: suspending while holding a
                // second lock means nothing can reach the notifier.
                if matches!(ev.stmt, Stmt::Wait { .. })
                    && ev.locks.held_ids().any(|h| Some(h) != id)
                {
                    let others: Vec<&str> = ev
                        .locks
                        .held_ids()
                        .filter(|h| Some(*h) != id)
                        .map(|h| self.table.name(h))
                        .collect();
                    self.push(
                        CheckId::NestedMonitorWait,
                        class(Deviation::FailureToFire, Transition::T2),
                        Severity::High,
                        Some(StmtPath(ev.path.to_vec())),
                        format!(
                            "`wait` on `{lock}` while still holding `{}` — \
                             a nested-monitor lockout: waiters keep the outer \
                             lock, so the notifier can never run",
                            others.join("`, `")
                        ),
                    );
                }
            }
            Stmt::Synchronized { lock, .. } => {
                if let Some(id) = ev.lock {
                    if ev.locks.holds(id) {
                        self.push(
                            CheckId::RedundantSync,
                            class(Deviation::ErroneousFiring, Transition::T1),
                            Severity::Medium,
                            Some(StmtPath(ev.path.to_vec())),
                            format!(
                                "`synchronized ({lock})` while `{}` is already \
                                 held — reentrancy makes this a redundant region",
                                self.table.name(id)
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    /// A live loop whose body can make no progress.
    fn spin(&mut self, ev: &FlowEvent<'a, '_>, cond: &Expr) {
        let literal_spin = matches!(cond, Expr::Bool(true));
        if !literal_spin {
            self.push(
                CheckId::GuardLoopWithoutWait,
                class(Deviation::FailureToFire, Transition::T3),
                Severity::Medium,
                Some(StmtPath(ev.path.to_vec())),
                "guard loop never waits: the body neither \
                 suspends nor changes anything the condition \
                 reads"
                    .into(),
            );
        }
        if !ev.locks.any_held() {
            if literal_spin {
                self.push(
                    CheckId::LoopHoldsLockForever,
                    class(Deviation::FailureToFire, Transition::T4),
                    Severity::Medium,
                    Some(StmtPath(ev.path.to_vec())),
                    "`while (true)` with no `wait` or `return` \
                     in the body never terminates"
                        .into(),
                );
            }
        } else {
            let held: Vec<&str> = ev.locks.held_ids().map(|h| self.table.name(h)).collect();
            self.push(
                CheckId::LoopHoldsLockForever,
                class(Deviation::FailureToFire, Transition::T4),
                Severity::High,
                Some(StmtPath(ev.path.to_vec())),
                format!(
                    "loop can never terminate while holding `{}`: the \
                     body neither waits nor changes the condition, and \
                     no other thread can enter the monitor to do so",
                    held.join("`, `")
                ),
            );
        }
    }

    /// Report the dead code of the method just walked.
    fn dead_code(&mut self) {
        let anchors = std::mem::take(&mut self.dead_anchors);
        for anchor in anchors {
            if self.dead_notify {
                self.push(
                    CheckId::UnreachableAfterReturn,
                    class(Deviation::ErroneousFiring, Transition::T4),
                    Severity::High,
                    Some(anchor.clone()),
                    "unreachable code after `return` includes a notification: \
                     the monitor is released before waiters can ever be woken"
                        .into(),
                );
                self.push(
                    CheckId::UnreachableAfterReturn,
                    class(Deviation::FailureToFire, Transition::T5),
                    Severity::Medium,
                    Some(anchor),
                    "a notification that can never execute is a lost \
                     notification for every waiter depending on it"
                        .into(),
                );
            } else {
                self.push(
                    CheckId::UnreachableAfterReturn,
                    class(Deviation::ErroneousFiring, Transition::T4),
                    Severity::Low,
                    Some(anchor),
                    "statements after an unconditional `return` can never \
                     execute"
                        .into(),
                );
            }
        }
        self.dead_notify = false;
        debug_assert!(
            self.loops.is_empty(),
            "every loop exits before its method ends"
        );
    }

    /// The component is walked: report unlocked accesses to fields that
    /// some monitor protects elsewhere, and hand over every finding.
    pub(crate) fn finish(mut self, out: &mut Vec<Diagnostic>) {
        out.append(&mut self.diags);
        if self.unlocked.is_empty() {
            return;
        }
        self.locked.sort_unstable();
        self.locked.dedup();
        for a in &self.unlocked {
            if self.locked.binary_search(&a.field).is_err() {
                continue;
            }
            let kind = if a.write { "written" } else { "read" };
            out.push(Diagnostic {
                check: CheckId::UnlockedFieldAccess,
                class: class(Deviation::FailureToFire, Transition::T1),
                severity: if a.write {
                    Severity::High
                } else {
                    Severity::Medium
                },
                src: None,
                method: a.method.to_string(),
                path: Some(StmtPath(self.paths.get(a.path).to_vec())),
                message: format!(
                    "field `{}` is {kind} with no lock held, but is \
                     protected by a monitor elsewhere in the component",
                    a.field
                ),
            });
        }
    }
}

impl<'a> FlowVisitor<'a> for FlowChecks<'a, '_> {
    fn begin_method(&mut self, method: &'a Method) {
        self.method = &method.name;
    }

    fn stmt(&mut self, ev: &FlowEvent<'a, '_>) {
        self.field_accesses(ev);
        self.progress(ev);
        if matches!(ev.stmt, Stmt::While { .. }) {
            self.loops.push(false);
        }
        if !ev.reachable {
            // Loop-caused dead code is the non-terminating loop's
            // fault, and that loop already gets its own FF-T4
            // diagnostic — don't pile dead-code reports on top.
            if !ev.dead_by_loop {
                if ev.first_unreachable {
                    self.dead_anchors.push(StmtPath(ev.path.to_vec()));
                }
                if matches!(ev.stmt, Stmt::Notify { .. } | Stmt::NotifyAll { .. }) {
                    self.dead_notify = true;
                }
            }
            return; // discipline checks only apply to live code
        }
        self.discipline(ev);
    }

    fn loop_exit(&mut self, ev: &FlowEvent<'a, '_>) {
        let progress = self
            .loops
            .pop()
            .expect("loop_exit follows its loop's statement");
        if let Stmt::While { cond, .. } = ev.stmt {
            if ev.reachable && !progress {
                self.spin(ev, cond);
            }
        }
    }

    fn end_method(&mut self) {
        self.dead_code();
    }
}

/// Run every dataflow-backed check over the component on its own.
pub fn run(component: &Component, table: &LockTable, out: &mut Vec<Diagnostic>) {
    let mut checks = FlowChecks::new(table);
    Walker::new(table).walk_component(component, &mut checks);
    checks.finish(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::parse_component;

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
        let d = analyze_src("class X { int v = 0; void m() { wait(); } }");
        assert!(has(&d, CheckId::MonitorNotHeld));
        assert!(d.iter().all(|x| x.class.code() != "FF-T2"));
    }

    #[test]
    fn monitor_not_held_quiet_on_synchronized_method() {
        let d = analyze_src(
            "class X { int v = 0; synchronized void m() { while (v == 0) { wait(); } notifyAll(); } }",
        );
        assert!(!has(&d, CheckId::MonitorNotHeld));
    }

    #[test]
    fn nested_monitor_wait_fires_only_for_second_lock() {
        let d = analyze_src(
            "class X { final Object a = new Object(); synchronized void m() { synchronized (a) { wait(); } } }",
        );
        assert!(has(&d, CheckId::NestedMonitorWait));
        // Reentrant same-lock nesting is not a nested-monitor wait.
        let d = analyze_src(
            "class X { synchronized void m() { synchronized (this) { wait(); } } }",
        );
        assert!(!has(&d, CheckId::NestedMonitorWait));
        assert!(has(&d, CheckId::RedundantSync));
    }

    #[test]
    fn unlocked_field_access_fires_on_racy_writer_not_on_clean_monitor() {
        let d = analyze_src(
            "class X { int count = 0;
               void inc() { int t = count; count = t + 1; }
               synchronized int get() { return count; } }",
        );
        let hits: Vec<_> = d
            .iter()
            .filter(|x| x.check == CheckId::UnlockedFieldAccess)
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|x| x.severity == Severity::High));
        assert!(hits.iter().any(|x| x.severity == Severity::Medium));

        let d = analyze_src(
            "class X { int v = 0; synchronized void m() { v = v + 1; } }",
        );
        assert!(!has(&d, CheckId::UnlockedFieldAccess));
    }

    #[test]
    fn unprotected_everywhere_field_is_not_reported() {
        // A field never accessed under any lock has no protection protocol
        // to violate — not this check's business.
        let d = analyze_src("class X { int v = 0; void m() { v = 1; } }");
        assert!(!has(&d, CheckId::UnlockedFieldAccess));
    }

    #[test]
    fn spin_loop_holding_lock_is_high() {
        let d = analyze_src(
            "class X { int v = 0; synchronized void m() { while (true) { Thread.yield(); } v = 1; } }",
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
            "class X { int v = 0; synchronized void m() { while (v == 0) { Thread.yield(); } } }",
        );
        assert!(has(&d, CheckId::GuardLoopWithoutWait));
        assert!(has(&d, CheckId::LoopHoldsLockForever));

        // A wait in the body is progress.
        let d = analyze_src(
            "class X { int v = 0; synchronized void m() { while (v == 0) { wait(); } } }",
        );
        assert!(!has(&d, CheckId::GuardLoopWithoutWait));
        assert!(!has(&d, CheckId::LoopHoldsLockForever));

        // Assigning a condition variable is progress.
        let d = analyze_src(
            "class X { synchronized void m() { int i = 0; while (i < 3) { i = i + 1; } } }",
        );
        assert!(!has(&d, CheckId::GuardLoopWithoutWait));
    }

    #[test]
    fn dead_notify_after_return_is_high_with_lost_notification() {
        let d = analyze_src(
            "class X { int v = 0;
               synchronized void m() { v = 1; return; notifyAll(); } }",
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
            "class X { int v = 0;
               synchronized void m() { while (true) { Thread.yield(); } v = 1; notifyAll(); } }",
        );
        assert!(has(&d, CheckId::LoopHoldsLockForever));
        assert!(!has(&d, CheckId::UnreachableAfterReturn), "{d:?}");
    }

    #[test]
    fn plain_dead_code_is_low() {
        let d = analyze_src("class X { void m() { return; Thread.yield(); } }");
        let hit = d
            .iter()
            .find(|x| x.check == CheckId::UnreachableAfterReturn)
            .expect("dead code flagged");
        assert_eq!(hit.severity, Severity::Low);
    }

    #[test]
    fn redundant_sync_on_aux_lock() {
        let d = analyze_src(
            "class X { final Object a = new Object(); int v = 0;
               void m() { synchronized (a) { synchronized (a) { v = 1; } } } }",
        );
        assert!(has(&d, CheckId::RedundantSync));
        // Different locks nested is not redundant.
        let d = analyze_src(
            "class X { final Object a = new Object(); final Object b = new Object(); int v = 0;
               void m() { synchronized (a) { synchronized (b) { v = 1; } } } }",
        );
        assert!(!has(&d, CheckId::RedundantSync));
    }
}
