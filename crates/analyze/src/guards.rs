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

use std::ops::Range;

use jcc_model::ast::{Component, Expr, LValue, Method, Stmt, StmtPath};
use jcc_model::pretty::print_expr;
use jcc_petri::{Deviation, FailureClass, Transition};

use crate::dataflow::{for_each_field, own_expr, FlowEvent, FlowVisitor, PathRef, Paths, Walker};
use crate::diag::{CheckId, Diagnostic, Severity};
use crate::locks::{LockId, LockTable};

fn class(d: Deviation, t: Transition) -> FailureClass {
    FailureClass::new(d, t)
}

/// One `wait` statement and its guarding context.
#[derive(Debug)]
struct WaitSite<'a> {
    method: &'a str,
    path: PathRef,
    lock: LockId,
    /// The nearest enclosing loop condition (else the nearest `if`
    /// condition); `None` for an unconditional wait.
    predicate: Option<&'a Expr>,
    /// Whether some enclosing statement is a `while` loop.
    in_loop: bool,
}

/// One `notify`/`notifyAll` statement.
#[derive(Debug)]
struct NotifySite<'a> {
    method: &'a str,
    path: PathRef,
    lock: LockId,
    all: bool,
}

/// What one method contributes to the missed-notification check.
#[derive(Debug)]
struct MethodSites<'a> {
    name: &'a str,
    /// Its notifications, as a range of [`GuardChecks::notifies`].
    notifies: Range<usize>,
    /// The fields it assigns, sorted and deduplicated, as a range of
    /// [`GuardChecks::assigns`].
    assigns: Range<usize>,
}

/// The guard-predicate checks, fed one method at a time: waits, notifies
/// and field assignments are collected during the walk, per-method
/// findings are reported at the end of each method, and the
/// component-wide ones by [`GuardChecks::finish`].
#[derive(Debug)]
pub(crate) struct GuardChecks<'a, 't> {
    table: &'t LockTable,
    method: Option<&'a Method>,
    waits: Vec<WaitSite<'a>>,
    notifies: Vec<NotifySite<'a>>,
    /// Fields assigned, grouped by method (see [`MethodSites::assigns`]).
    assigns: Vec<&'a str>,
    /// `(lock, field)` for every field some wait on `lock` guards on.
    guard_fields: Vec<(LockId, &'a str)>,
    paths: Paths,
    methods: Vec<MethodSites<'a>>,
    /// Per-method facts for the unnecessary-sync lint.
    uses_monitor: bool,
    reads_fields: bool,
    first_notify: usize,
    first_assign: usize,
    diags: Vec<Diagnostic>,
}

impl<'a, 't> GuardChecks<'a, 't> {
    /// Checks that name locks through `table`.
    pub(crate) fn new(table: &'t LockTable) -> GuardChecks<'a, 't> {
        GuardChecks {
            table,
            method: None,
            waits: Vec::new(),
            notifies: Vec::new(),
            assigns: Vec::new(),
            guard_fields: Vec::new(),
            paths: Paths::default(),
            methods: Vec::new(),
            uses_monitor: false,
            reads_fields: false,
            first_notify: 0,
            first_assign: 0,
            diags: Vec::new(),
        }
    }

    fn method_name(&self) -> &'a str {
        self.method.map_or("", |m| m.name.as_str())
    }

    /// Close the method just walked. EF-T1 candidate (migrated lint): a
    /// synchronized method that neither uses the monitor nor touches
    /// shared state.
    fn close_method(&mut self) {
        let Some(method) = self.method.take() else {
            return;
        };
        let assigns = &mut self.assigns[self.first_assign..];
        assigns.sort_unstable();
        let mut kept = 0;
        for i in 0..assigns.len() {
            if i == 0 || assigns[i] != assigns[kept - 1] {
                assigns[kept] = assigns[i];
                kept += 1;
            }
        }
        self.assigns.truncate(self.first_assign + kept);
        if kept > 0 {
            self.methods.push(MethodSites {
                name: &method.name,
                notifies: self.first_notify..self.notifies.len(),
                assigns: self.first_assign..self.assigns.len(),
            });
        }
        if method.synchronized && !self.uses_monitor && kept == 0 && !self.reads_fields {
            self.diags.push(Diagnostic {
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

    /// The component is walked: report every wait, notify and
    /// missed-notification finding, and hand over every finding.
    pub(crate) fn finish(mut self, out: &mut Vec<Diagnostic>) {
        out.append(&mut self.diags);
        let table = self.table;
        let path = |r: PathRef| Some(StmtPath(self.paths.get(r).to_vec()));

        // Which monitors have any notifier, by dense id (two spellings of
        // the same monitor collapse, distinct monitors with equal display
        // names do not).
        let mut notified = vec![false; table.len()];
        for n in &self.notifies {
            notified[n.lock.0] = true;
        }

        for w in &self.waits {
            // FF-T5 structural: a wait nothing can ever wake.
            if !notified[w.lock.0] {
                out.push(Diagnostic {
                    check: CheckId::NoNotifierForWait,
                    class: class(Deviation::FailureToFire, Transition::T5),
                    severity: Severity::High,
                    src: None,
                    method: w.method.to_string(),
                    path: path(w.path),
                    message: format!(
                        "`wait` on `{}` but no statement in the component ever \
                         notifies that monitor — every waiter is suspended forever",
                        table.name(w.lock)
                    ),
                });
            }
            // EF-T3 / EF-T5: unguarded or un-re-checked waits. An
            // unconditional wait subsumes the weaker wait-not-in-loop
            // finding for the same statement.
            match w.predicate {
                None => out.push(Diagnostic {
                    check: CheckId::UnconditionalWait,
                    class: class(Deviation::ErroneousFiring, Transition::T3),
                    severity: Severity::High,
                    src: None,
                    method: w.method.to_string(),
                    path: path(w.path),
                    message: "`wait` under no condition at all: the thread suspends \
                              regardless of the component's state"
                        .into(),
                }),
                Some(cond) if !w.in_loop => out.push(Diagnostic {
                    check: CheckId::WaitNotInLoop,
                    class: class(Deviation::ErroneousFiring, Transition::T5),
                    severity: Severity::Medium,
                    src: None,
                    method: w.method.to_string(),
                    path: path(w.path),
                    message: format!(
                        "`wait` guarded by `if ({})` is not re-checked in a loop: a \
                         premature wake-up re-enters the critical section with the \
                         predicate still false",
                        print_expr(cond)
                    ),
                }),
                Some(_) => {}
            }
        }

        // FF-T5 heuristic: a method moves a waiter's guard state but never
        // notifies the waiter's monitor. Skipped when the monitor has no
        // notifier at all (the structural check above already fires).
        self.guard_fields.sort_unstable();
        self.guard_fields.dedup();
        let by_lock = self.guard_fields.chunk_by(|a, b| a.0 == b.0);
        let mut touched: Vec<&str> = Vec::new();
        for m in &self.methods {
            let assigned = &self.assigns[m.assigns.clone()];
            let notifies_here = &self.notifies[m.notifies.clone()];
            for group in by_lock.clone() {
                let lock = group[0].0;
                if !notified[lock.0] || notifies_here.iter().any(|n| n.lock == lock) {
                    continue;
                }
                touched.clear();
                touched.extend(assigned.iter().copied().filter(|f| {
                    group.binary_search_by(|&(_, g)| g.cmp(f)).is_ok()
                }));
                if !touched.is_empty() {
                    out.push(Diagnostic {
                        check: CheckId::MissedNotification,
                        class: class(Deviation::FailureToFire, Transition::T5),
                        severity: Severity::Medium,
                        src: None,
                        method: m.name.to_string(),
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

        // FF-T5: single notify with heterogeneous waiters; advisory style
        // note when the waiters are uniform. A monitor's distinct
        // predicates are printed once, the first time a single notify on
        // it needs them.
        let mut predicates: Vec<(LockId, Vec<String>)> = Vec::new();
        for n in self.notifies.iter().filter(|n| !n.all) {
            let i = match predicates.iter().position(|(l, _)| *l == n.lock) {
                Some(i) => i,
                None => {
                    let mut texts: Vec<String> = self
                        .waits
                        .iter()
                        .filter(|w| w.lock == n.lock)
                        .map(|w| {
                            w.predicate
                                .map_or_else(|| "<unconditional>".to_string(), print_expr)
                        })
                        .collect();
                    texts.sort_unstable();
                    texts.dedup();
                    predicates.push((n.lock, texts));
                    predicates.len() - 1
                }
            };
            let texts = &predicates[i].1;
            if texts.is_empty() {
                continue; // no waiters on this monitor
            }
            let (check, severity, message) = if texts.len() >= 2 {
                (
                    CheckId::NotifySingleHeterogeneous,
                    Severity::Medium,
                    format!(
                        "single `notify` on `{}` whose waiters guard on different \
                         predicates ({}): the one wake-up can be consumed by a \
                         waiter that cannot proceed, losing the notification",
                        table.name(n.lock),
                        texts.join("; ")
                    ),
                )
            } else {
                (
                    CheckId::NotifyInsteadOfNotifyAllStyle,
                    Severity::Low,
                    format!(
                        "single `notify` on `{}`: waiters are uniform today, but \
                         `notifyAll` is robust to future waiter diversity",
                        table.name(n.lock)
                    ),
                )
            };
            out.push(Diagnostic {
                check,
                class: class(Deviation::FailureToFire, Transition::T5),
                severity,
                src: None,
                method: n.method.to_string(),
                path: path(n.path),
                message,
            });
        }
    }
}

impl<'a> FlowVisitor<'a> for GuardChecks<'a, '_> {
    fn begin_method(&mut self, method: &'a Method) {
        self.method = Some(method);
        self.uses_monitor = false;
        self.reads_fields = false;
        self.first_notify = self.notifies.len();
        self.first_assign = self.assigns.len();
    }

    fn stmt(&mut self, ev: &FlowEvent<'a, '_>) {
        let method = self.method_name();
        match ev.stmt {
            Stmt::Wait { .. } => {
                if let Some(id) = ev.lock {
                    self.uses_monitor = true;
                    // The predicate is the nearest enclosing *loop*
                    // condition when one exists (the re-checked guard),
                    // otherwise the nearest `if` condition.
                    let guard = ev
                        .guards
                        .iter()
                        .rev()
                        .find(|g| g.is_loop)
                        .or_else(|| ev.guards.last());
                    if let Some(g) = guard {
                        for_each_field(g.cond, &mut |f| self.guard_fields.push((id, f)));
                    }
                    self.waits.push(WaitSite {
                        method,
                        path: self.paths.push(ev.path),
                        lock: id,
                        predicate: guard.map(|g| g.cond),
                        in_loop: ev.guards.iter().any(|g| g.is_loop),
                    });
                }
            }
            Stmt::Notify { .. } | Stmt::NotifyAll { .. } => {
                if let Some(id) = ev.lock {
                    self.uses_monitor = true;
                    self.notifies.push(NotifySite {
                        method,
                        path: self.paths.push(ev.path),
                        lock: id,
                        all: matches!(ev.stmt, Stmt::NotifyAll { .. }),
                    });
                }
            }
            Stmt::Assign {
                target: LValue::Field(f),
                ..
            } => self.assigns.push(f),
            _ => {}
        }
        if !self.reads_fields {
            if let Some(e) = own_expr(ev.stmt) {
                for_each_field(e, &mut |_| self.reads_fields = true);
            }
        }
    }

    fn end_method(&mut self) {
        self.close_method();
    }
}

/// Run the guard-predicate checks over the component on their own.
pub fn run(component: &Component, table: &LockTable, out: &mut Vec<Diagnostic>) {
    let mut checks = GuardChecks::new(table);
    Walker::new(table).walk_component(component, &mut checks);
    checks.finish(out);
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
