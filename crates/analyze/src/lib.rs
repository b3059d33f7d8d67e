//! # jcc-analyze — static Table-1 failure-class analysis over the Monitor IR
//!
//! The paper detects its Table-1 failure classes *dynamically* — by
//! executing tests against the VM and classifying the outcomes
//! (`jcc-detect`). This crate reaches the same classes *statically*: it
//! takes a parsed [`Component`] and emits [`Diagnostic`]s keyed to the
//! failure classes, each with a method/statement location, a severity
//! tier, human rendering and a stable `jcc-analyze/v1` JSON form.
//!
//! Three analyses power the checks:
//!
//! 1. **Locks-held dataflow** ([`dataflow`]): a forward walk over MIR
//!    blocks with a must-hold lattice (reentrancy-counted), driving the
//!    monitor-discipline checks (`monitor-not-held`,
//!    `nested-monitor-wait`, `redundant-sync`), the protected-field
//!    interference check (`unlocked-field-access`), the spin-loop checks
//!    and dead-code detection.
//! 2. **Lock-order graph** ([`lockorder`]): edges `held → acquired` from
//!    every nested `synchronized` entry across all methods; a cycle is a
//!    circular-wait deadlock candidate (FF-T2).
//! 3. **Guard predicates** ([`guards`]): each `wait` is linked to the
//!    condition it re-checks and the fields that condition reads; each
//!    `notify` to the waiters it must wake. Flags missing notifiers,
//!    missed notifications, heterogeneous single-notify, and
//!    unguarded/un-looped waits.
//!
//! The severity contract: **High never fires on correct code** (CI gates
//! on this over the unmutated corpus); Medium is heuristic; Low is
//! advisory. The known benign Medium: `Semaphore.acquire` consumes a
//! permit (assigning the wait guard's field) without notifying — correct
//! for a semaphore, statically indistinguishable from a dropped notify.
//!
//! This crate absorbed and superseded the early `jcc_model::validate`
//! lint pass, which has since been removed.
//!
//! ```
//! use jcc_model::examples;
//! let report = jcc_analyze::analyze(&examples::lock_order_deadlock());
//! assert_eq!(report.count(jcc_analyze::Severity::High), 1); // FF-T2 cycle
//! println!("{}", report.render());
//! ```

#![warn(missing_docs)]

pub mod dataflow;
pub mod diag;
pub mod flow_checks;
pub mod guards;
pub mod lockorder;
pub mod locks;

pub use diag::{AnalysisReport, CheckId, Diagnostic, Severity, SrcLoc, SCHEMA};
pub use lockorder::LockOrderGraph;
pub use locks::{LockId, LockTable};

use jcc_model::ast::{Component, Method};

use dataflow::{FlowEvent, FlowVisitor, Walker};
use flow_checks::FlowChecks;
use guards::GuardChecks;

/// The one walk's visitor: every check sees each statement once.
struct Scan<'a, 't> {
    flow: FlowChecks<'a, 't>,
    order: LockOrderGraph<'a>,
    guards: GuardChecks<'a, 't>,
}

impl<'a> FlowVisitor<'a> for Scan<'a, '_> {
    fn begin_method(&mut self, method: &'a Method) {
        self.flow.begin_method(method);
        self.order.begin_method(method);
        self.guards.begin_method(method);
    }

    fn stmt(&mut self, ev: &FlowEvent<'a, '_>) {
        self.flow.stmt(ev);
        self.order.stmt(ev);
        self.guards.stmt(ev);
    }

    fn loop_exit(&mut self, ev: &FlowEvent<'a, '_>) {
        self.flow.loop_exit(ev);
    }

    fn end_method(&mut self) {
        self.flow.end_method();
        self.guards.end_method();
    }
}

/// Run every static check over `component` and return the sorted,
/// deduplicated report. Deterministic: equal inputs produce byte-identical
/// rendered/JSON output.
///
/// Each method body is walked once ([`dataflow::Walker`]); every check
/// takes what it needs from that walk (span `analyze.walk`), and the
/// component-wide checks and the report's sort run afterwards (span
/// `analyze.report`).
pub fn analyze(component: &Component) -> AnalysisReport {
    let _span = jcc_obs::span!("analyze.component");
    let table = LockTable::new(component);
    let mut scan = Scan {
        flow: FlowChecks::new(&table),
        order: LockOrderGraph::default(),
        guards: GuardChecks::new(&table),
    };
    {
        let _walk = jcc_obs::span!("analyze.walk");
        Walker::new(&table).walk_component(component, &mut scan);
    }
    let _report = jcc_obs::span!("analyze.report");
    let mut diagnostics = Vec::new();
    scan.flow.finish(&mut diagnostics);
    scan.order.settle();
    scan.order.report(&component.name, &table, &mut diagnostics);
    scan.guards.finish(&mut diagnostics);
    let report = AnalysisReport::sorted(
        &component.name,
        diagnostics,
        component.methods.iter().map(|m| m.name.as_str()),
    );

    let obs = jcc_obs::global();
    obs.counter("analyze.components").inc();
    obs.counter("analyze.diagnostics")
        .add(report.diagnostics.len() as u64);
    for (sev, key) in [
        (Severity::High, "analyze.diagnostics.high"),
        (Severity::Medium, "analyze.diagnostics.medium"),
        (Severity::Low, "analyze.diagnostics.low"),
    ] {
        obs.counter(key).add(report.count(sev) as u64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples;

    #[test]
    fn clean_corpus_has_zero_high_severity() {
        for (name, c) in examples::corpus() {
            let report = analyze(&c);
            let highs: Vec<_> = report.at_least(Severity::High).collect();
            assert!(highs.is_empty(), "{name}: {highs:?}");
        }
    }

    #[test]
    fn deadlock_specimens_are_flagged_and_controls_are_not() {
        let r = analyze(&examples::lock_order_deadlock());
        assert!(r.classes(Severity::High).contains("FF-T2"));
        let r = analyze(&examples::dining_deadlock());
        assert!(r.classes(Severity::High).contains("FF-T2"));
        let r = analyze(&examples::dining_ordered());
        assert_eq!(r.count(Severity::High), 0, "{}", r.render());
        let r = analyze(&examples::racy_counter());
        assert!(r.classes(Severity::High).contains("FF-T1"));
    }

    #[test]
    fn output_is_byte_identical_across_runs() {
        for (_, c) in examples::corpus() {
            let a = analyze(&c);
            let b = analyze(&c);
            assert_eq!(a.render(), b.render());
            assert_eq!(a.to_json_string(), b.to_json_string());
        }
    }

    #[test]
    fn report_is_keyed_to_failure_class_codes() {
        let r = analyze(&examples::racy_counter());
        for d in &r.diagnostics {
            assert!(d.class.code().starts_with("FF-") || d.class.code().starts_with("EF-"));
        }
    }
}
