//! The static lock-order graph: which monitor is acquired while which is
//! already held, across every method of the component.
//!
//! Each entry into a `synchronized` region while another (different)
//! monitor is held adds a directed edge `held → acquired`. Two threads
//! running methods whose edges disagree on order can each hold one lock
//! while requesting the other — the circular-wait condition for deadlock.
//! A cycle in the graph is therefore an FF-T2 candidate (permanent
//! suspension): every strongly connected component with more than one
//! monitor is reported once, with the methods that contribute its edges
//! as evidence.

use jcc_model::ast::{Component, Method, Stmt};
use jcc_petri::scc::tarjan_scc;
use jcc_petri::{Deviation, FailureClass, Transition};

use crate::dataflow::{FlowEvent, FlowVisitor, Walker};
use crate::diag::{CheckId, Diagnostic, Severity};
use crate::locks::{LockId, LockTable};

/// The lock-order graph: one `(held, acquired, method)` record per method
/// that acquires `acquired` while holding `held`, sorted and deduplicated
/// once the component is walked.
#[derive(Debug, Default)]
pub struct LockOrderGraph<'a> {
    edges: Vec<(LockId, LockId, &'a str)>,
    /// The method being walked.
    method: &'a str,
}

impl<'a> LockOrderGraph<'a> {
    /// Build the graph from every `synchronized` entry in the component.
    /// Reentrant re-acquisition (`a` while holding `a`) is not an ordering
    /// edge.
    pub fn build(component: &'a Component, table: &LockTable) -> LockOrderGraph<'a> {
        let mut graph = LockOrderGraph::default();
        Walker::new(table).walk_component(component, &mut graph);
        graph.settle();
        graph
    }

    /// Sort and deduplicate the records once every method is walked.
    pub(crate) fn settle(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// All edges `held → acquired`, each once, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (LockId, LockId)> + '_ {
        let mut last = None;
        self.edges
            .iter()
            .map(|&(a, b, _)| (a, b))
            .filter(move |&edge| {
                let new = last != Some(edge);
                last = Some(edge);
                new
            })
    }

    /// Strongly connected components with ≥ 2 monitors (an SCC of one
    /// monitor cannot deadlock: reentrancy edges are excluded), each as a
    /// sorted lock set. Deterministic order by smallest member.
    pub fn cycles(&self) -> Vec<Vec<LockId>> {
        if self.edges.is_empty() {
            return Vec::new();
        }
        let mut nodes: Vec<LockId> = self.edges.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let index_of = |id: LockId| nodes.binary_search(&id).expect("an edge endpoint");
        let mut adj = vec![Vec::new(); nodes.len()];
        for (a, b) in self.edges() {
            adj[index_of(a)].push(index_of(b));
        }
        let mut sccs: Vec<Vec<LockId>> = tarjan_scc(&adj)
            .into_iter()
            .filter(|scc| scc.len() >= 2)
            .map(|scc| {
                let mut members: Vec<LockId> = scc.into_iter().map(|i| nodes[i]).collect();
                members.sort();
                members
            })
            .collect();
        sccs.sort();
        sccs
    }

    /// Report every cycle of the settled graph.
    pub(crate) fn report(&self, component: &str, table: &LockTable, out: &mut Vec<Diagnostic>) {
        for cycle in self.cycles() {
            let in_cycle = |id: LockId| cycle.binary_search(&id).is_ok();
            let names: Vec<&str> = cycle.iter().map(|&id| table.name(id)).collect();
            let mut witnesses: Vec<&str> = self
                .edges
                .iter()
                .filter(|&&(a, b, _)| in_cycle(a) && in_cycle(b))
                .map(|&(_, _, m)| m)
                .collect();
            witnesses.sort_unstable();
            witnesses.dedup();
            out.push(Diagnostic {
                check: CheckId::LockOrderCycle,
                class: FailureClass::new(Deviation::FailureToFire, Transition::T2),
                severity: Severity::High,
                src: None,
                method: format!("<{component}>"),
                path: None,
                message: format!(
                    "locks `{}` are acquired in inconsistent orders (methods {}): \
                     circular wait — a deadlock candidate",
                    names.join("`, `"),
                    witnesses.join(", ")
                ),
            });
        }
    }
}

impl<'a> FlowVisitor<'a> for LockOrderGraph<'a> {
    fn begin_method(&mut self, method: &'a Method) {
        self.method = &method.name;
    }

    /// Add the edges a live `synchronized` entry makes.
    fn stmt(&mut self, ev: &FlowEvent<'a, '_>) {
        if !ev.reachable {
            return;
        }
        if let (Stmt::Synchronized { .. }, Some(acquired)) = (ev.stmt, ev.lock) {
            for held in ev.locks.held_ids().filter(|&h| h != acquired) {
                self.edges.push((held, acquired, self.method));
            }
        }
    }
}

/// Run the lock-order cycle check on its own.
pub fn run(component: &Component, table: &LockTable, out: &mut Vec<Diagnostic>) {
    LockOrderGraph::build(component, table).report(&component.name, table, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples;
    use jcc_model::parse_component;

    fn run_on(c: &Component) -> Vec<Diagnostic> {
        let table = LockTable::new(c);
        let mut out = Vec::new();
        run(c, &table, &mut out);
        out
    }

    #[test]
    fn opposite_order_two_locks_cycle() {
        let d = run_on(&examples::lock_order_deadlock());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].check, CheckId::LockOrderCycle);
        assert_eq!(d[0].class.code(), "FF-T2");
        assert_eq!(d[0].severity, Severity::High);
        assert!(d[0].message.contains("`a`, `b`"), "{}", d[0].message);
        assert!(d[0].message.contains("backward"), "{}", d[0].message);
        assert!(d[0].message.contains("forward"), "{}", d[0].message);
    }

    #[test]
    fn dining_cycle_detected_and_hierarchy_fix_clean() {
        let d = run_on(&examples::dining_deadlock());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`f0`, `f1`, `f2`"), "{}", d[0].message);

        let d = run_on(&examples::dining_ordered());
        assert!(d.is_empty(), "resource hierarchy must be acyclic: {d:?}");
    }

    #[test]
    fn reentrant_nesting_is_not_an_edge() {
        let c = parse_component(
            "class X { int v = 0;
               synchronized void m() { synchronized (this) { v = 1; } } }",
        )
        .unwrap();
        let table = LockTable::new(&c);
        let g = LockOrderGraph::build(&c, &table);
        assert_eq!(g.edges().count(), 0);
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn synchronized_method_orders_this_before_aux() {
        let c = parse_component(
            "class X { final Object a = new Object(); int v = 0;
               synchronized void m() { synchronized (a) { v = 1; } } }",
        )
        .unwrap();
        let table = LockTable::new(&c);
        let g = LockOrderGraph::build(&c, &table);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].0, LockId::THIS);
        assert_eq!(table.name(edges[0].1), "a");
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn clean_corpus_has_no_cycles() {
        for (name, c) in examples::corpus() {
            let d = run_on(&c);
            assert!(d.is_empty(), "{name}: {d:?}");
        }
    }
}
