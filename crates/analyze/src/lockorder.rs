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

use std::collections::{BTreeMap, BTreeSet};

use jcc_model::ast::Component;
use jcc_petri::scc::tarjan_scc;
use jcc_petri::{Deviation, FailureClass, Transition};

use crate::dataflow::walk_method;
use crate::diag::{CheckId, Diagnostic, Severity};
use crate::locks::{LockId, LockTable};

/// The lock-order graph: `edges[(a, b)]` = methods that acquire `b` while
/// holding `a`.
#[derive(Debug, Default)]
pub struct LockOrderGraph {
    edges: BTreeMap<(LockId, LockId), BTreeSet<String>>,
}

impl LockOrderGraph {
    /// Build the graph from every `synchronized` entry in the component.
    /// Reentrant re-acquisition (`a` while holding `a`) is not an ordering
    /// edge.
    pub fn build(component: &Component, table: &LockTable) -> LockOrderGraph {
        let mut graph = LockOrderGraph::default();
        for method in &component.methods {
            walk_method(table, method, |ev| {
                if !ev.reachable {
                    return;
                }
                if let jcc_model::ast::Stmt::Synchronized { lock, .. } = ev.stmt {
                    if let Some(acquired) = table.resolve(lock) {
                        for held in ev.locks.held_ids() {
                            if held != acquired {
                                graph
                                    .edges
                                    .entry((held, acquired))
                                    .or_default()
                                    .insert(method.name.clone());
                            }
                        }
                    }
                }
            });
        }
        graph
    }

    /// All edges, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (LockId, LockId, &BTreeSet<String>)> {
        self.edges.iter().map(|(&(a, b), ms)| (a, b, ms))
    }

    /// Strongly connected components with ≥ 2 monitors (an SCC of one
    /// monitor cannot deadlock: reentrancy edges are excluded), each as a
    /// sorted lock set. Deterministic order by smallest member.
    pub fn cycles(&self) -> Vec<Vec<LockId>> {
        let nodes: Vec<LockId> = self
            .edges
            .keys()
            .flat_map(|&(a, b)| [a, b])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let index_of: BTreeMap<LockId, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut adj = vec![Vec::new(); nodes.len()];
        for &(a, b) in self.edges.keys() {
            adj[index_of[&a]].push(index_of[&b]);
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
}

/// Run the lock-order cycle check.
pub fn run(component: &Component, table: &LockTable, out: &mut Vec<Diagnostic>) {
    let _span = jcc_obs::span!("analyze.lockorder");
    let graph = LockOrderGraph::build(component, table);
    for cycle in graph.cycles() {
        let in_cycle: BTreeSet<LockId> = cycle.iter().copied().collect();
        let names: Vec<&str> = cycle.iter().map(|&id| table.name(id)).collect();
        let mut witnesses: BTreeSet<&str> = BTreeSet::new();
        for (a, b, methods) in graph.edges() {
            if in_cycle.contains(&a) && in_cycle.contains(&b) {
                witnesses.extend(methods.iter().map(String::as_str));
            }
        }
        let witness_list: Vec<&str> = witnesses.into_iter().collect();
        out.push(Diagnostic {
            check: CheckId::LockOrderCycle,
            class: FailureClass::new(Deviation::FailureToFire, Transition::T2),
            severity: Severity::High,
            src: None,
            method: format!("<{}>", component.name),
            path: None,
            message: format!(
                "locks `{}` are acquired in inconsistent orders (methods {}): \
                 circular wait — a deadlock candidate",
                names.join("`, `"),
                witness_list.join(", ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples;
    use jcc_model::parser::parse_component;

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
            "class X { var v: int = 0;
               synchronized fn m() { synchronized (this) { v = 1; } } }",
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
            "class X { lock a; var v: int = 0;
               synchronized fn m() { synchronized (a) { v = 1; } } }",
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
