//! Lock-order-graph deadlock detection (the LockTree idea the paper cites
//! from JPF's runtime analysis).
//!
//! Whenever a thread acquires lock `b` while holding lock `a`, the edge
//! `a → b` is added to the lock-order graph. A cycle in the graph means two
//! threads can acquire the same locks in opposite orders — the potential
//! deadlock the paper's FF-T2 row describes ("one thread continuously holds
//! the lock" from the victim's point of view).
//!
//! The graph is built incrementally: [`LockOrderGraph::observe`] reports
//! each fresh edge that closes a cycle at the acquire that inserted it, so
//! an online monitor can raise the alert mid-run; [`LockOrderGraph::cycles`]
//! computes the strongly connected components of the whole graph.

use std::collections::{BTreeMap, BTreeSet};

use jcc_petri::event::Event;
use jcc_petri::scc::tarjan_scc;

/// A cycle found in the lock-order graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrderCycle {
    /// The locks on the cycle, starting from the smallest id.
    pub locks: Vec<u64>,
}

/// The accumulated lock-order graph.
#[derive(Debug, Default)]
pub struct LockOrderGraph {
    /// edge a → b with the set of threads that exhibited it.
    edges: BTreeMap<u64, BTreeMap<u64, BTreeSet<u64>>>,
    held: BTreeMap<u64, Vec<u64>>,
}

impl LockOrderGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the graph from a whole event stream.
    pub fn build(events: &[Event]) -> Self {
        let mut g = Self::new();
        for e in events {
            g.observe(e);
        }
        g
    }

    /// Feed one event. An acquire (T2) adds an edge from every lock the
    /// thread holds; the returned `(held, acquired)` edges are the fresh
    /// ones that closed a cycle. A T3 or T4 pops the lock off the thread's
    /// nesting.
    pub fn observe(&mut self, event: &Event) -> Vec<(u64, u64)> {
        let mut closing = Vec::new();
        if let Some(lock) = event.kind.acquired() {
            let held = self.held.entry(event.thread).or_default();
            for &h in held.iter().filter(|&&h| h != lock) {
                let threads = self.edges.entry(h).or_default().entry(lock).or_default();
                let fresh = threads.is_empty();
                threads.insert(event.thread);
                if fresh && reaches(&self.edges, lock, h) {
                    closing.push((h, lock));
                }
            }
            held.push(lock);
        } else if let Some(lock) = event.kind.released() {
            if let Some(held) = self.held.get_mut(&event.thread) {
                if let Some(pos) = held.iter().rposition(|&h| h == lock) {
                    held.remove(pos);
                }
            }
        }
        closing
    }

    /// Forget `thread`'s nesting after a capture gap. Post-gap nesting is
    /// rebuilt only from observed acquires, so every later edge is still a
    /// real nesting (missing edges only shrink cycles).
    pub fn forget_thread(&mut self, thread: u64) {
        self.held.remove(&thread);
    }

    /// Edges as (from, to, threads) triples.
    pub fn edges(&self) -> Vec<(u64, u64, Vec<u64>)> {
        let mut out = Vec::new();
        for (&a, targets) in &self.edges {
            for (&b, threads) in targets {
                out.push((a, b, threads.iter().copied().collect()));
            }
        }
        out
    }

    /// Find all elementary cycles' node sets (reported once per strongly
    /// connected component with ≥ 2 nodes, or a self-loop).
    pub fn cycles(&self) -> Vec<LockOrderCycle> {
        let nodes: Vec<u64> = self
            .edges
            .iter()
            .flat_map(|(&a, ts)| std::iter::once(a).chain(ts.keys().copied()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let index_of: BTreeMap<u64, usize> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let adj: Vec<Vec<usize>> = nodes
            .iter()
            .map(|a| {
                self.edges
                    .get(a)
                    .map(|ts| ts.keys().map(|b| index_of[b]).collect())
                    .unwrap_or_default()
            })
            .collect();

        let mut sccs = tarjan_scc(&adj);
        sccs.retain(|scc| {
            scc.len() > 1 || adj[scc[0]].contains(&scc[0]) // self-loop
        });
        sccs.into_iter()
            .map(|mut scc| {
                scc.sort_unstable();
                LockOrderCycle {
                    locks: scc.into_iter().map(|i| nodes[i]).collect(),
                }
            })
            .collect()
    }

    /// True when the graph has no cycles — a consistent global lock order
    /// exists.
    pub fn is_acyclic(&self) -> bool {
        self.cycles().is_empty()
    }
}

/// Is `to` reachable from `from` along `edges`?
fn reaches(edges: &BTreeMap<u64, BTreeMap<u64, BTreeSet<u64>>>, from: u64, to: u64) -> bool {
    let mut stack = vec![from];
    let mut seen = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if seen.insert(n) {
            if let Some(targets) = edges.get(&n) {
                stack.extend(targets.keys().copied());
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    use jcc_petri::event::EventKind;
    use jcc_petri::Transition;

    fn fire(thread: u64, t: Transition, lock: u64) -> Event {
        let kind = EventKind::Transition { t, lock };
        Event {
            seq: 0,
            thread,
            kind,
        }
    }
    fn acq(thread: u64, lock: u64) -> Event {
        fire(thread, Transition::T2, lock)
    }
    fn rel(thread: u64, lock: u64) -> Event {
        fire(thread, Transition::T4, lock)
    }

    #[test]
    fn consistent_order_is_acyclic() {
        let events = vec![
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            acq(2, 1),
            acq(2, 2),
            rel(2, 2),
            rel(2, 1),
        ];
        let g = LockOrderGraph::build(&events);
        assert!(g.is_acyclic());
        assert_eq!(g.edges().len(), 1);
    }

    #[test]
    fn opposite_orders_cycle() {
        let events = vec![
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            acq(2, 2),
            acq(2, 1),
            rel(2, 1),
            rel(2, 2),
        ];
        let g = LockOrderGraph::build(&events);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec![1, 2]);
    }

    #[test]
    fn a_hand_over_hand_chain_needs_no_deep_stack() {
        // Hold l_i, take l_{i+1}, release l_i: a 20 000-lock chain of
        // edges, then one acquire of l_0 under l_{n-1} closes it into a
        // ring. Both SCC passes run on a 2 MiB thread.
        let n = 20_000;
        let handle = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(move || {
                let mut g = LockOrderGraph::new();
                g.observe(&acq(1, 0));
                for i in 0..n - 1 {
                    g.observe(&acq(1, i + 1));
                    g.observe(&rel(1, i));
                }
                let chain = g.cycles();
                let closing = g.observe(&acq(1, 0));
                (chain, closing, g.cycles())
            })
            .unwrap();
        let (chain, closing, ring) = handle.join().unwrap();
        assert!(chain.is_empty());
        assert_eq!(closing, vec![(n - 1, 0)]);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].locks, (0..n).collect::<Vec<u64>>());
    }

    #[test]
    fn three_lock_rotation_cycles() {
        let events = vec![
            acq(1, 1),
            acq(1, 2),
            rel(1, 2),
            rel(1, 1),
            acq(2, 2),
            acq(2, 3),
            rel(2, 3),
            rel(2, 2),
            acq(3, 3),
            acq(3, 1),
            rel(3, 1),
            rel(3, 3),
        ];
        let g = LockOrderGraph::build(&events);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks, vec![1, 2, 3]);
    }

    #[test]
    fn wait_release_breaks_nesting() {
        // Thread holds 1, acquires 2, releases 2 via wait, re-acquires:
        // still just edge 1 -> 2.
        let events = vec![acq(1, 1), acq(1, 2), rel(1, 2), acq(1, 2)];
        let g = LockOrderGraph::build(&events);
        assert!(g.is_acyclic());
    }

    #[test]
    fn lock_order_component_detected_via_vm() {
        use jcc_vm::{compile, CallSpec, RunConfig, ThreadSpec, Vm};
        let c = jcc_model::examples::lock_order_deadlock();
        // A single thread running both methods sequentially exhibits both
        // acquisition orders without deadlocking — the detector predicts the
        // deadlock a concurrent run could hit.
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "t".into(),
                calls: vec![
                    CallSpec::new("forward", vec![]),
                    CallSpec::new("backward", vec![]),
                ],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let g = LockOrderGraph::build(&out.trace);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "opposite lock orders must cycle");
        // Locks 1 and 2 are `a` and `b` (0 is `this`).
        assert_eq!(cycles[0].locks, vec![1, 2]);
    }

    #[test]
    fn edges_record_threads() {
        let events = vec![acq(7, 1), acq(7, 2)];
        let g = LockOrderGraph::build(&events);
        let edges = g.edges();
        assert_eq!(edges, vec![(1, 2, vec![7])]);
    }

    #[test]
    fn dining_philosophers_cycle_predicted_and_fix_verified() {
        use jcc_vm::{compile, CallSpec, RunConfig, ThreadSpec, Vm};
        // The circular version: one probe thread runs all three eats;
        // the lock-order graph must contain the 3-cycle.
        let bad = jcc_model::examples::dining_deadlock();
        let mut vm = Vm::new(
            compile(&bad).unwrap(),
            vec![ThreadSpec {
                name: "probe".into(),
                calls: vec![
                    CallSpec::new("eat0", vec![]),
                    CallSpec::new("eat1", vec![]),
                    CallSpec::new("eat2", vec![]),
                ],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let g = LockOrderGraph::build(&out.trace);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks.len(), 3);

        // The hierarchy-ordered version: acyclic.
        let good = jcc_model::examples::dining_ordered();
        let mut vm = Vm::new(
            compile(&good).unwrap(),
            vec![ThreadSpec {
                name: "probe".into(),
                calls: vec![
                    CallSpec::new("eat0", vec![]),
                    CallSpec::new("eat1", vec![]),
                    CallSpec::new("eat2", vec![]),
                ],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let g = LockOrderGraph::build(&out.trace);
        assert!(g.is_acyclic());
    }

    #[test]
    fn dining_deadlock_confirmed_and_fix_holds_exhaustively() {
        use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Vm};
        let philosophers = |component: &jcc_model::Component| {
            let vm = Vm::new(
                compile(component).unwrap(),
                (0..3)
                    .map(|i| ThreadSpec {
                        name: format!("p{i}"),
                        calls: vec![CallSpec::new(format!("eat{i}"), vec![])],
                    })
                    .collect(),
            );
            explore(vm, &ExploreConfig::default(), None)
        };
        let bad = philosophers(&jcc_model::examples::dining_deadlock());
        assert!(bad.deadlock_paths > 0, "circular wait must deadlock somewhere");
        let good = philosophers(&jcc_model::examples::dining_ordered());
        assert_eq!(good.deadlock_paths, 0, "resource hierarchy prevents deadlock");
        assert!(good.completed_paths > 0);
    }
}
