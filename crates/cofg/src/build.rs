//! CoFG construction.
//!
//! The builder threads the method body into a small control-flow graph whose
//! interesting nodes are the concurrency statements, then derives one CoFG
//! arc per pair of concurrency nodes connected by a region of ordinary code
//! (a path through the CFG crossing no other concurrency node). Conditions
//! collected along the path become the arc's traversal witness; the arc's
//! transition list is the source node's firing contribution followed by the
//! destination node's, exactly as the paper assigns them in Section 6.1:
//!
//! * `start` of a synchronized method contributes `T1,T2` when left,
//! * `wait` contributes `T3` on entry and `T3,T5,T2` when left
//!   (its own suspension, the wake-up, and lock re-acquisition),
//! * `notify`/`notifyAll` contribute `T5` in both roles,
//! * explicit `synchronized` blocks contribute `T1` on entry / `T2` when
//!   left (enter node) and `T4` on entry (exit node),
//! * `end` of a synchronized method contributes `T4`.

use jcc_model::ast::{Block, Component, Method, Stmt, StmtPath, ELSE_OFFSET};
use jcc_model::pretty::print_expr;
use jcc_petri::Transition;

use crate::graph::{Arc, Cofg, Condition, Node, NodeId, NodeKind};

/// Build the CoFG of one method.
pub fn build_cofg(component: &Component, method: &Method) -> Cofg {
    Builder::new(component, method).run()
}

/// Build CoFGs for every method of a component, in declaration order.
pub fn build_component_cofgs(component: &Component) -> Vec<Cofg> {
    component
        .methods
        .iter()
        .map(|m| build_cofg(component, m))
        .collect()
}

#[derive(Debug)]
struct CfgEdge {
    target: usize,
    cond: Option<Condition>,
}

#[derive(Debug)]
struct CfgNode {
    /// `Some(i)` when this CFG node is the i-th CoFG (concurrency) node.
    conc: Option<usize>,
    succs: Vec<CfgEdge>,
}

struct Builder<'a> {
    method: &'a Method,
    component: &'a Component,
    nodes: Vec<Node>,
    cfg: Vec<CfgNode>,
    /// CFG index per CoFG node.
    conc_cfg: Vec<usize>,
    exit_junction: usize,
    /// Stack of SyncExit CFG indices for enclosing explicit blocks.
    sync_exits: Vec<usize>,
}

impl<'a> Builder<'a> {
    fn new(component: &'a Component, method: &'a Method) -> Self {
        Builder {
            method,
            component,
            nodes: Vec::new(),
            cfg: Vec::new(),
            conc_cfg: Vec::new(),
            exit_junction: 0,
            sync_exits: Vec::new(),
        }
    }

    fn junction(&mut self) -> usize {
        self.cfg.push(CfgNode {
            conc: None,
            succs: Vec::new(),
        });
        self.cfg.len() - 1
    }

    fn conc_node(&mut self, kind: NodeKind, path: Option<StmtPath>, lock: String) -> usize {
        let conc_idx = self.nodes.len();
        self.nodes.push(Node { kind, path, lock });
        self.cfg.push(CfgNode {
            conc: Some(conc_idx),
            succs: Vec::new(),
        });
        let cfg_idx = self.cfg.len() - 1;
        self.conc_cfg.push(cfg_idx);
        cfg_idx
    }

    fn edge(&mut self, from: usize, to: usize, cond: Option<Condition>) {
        self.cfg[from].succs.push(CfgEdge { target: to, cond });
    }

    fn run(mut self) -> Cofg {
        let start_cfg = self.conc_node(NodeKind::Start, None, "this".to_string());
        self.exit_junction = self.junction();
        let exit_junction = self.exit_junction;

        let mut path = Vec::new();
        if let Some(fallthrough) = self.thread_block(&self.method.body, start_cfg, &mut path) {
            self.edge(fallthrough, exit_junction, None);
        }

        let end_cfg = self.conc_node(NodeKind::End, None, "this".to_string());
        self.edge(exit_junction, end_cfg, None);

        let arcs = self.derive_arcs();
        Cofg {
            component: self.component.name.clone(),
            method: self.method.name.clone(),
            nodes: self.nodes,
            arcs,
        }
    }

    /// Thread `block` starting from CFG node `cur`; returns the fall-through
    /// CFG node, or `None` if every path returns.
    fn thread_block(
        &mut self,
        block: &Block,
        mut cur: usize,
        path: &mut Vec<usize>,
    ) -> Option<usize> {
        for (i, stmt) in block.iter().enumerate() {
            path.push(i);
            let next = self.thread_stmt(stmt, cur, path);
            path.pop();
            match next {
                Some(n) => cur = n,
                None => return None, // the rest of the block is unreachable
            }
        }
        Some(cur)
    }

    fn thread_stmt(&mut self, stmt: &Stmt, cur: usize, path: &mut Vec<usize>) -> Option<usize> {
        match stmt {
            Stmt::Wait { lock } => {
                let n = self.conc_node(
                    NodeKind::Wait,
                    Some(StmtPath(path.clone())),
                    lock.to_string(),
                );
                self.edge(cur, n, None);
                Some(n)
            }
            Stmt::Notify { lock } => {
                let n = self.conc_node(
                    NodeKind::Notify,
                    Some(StmtPath(path.clone())),
                    lock.to_string(),
                );
                self.edge(cur, n, None);
                Some(n)
            }
            Stmt::NotifyAll { lock } => {
                let n = self.conc_node(
                    NodeKind::NotifyAll,
                    Some(StmtPath(path.clone())),
                    lock.to_string(),
                );
                self.edge(cur, n, None);
                Some(n)
            }
            Stmt::While { cond, body } => {
                let header = self.junction();
                self.edge(cur, header, None);
                let cond_str = print_expr(cond);
                let body_entry = self.junction();
                self.edge(
                    header,
                    body_entry,
                    Some(Condition {
                        expr: cond_str.clone(),
                        value: true,
                    }),
                );
                if let Some(body_exit) = self.thread_block(body, body_entry, path) {
                    self.edge(body_exit, header, None);
                }
                let after = self.junction();
                self.edge(
                    header,
                    after,
                    Some(Condition {
                        expr: cond_str,
                        value: false,
                    }),
                );
                Some(after)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond_str = print_expr(cond);
                let then_entry = self.junction();
                self.edge(
                    cur,
                    then_entry,
                    Some(Condition {
                        expr: cond_str.clone(),
                        value: true,
                    }),
                );
                let else_entry = self.junction();
                self.edge(
                    cur,
                    else_entry,
                    Some(Condition {
                        expr: cond_str,
                        value: false,
                    }),
                );
                let then_exit = self.thread_block(then_branch, then_entry, path);
                // Else-branch statement paths use the offset convention.
                let else_exit = {
                    let mut cur_else = else_entry;
                    let mut fell_through = Some(cur_else);
                    for (j, s) in else_branch.iter().enumerate() {
                        path.push(ELSE_OFFSET + j);
                        let next = self.thread_stmt(s, cur_else, path);
                        path.pop();
                        match next {
                            Some(n) => {
                                cur_else = n;
                                fell_through = Some(n);
                            }
                            None => {
                                fell_through = None;
                                break;
                            }
                        }
                    }
                    fell_through
                };
                match (then_exit, else_exit) {
                    (None, None) => None,
                    (a, b) => {
                        let join = self.junction();
                        if let Some(t) = a {
                            self.edge(t, join, None);
                        }
                        if let Some(e) = b {
                            self.edge(e, join, None);
                        }
                        Some(join)
                    }
                }
            }
            Stmt::Synchronized { lock, body } => {
                let enter = self.conc_node(
                    NodeKind::SyncEnter,
                    Some(StmtPath(path.clone())),
                    lock.to_string(),
                );
                self.edge(cur, enter, None);
                let exit = self.conc_node(
                    NodeKind::SyncExit,
                    Some(StmtPath(path.clone())),
                    lock.to_string(),
                );
                self.sync_exits.push(exit);
                let body_exit = self.thread_block(body, enter, path);
                self.sync_exits.pop();
                if let Some(b) = body_exit {
                    self.edge(b, exit, None);
                    Some(exit)
                } else {
                    // Every path inside returned; the exit node is still
                    // reachable via those return paths (threaded below), so
                    // control does not fall through the block.
                    None
                }
            }
            Stmt::Return(_) => {
                // A return releases every enclosing explicit block (inner to
                // outer) and then reaches the method end.
                let mut at = cur;
                let exits: Vec<usize> = self.sync_exits.iter().rev().copied().collect();
                for exit in exits {
                    self.edge(at, exit, None);
                    at = exit;
                }
                let exit_junction = self.exit_junction;
                self.edge(at, exit_junction, None);
                None
            }
            // Ordinary statements are part of the region; no CFG node needed.
            Stmt::Assign { .. } | Stmt::Local { .. } | Stmt::Skip => Some(cur),
        }
    }

    /// Derive arcs: from each concurrency node, walk junction chains to the
    /// next concurrency nodes, collecting conditions.
    fn derive_arcs(&self) -> Vec<Arc> {
        let mut arcs: Vec<Arc> = Vec::new();
        for (conc_idx, &cfg_idx) in self.conc_cfg.iter().enumerate() {
            let from = NodeId(conc_idx);
            let mut visited = vec![false; self.cfg.len()];
            let mut conds = Vec::new();
            self.walk(cfg_idx, from, &mut visited, &mut conds, &mut arcs, true);
        }
        arcs
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        cfg_idx: usize,
        from: NodeId,
        visited: &mut Vec<bool>,
        conds: &mut Vec<Condition>,
        arcs: &mut Vec<Arc>,
        is_origin: bool,
    ) {
        if !is_origin {
            if let Some(conc) = self.cfg[cfg_idx].conc {
                self.emit(from, NodeId(conc), conds.clone(), arcs);
                return;
            }
            if visited[cfg_idx] {
                return; // junction cycle: region loops with no concurrency
            }
            visited[cfg_idx] = true;
        }
        for edge in &self.cfg[cfg_idx].succs {
            let pushed = if let Some(c) = &edge.cond {
                conds.push(c.clone());
                true
            } else {
                false
            };
            self.walk(edge.target, from, visited, conds, arcs, false);
            if pushed {
                conds.pop();
            }
        }
        if !is_origin {
            visited[cfg_idx] = false;
        }
    }

    fn emit(&self, from: NodeId, to: NodeId, witness: Vec<Condition>, arcs: &mut Vec<Arc>) {
        let transitions = self.arc_transitions(from, to);
        if let Some(existing) = arcs.iter_mut().find(|a| a.from == from && a.to == to) {
            if !existing.witnesses.contains(&witness) {
                existing.witnesses.push(witness);
            }
        } else {
            arcs.push(Arc {
                from,
                to,
                witnesses: vec![witness],
                transitions,
            });
        }
    }

    fn arc_transitions(&self, from: NodeId, to: NodeId) -> Vec<Transition> {
        let mut out = Vec::new();
        match self.nodes[from.0].kind {
            NodeKind::Start => {
                if self.method.synchronized {
                    out.extend([Transition::T1, Transition::T2]);
                }
            }
            NodeKind::Wait => out.extend([Transition::T3, Transition::T5, Transition::T2]),
            NodeKind::Notify | NodeKind::NotifyAll => out.push(Transition::T5),
            NodeKind::SyncEnter => out.push(Transition::T2),
            NodeKind::SyncExit | NodeKind::End => {}
        }
        match self.nodes[to.0].kind {
            NodeKind::Wait => out.push(Transition::T3),
            NodeKind::Notify | NodeKind::NotifyAll => out.push(Transition::T5),
            NodeKind::SyncEnter => out.push(Transition::T1),
            NodeKind::SyncExit => out.push(Transition::T4),
            NodeKind::End => {
                if self.method.synchronized {
                    out.push(Transition::T4);
                }
            }
            NodeKind::Start => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind as K;
    use jcc_model::examples;
    use jcc_petri::Transition as T;

    fn arc_set(g: &Cofg) -> Vec<(String, String, Vec<T>)> {
        g.arcs
            .iter()
            .map(|a| {
                (
                    g.label(a.from),
                    g.label(a.to),
                    a.transitions.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn receive_cofg_matches_figure_3() {
        let c = examples::producer_consumer();
        let g = build_cofg(&c, c.method("receive").unwrap());
        // Nodes: start, wait, notifyAll, end.
        let kinds: Vec<_> = g.nodes.iter().map(|n| n.kind).collect();
        assert_eq!(kinds, vec![K::Start, K::Wait, K::NotifyAll, K::End]);
        // Exactly the five arcs of Figure 3.
        let arcs = arc_set(&g);
        assert_eq!(arcs.len(), 5, "{arcs:?}");
        let find = |f: &str, t: &str| {
            arcs.iter()
                .find(|(af, at, _)| af == f && at == t)
                .unwrap_or_else(|| panic!("missing arc {f} -> {t}"))
                .2
                .clone()
        };
        // Arc 1: start -> wait fires T1, T2, T3.
        assert_eq!(find("start", "wait"), vec![T::T1, T::T2, T::T3]);
        // Arc 2: wait -> wait fires T3, T5, T2, T3.
        assert_eq!(find("wait", "wait"), vec![T::T3, T::T5, T::T2, T::T3]);
        // Arc 3: wait -> notifyAll. The paper prints "T3, T4, T5"; the
        // systematic derivation gives T3 (own wait), T5 (woken), T2
        // (reacquire), T5 (the notification it issues) — see `paper`.
        assert_eq!(
            find("wait", "notifyAll"),
            vec![T::T3, T::T5, T::T2, T::T5]
        );
        // Arc 4: start -> notifyAll fires T1, T2, T5.
        assert_eq!(find("start", "notifyAll"), vec![T::T1, T::T2, T::T5]);
        // Arc 5: notifyAll -> end fires T5, T4.
        assert_eq!(find("notifyAll", "end"), vec![T::T5, T::T4]);
    }

    #[test]
    fn receive_arc_conditions_match_figure_3() {
        let c = examples::producer_consumer();
        let g = build_cofg(&c, c.method("receive").unwrap());
        let wait = g.node_by_path(&jcc_model::ast::StmtPath(vec![0, 0])).unwrap();
        // start -> wait requires the while condition true.
        let a = &g.arcs[g.arc_between(g.start(), wait).unwrap()];
        assert_eq!(a.witnesses.len(), 1);
        assert_eq!(a.witnesses[0].len(), 1);
        assert!(a.witnesses[0][0].expr.contains("curPos"));
        assert!(a.witnesses[0][0].value);
        // wait -> notifyAll requires it false.
        let na = g
            .nodes
            .iter()
            .position(|n| n.kind == K::NotifyAll)
            .map(NodeId)
            .unwrap();
        let a = &g.arcs[g.arc_between(wait, na).unwrap()];
        assert!(!a.witnesses[0][0].value);
        // notifyAll -> end is unconditional.
        let a = &g.arcs[g.arc_between(na, g.end()).unwrap()];
        assert!(a.witnesses[0].is_empty());
    }

    #[test]
    fn send_cofg_identical_to_receive() {
        // "The CoFG for send is identical to that for receive in this case."
        let c = examples::producer_consumer();
        let receive = build_cofg(&c, c.method("receive").unwrap());
        let send = build_cofg(&c, c.method("send").unwrap());
        assert!(receive.isomorphic(&send));
    }

    #[test]
    fn non_synchronized_method_has_no_lock_transitions() {
        let c = examples::racy_counter();
        let g = build_cofg(&c, c.method("increment").unwrap());
        // start -> end only, firing nothing.
        assert_eq!(g.arcs.len(), 1);
        assert!(g.arcs[0].transitions.is_empty());
    }

    #[test]
    fn explicit_sync_block_nodes() {
        let c = examples::lock_order_deadlock();
        let g = build_cofg(&c, c.method("forward").unwrap());
        let kinds: Vec<_> = g.nodes.iter().map(|n| n.kind).collect();
        assert_eq!(
            kinds,
            vec![
                K::Start,
                K::SyncEnter,
                K::SyncExit,
                K::SyncEnter,
                K::SyncExit,
                K::End
            ]
        );
        // Locks recorded.
        assert_eq!(g.nodes[1].lock, "a");
        assert_eq!(g.nodes[3].lock, "b");
        // Arcs: start->enter(a), enter(a)->enter(b), enter(b)->exit(b),
        // exit(b)->exit(a), exit(a)->end.
        assert_eq!(g.arcs.len(), 5);
        // enter(a) -> enter(b): leaving enter(a) fires T2 (acquired a),
        // arriving at enter(b) fires T1 (request b).
        let a_enter = NodeId(1);
        let b_enter = NodeId(3);
        let arc = &g.arcs[g.arc_between(a_enter, b_enter).unwrap()];
        assert_eq!(arc.transitions, vec![T::T2, T::T1]);
    }

    #[test]
    fn early_return_threads_through_sync_exits() {
        let src = r#"
            class R {
              final Object a = new Object();
              int n = 0;
              int m() {
                synchronized (a) {
                  if (n > 0) { return 1; }
                  n = n + 1;
                }
                return 0;
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let g = build_cofg(&c, c.method("m").unwrap());
        // The return inside the block must route through the SyncExit node.
        let exit_id = g
            .nodes
            .iter()
            .position(|n| n.kind == K::SyncExit)
            .map(NodeId)
            .unwrap();
        let arc = g.arc_between(exit_id, g.end());
        assert!(arc.is_some(), "sync-exit must reach end");
        // And there are two ways out of the block: early return (n > 0) and
        // fall-through, giving the exit->end arc or exit->end via region.
        let a = &g.arcs[arc.unwrap()];
        assert!(!a.witnesses.is_empty());
    }

    #[test]
    fn barrier_if_both_branches_produce_arcs() {
        let c = examples::barrier();
        let g = build_cofg(&c, c.method("await").unwrap());
        // Nodes: start, notifyAll (then-branch), wait, end.
        let kinds: Vec<_> = g.nodes.iter().map(|n| n.kind).collect();
        assert_eq!(kinds, vec![K::Start, K::NotifyAll, K::Wait, K::End]);
        // start -> notifyAll (arrived == parties true), start -> wait
        // (false, loop true), start -> end (false, loop false),
        // notifyAll -> end, wait -> wait, wait -> end.
        assert_eq!(g.arcs.len(), 6, "{:#?}", g.arcs);
    }

    #[test]
    fn infinite_loop_without_concurrency_kills_arcs() {
        // HoldLockForever shape: while(true){skip} at method start means no
        // concurrency node is reachable from start except through... nothing.
        let src = r#"
            class H {
              int v = 0;
              synchronized void m() {
                while (true) { Thread.yield(); }
                notifyAll();
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let g = build_cofg(&c, c.method("m").unwrap());
        // start can only reach notifyAll via the loop exiting (cond false) —
        // the arc still exists *statically* (condition `true == false`), and
        // the loop itself produces no arc. No start->start cycles.
        assert!(g.arcs.iter().all(|a| a.from != a.to || g.node(a.from).kind != K::Start));
    }

    #[test]
    fn all_corpus_methods_build() {
        for (name, c) in examples::corpus() {
            for g in build_component_cofgs(&c) {
                assert!(
                    g.nodes.len() >= 2,
                    "{name}::{} has fewer than 2 nodes",
                    g.method
                );
                assert_eq!(g.node(g.start()).kind, K::Start);
                assert_eq!(g.node(g.end()).kind, K::End);
                // Every arc endpoint is a valid node.
                for a in &g.arcs {
                    assert!(a.from.0 < g.nodes.len());
                    assert!(a.to.0 < g.nodes.len());
                }
            }
        }
    }

    #[test]
    fn deterministic_construction() {
        let c = examples::readers_writers();
        let g1 = build_component_cofgs(&c);
        let g2 = build_component_cofgs(&c);
        assert_eq!(g1, g2);
    }
}
