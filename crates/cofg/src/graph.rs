//! The CoFG data structure: nodes (concurrency statements), arcs (code
//! regions) and the condition/transition annotations on arcs.

use std::fmt;

use jcc_model::ast::StmtPath;
use jcc_petri::Transition;

/// Index of a node within a [`Cofg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// The kinds of concurrency nodes a CoFG contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Method entry. For a `synchronized` method this is also the monitor
    /// acquisition point (fires T1, T2 when left).
    Start,
    /// A `wait` statement.
    Wait,
    /// A `notify` statement.
    Notify,
    /// A `notifyAll` statement.
    NotifyAll,
    /// Entry to an explicit `synchronized (lock)` block (fires T1 on entry,
    /// T2 when granted).
    SyncEnter,
    /// Exit of an explicit `synchronized (lock)` block (fires T4).
    SyncExit,
    /// Method exit. For a `synchronized` method this is also the monitor
    /// release point (fires T4 when reached).
    End,
}

impl NodeKind {
    /// The display name used in Figure 3.
    pub fn display(self) -> &'static str {
        match self {
            NodeKind::Start => "start",
            NodeKind::Wait => "wait",
            NodeKind::Notify => "notify",
            NodeKind::NotifyAll => "notifyAll",
            NodeKind::SyncEnter => "sync-enter",
            NodeKind::SyncExit => "sync-exit",
            NodeKind::End => "end",
        }
    }
}

/// A CoFG node: a concurrency statement (or method boundary) of one method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// What kind of concurrency statement this is.
    pub kind: NodeKind,
    /// The statement path within the method body, for statement nodes
    /// (`None` for `Start`/`End`).
    pub path: Option<StmtPath>,
    /// The lock involved, as a display string (`this` for the receiver).
    pub lock: String,
}

/// A branch/loop condition with the polarity required to traverse an arc.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Condition {
    /// Pretty-printed condition expression.
    pub expr: String,
    /// The value the condition must evaluate to.
    pub value: bool,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} == {}", self.expr, self.value)
    }
}

/// A CoFG arc: the code region between two concurrency statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arc {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Alternative condition sets: each inner vector is one way of
    /// traversing the region (all its conditions must hold). Figure 3's
    /// arcs each have exactly one witness.
    pub witnesses: Vec<Vec<Condition>>,
    /// The Figure-1 transitions fired when this arc is traversed
    /// (source contribution, then destination contribution).
    pub transitions: Vec<Transition>,
}

/// A Concurrency Flow Graph for one method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cofg {
    /// Component name.
    pub component: String,
    /// Method name.
    pub method: String,
    /// Nodes; index 0 is always `Start`, the last node is always `End`.
    pub nodes: Vec<Node>,
    /// Arcs in deterministic construction order.
    pub arcs: Vec<Arc>,
}

impl Cofg {
    /// The node id of the `Start` node.
    pub fn start(&self) -> NodeId {
        NodeId(0)
    }

    /// The node id of the `End` node.
    pub fn end(&self) -> NodeId {
        NodeId(self.nodes.len() - 1)
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Find the node for a statement path, if any. An explicit
    /// `synchronized` block has two nodes on the same path: `exit` picks its
    /// `SyncExit` node instead of its entry node.
    pub fn node_at(&self, path: &[usize], exit: bool) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| {
                n.path.as_ref().is_some_and(|p| p.0 == path)
                    && (n.kind == NodeKind::SyncExit) == exit
            })
            .map(NodeId)
    }

    /// Find the arc connecting `from` to `to`, if any.
    pub fn arc_between(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.arcs.iter().position(|a| a.from == from && a.to == to)
    }

    /// A disambiguated label for a node: the kind name, with `#k` appended
    /// when the method has several nodes of that kind (k is 1-based in
    /// declaration order). `start`/`end` are always unique.
    pub fn label(&self, id: NodeId) -> String {
        let kind = self.nodes[id.0].kind;
        let same_kind: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == kind)
            .map(|(i, _)| i)
            .collect();
        if same_kind.len() <= 1 {
            kind.display().to_string()
        } else {
            let k = same_kind.iter().position(|&i| i == id.0).unwrap() + 1;
            format!("{}#{k}", kind.display())
        }
    }

    /// Human-readable arc description, e.g.
    /// `start -> wait [curPos == 0 == true] fires T1,T2,T3`.
    pub fn describe_arc(&self, idx: usize) -> String {
        let arc = &self.arcs[idx];
        let conds = arc
            .witnesses
            .iter()
            .map(|w| {
                if w.is_empty() {
                    "always".to_string()
                } else {
                    w.iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(" && ")
                }
            })
            .collect::<Vec<_>>()
            .join(" | ");
        let fires = arc
            .transitions
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{} -> {} [{}] fires {}",
            self.label(arc.from),
            self.label(arc.to),
            conds,
            fires
        )
    }

    /// Two CoFGs are *isomorphic* when their node kind sequences and arc
    /// structure (by node kind and transition lists) coincide — the paper's
    /// sense in which "the CoFG for `send` is identical to that for
    /// `receive`".
    pub fn isomorphic(&self, other: &Cofg) -> bool {
        if self.nodes.len() != other.nodes.len() || self.arcs.len() != other.arcs.len() {
            return false;
        }
        if self
            .nodes
            .iter()
            .zip(&other.nodes)
            .any(|(a, b)| a.kind != b.kind)
        {
            return false;
        }
        self.arcs.iter().zip(&other.arcs).all(|(a, b)| {
            a.from == b.from && a.to == b.to && a.transitions == b.transitions
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cofg {
        Cofg {
            component: "C".into(),
            method: "m".into(),
            nodes: vec![
                Node {
                    kind: NodeKind::Start,
                    path: None,
                    lock: "this".into(),
                },
                Node {
                    kind: NodeKind::Wait,
                    path: Some(StmtPath(vec![0, 0])),
                    lock: "this".into(),
                },
                Node {
                    kind: NodeKind::End,
                    path: None,
                    lock: "this".into(),
                },
            ],
            arcs: vec![Arc {
                from: NodeId(0),
                to: NodeId(1),
                witnesses: vec![vec![Condition {
                    expr: "x".into(),
                    value: true,
                }]],
                transitions: vec![Transition::T1, Transition::T2, Transition::T3],
            }],
        }
    }

    #[test]
    fn start_end_ids() {
        let g = tiny();
        assert_eq!(g.start(), NodeId(0));
        assert_eq!(g.end(), NodeId(2));
        assert_eq!(g.node(g.start()).kind, NodeKind::Start);
    }

    #[test]
    fn node_by_path() {
        let g = tiny();
        assert_eq!(g.node_at(&[0, 0], false), Some(NodeId(1)));
        assert_eq!(g.node_at(&[0, 0], true), None);
        assert_eq!(g.node_at(&[9], false), None);
    }

    #[test]
    fn arc_lookup_and_description() {
        let g = tiny();
        assert_eq!(g.arc_between(NodeId(0), NodeId(1)), Some(0));
        assert_eq!(g.arc_between(NodeId(1), NodeId(0)), None);
        let d = g.describe_arc(0);
        assert!(d.contains("start -> wait"), "{d}");
        assert!(d.contains("fires T1,T2,T3"), "{d}");
    }

    #[test]
    fn labels_disambiguate_duplicates() {
        let mut g = tiny();
        g.nodes.insert(
            2,
            Node {
                kind: NodeKind::Wait,
                path: Some(StmtPath(vec![1])),
                lock: "this".into(),
            },
        );
        assert_eq!(g.label(NodeId(1)), "wait#1");
        assert_eq!(g.label(NodeId(2)), "wait#2");
        assert_eq!(g.label(NodeId(0)), "start");
    }

    #[test]
    fn isomorphic_to_self() {
        let g = tiny();
        assert!(g.isomorphic(&g));
        let mut h = g.clone();
        h.method = "other".into();
        assert!(g.isomorphic(&h));
        h.arcs[0].transitions.pop();
        assert!(!g.isomorphic(&h));
    }
}
