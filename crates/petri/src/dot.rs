//! Graphviz DOT rendering of nets, markings and reachability graphs —
//! the tooling behind regenerating Figure 1.

use std::fmt::Write as _;

use crate::net::{Marking, Net};
use crate::reach::ReachGraph;

/// Render `net` with `marking` as a DOT digraph in the paper's visual
/// conventions: places as circles (token count shown as bullet dots for
/// small counts), transitions as bars (boxes).
pub fn net_to_dot(net: &Net, marking: &Marking) -> String {
    let mut out = String::new();
    out.push_str("digraph petri {\n  rankdir=TB;\n");
    for p in net.places() {
        let tokens = marking.tokens(p);
        let bullet = match tokens {
            0 => String::new(),
            n if n <= 4 => "\\n".to_string() + &"●".repeat(n as usize),
            n => format!("\\n{n}"),
        };
        let _ = writeln!(
            out,
            "  \"{}\" [shape=circle, label=\"{}{}\"];",
            net.place_name(p),
            net.place_name(p),
            bullet
        );
    }
    for t in net.transitions() {
        let _ = writeln!(
            out,
            "  \"{}\" [shape=box, height=0.1, style=filled, fillcolor=black, fontcolor=white];",
            net.transition_name(t)
        );
        for &(p, w) in net.inputs(t) {
            let label = if w == 1 {
                String::new()
            } else {
                format!(" [label=\"{w}\"]")
            };
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\"{};",
                net.place_name(p),
                net.transition_name(t),
                label
            );
        }
        for &(p, w) in net.outputs(t) {
            let label = if w == 1 {
                String::new()
            } else {
                format!(" [label=\"{w}\"]")
            };
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\"{};",
                net.transition_name(t),
                net.place_name(p),
                label
            );
        }
    }
    out.push_str("}\n");
    out
}

/// Render a reachability graph as DOT: states labelled by nonzero places.
pub fn reach_to_dot(net: &Net, graph: &ReachGraph) -> String {
    let mut out = String::new();
    out.push_str("digraph reach {\n  rankdir=LR;\n");
    for (i, m) in graph.markings().enumerate() {
        let label = marking_label(net, m);
        let style = if i == 0 { ", penwidth=2" } else { "" };
        let _ = writeln!(out, "  s{i} [shape=ellipse, label=\"{label}\"{style}];");
    }
    for i in 0..graph.stats().states {
        for &(t, next) in graph.successors(i) {
            let _ = writeln!(
                out,
                "  s{i} -> s{next} [label=\"{}\"];",
                net.transition_name(t)
            );
        }
    }
    out.push_str("}\n");
    out
}

/// Human-readable marking label: comma-separated `place×count` for marked
/// places, `∅` for the empty marking.
pub fn marking_label(net: &Net, m: &[u32]) -> String {
    let parts: Vec<String> = net
        .places()
        .filter(|&p| m[p.index()] > 0)
        .map(|p| {
            let n = m[p.index()];
            if n == 1 {
                net.place_name(p).to_string()
            } else {
                format!("{}×{}", net.place_name(p), n)
            }
        })
        .collect();
    if parts.is_empty() {
        "∅".to_string()
    } else {
        parts.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::java_model::JavaNet;
    use crate::reach::{ReachGraph, ReachLimits};

    #[test]
    fn figure_1_dot_mentions_all_nodes() {
        let j = JavaNet::new(1);
        let dot = net_to_dot(j.net(), &j.net().initial_marking());
        for node in ["\"A\"", "\"B\"", "\"C\"", "\"D\"", "\"E\"", "\"T1\"", "\"T5\""] {
            assert!(dot.contains(node), "missing {node} in DOT output");
        }
        assert!(dot.starts_with("digraph petri {"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn initial_tokens_rendered_as_bullets() {
        let j = JavaNet::new(1);
        let dot = net_to_dot(j.net(), &j.net().initial_marking());
        // A and E carry one token each.
        assert_eq!(dot.matches('●').count(), 2);
    }

    #[test]
    fn reach_dot_has_one_node_per_state() {
        let j = JavaNet::new(1);
        let g = ReachGraph::explore(j.net(), ReachLimits::default());
        let dot = reach_to_dot(j.net(), &g);
        for i in 0..g.stats().states {
            assert!(dot.contains(&format!("s{i} [")));
        }
    }

    #[test]
    fn marking_labels() {
        let j = JavaNet::new(1);
        let net = j.net();
        let m0 = net.initial_marking();
        assert_eq!(marking_label(net, &m0.0), "E,A");
        assert_eq!(marking_label(net, &vec![0; net.num_places()]), "∅");
    }

    #[test]
    fn large_token_counts_render_numerically() {
        use crate::net::NetBuilder;
        let mut b = NetBuilder::new();
        b.place("big", 10);
        let net = b.build().unwrap();
        let dot = net_to_dot(&net, &net.initial_marking());
        assert!(dot.contains("big\\n10"));
        assert_eq!(marking_label(&net, &net.initial_marking().0), "big×10");
    }
}
