//! E1 — regenerate Figure 1: the petri-net model of Java concurrency.
//!
//! Prints the net's structure, its DOT rendering, the reachability graph of
//! the single-thread model, the discovered place invariants, and the
//! dashed-arc side condition's effect (the wait-forever dead state).

use jcc_core::petri::{
    dot, invariant, JavaNet, ReachGraph, ReachLimits, Transition,
};

fn main() {
    let reporter = jcc_core::obs::BenchReporter::init("fig1_model");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }
    say!("=== Figure 1: petri-net model of concurrency ===\n");
    let j = JavaNet::new(1);
    let net = j.net();

    say!(
        "Places ({}): A (outside), B (requesting), C (critical section), D (waiting), E (lock available)",
        net.num_places()
    );
    say!("Transitions ({}):", net.num_transitions());
    for t in Transition::ALL {
        let id = j.transition(0, t);
        let ins: Vec<&str> = net.inputs(id).iter().map(|&(p, _)| net.place_name(p)).collect();
        let outs: Vec<&str> = net.outputs(id).iter().map(|&(p, _)| net.place_name(p)).collect();
        say!(
            "  {t}: {} — {} -> {}",
            t.description(),
            ins.join("+"),
            outs.join("+")
        );
    }

    say!("\n--- DOT rendering (initial marking) ---");
    say!("{}", dot::net_to_dot(net, &net.initial_marking()));

    say!("--- Reachability (1 thread, raw net) ---");
    let g = ReachGraph::explore(net, ReachLimits::default());
    let stats = g.stats();
    say!(
        "states: {}, edges: {}, deadlocks: {}, 1-bounded: {}",
        stats.states,
        stats.edges,
        stats.deadlocks,
        g.is_k_bounded(1)
    );
    for (i, m) in g.markings().enumerate() {
        say!("  s{i}: {}", dot::marking_label(net, m));
    }

    say!("\n--- Reachability under the dashed-arc side condition ---");
    let gf = ReachGraph::explore_filtered(net, ReachLimits::default(), j.notify_side_condition());
    let dead = gf.dead_states();
    say!(
        "states: {}, dead states: {} (a lone thread that waits can never be woken)",
        gf.stats().states,
        dead.len()
    );
    for &s in &dead {
        let path = gf.path_to(s).unwrap();
        let names: Vec<&str> = path.iter().map(|&t| net.transition_name(t)).collect();
        say!(
            "  dead: {} via firing sequence {}",
            dot::marking_label(net, gf.marking(s)),
            names.join(", ")
        );
    }

    say!("\n--- Place invariants (P-semiflows) ---");
    let basis = invariant::invariant_basis(net);
    for b in &basis {
        let terms: Vec<String> = net
            .places()
            .filter(|&p| b[p.index()] != 0)
            .map(|p| {
                let w = b[p.index()];
                if w == 1 {
                    net.place_name(p).to_string()
                } else {
                    format!("{w}·{}", net.place_name(p))
                }
            })
            .collect();
        let value = invariant::weighted_sum(&net.initial_marking(), b);
        say!("  {} = {value} (conserved)", terms.join(" + "));
    }

    say!("\n--- N-thread composition ---");
    for threads in 1..=4 {
        let jn = JavaNet::new(threads);
        let g = ReachGraph::explore(jn.net(), ReachLimits::default());
        say!(
            "  {threads} thread(s): {} states, {} edges, mutex invariant holds: {}",
            g.stats().states,
            g.stats().edges,
            invariant::is_invariant(jn.net(), &jn.mutex_invariant())
        );
    }
    reporter.finish();
}
