//! `net_reach`: the Figure-1 model. Each input is JavaNet(n), n ≤ 10,
//! explored either exhaustively under the notify side condition or with
//! ample-set + thread-symmetry reduction (which `explore_filtered` forces
//! off, so reduced inputs use `ReachGraph::explore` on the plain net).

use std::collections::BTreeMap;
use std::time::Instant;

use jcc_core::petri::{JavaNet, Parallelism, ReachGraph, ReachLimits, Reduction};

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Checked, Workload};

/// One round (31 inputs, about 0.2 s): every n in 1..=8 full and every n
/// in 1..=10 reduced, plus ten more full n = 6 and three more full n = 8.
/// The extra copies put the median and p90 latencies inside groups of
/// equal inputs instead of between two sizes whose costs differ
/// several-fold. Full n = 9 and 10 (0.2 and 1.2 s, 79k and 256k markings)
/// are left to the traced run's reach probe: a sample that long rarely
/// falls wholly inside one of the host's fast spells, and tables that
/// large make every sample depend on the neighbours' use of the memory
/// bus.
fn round_plan() -> Vec<(usize, bool)> {
    let mut plan: Vec<(usize, bool)> = (1..=10).map(|n| (n, true)).collect();
    plan.extend((1..=8).map(|n| (n, false)));
    plan.extend([(6, false); 10]);
    plan.extend([(8, false); 3]);
    plan
}

/// Reachable markings of the n-thread net, independent of any engine: with
/// the lock free each thread sits in A, B or D (3^n); with one thread in C
/// the other n-1 sit in A, B or D (n·3^(n-1)). E8 lists 4, 15, 54, 189,
/// 648, 2187 for n = 1..6 and 255 879 for n = 10.
fn expected_states(n: usize) -> usize {
    (n + 3) * 3usize.pow(n as u32 - 1)
}

pub struct NetReach {
    inputs: Vec<(JavaNet, bool)>,
}

pub fn setup(seed: u64) -> NetReach {
    let mut rng = Rng::new(seed);
    let mut inputs: Vec<(JavaNet, bool)> = round_plan()
        .into_iter()
        .map(|(n, reduced)| (JavaNet::new(n), reduced))
        .collect();
    rng.shuffle(&mut inputs);
    NetReach { inputs }
}

fn limits(threads: usize) -> ReachLimits {
    ReachLimits {
        parallelism: Parallelism::with_threads(threads),
        ..ReachLimits::default()
    }
}

impl Workload for NetReach {
    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn tail_percentile(&self) -> f64 {
        90.0
    }

    fn warm_up(&self) -> Vec<usize> {
        (0..self.inputs.len())
            .filter(|&i| self.inputs[i].0.threads() <= 8)
            .collect()
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Checked {
        let (net, reduced) = &self.inputs[i];
        let n = net.threads();
        let ok = if *reduced {
            // The plain net has no dead marking; the quotient must agree.
            let reduction = Reduction::full(Some(net.thread_symmetry()));
            let (states, dead, truncated) = tr.leaf("petri.reduced", || {
                let g = ReachGraph::explore(
                    net.net(),
                    ReachLimits {
                        reduction,
                        ..limits(1)
                    },
                );
                (
                    g.stats().states,
                    g.dead_states().len(),
                    g.stats().truncated.is_some(),
                )
            });
            tr.count("petri.reduced_states", states as f64);
            dead == 0 && !truncated && states <= expected_states(n)
        } else {
            // Under the side condition exactly one marking is dead: every
            // thread waiting, no notifier left.
            let (states, edges, dead, truncated) = tr.leaf("petri.reach", || {
                let g =
                    ReachGraph::explore_filtered(net.net(), limits(1), net.notify_side_condition());
                let s = g.stats();
                (
                    s.states,
                    s.edges,
                    g.dead_states().len(),
                    s.truncated.is_some(),
                )
            });
            tr.count("petri.states", states as f64);
            tr.count("petri.edges", edges as f64);
            dead == 1 && !truncated && states == expected_states(n)
        };
        Checked::one(ok)
    }

    /// Sequential against two workers on the round's distinct full nets
    /// with n ≥ 6: the speedup the work-stealing engine buys on this box.
    fn probes(&self, _seed: u64, out: &mut BTreeMap<&'static str, f64>) {
        let time = |net: &JavaNet, threads: usize| {
            let t = Instant::now();
            let g = ReachGraph::explore_filtered(
                net.net(),
                limits(threads),
                net.notify_side_condition(),
            );
            assert_eq!(g.stats().states, expected_states(net.threads()));
            t.elapsed().as_secs_f64()
        };
        let (mut seq, mut par) = (0.0, 0.0);
        for n in 6..=10 {
            let net = JavaNet::new(n);
            seq += time(&net, 1);
            par += time(&net, 2);
        }
        out.insert("petri.reach_2w_speedup", seq / par);
    }
}
