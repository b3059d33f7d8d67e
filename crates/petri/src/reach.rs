//! Reachability analysis: exhaustive state-space exploration with
//! configurable limits, deadlock detection and boundedness statistics.
//!
//! One sequential BFS engine explores every net: each marking is interned
//! once into a [`StateStore`] arena (see [`crate::state`]), so the frontier
//! and the dedup index carry dense `u32` ids instead of cloned boxed
//! slices, and firing writes into a reused scratch marking. Dedup hashing
//! uses the vendored deterministic FxHash. State ids are discovery order
//! and edge lists are in transition order, so a graph is a pure function
//! of the net and the limits. The differential tests compare the engine
//! against a pre-interning boxed reference kept in this module's tests.
//!
//! A truncated exploration (state limit or token bound) keeps the exact
//! prefix it discovered and records in [`ReachStats::expanded`] how many
//! of those states it expanded, so [`ReachGraph::dead_states`] never
//! mistakes an unexpanded frontier state for a dead one.
//!
//! [`ReachLimits::reduction`] turns on sound state-space reduction (see
//! [`crate::reduce`]): thread-lane symmetry quotienting canonicalizes every
//! marking before dedup, and ample-set partial-order reduction expands only
//! a stubborn subset of the enabled transitions per state. Both preserve
//! the reachable dead markings (up to symmetry canonicalization) — the
//! verdicts the Table-1 classification needs — while exploring a fraction
//! of the raw graph. [`ReachGraph::explore_filtered`] forces reduction off:
//! side-condition filters carry dependencies the static independence
//! relation cannot see.
//!
//! When `jcc-obs` recording is enabled, the engine publishes `petri.reach.*`
//! metrics (states, edges, deadlocks, dedup hits, frontier high-water,
//! truncations) and times itself under `span.petri.reach.sequential`.
//! Tallies are accumulated in plain locals and flushed once per
//! exploration, so the hot loop is untouched and totals are deterministic;
//! observation never changes the resulting graph.

use std::collections::VecDeque;

use crate::net::{Marking, Net, TransId};
use crate::parallel::Parallelism;
use crate::reduce::{LaneCanon, Reduction, StubbornSets, SymmetrySpec};
use crate::state::{StateId, StateStore};

/// Limits on state-space exploration.
#[derive(Debug, Clone, Copy)]
pub struct ReachLimits {
    /// Maximum number of distinct markings to discover.
    pub max_states: usize,
    /// Maximum token count allowed on any single place; exceeding it aborts
    /// exploration and flags the net as (probably) unbounded.
    pub max_tokens_per_place: u32,
    /// Ignored: exploration is single-threaded.
    pub parallelism: Parallelism,
    /// State-space reduction knobs (symmetry quotient + ample sets).
    /// Off by default; ignored by [`ReachGraph::explore_filtered`], which
    /// stays exhaustive.
    pub reduction: Reduction,
}

impl Default for ReachLimits {
    fn default() -> Self {
        ReachLimits {
            max_states: 1_000_000,
            max_tokens_per_place: 64,
            parallelism: Parallelism::default(),
            reduction: Reduction::NONE,
        }
    }
}

/// A [`Reduction`] request resolved against a concrete net: the symmetry
/// spec is dropped unless it verifies as a net automorphism (counted in
/// `petri.reach.symmetry_rejected`), and the stubborn-set precomputation is
/// built once per exploration.
struct ActiveReduction {
    symmetry: Option<SymmetrySpec>,
    stubborn: Option<StubbornSets>,
}

impl ActiveReduction {
    fn none() -> ActiveReduction {
        ActiveReduction {
            symmetry: None,
            stubborn: None,
        }
    }

    fn resolve(net: &Net, r: Reduction) -> ActiveReduction {
        let symmetry = r.symmetry.filter(|s| s.lanes > 1 && s.is_automorphism(net));
        if r.symmetry.is_some() && symmetry.is_none() && jcc_obs::enabled() {
            jcc_obs::global()
                .counter("petri.reach.symmetry_rejected")
                .inc();
        }
        ActiveReduction {
            symmetry,
            stubborn: if r.ample {
                Some(StubbornSets::new(net))
            } else {
                None
            },
        }
    }
}

/// Per-exploration tallies the engine accumulates in locals and flushes
/// once, keeping the hot loop free of registry traffic.
#[derive(Default)]
struct Tallies {
    dedup_hits: u64,
    frontier_peak: usize,
    ample_pruned: u64,
    symmetry_hits: u64,
    ample_active: bool,
    symmetry_active: bool,
}

/// Why exploration stopped before exhausting the state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truncation {
    /// The state limit was reached.
    StateLimit,
    /// A place exceeded the per-place token bound.
    TokenBound {
        /// Index of the offending place.
        place_index: usize,
    },
}

/// Summary statistics of an exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachStats {
    /// Distinct markings discovered.
    pub states: usize,
    /// Directed edges (marking, transition, marking') discovered.
    pub edges: usize,
    /// Number of dead markings (no transition enabled).
    pub deadlocks: usize,
    /// Largest token count seen on any place.
    pub max_tokens_seen: u32,
    /// Whether and why exploration was truncated.
    pub truncated: Option<Truncation>,
    /// States whose successors were all explored: states `0..expanded` in
    /// discovery order. Equal to `states` unless the exploration was
    /// truncated.
    pub expanded: usize,
}

/// An explicit reachability graph: the set of reachable markings and the
/// labelled edges between them.
#[derive(Debug, Clone)]
pub struct ReachGraph {
    markings: Vec<Marking>,
    /// edges[state] = (transition fired, successor state)
    edges: Vec<Vec<(TransId, usize)>>,
    stats: ReachStats,
}

impl ReachGraph {
    /// Explore the full state space of `net` from its initial marking.
    ///
    /// Honors [`ReachLimits::reduction`]: with symmetry and/or ample sets
    /// on, the explored graph is a sound quotient that preserves the
    /// reachable dead markings (up to lane canonicalization) but not edge
    /// or state counts.
    pub fn explore(net: &Net, limits: ReachLimits) -> ReachGraph {
        let red = ActiveReduction::resolve(net, limits.reduction);
        Self::explore_with(net, limits, &|_, _| true, red)
    }

    /// Explore, but only follow firings for which `filter` returns true.
    /// Used to impose side conditions the plain net cannot express (e.g. the
    /// dashed notification arc of Figure 1).
    ///
    /// Side-condition filters encode dependencies the static independence
    /// relation cannot see, so [`ReachLimits::reduction`] is forced off
    /// here: filtered exploration is always exhaustive.
    pub fn explore_filtered(
        net: &Net,
        limits: ReachLimits,
        filter: impl Fn(&Marking, TransId) -> bool,
    ) -> ReachGraph {
        Self::explore_with(net, limits, &filter, ActiveReduction::none())
    }

    /// The one engine behind [`ReachGraph::explore`] and
    /// [`ReachGraph::explore_filtered`]: a BFS whose markings are interned
    /// once into a [`StateStore`] arena, with a cursor over its dense ids
    /// as the frontier; the only per-state allocation left is the arena
    /// growth itself.
    fn explore_with(
        net: &Net,
        limits: ReachLimits,
        filter: &impl Fn(&Marking, TransId) -> bool,
        mut red: ActiveReduction,
    ) -> ReachGraph {
        let _span = jcc_obs::span!("petri.reach.sequential");
        // Live progress is publish-only: the cell is a mailbox watcher
        // threads read; nothing in it feeds back into exploration.
        let live = jcc_obs::progress_enabled();
        if live {
            jcc_obs::reach_progress().begin(limits.max_states as u64);
        }
        let places = net.num_places();
        let mut tallies = Tallies {
            ample_active: red.stubborn.is_some(),
            symmetry_active: red.symmetry.is_some(),
            ..Tallies::default()
        };
        let mut canon = red.symmetry.map(LaneCanon::new);
        let mut ample_buf: Vec<TransId> = Vec::new();
        let mut store = StateStore::new(places);
        let mut edges: Vec<Vec<(TransId, usize)>> = Vec::new();
        let mut truncated = None;

        let mut m0 = net.initial_marking();
        if let Some(c) = canon.as_mut() {
            c.canonicalize(&mut m0.0);
        }
        let mut max_tokens_seen = m0.0.iter().copied().max().unwrap_or(0);
        let (id0, _) = store.intern(&m0.0);
        debug_assert_eq!(id0, StateId(0));
        edges.push(Vec::new());

        // Two scratch buffers: the state being expanded and the successor
        // under construction. Firing writes into `succ` directly, so the
        // loop never allocates a marking.
        let mut scratch = m0.clone();
        let mut succ = m0;
        let mut cur = 0usize;
        'outer: while cur < store.len() {
            tallies.frontier_peak = tallies.frontier_peak.max(store.len() - cur);
            if cur & 1023 == 0 && jcc_obs::progress_enabled() {
                let cell = jcc_obs::reach_progress();
                cell.publish(store.len() as u64, (store.len() - cur) as u64, cur as u64);
                cell.set_saved(tallies.ample_pruned + tallies.symmetry_hits);
            }
            scratch.0.copy_from_slice(store.tokens(StateId(cur as u32)));
            // One successor: fire in place (arc weights are pre-aggregated
            // by the builder, so per-place subtract/add matches
            // `Net::fire`), canonicalize, dedup, record the edge.
            macro_rules! visit {
                ($t:expr) => {{
                    let t = $t;
                    succ.0.copy_from_slice(&scratch.0);
                    for &(p, w) in net.inputs(t) {
                        succ.0[p.index()] -= w;
                    }
                    for &(p, w) in net.outputs(t) {
                        succ.0[p.index()] += w;
                    }
                    let peak = succ.0.iter().copied().max().unwrap_or(0);
                    if peak > limits.max_tokens_per_place {
                        let place_index = succ
                            .0
                            .iter()
                            .position(|&x| x > limits.max_tokens_per_place)
                            .unwrap_or(0);
                        truncated = Some(Truncation::TokenBound { place_index });
                        break 'outer;
                    }
                    max_tokens_seen = max_tokens_seen.max(peak);
                    if let Some(c) = canon.as_mut() {
                        if c.canonicalize(&mut succ.0) {
                            tallies.symmetry_hits += 1;
                        }
                    }
                    let next_id = match store.get(&succ.0) {
                        Some(id) => {
                            tallies.dedup_hits += 1;
                            id.index()
                        }
                        None => {
                            if store.len() >= limits.max_states {
                                truncated = Some(Truncation::StateLimit);
                                break 'outer;
                            }
                            let (id, _) = store.intern(&succ.0);
                            edges.push(Vec::new());
                            id.index()
                        }
                    };
                    edges[cur].push((t, next_id));
                }};
            }
            if let Some(st) = red.stubborn.as_mut() {
                let n_enabled = st.ample_into(&scratch.0, &mut ample_buf);
                tallies.ample_pruned += (n_enabled - ample_buf.len()) as u64;
                for &t in &ample_buf {
                    visit!(t);
                }
            } else {
                for t in net.transitions() {
                    if !net.enabled(&scratch, t) || !filter(&scratch, t) {
                        continue;
                    }
                    visit!(t);
                }
            }
            cur += 1;
        }

        // A truncating `break` leaves `cur` at the state it was expanding.
        let graph = Self::finish(
            net,
            store.to_markings(),
            edges,
            max_tokens_seen,
            truncated,
            cur,
            tallies,
        );
        if live {
            jcc_obs::reach_progress().finish(graph.stats.states as u64);
        }
        graph
    }

    /// The engine's tail: stats and the obs flush.
    fn finish(
        net: &Net,
        markings: Vec<Marking>,
        edges: Vec<Vec<(TransId, usize)>>,
        max_tokens_seen: u32,
        truncated: Option<Truncation>,
        expanded: usize,
        tallies: Tallies,
    ) -> ReachGraph {
        let deadlocks = markings.iter().filter(|m| net.is_deadlocked(m)).count();
        let edge_count = edges.iter().map(Vec::len).sum();
        let stats = ReachStats {
            states: markings.len(),
            edges: edge_count,
            deadlocks,
            max_tokens_seen,
            truncated,
            expanded,
        };
        if jcc_obs::enabled() {
            let reg = jcc_obs::global();
            reg.counter("petri.reach.dedup_hits").add(tallies.dedup_hits);
            reg.gauge("petri.reach.frontier_peak")
                .set_max(tallies.frontier_peak as u64);
            if tallies.ample_active {
                reg.counter("petri.reach.ample_pruned")
                    .add(tallies.ample_pruned);
            }
            if tallies.symmetry_active {
                reg.counter("petri.reach.symmetry_hits")
                    .add(tallies.symmetry_hits);
            }
            reg.counter("petri.reach.explorations").inc();
            reg.counter("petri.reach.states").add(stats.states as u64);
            reg.counter("petri.reach.edges").add(stats.edges as u64);
            reg.counter("petri.reach.deadlocks")
                .add(stats.deadlocks as u64);
            if stats.truncated.is_some() {
                reg.counter("petri.reach.truncations").inc();
            }
        }
        ReachGraph {
            markings,
            edges,
            stats,
        }
    }

    /// Summary statistics.
    pub fn stats(&self) -> &ReachStats {
        &self.stats
    }

    /// All discovered markings. Index 0 is the initial marking.
    pub fn markings(&self) -> &[Marking] {
        &self.markings
    }

    /// Outgoing edges of state `i` as (transition, successor-state) pairs.
    pub fn successors(&self, i: usize) -> &[(TransId, usize)] {
        &self.edges[i]
    }

    /// Indices of dead markings: expanded states with no explored
    /// successor. (No enabled transition in the unfiltered net would be
    /// stricter.) States a truncated exploration discovered but never
    /// expanded are not reported: their successors are unknown.
    pub fn dead_states(&self) -> Vec<usize> {
        self.edges[..self.stats.expanded]
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// A shortest firing sequence from the initial marking to state
    /// `target`, as a list of transitions. `None` if unreachable (cannot
    /// happen for indices returned by this graph) .
    pub fn path_to(&self, target: usize) -> Option<Vec<TransId>> {
        if target == 0 {
            return Some(Vec::new());
        }
        let mut pred: Vec<Option<(usize, TransId)>> = vec![None; self.markings.len()];
        let mut queue = VecDeque::new();
        queue.push_back(0usize);
        let mut seen = vec![false; self.markings.len()];
        seen[0] = true;
        while let Some(cur) = queue.pop_front() {
            for &(t, next) in &self.edges[cur] {
                if !seen[next] {
                    seen[next] = true;
                    pred[next] = Some((cur, t));
                    if next == target {
                        let mut path = Vec::new();
                        let mut at = target;
                        while let Some((p, tr)) = pred[at] {
                            path.push(tr);
                            at = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// True if every discovered marking keeps each place's token count
    /// within `bound` (k-boundedness over the explored portion).
    pub fn is_k_bounded(&self, bound: u32) -> bool {
        self.stats.truncated.is_none() && self.stats.max_tokens_seen <= bound
    }

    /// Per-transition firing counts over the explored graph: how many
    /// discovered edges fire each transition, indexed by [`TransId`].
    /// The evidence behind Table-1 claims about which transitions a
    /// composition can actually exercise.
    pub fn firing_counts(&self, net: &Net) -> Vec<(TransId, usize)> {
        let mut counts: Vec<usize> = vec![0; net.num_transitions()];
        for edges in &self.edges {
            for &(t, _) in edges {
                counts[t.index()] += 1;
            }
        }
        net.transitions()
            .map(|t| (t, counts[t.index()]))
            .collect()
    }

    /// [`ReachGraph::firing_counts`] aggregated by the transition's *kind*
    /// — the name up to the first `#` or `.` (the per-thread copies of a
    /// Figure-1 transition share a kind, e.g. `T3#0`/`T3#1` → `T3`).
    /// Counts are also published to the global obs registry as
    /// `petri.firing.<kind>` when recording is enabled.
    pub fn firing_counts_by_kind(&self, net: &Net) -> Vec<(String, usize)> {
        let mut by_kind: Vec<(String, usize)> = Vec::new();
        for (t, n) in self.firing_counts(net) {
            let name = net.transition_name(t);
            let kind = name
                .split(['#', '.'])
                .next()
                .unwrap_or(name)
                .to_string();
            match by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, total)) => *total += n,
                None => by_kind.push((kind, n)),
            }
        }
        if jcc_obs::enabled() {
            let reg = jcc_obs::global();
            for (kind, n) in &by_kind {
                reg.counter(&format!("petri.firing.{kind}")).add(*n as u64);
            }
        }
        by_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::java_model::JavaNet;
    use crate::net::NetBuilder;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The pre-interning engine, kept verbatim as the reference the
    /// differential tests compare [`ReachGraph::explore`] against: boxed
    /// markings in a `VecDeque` frontier, SipHash dedup map, one clone per
    /// queue hop. Never publishes obs metrics.
    fn explore_boxed(
        net: &Net,
        limits: ReachLimits,
        filter: impl Fn(&Marking, TransId) -> bool,
    ) -> ReachGraph {
        let mut markings: Vec<Marking> = Vec::new();
        let mut index: HashMap<Marking, usize> = HashMap::new();
        let mut edges: Vec<Vec<(TransId, usize)>> = Vec::new();
        let mut queue = VecDeque::new();
        let mut truncated = None;
        let mut max_tokens_seen = 0;
        let mut expanded = 0;

        let m0 = net.initial_marking();
        max_tokens_seen = max_tokens_seen.max(m0.0.iter().copied().max().unwrap_or(0));
        index.insert(m0.clone(), 0);
        markings.push(m0);
        edges.push(Vec::new());
        queue.push_back(0usize);

        'outer: while let Some(cur) = queue.pop_front() {
            let marking = markings[cur].clone();
            for t in net.transitions() {
                if !net.enabled(&marking, t) || !filter(&marking, t) {
                    continue;
                }
                let next = net.fire(&marking, t).expect("enabled");
                let peak = next.0.iter().copied().max().unwrap_or(0);
                if peak > limits.max_tokens_per_place {
                    let place_index = next
                        .0
                        .iter()
                        .position(|&x| x > limits.max_tokens_per_place)
                        .unwrap_or(0);
                    truncated = Some(Truncation::TokenBound { place_index });
                    break 'outer;
                }
                max_tokens_seen = max_tokens_seen.max(peak);
                let next_id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        if markings.len() >= limits.max_states {
                            truncated = Some(Truncation::StateLimit);
                            break 'outer;
                        }
                        let id = markings.len();
                        index.insert(next.clone(), id);
                        markings.push(next);
                        edges.push(Vec::new());
                        queue.push_back(id);
                        id
                    }
                };
                edges[cur].push((t, next_id));
            }
            // Ids leave the queue in order, so `0..=cur` are now expanded.
            expanded = cur + 1;
        }

        let deadlocks = markings.iter().filter(|m| net.is_deadlocked(m)).count();
        let edge_count = edges.iter().map(Vec::len).sum();
        let stats = ReachStats {
            states: markings.len(),
            edges: edge_count,
            deadlocks,
            max_tokens_seen,
            truncated,
            expanded,
        };
        ReachGraph {
            markings,
            edges,
            stats,
        }
    }

    #[test]
    fn single_thread_java_net_has_five_states() {
        // One thread: A+E, B+E, C, D+E, B+E(after T5 — same as request) …
        // distinct markings: {A,E}, {B,E}, {C}, {D,E}. T5 leads back to {B,E}.
        let j = JavaNet::new(1);
        let g = ReachGraph::explore(j.net(), ReachLimits::default());
        assert_eq!(g.stats().states, 4);
        assert_eq!(g.stats().deadlocks, 0);
        assert!(g.stats().truncated.is_none());
        assert!(g.is_k_bounded(1));
    }

    #[test]
    fn two_thread_java_net_is_safe_and_live() {
        let j = JavaNet::new(2);
        let g = ReachGraph::explore(j.net(), ReachLimits::default());
        // Net is 1-bounded and deadlock-free without the side condition
        // (T5 always structurally enabled from D).
        assert!(g.is_k_bounded(1));
        assert_eq!(g.stats().deadlocks, 0);
        // Mutual exclusion: no marking has both C places marked.
        for m in g.markings() {
            let c0 = m.tokens(j.place(0, crate::java_model::ThreadPlace::Critical));
            let c1 = m.tokens(j.place(1, crate::java_model::ThreadPlace::Critical));
            assert!(c0 + c1 <= 1, "mutual exclusion violated in {m:?}");
        }
    }

    #[test]
    fn side_condition_exposes_wait_forever_deadlock() {
        // With the dashed-arc side condition a single thread that waits can
        // never be woken: the filtered graph has a dead state.
        let j = JavaNet::new(1);
        let g = ReachGraph::explore_filtered(
            j.net(),
            ReachLimits::default(),
            j.notify_side_condition(),
        );
        let dead = g.dead_states();
        assert_eq!(dead.len(), 1);
        let dead_marking = &g.markings()[dead[0]];
        assert!(j.all_threads_stuck(dead_marking));
        // And there is a firing path to it (T1, T2, T3).
        let path = g.path_to(dead[0]).unwrap();
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn two_threads_with_side_condition_can_both_wait() {
        let j = JavaNet::new(2);
        let g = ReachGraph::explore_filtered(
            j.net(),
            ReachLimits::default(),
            j.notify_side_condition(),
        );
        // The all-waiting marking is reachable (both threads wait in turn)
        // and dead under the side condition — the classic lost-wakeup
        // deadlock shape.
        let stuck: Vec<_> = g
            .dead_states()
            .into_iter()
            .filter(|&s| j.all_threads_stuck(&g.markings()[s]))
            .collect();
        assert_eq!(stuck.len(), 1);
    }

    #[test]
    fn unbounded_net_truncates_on_token_bound() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        // p -> p + q: q grows without bound.
        b.transition("grow", &[p], &[p, q]);
        let net = b.build().unwrap();
        let g = ReachGraph::explore(
            &net,
            ReachLimits {
                max_states: 1000,
                max_tokens_per_place: 16,
                ..ReachLimits::default()
            },
        );
        assert!(matches!(
            g.stats().truncated,
            Some(Truncation::TokenBound { .. })
        ));
        assert!(!g.is_k_bounded(16));
    }

    #[test]
    fn state_limit_truncates() {
        let j = JavaNet::new(3);
        let g = ReachGraph::explore(
            j.net(),
            ReachLimits {
                max_states: 5,
                max_tokens_per_place: 64,
                ..ReachLimits::default()
            },
        );
        assert_eq!(g.stats().truncated, Some(Truncation::StateLimit));
        assert!(g.stats().states <= 5);
        // The plain net has no dead marking; the discovered-but-unexpanded
        // frontier must not be reported as one.
        assert!(g.stats().expanded < g.stats().states);
        assert!(g.dead_states().is_empty(), "{:?}", g.dead_states());
    }

    #[test]
    fn path_to_initial_is_empty() {
        let j = JavaNet::new(1);
        let g = ReachGraph::explore(j.net(), ReachLimits::default());
        assert_eq!(g.path_to(0), Some(vec![]));
    }

    /// Full structural equality between two explorations (markings, edge
    /// lists and stats — the graph's entire observable state).
    fn assert_graphs_identical(a: &ReachGraph, b: &ReachGraph) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.markings(), b.markings());
        for i in 0..a.markings().len() {
            assert_eq!(a.successors(i), b.successors(i), "state {i}");
        }
    }

    #[test]
    fn boxed_reference_matches_interned_engines_on_java_nets() {
        for n in 1..=2 {
            let j = JavaNet::new(n);
            let interned = ReachGraph::explore(j.net(), ReachLimits::default());
            let boxed = explore_boxed(j.net(), ReachLimits::default(), |_, _| true);
            assert_graphs_identical(&interned, &boxed);
            let interned = ReachGraph::explore_filtered(
                j.net(),
                ReachLimits::default(),
                j.notify_side_condition(),
            );
            let boxed = explore_boxed(j.net(), ReachLimits::default(), j.notify_side_condition());
            assert_graphs_identical(&interned, &boxed);
        }
    }

    #[test]
    fn overloaded_initial_marking_truncates_identically() {
        // m0 already violates the token bound: the engine must reproduce
        // the boxed whole-marking scan exactly.
        let mut b = NetBuilder::new();
        let p = b.place("p", 30);
        let q = b.place("q", 0);
        b.transition("t", &[p], &[q]);
        let net = b.build().unwrap();
        let limits = ReachLimits {
            max_tokens_per_place: 10,
            ..ReachLimits::default()
        };
        let interned = ReachGraph::explore(&net, limits);
        let boxed = explore_boxed(&net, limits, |_, _| true);
        assert_graphs_identical(&interned, &boxed);
        assert_eq!(
            interned.stats().truncated,
            Some(Truncation::TokenBound { place_index: 0 })
        );
    }

    /// A small random net of 1–10 places plus exploration limits, with
    /// bounds tight enough to exercise truncation on some inputs.
    fn arb_net_and_limits() -> impl Strategy<Value = (crate::net::Net, ReachLimits)> {
        (1usize..=10).prop_flat_map(|places| {
            let arcs = proptest::collection::vec((0..places, 1u32..=2), 0..=3);
            (
                proptest::collection::vec(0u32..=2, places),
                proptest::collection::vec((arcs.clone(), arcs), 1..=6),
                prop_oneof![Just(6u32), Just(64)],
                prop_oneof![Just(40usize), Just(100_000)],
            )
                .prop_map(move |(init, trans, bound, max_states)| {
                    let mut b = NetBuilder::new();
                    let pids: Vec<_> = init
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| b.place(format!("p{i}"), k))
                        .collect();
                    for (i, (ins, outs)) in trans.iter().enumerate() {
                        let ins: Vec<_> = ins.iter().map(|&(p, w)| (pids[p], w)).collect();
                        let outs: Vec<_> = outs.iter().map(|&(p, w)| (pids[p], w)).collect();
                        b.weighted_transition(format!("t{i}"), &ins, &outs);
                    }
                    let limits = ReachLimits {
                        max_states,
                        max_tokens_per_place: bound,
                        ..ReachLimits::default()
                    };
                    (b.build().unwrap(), limits)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The interned engine is observationally identical to the
        /// pre-interning boxed reference — same markings, edges, stats, and
        /// truncation reports.
        #[test]
        fn interned_engines_match_boxed_reference(
            (net, limits) in arb_net_and_limits(),
        ) {
            let interned = ReachGraph::explore(&net, limits);
            let boxed = explore_boxed(&net, limits, |_, _| true);
            prop_assert_eq!(interned.stats(), boxed.stats());
            prop_assert_eq!(interned.markings(), boxed.markings());
            for i in 0..interned.markings().len() {
                prop_assert_eq!(interned.successors(i), boxed.successors(i));
            }
        }

        /// Ample-set reduction preserves the set of reachable dead
        /// markings *exactly* on random nets, for every non-truncating
        /// exploration.
        #[test]
        fn ample_reduction_preserves_dead_markings(
            (net, limits) in arb_net_and_limits(),
        ) {
            let full = explore_boxed(&net, limits, |_, _| true);
            let reduced = ReachGraph::explore(
                &net,
                ReachLimits {
                    reduction: Reduction { ample: true, symmetry: None },
                    ..limits
                },
            );
            // Reduction changes which states get visited, so truncation
            // points differ; the dead-set guarantee is for complete runs.
            if full.stats().truncated.is_none() && reduced.stats().truncated.is_none() {
                prop_assert!(reduced.stats().states <= full.stats().states);
                prop_assert_eq!(
                    dead_marking_set(&reduced, &net, None),
                    dead_marking_set(&full, &net, None)
                );
                prop_assert_eq!(reduced.stats().deadlocks, full.stats().deadlocks);
            }
        }
    }

    /// The deadlocked markings of a graph as a sorted, deduplicated set,
    /// optionally canonicalized under a symmetry spec (so full-graph dead
    /// states can be compared orbit-wise against a quotient graph).
    fn dead_marking_set(
        g: &ReachGraph,
        net: &Net,
        spec: Option<crate::reduce::SymmetrySpec>,
    ) -> Vec<Marking> {
        let mut dead: Vec<Marking> = g
            .markings()
            .iter()
            .filter(|m| net.is_deadlocked(m))
            .map(|m| match spec {
                Some(s) => s.canonicalize_marking(m),
                None => m.clone(),
            })
            .collect();
        dead.sort();
        dead.dedup();
        dead
    }

    #[test]
    fn symmetry_quotient_explores_exactly_the_canonical_orbits() {
        // With symmetry only (no ample), the quotient graph's state set
        // must equal the canonicalized image of the full state set.
        for n in 2..=4 {
            let j = JavaNet::new(n);
            let spec = j.thread_symmetry();
            let full = ReachGraph::explore(
                j.net(),
                ReachLimits {
                    ..ReachLimits::default()
                },
            );
            let quotient = ReachGraph::explore(
                j.net(),
                ReachLimits {
                    reduction: Reduction {
                        ample: false,
                        symmetry: Some(spec),
                    },
                    ..ReachLimits::default()
                },
            );
            let mut orbit_reps: Vec<Marking> = full
                .markings()
                .iter()
                .map(|m| spec.canonicalize_marking(m))
                .collect();
            orbit_reps.sort();
            orbit_reps.dedup();
            let mut quotient_states: Vec<Marking> = quotient.markings().to_vec();
            quotient_states.sort();
            assert_eq!(quotient_states, orbit_reps, "n={n}");
            assert!(quotient.stats().states < full.stats().states, "n={n}");
            assert_eq!(
                dead_marking_set(&quotient, j.net(), None),
                dead_marking_set(&full, j.net(), Some(spec)),
                "n={n}"
            );
        }
    }

    #[test]
    fn symmetry_quotient_matches_full_orbits_on_a_small_net() {
        // A 5-place net: shared token s, two symmetric lanes [a_i, b_i]
        // with t_i: a_i+s -> b_i and u_i: b_i -> a_i+s.
        let mut b = NetBuilder::new();
        let s = b.place("s", 1);
        let a0 = b.place("a0", 1);
        let b0 = b.place("b0", 0);
        let a1 = b.place("a1", 1);
        let b1 = b.place("b1", 0);
        b.transition("t0", &[a0, s], &[b0]);
        b.transition("u0", &[b0], &[a0, s]);
        b.transition("t1", &[a1, s], &[b1]);
        b.transition("u1", &[b1], &[a1, s]);
        let net = b.build().unwrap();
        let spec = crate::reduce::SymmetrySpec {
            first_place: 1,
            lanes: 2,
            lane_width: 2,
        };
        assert!(spec.is_automorphism(&net));
        let full = explore_boxed(&net, ReachLimits::default(), |_, _| true);
        let quotient = ReachGraph::explore(
            &net,
            ReachLimits {
                reduction: Reduction {
                    ample: false,
                    symmetry: Some(spec),
                },
                ..ReachLimits::default()
            },
        );
        let mut orbit_reps: Vec<Marking> = full
            .markings()
            .iter()
            .map(|m| spec.canonicalize_marking(m))
            .collect();
        orbit_reps.sort();
        orbit_reps.dedup();
        let mut quotient_states: Vec<Marking> = quotient.markings().to_vec();
        quotient_states.sort();
        assert_eq!(quotient_states, orbit_reps);
        assert!(quotient.stats().states < full.stats().states);
    }

    #[test]
    fn token_bound_reports_lowest_violating_place() {
        // t feeds both q and r past a bound of 10: the report names place
        // index 1 (q), the lowest offender, whatever the arc order.
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 10);
        let r = b.place("r", 10);
        b.transition("t", &[p], &[r, q]);
        let net = b.build().unwrap();
        let limits = ReachLimits {
            max_tokens_per_place: 10,
            ..ReachLimits::default()
        };
        let g = ReachGraph::explore(&net, limits);
        assert_graphs_identical(&g, &explore_boxed(&net, limits, |_, _| true));
        assert_eq!(
            g.stats().truncated,
            Some(Truncation::TokenBound { place_index: 1 })
        );
    }

    #[test]
    fn duplicate_arcs_fire_as_their_aggregate() {
        // q appears twice in the outputs: firing t adds two tokens to it.
        let mut b = NetBuilder::new();
        let p = b.place("p", 2);
        let q = b.place("q", 0);
        b.transition("t", &[p], &[q, q]);
        let net = b.build().unwrap();
        let g = ReachGraph::explore(&net, ReachLimits::default());
        assert_graphs_identical(
            &g,
            &explore_boxed(&net, ReachLimits::default(), |_, _| true),
        );
        let tokens: Vec<&[u32]> = g.markings().iter().map(|m| &m.0[..]).collect();
        assert_eq!(tokens, [&[2, 0][..], &[1, 2], &[0, 4]]);
    }

    #[test]
    fn full_reduction_preserves_dead_markings_orbitwise() {
        // Ample sets plus the lane-symmetry quotient: the deadlock verdict
        // matches the exhaustive reference orbit-wise, over fewer states.
        for n in [2usize, 4, 6] {
            let j = JavaNet::new(n);
            let spec = j.thread_symmetry();
            let reduced = ReachGraph::explore(
                j.net(),
                ReachLimits {
                    reduction: Reduction::full(Some(spec)),
                    ..ReachLimits::default()
                },
            );
            let full = explore_boxed(j.net(), ReachLimits::default(), |_, _| true);
            assert_eq!(
                dead_marking_set(&reduced, j.net(), Some(spec)),
                dead_marking_set(&full, j.net(), Some(spec)),
                "n={n}"
            );
            assert!(reduced.stats().states < full.stats().states, "n={n}");
        }
    }

    #[test]
    fn filtered_exploration_forces_reduction_off() {
        // Side-condition filters and reduction cannot soundly mix; asking
        // for both must yield the exhaustive filtered graph.
        let j = JavaNet::new(2);
        let with_reduction = ReachGraph::explore_filtered(
            j.net(),
            ReachLimits {
                reduction: Reduction::full(Some(j.thread_symmetry())),
                ..ReachLimits::default()
            },
            j.notify_side_condition(),
        );
        let without = ReachGraph::explore_filtered(
            j.net(),
            ReachLimits::default(),
            j.notify_side_condition(),
        );
        assert_graphs_identical(&with_reduction, &without);
    }

    #[test]
    fn invalid_symmetry_spec_is_ignored_not_trusted() {
        // A spec that is not an automorphism (lanes of different structure)
        // must leave the exploration exhaustive rather than merge
        // non-equivalent states.
        let mut b = NetBuilder::new();
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let q = b.place("q", 0);
        b.transition("t", &[p0], &[p1]);
        b.transition("u", &[p1], &[q]);
        let net = b.build().unwrap();
        let bogus = crate::reduce::SymmetrySpec {
            first_place: 0,
            lanes: 3,
            lane_width: 1,
        };
        let reduced = ReachGraph::explore(
            &net,
            ReachLimits {
                reduction: Reduction {
                    ample: false,
                    symmetry: Some(bogus),
                },
                ..ReachLimits::default()
            },
        );
        let full = ReachGraph::explore(&net, ReachLimits::default());
        assert_graphs_identical(&reduced, &full);
    }

}
