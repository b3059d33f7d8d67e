//! Reachability analysis: exhaustive state-space exploration with
//! configurable limits, deadlock detection and boundedness statistics.
//!
//! One sequential BFS engine explores every net, and it allocates nothing
//! per state. Its four layers:
//!
//! * **Storage.** Each marking is interned once into a [`StateStore`]
//!   arena (see [`crate::state`]); the frontier is a cursor over its dense
//!   `u32` ids, and the finished [`ReachGraph`] keeps the arena itself as
//!   its markings. Edges go into one CSR array of `(transition,
//!   successor)` pairs with per-state offsets: states are expanded in id
//!   order, so each state's edges are one contiguous run.
//! * **Enabling.** Each place carries a bitset of the transitions that
//!   consume from it. A state's candidates are the union of those bitsets
//!   over its marked places, plus the transitions with no positive-weight
//!   input, taken in transition order; only candidates get the full input
//!   check. Firing writes the expanded marking in place and undoes itself,
//!   and the token bound looks only at the fired transition's outputs.
//! * **Hashing.** The dedup hash of a marking is a weighted sum over its
//!   places, so a successor's hash is its parent's plus the fired
//!   transition's precomputed delta. A symmetry canonicalization that
//!   changes the marking recomputes it in full. Dedup stays exact: every
//!   hash hit is confirmed against the full token slice.
//! * **Frontier.** State ids are discovery order and edge lists are in
//!   transition order, so a graph is a pure function of the net and the
//!   limits. Deadlocks are counted while expanding, from the number of
//!   enabled transitions. The differential tests compare the engine
//!   against a boxed reference kept in this module's tests.
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
//! exploration, so totals are deterministic; observation never changes the
//! resulting graph. One edge in 1024 is also split into the
//! `petri.reach.enable_ns`, `petri.reach.fire_ns` and
//! `petri.reach.dedup_ns` histograms.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use jcc_obs::Histogram;

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

/// One edge of a [`ReachGraph`]: the transition fired and the successor
/// state's index.
pub type Edge = (TransId, u32);

/// An explicit reachability graph: the set of reachable markings and the
/// labelled edges between them.
#[derive(Debug, Clone)]
pub struct ReachGraph {
    /// Tokens per marking.
    places: usize,
    /// Marking `i` is `arena[i * places..(i + 1) * places]`.
    arena: Vec<u32>,
    /// State `i`'s edges are `edges[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    edges: Vec<Edge>,
    stats: ReachStats,
}

/// The hash weight of place `p`: a splitmix64 output, so the weighted sum
/// of two markings that differ in a few small counts almost never agrees.
fn place_weight(p: usize) -> u64 {
    let mut z = (p as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The key a marking hash is filed under in the store. Tests can truncate
/// it to a few bits ([`force_collisions`]) to prove that dedup never
/// trusts it.
#[inline]
fn store_key(hash: u64) -> u64 {
    #[cfg(test)]
    let hash = hash & HASH_MASK.with(std::cell::Cell::get);
    hash
}

#[cfg(test)]
thread_local! {
    static HASH_MASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Keep only the low `bits` bits of [`store_key`] on this thread (64
/// restores the full hash).
#[cfg(test)]
fn force_collisions(bits: u32) {
    let mask = u64::MAX.checked_shr(64u32.saturating_sub(bits));
    HASH_MASK.with(|m| m.set(mask.unwrap_or(0)));
}

/// The net laid out for the engine's inner loop: flat arcs, the
/// consumer index behind enabling, and the incremental hash's weights.
struct Compiled {
    /// Transition `t`'s input arcs, as raw `(place, weight)`, are
    /// `inputs[in_start[t]..in_start[t + 1]]`.
    inputs: Vec<(u32, u32)>,
    in_start: Vec<usize>,
    /// Output arcs, laid out like the inputs.
    outputs: Vec<(u32, u32)>,
    out_start: Vec<usize>,
    /// `u64` words per transition bitset.
    words: usize,
    /// Place `p`'s consumers — the transitions with a positive-weight
    /// input arc from `p` — as the bitset `consumers[p * words..][..words]`.
    consumers: Vec<u64>,
    /// Transitions with no positive-weight input arc, which every
    /// marking enables.
    sources: Vec<u64>,
    /// Hash weight per place.
    weights: Vec<u64>,
    /// Per transition: what firing it adds to the marking hash.
    delta: Vec<u64>,
}

impl Compiled {
    fn new(net: &Net) -> Compiled {
        let (np, nt) = (net.num_places(), net.num_transitions());
        let words = nt.div_ceil(64);
        let weights: Vec<u64> = (0..np).map(place_weight).collect();
        let mut c = Compiled {
            inputs: Vec::new(),
            in_start: vec![0],
            outputs: Vec::new(),
            out_start: vec![0],
            words,
            consumers: vec![0; np * words],
            sources: vec![0; words],
            weights,
            delta: Vec::with_capacity(nt),
        };
        for t in net.transitions() {
            let bit = 1u64 << (t.index() % 64);
            let word = t.index() / 64;
            let mut delta = 0u64;
            let mut consumes = false;
            for &(p, w) in net.inputs(t) {
                c.inputs.push((p.index() as u32, w));
                delta = delta.wrapping_sub(u64::from(w).wrapping_mul(c.weights[p.index()]));
                if w > 0 {
                    c.consumers[p.index() * words + word] |= bit;
                    consumes = true;
                }
            }
            if !consumes {
                c.sources[word] |= bit;
            }
            for &(p, w) in net.outputs(t) {
                c.outputs.push((p.index() as u32, w));
                delta = delta.wrapping_add(u64::from(w).wrapping_mul(c.weights[p.index()]));
            }
            c.in_start.push(c.inputs.len());
            c.out_start.push(c.outputs.len());
            c.delta.push(delta);
        }
        c
    }

    #[inline]
    fn inputs(&self, t: usize) -> &[(u32, u32)] {
        &self.inputs[self.in_start[t]..self.in_start[t + 1]]
    }

    #[inline]
    fn outputs(&self, t: usize) -> &[(u32, u32)] {
        &self.outputs[self.out_start[t]..self.out_start[t + 1]]
    }

    /// True if every input place of `t` holds at least the arc weight.
    #[inline]
    fn enabled(&self, tokens: &[u32], t: usize) -> bool {
        self.inputs(t).iter().all(|&(p, w)| tokens[p as usize] >= w)
    }

    /// The transitions that may be enabled in `tokens`: a superset of the
    /// enabled ones, as a bitset in `out`.
    #[inline]
    fn candidates(&self, tokens: &[u32], out: &mut [u64]) {
        out.copy_from_slice(&self.sources);
        for (p, &k) in tokens.iter().enumerate() {
            if k > 0 {
                let row = &self.consumers[p * self.words..(p + 1) * self.words];
                for (o, &r) in out.iter_mut().zip(row) {
                    *o |= r;
                }
            }
        }
    }

    /// The hash of a whole marking: the weighted sum of its token counts.
    #[inline]
    fn hash(&self, tokens: &[u32]) -> u64 {
        tokens.iter().zip(&self.weights).fold(0u64, |h, (&k, &w)| {
            h.wrapping_add(u64::from(k).wrapping_mul(w))
        })
    }

    /// True if no transition is enabled in `tokens`.
    fn is_dead(&self, tokens: &[u32]) -> bool {
        (0..self.delta.len()).all(|t| !self.enabled(tokens, t))
    }
}

/// One edge in this many is timed by [`LayerTimers`].
const SAMPLE_EVERY: usize = 1024;

/// The per-layer split of exploration time, published as the
/// `petri.reach.enable_ns`, `petri.reach.fire_ns` and
/// `petri.reach.dedup_ns` histograms: finding the edge's transition
/// (candidates, input checks and the filter since the previous edge),
/// firing it with the token-bound check, and hashing, canonicalizing,
/// looking up and interning the successor. Only present when observation
/// is on, and only one edge in [`SAMPLE_EVERY`] is timed.
struct LayerTimers {
    enable: Arc<Histogram>,
    fire: Arc<Histogram>,
    dedup: Arc<Histogram>,
}

impl LayerTimers {
    fn new() -> LayerTimers {
        let reg = jcc_obs::global();
        LayerTimers {
            enable: reg.histogram("petri.reach.enable_ns"),
            fire: reg.histogram("petri.reach.fire_ns"),
            dedup: reg.histogram("petri.reach.dedup_ns"),
        }
    }

    /// Record one sampled edge from the instants its enabling search began,
    /// its transition was chosen, it fired and its successor was interned.
    fn record(&self, [start, chosen, fired, interned]: [Instant; 4]) {
        let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
        self.enable.record(ns(start, chosen));
        self.fire.record(ns(chosen, fired));
        self.dedup.record(ns(fired, interned));
    }
}

/// The state of one BFS: everything [`Bfs::visit`] threads through the
/// edges of the state being expanded.
struct Bfs<'a, F> {
    net: &'a Compiled,
    filter: &'a F,
    limits: ReachLimits,
    canon: Option<LaneCanon>,
    store: StateStore,
    edges: Vec<Edge>,
    offsets: Vec<usize>,
    /// The marking being expanded. Each successor is fired into it in
    /// place and undone again, so the filter always sees the parent.
    scratch: Marking,
    /// The canonicalized successor, under symmetry reduction.
    succ: Vec<u32>,
    /// True while expanding a marking with a place over the token bound
    /// (only the initial marking can be one): its successors then need a
    /// whole-marking scan for the lowest offending place.
    over_bound: bool,
    max_tokens_seen: u32,
    deadlocks: usize,
    tallies: Tallies,
    timers: Option<LayerTimers>,
}

impl<F: Fn(&Marking, TransId) -> bool> Bfs<'_, F> {
    /// When the next edge is sampled: the instant its enabling search
    /// begins.
    #[inline]
    fn sample_start(&self) -> Option<Instant> {
        (self.timers.is_some() && self.edges.len().is_multiple_of(SAMPLE_EVERY)).then(Instant::now)
    }

    /// Expand states in id order until the frontier is empty or a limit
    /// truncates the run. Returns the truncation and the number of states
    /// expanded: a truncating edge leaves its state unfinished.
    fn run(&mut self, mut stubborn: Option<&mut StubbornSets>) -> (Option<Truncation>, usize) {
        let mut cand = vec![0u64; self.net.words];
        let mut ample = Vec::new();
        let mut cur = 0usize;
        while cur < self.store.len() {
            let queued = self.store.len() - cur;
            self.tallies.frontier_peak = self.tallies.frontier_peak.max(queued);
            if cur & 1023 == 0 && jcc_obs::progress_enabled() {
                let cell = jcc_obs::reach_progress();
                cell.publish(self.store.len() as u64, queued as u64, cur as u64);
                cell.set_saved(self.tallies.ample_pruned + self.tallies.symmetry_hits);
            }
            self.offsets.push(self.edges.len());
            self.scratch
                .0
                .copy_from_slice(self.store.tokens(StateId(cur as u32)));
            self.over_bound = cur == 0
                && self
                    .scratch
                    .0
                    .iter()
                    .any(|&k| k > self.limits.max_tokens_per_place);
            let hash = self.net.hash(&self.scratch.0);
            let mut start = self.sample_start();
            let enabled = if let Some(st) = stubborn.as_deref_mut() {
                let enabled = st.ample_into(&self.scratch.0, &mut ample);
                self.tallies.ample_pruned += (enabled - ample.len()) as u64;
                for &t in &ample {
                    if let Err(cut) = self.visit(t, hash, &mut start) {
                        return (Some(cut), cur);
                    }
                }
                enabled
            } else {
                self.net.candidates(&self.scratch.0, &mut cand);
                let mut enabled = 0;
                for (word, &bits) in cand.iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let t = word * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if !self.net.enabled(&self.scratch.0, t) {
                            continue;
                        }
                        enabled += 1;
                        let t = TransId(t as u32);
                        if !(self.filter)(&self.scratch, t) {
                            continue;
                        }
                        if let Err(cut) = self.visit(t, hash, &mut start) {
                            return (Some(cut), cur);
                        }
                    }
                }
                enabled
            };
            if enabled == 0 {
                self.deadlocks += 1;
            }
            cur += 1;
        }
        (None, cur)
    }

    /// Fire the enabled transition `t` from the state being expanded,
    /// whose hash is `parent`, and record the edge to its successor.
    /// `start` is the sampled edge's enabling start; it is reset for the
    /// next edge.
    #[inline]
    fn visit(
        &mut self,
        t: TransId,
        parent: u64,
        start: &mut Option<Instant>,
    ) -> Result<(), Truncation> {
        let chosen = start.map(|_| Instant::now());
        let ti = t.index();
        let bound = self.limits.max_tokens_per_place;
        let tokens = &mut self.scratch.0;
        for &(p, w) in self.net.inputs(ti) {
            tokens[p as usize] -= w;
        }
        // Only output places gain tokens, and every marking but the
        // initial one is within the bound, so they alone can break it.
        let mut peak = 0;
        let mut over = usize::MAX;
        for &(p, w) in self.net.outputs(ti) {
            let k = tokens[p as usize] + w;
            tokens[p as usize] = k;
            peak = peak.max(k);
            if k > bound {
                over = over.min(p as usize);
            }
        }
        if self.over_bound {
            over = tokens.iter().position(|&k| k > bound).unwrap_or(usize::MAX);
        }
        if over != usize::MAX {
            return Err(Truncation::TokenBound { place_index: over });
        }
        self.max_tokens_seen = self.max_tokens_seen.max(peak);
        let fired = start.map(|_| Instant::now());

        let mut hash = parent.wrapping_add(self.net.delta[ti]);
        let succ: &[u32] = match self.canon.as_mut() {
            Some(c) => {
                self.succ.copy_from_slice(tokens);
                if c.canonicalize(&mut self.succ) {
                    self.tallies.symmetry_hits += 1;
                    hash = self.net.hash(&self.succ);
                }
                &self.succ
            }
            None => tokens,
        };
        let key = store_key(hash);
        let id = if self.store.len() < self.limits.max_states {
            let (id, new) = self.store.intern_hashed(succ, key);
            self.tallies.dedup_hits += u64::from(!new);
            id
        } else {
            match self.store.get_hashed(succ, key) {
                Some(id) => {
                    self.tallies.dedup_hits += 1;
                    id
                }
                None => return Err(Truncation::StateLimit),
            }
        };
        self.edges.push((t, id.0));
        let tokens = &mut self.scratch.0;
        for &(p, w) in self.net.outputs(ti) {
            tokens[p as usize] -= w;
        }
        for &(p, w) in self.net.inputs(ti) {
            tokens[p as usize] += w;
        }
        if let (Some(timers), Some(start), Some(chosen), Some(fired)) =
            (&self.timers, *start, chosen, fired)
        {
            timers.record([start, chosen, fired, Instant::now()]);
        }
        *start = self.sample_start();
        Ok(())
    }
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
        Self::explore_with(net, limits, &|_: &Marking, _| true, red)
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
    /// [`ReachGraph::explore_filtered`] (see the module docs).
    fn explore_with<F: Fn(&Marking, TransId) -> bool>(
        net: &Net,
        limits: ReachLimits,
        filter: &F,
        mut red: ActiveReduction,
    ) -> ReachGraph {
        let _span = jcc_obs::span!("petri.reach.sequential");
        // Live progress is publish-only: the cell is a mailbox watcher
        // threads read; nothing in it feeds back into exploration.
        let live = jcc_obs::progress_enabled();
        if live {
            jcc_obs::reach_progress().begin(limits.max_states as u64);
        }
        let compiled = Compiled::new(net);
        let mut canon = red.symmetry.map(LaneCanon::new);
        let mut m0 = net.initial_marking();
        if let Some(c) = canon.as_mut() {
            c.canonicalize(&mut m0.0);
        }
        let mut store = StateStore::new(net.num_places());
        let (id0, _) = store.intern_hashed(&m0.0, store_key(compiled.hash(&m0.0)));
        debug_assert_eq!(id0, StateId(0));
        let mut bfs = Bfs {
            net: &compiled,
            filter,
            limits,
            canon,
            store,
            edges: Vec::new(),
            offsets: Vec::new(),
            max_tokens_seen: m0.0.iter().copied().max().unwrap_or(0),
            succ: m0.0.to_vec(),
            scratch: m0,
            over_bound: false,
            deadlocks: 0,
            tallies: Tallies {
                ample_active: red.stubborn.is_some(),
                symmetry_active: red.symmetry.is_some(),
                ..Tallies::default()
            },
            timers: jcc_obs::enabled().then(LayerTimers::new),
        };
        let (truncated, expanded) = bfs.run(red.stubborn.as_mut());
        let graph = bfs.finish(truncated, expanded);
        if live {
            jcc_obs::reach_progress().finish(graph.stats.states as u64);
        }
        graph
    }
}

impl<F> Bfs<'_, F> {
    /// The engine's tail: the graph, its stats and the obs flush.
    fn finish(self, truncated: Option<Truncation>, expanded: usize) -> ReachGraph {
        let Bfs {
            net,
            store,
            edges,
            mut offsets,
            max_tokens_seen,
            mut deadlocks,
            tallies,
            ..
        } = self;
        let states = store.len();
        // States the run never finished expanding were not counted yet.
        deadlocks += (expanded..states)
            .filter(|&i| net.is_dead(store.tokens(StateId(i as u32))))
            .count();
        offsets.resize(states + 1, edges.len());
        let stats = ReachStats {
            states,
            edges: edges.len(),
            deadlocks,
            max_tokens_seen,
            truncated,
            expanded,
        };
        if jcc_obs::enabled() {
            let reg = jcc_obs::global();
            reg.counter("petri.reach.dedup_hits")
                .add(tallies.dedup_hits);
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
            places: net.weights.len(),
            arena: store.into_arena(),
            offsets,
            edges,
            stats,
        }
    }
}

impl ReachGraph {
    /// Summary statistics.
    pub fn stats(&self) -> &ReachStats {
        &self.stats
    }

    /// The tokens of discovered marking `i`, indexed by place. Marking 0
    /// is the initial one.
    pub fn marking(&self, i: usize) -> &[u32] {
        &self.arena[i * self.places..(i + 1) * self.places]
    }

    /// Every discovered marking, in discovery order.
    pub fn markings(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.stats.states).map(|i| self.marking(i))
    }

    /// Outgoing edges of state `i` as (transition, successor-state) pairs,
    /// in transition order.
    pub fn successors(&self, i: usize) -> &[Edge] {
        &self.edges[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Indices of dead markings: expanded states with no explored
    /// successor. (No enabled transition in the unfiltered net would be
    /// stricter.) States a truncated exploration discovered but never
    /// expanded are not reported: their successors are unknown.
    pub fn dead_states(&self) -> Vec<usize> {
        (0..self.stats.expanded)
            .filter(|&i| self.offsets[i] == self.offsets[i + 1])
            .collect()
    }

    /// A shortest firing sequence from the initial marking to state
    /// `target`, as a list of transitions. `None` if unreachable (cannot
    /// happen for indices returned by this graph) .
    pub fn path_to(&self, target: usize) -> Option<Vec<TransId>> {
        if target == 0 {
            return Some(Vec::new());
        }
        let states = self.stats.states;
        let mut pred: Vec<Option<(usize, TransId)>> = vec![None; states];
        let mut queue = VecDeque::new();
        queue.push_back(0usize);
        let mut seen = vec![false; states];
        seen[0] = true;
        while let Some(cur) = queue.pop_front() {
            for &(t, next) in self.successors(cur) {
                let next = next as usize;
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
        for &(t, _) in &self.edges {
            counts[t.index()] += 1;
        }
        net.transitions().map(|t| (t, counts[t.index()])).collect()
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
            let kind = name.split(['#', '.']).next().unwrap_or(name).to_string();
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

    /// The pre-interning graph the differential tests compare the engine
    /// against: boxed markings, one edge list per state.
    struct Boxed {
        markings: Vec<Marking>,
        edges: Vec<Vec<(TransId, usize)>>,
        stats: ReachStats,
    }

    impl Boxed {
        fn dead_states(&self) -> Vec<usize> {
            self.edges[..self.stats.expanded]
                .iter()
                .enumerate()
                .filter(|(_, e)| e.is_empty())
                .map(|(i, _)| i)
                .collect()
        }

        fn path_to(&self, target: usize) -> Option<Vec<TransId>> {
            if target == 0 {
                return Some(Vec::new());
            }
            let mut pred: Vec<Option<(usize, TransId)>> = vec![None; self.markings.len()];
            let mut queue = VecDeque::from([0usize]);
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

        fn markings(&self) -> impl Iterator<Item = &[u32]> + '_ {
            self.markings.iter().map(|m| &m.0[..])
        }
    }

    /// The pre-interning engine, kept as the reference the differential
    /// tests compare [`ReachGraph::explore`] against: boxed markings in a
    /// `VecDeque` frontier, SipHash dedup map, a whole-transition enabling
    /// scan per state, whole-marking token-bound and deadlock scans.
    fn explore_boxed(
        net: &Net,
        limits: ReachLimits,
        filter: impl Fn(&Marking, TransId) -> bool,
    ) -> Boxed {
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
        Boxed {
            markings,
            edges,
            stats,
        }
    }

    /// The engine's graph against the boxed reference: every marking in
    /// discovery order, every successor list, every stat, the dead states
    /// and the shortest path to every `path_stride`-th state.
    fn assert_matches_reference(g: &ReachGraph, r: &Boxed, path_stride: usize, label: &str) {
        assert_eq!(g.stats(), &r.stats, "{label}");
        assert_eq!(g.markings().len(), r.markings.len(), "{label}");
        for (i, (a, b)) in g.markings().zip(r.markings()).enumerate() {
            assert_eq!(a, b, "{label}: marking {i}");
        }
        for (i, want) in r.edges.iter().enumerate() {
            let got: Vec<(TransId, usize)> = g
                .successors(i)
                .iter()
                .map(|&(t, s)| (t, s as usize))
                .collect();
            assert_eq!(&got, want, "{label}: successors of {i}");
        }
        assert_eq!(g.dead_states(), r.dead_states(), "{label}");
        for i in (0..r.markings.len())
            .step_by(path_stride)
            .chain(r.dead_states())
        {
            assert_eq!(g.path_to(i), r.path_to(i), "{label}: path to {i}");
        }
    }

    /// Full structural equality between two explorations (markings, edge
    /// lists and stats — the graph's entire observable state).
    fn assert_same_graph(a: &ReachGraph, b: &ReachGraph) {
        assert_eq!(a.stats(), b.stats());
        assert!(a.markings().eq(b.markings()));
        for i in 0..a.stats().states {
            assert_eq!(a.successors(i), b.successors(i), "state {i}");
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
            let c0 = m[j.place(0, crate::java_model::ThreadPlace::Critical).index()];
            let c1 = m[j.place(1, crate::java_model::ThreadPlace::Critical).index()];
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
        assert!(j.all_threads_stuck(g.marking(dead[0])));
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
            .filter(|&s| j.all_threads_stuck(g.marking(s)))
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

    #[test]
    fn boxed_reference_matches_interned_engines_on_java_nets() {
        // Plain and side-condition-filtered Figure-1 compositions, in full
        // and cut one state short of their space.
        for n in 1..=7 {
            let j = JavaNet::new(n);
            let label = format!("JavaNet({n})");
            let stride = 1 + n * n * n;
            let plain = explore_boxed(j.net(), ReachLimits::default(), |_, _| true);
            let g = ReachGraph::explore(j.net(), ReachLimits::default());
            assert_matches_reference(&g, &plain, stride, &label);
            let filtered =
                explore_boxed(j.net(), ReachLimits::default(), j.notify_side_condition());
            let g = ReachGraph::explore_filtered(
                j.net(),
                ReachLimits::default(),
                j.notify_side_condition(),
            );
            assert_matches_reference(&g, &filtered, stride, &format!("{label} filtered"));
            assert_eq!(filtered.dead_states().len(), 1, "{label}");
            for (r, filter) in [(&plain, false), (&filtered, true)] {
                let cut = ReachLimits {
                    max_states: r.stats.states - 1,
                    ..ReachLimits::default()
                };
                let (g, want) = if filter {
                    (
                        ReachGraph::explore_filtered(j.net(), cut, j.notify_side_condition()),
                        explore_boxed(j.net(), cut, j.notify_side_condition()),
                    )
                } else {
                    (
                        ReachGraph::explore(j.net(), cut),
                        explore_boxed(j.net(), cut, |_, _| true),
                    )
                };
                assert_eq!(want.stats.truncated, Some(Truncation::StateLimit));
                assert_matches_reference(&g, &want, stride, &format!("{label} cut {filter}"));
            }
        }
    }

    #[test]
    fn engine_matches_boxed_reference_on_edge_case_nets() {
        // A self-loop (t reads p), weighted arcs on both sides, a source
        // transition with no inputs and one whose only input weighs 0.
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let r = b.place("r", 3);
        b.transition("loop", &[p], &[p, q]);
        b.weighted_transition("pair", &[(q, 2)], &[(r, 1)]);
        b.weighted_transition("spend", &[(r, 3)], &[(q, 1), (p, 0)]);
        b.transition("source", &[], &[r]);
        b.weighted_transition("free", &[(q, 0)], &[]);
        let net = b.build().unwrap();
        for bound in [4, 9] {
            for max_states in [7, 1000] {
                let limits = ReachLimits {
                    max_states,
                    max_tokens_per_place: bound,
                    ..ReachLimits::default()
                };
                let g = ReachGraph::explore(&net, limits);
                let r = explore_boxed(&net, limits, |_, _| true);
                assert!(r.stats.truncated.is_some());
                assert_matches_reference(&g, &r, 1, &format!("bound {bound}, max {max_states}"));
            }
        }
        // An unbounded net whose initial marking already exceeds the
        // bound, on a place the firing drains from: the whole successor
        // is checked, not only the fired transition's outputs.
        for init in [11, 30] {
            let mut b = NetBuilder::new();
            let p = b.place("p", init);
            let q = b.place("q", 0);
            b.transition("t", &[p], &[q]);
            b.transition("u", &[q], &[q, q]);
            let net = b.build().unwrap();
            let limits = ReachLimits {
                max_tokens_per_place: 10,
                ..ReachLimits::default()
            };
            let g = ReachGraph::explore(&net, limits);
            let r = explore_boxed(&net, limits, |_, _| true);
            assert!(r.stats.truncated.is_some(), "init {init}");
            assert_matches_reference(&g, &r, 1, &format!("init {init}"));
        }
    }

    #[test]
    fn reduced_engine_runs_are_deterministic_and_sound() {
        // Ample + symmetry have no boxed reference: the quotient must
        // repeat itself exactly and keep the reference's dead markings,
        // orbit-wise.
        for n in 1..=7 {
            let j = JavaNet::new(n);
            let spec = j.thread_symmetry();
            let limits = ReachLimits {
                reduction: Reduction::full(Some(spec)),
                ..ReachLimits::default()
            };
            let a = ReachGraph::explore(j.net(), limits);
            assert_same_graph(&a, &ReachGraph::explore(j.net(), limits));
            let full = explore_boxed(j.net(), ReachLimits::default(), |_, _| true);
            assert_eq!(
                dead_marking_set(a.markings(), j.net(), Some(spec)),
                dead_marking_set(full.markings(), j.net(), Some(spec)),
                "n={n}"
            );
            assert!(a
                .markings()
                .all(|m| spec.canonicalize_marking(&marking(m)).0[..] == *m));
        }
    }

    #[test]
    fn dedup_stays_exact_under_a_truncated_hash() {
        // Three hash bits: eight buckets for thousands of markings, so
        // nearly every lookup walks a long collision chain.
        let j = JavaNet::new(6);
        let reduced = ReachLimits {
            reduction: Reduction::full(Some(j.thread_symmetry())),
            ..ReachLimits::default()
        };
        let runs = || {
            [
                ReachGraph::explore(j.net(), ReachLimits::default()),
                ReachGraph::explore_filtered(
                    j.net(),
                    ReachLimits::default(),
                    j.notify_side_condition(),
                ),
                ReachGraph::explore(j.net(), reduced),
            ]
        };
        let full = runs();
        force_collisions(3);
        let weak = runs();
        force_collisions(64);
        for (a, b) in full.iter().zip(&weak) {
            assert!(a.stats().states > 8, "too small to collide");
            assert_same_graph(a, b);
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
        let g = ReachGraph::explore(&net, limits);
        assert_matches_reference(&g, &explore_boxed(&net, limits, |_, _| true), 1, "m0");
        assert_eq!(
            g.stats().truncated,
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

        /// The engine is observationally identical to the boxed
        /// reference — same markings, edges, stats, and truncation
        /// reports.
        #[test]
        fn interned_engines_match_boxed_reference(
            (net, limits) in arb_net_and_limits(),
        ) {
            let g = ReachGraph::explore(&net, limits);
            let boxed = explore_boxed(&net, limits, |_, _| true);
            prop_assert_eq!(g.stats(), &boxed.stats);
            prop_assert!(g.markings().eq(boxed.markings()));
            for (i, want) in boxed.edges.iter().enumerate() {
                let got: Vec<(TransId, usize)> =
                    g.successors(i).iter().map(|&(t, s)| (t, s as usize)).collect();
                prop_assert_eq!(&got, want);
            }
            prop_assert_eq!(g.dead_states(), boxed.dead_states());
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
            if full.stats.truncated.is_none() && reduced.stats().truncated.is_none() {
                prop_assert!(reduced.stats().states <= full.stats.states);
                prop_assert_eq!(
                    dead_marking_set(reduced.markings(), &net, None),
                    dead_marking_set(full.markings(), &net, None)
                );
                prop_assert_eq!(reduced.stats().deadlocks, full.stats.deadlocks);
            }
        }
    }

    fn marking(tokens: &[u32]) -> Marking {
        Marking(tokens.into())
    }

    /// The deadlocked markings among `markings` as a sorted, deduplicated
    /// set, optionally canonicalized under a symmetry spec (so full-graph
    /// dead states can be compared orbit-wise against a quotient graph).
    fn dead_marking_set<'a>(
        markings: impl Iterator<Item = &'a [u32]>,
        net: &Net,
        spec: Option<crate::reduce::SymmetrySpec>,
    ) -> Vec<Marking> {
        let mut dead: Vec<Marking> = markings
            .map(marking)
            .filter(|m| net.is_deadlocked(m))
            .map(|m| match spec {
                Some(s) => s.canonicalize_marking(&m),
                None => m,
            })
            .collect();
        dead.sort();
        dead.dedup();
        dead
    }

    /// The canonical orbit representatives of `markings`, sorted.
    fn orbit_reps<'a>(
        markings: impl Iterator<Item = &'a [u32]>,
        spec: crate::reduce::SymmetrySpec,
    ) -> Vec<Marking> {
        let mut reps: Vec<Marking> = markings
            .map(|m| spec.canonicalize_marking(&marking(m)))
            .collect();
        reps.sort();
        reps.dedup();
        reps
    }

    #[test]
    fn symmetry_quotient_explores_exactly_the_canonical_orbits() {
        // With symmetry only (no ample), the quotient graph's state set
        // must equal the canonicalized image of the full state set.
        for n in 2..=4 {
            let j = JavaNet::new(n);
            let spec = j.thread_symmetry();
            let full = ReachGraph::explore(j.net(), ReachLimits::default());
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
            let mut quotient_states: Vec<Marking> = quotient.markings().map(marking).collect();
            quotient_states.sort();
            assert_eq!(quotient_states, orbit_reps(full.markings(), spec), "n={n}");
            assert!(quotient.stats().states < full.stats().states, "n={n}");
            assert_eq!(
                dead_marking_set(quotient.markings(), j.net(), None),
                dead_marking_set(full.markings(), j.net(), Some(spec)),
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
        let mut quotient_states: Vec<Marking> = quotient.markings().map(marking).collect();
        quotient_states.sort();
        assert_eq!(quotient_states, orbit_reps(full.markings(), spec));
        assert!(quotient.stats().states < full.stats.states);
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
        assert_matches_reference(&g, &explore_boxed(&net, limits, |_, _| true), 1, "bound");
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
        let r = explore_boxed(&net, ReachLimits::default(), |_, _| true);
        assert_matches_reference(&g, &r, 1, "duplicate arcs");
        let tokens: Vec<&[u32]> = g.markings().collect();
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
                dead_marking_set(reduced.markings(), j.net(), Some(spec)),
                dead_marking_set(full.markings(), j.net(), Some(spec)),
                "n={n}"
            );
            assert!(reduced.stats().states < full.stats.states, "n={n}");
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
        assert_same_graph(&with_reduction, &without);
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
        assert_same_graph(&reduced, &full);
    }
}
