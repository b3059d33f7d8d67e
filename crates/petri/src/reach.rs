//! Reachability analysis: exhaustive state-space exploration with
//! configurable limits, deadlock detection and boundedness statistics.
//!
//! The hot paths run over *interned* states (see [`crate::state`]): nets
//! with at most [`crate::state::MAX_PACKED_PLACES`] places and byte-range
//! token counts explore entirely over `Copy` [`PackedMarking`] words, and
//! wider nets intern each marking once into a [`StateStore`] arena so the
//! BFS frontier and dedup maps carry dense `u32` ids instead of cloned
//! boxed slices. Dedup hashing uses the vendored deterministic FxHash.
//! The pre-interning engine survives as [`ReachGraph::explore_boxed`], the
//! reference for differential tests and benchmarks.
//!
//! Exploration is parallel when [`ReachLimits::parallelism`] asks for more
//! than one thread: workers share a work-stealing frontier (popped in small
//! batches to cut lock traffic) and a seen-set sharded by marking hash,
//! then a canonical renumbering pass rebuilds the graph in sequential-BFS
//! discovery order, so the resulting [`ReachGraph`] is identical to the one
//! the sequential engine produces. Exploration that would truncate (state
//! limit or token bound) falls back to the sequential engine so truncation
//! semantics stay exact.
//!
//! [`ReachLimits::reduction`] turns on sound state-space reduction (see
//! [`crate::reduce`]): thread-lane symmetry quotienting canonicalizes every
//! marking before dedup, and ample-set partial-order reduction expands only
//! a stubborn subset of the enabled transitions per state. Both preserve
//! the reachable dead markings (up to symmetry canonicalization) — the
//! verdicts the Table-1 classification needs — while exploring a fraction
//! of the raw graph. Reduction applies identically in the sequential and
//! parallel engines, so the canonical-renumbering byte-determinism
//! guarantee holds for the *reduced* graph at any thread count.
//! [`ReachGraph::explore_filtered`] forces reduction off: side-condition
//! filters carry dependencies the static independence relation cannot see.
//!
//! When `jcc-obs` recording is enabled, the engines publish `petri.reach.*`
//! metrics (states, edges, deadlocks, dedup hits, frontier high-water,
//! steals, queue batches, interned/packed state counts, truncations) and
//! time themselves under `span.petri.reach.*`. Tallies are accumulated in
//! plain locals and flushed once per exploration, so the hot loop is
//! untouched and totals are deterministic; observation never changes the
//! resulting graph.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use fxhash::{FxHashMap, FxHashSet};

use crate::net::{Marking, Net, TransId};
use crate::parallel::{BatchPolicy, Parallelism};
use crate::reduce::{LaneCanon, Reduction, StubbornSets, SymmetrySpec};
use crate::state::{PackedMarking, PackedNet, StateId, StateStore};

/// Limits on state-space exploration.
#[derive(Debug, Clone, Copy)]
pub struct ReachLimits {
    /// Maximum number of distinct markings to discover.
    pub max_states: usize,
    /// Maximum token count allowed on any single place; exceeding it aborts
    /// exploration and flags the net as (probably) unbounded.
    pub max_tokens_per_place: u32,
    /// Worker threads for the exploration. `threads = 1` runs the
    /// sequential engine; more threads run the work-stealing engine whose
    /// output is canonically renumbered to match the sequential graph.
    pub parallelism: Parallelism,
    /// State-space reduction knobs (symmetry quotient + ample sets).
    /// Off by default; ignored by [`ReachGraph::explore_filtered`] and
    /// [`ReachGraph::explore_boxed`], which stay exhaustive ground truth.
    pub reduction: Reduction,
    /// Frontier batch sizing for the parallel engine. Only affects
    /// scheduling, never the (canonically renumbered) result graph.
    pub batch: BatchPolicy,
}

impl Default for ReachLimits {
    fn default() -> Self {
        ReachLimits {
            max_states: 1_000_000,
            max_tokens_per_place: 64,
            parallelism: Parallelism::default(),
            reduction: Reduction::NONE,
            batch: BatchPolicy::Adaptive,
        }
    }
}

/// A [`Reduction`] request resolved against a concrete net: the symmetry
/// spec is dropped unless it verifies as a net automorphism, and the
/// stubborn-set precomputation is built once per exploration.
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
        if r.symmetry.is_some() && symmetry.is_none() {
            jcc_obs::event!("petri.reach.symmetry_rejected"; "reason" => "spec is not a net automorphism");
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

/// Per-exploration tallies the sequential engines accumulate in locals and
/// flush once, keeping the hot loop free of registry traffic.
#[derive(Default)]
struct SeqTallies {
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
}

/// An explicit reachability graph: the set of reachable markings and the
/// labelled edges between them.
#[derive(Debug, Clone)]
pub struct ReachGraph {
    markings: Vec<Marking>,
    index: FxHashMap<Marking, usize>,
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
    ///
    /// With `limits.parallelism.threads > 1` the state space is discovered
    /// by parallel workers and canonically renumbered; the returned graph
    /// is identical to the sequential one (explorations that truncate are
    /// re-run sequentially to preserve exact truncation semantics).
    pub fn explore_filtered(
        net: &Net,
        limits: ReachLimits,
        filter: impl Fn(&Marking, TransId) -> bool + Sync,
    ) -> ReachGraph {
        Self::explore_with(net, limits, &filter, ActiveReduction::none())
    }

    /// Shared dispatch behind [`ReachGraph::explore`] and
    /// [`ReachGraph::explore_filtered`].
    fn explore_with(
        net: &Net,
        limits: ReachLimits,
        filter: &(impl Fn(&Marking, TransId) -> bool + Sync),
        mut red: ActiveReduction,
    ) -> ReachGraph {
        // Live progress is publish-only: the cell is a mailbox watcher
        // threads read; nothing in it feeds back into exploration.
        let live = jcc_obs::progress_enabled();
        if live {
            jcc_obs::reach_progress().begin(limits.max_states as u64);
        }
        let graph = if limits.parallelism.is_sequential() {
            Self::explore_sequential(net, limits, filter, &mut red)
        } else {
            match Self::explore_parallel(net, limits, filter, &red) {
                Some(graph) => graph,
                // Truncated: replay sequentially so the partial graph is
                // the exact prefix the sequential engine reports.
                None => Self::explore_sequential(net, limits, filter, &mut red),
            }
        };
        if live {
            jcc_obs::reach_progress().finish(graph.stats.states as u64);
        }
        graph
    }

    /// The pre-interning single-threaded engine, kept verbatim as the
    /// reference implementation: boxed markings in a `VecDeque` frontier,
    /// SipHash dedup map, one clone per queue hop. Differential tests pit
    /// the interned engines against it, and the benchmark suite uses it to
    /// measure the packed-vs-boxed gap. Never publishes obs metrics, so a
    /// reference run does not pollute throughput counters.
    pub fn explore_boxed(
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
        }

        let deadlocks = markings.iter().filter(|m| net.is_deadlocked(m)).count();
        let edge_count = edges.iter().map(Vec::len).sum();
        let stats = ReachStats {
            states: markings.len(),
            edges: edge_count,
            deadlocks,
            max_tokens_seen,
            truncated,
        };
        ReachGraph {
            markings,
            index: index.into_iter().collect(),
            edges,
            stats,
        }
    }

    /// Sequential dispatch: packed engine when the net fits one `u64` per
    /// marking, interned wide engine otherwise. Canonical: state IDs are
    /// discovery order, edge lists are in transition order.
    fn explore_sequential(
        net: &Net,
        limits: ReachLimits,
        filter: &(impl Fn(&Marking, TransId) -> bool + Sync),
        red: &mut ActiveReduction,
    ) -> ReachGraph {
        let _span = jcc_obs::span!("petri.reach.sequential");
        match PackedNet::try_new(net, &limits) {
            Some(pn) => Self::sequential_packed(net, &pn, limits, filter, red),
            None => Self::sequential_wide(net, limits, filter, red),
        }
    }

    /// BFS over `u64`-packed markings: the frontier is an arena cursor (no
    /// queue allocation at all), dedup is a word → id map, and firing is
    /// two wide adds per transition.
    fn sequential_packed(
        net: &Net,
        pn: &PackedNet,
        limits: ReachLimits,
        filter: &(impl Fn(&Marking, TransId) -> bool + Sync),
        red: &mut ActiveReduction,
    ) -> ReachGraph {
        let bound = limits.max_tokens_per_place;
        let places = net.num_places();
        let sym = red.symmetry;
        let mut tallies = SeqTallies {
            ample_active: red.stubborn.is_some(),
            symmetry_active: sym.is_some(),
            ..SeqTallies::default()
        };
        let mut ample_buf: Vec<TransId> = Vec::new();
        let mut states: Vec<PackedMarking> = Vec::new();
        let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
        let mut edges: Vec<Vec<(TransId, usize)>> = Vec::new();
        let mut truncated = None;

        let mut m0 = pn.initial();
        if let Some(s) = sym {
            m0 = s.canonicalize_packed(m0);
        }
        let mut max_tokens_seen = (0..places).map(|i| m0.tokens(i)).max().unwrap_or(0);
        seen.insert(m0.0, 0);
        states.push(m0);
        edges.push(Vec::new());

        // `filter` speaks boxed markings; one scratch buffer serves every
        // expanded state.
        let mut scratch = net.initial_marking();
        let mut cur = 0usize;
        // States `cur..states.len()` *are* the BFS queue: ids are assigned
        // in discovery order, so the arena doubles as the frontier.
        'outer: while cur < states.len() {
            tallies.frontier_peak = tallies.frontier_peak.max(states.len() - cur);
            if cur & 1023 == 0 && jcc_obs::progress_enabled() {
                let cell = jcc_obs::reach_progress();
                cell.publish(states.len() as u64, (states.len() - cur) as u64, cur as u64);
                cell.set_saved(tallies.ample_pruned + tallies.symmetry_hits);
            }
            let m = states[cur];
            m.unpack_into(&mut scratch.0);
            // One successor: fire, canonicalize, dedup, record the edge.
            macro_rules! visit {
                ($t:expr) => {{
                    let t = $t;
                    let next = match pn.fire(m, t, bound, &mut max_tokens_seen) {
                        Ok(next) => next,
                        Err(place_index) => {
                            truncated = Some(Truncation::TokenBound { place_index });
                            break 'outer;
                        }
                    };
                    let next = match sym {
                        Some(s) => {
                            let canon = s.canonicalize_packed(next);
                            if canon.0 != next.0 {
                                tallies.symmetry_hits += 1;
                            }
                            canon
                        }
                        None => next,
                    };
                    let next_id = match seen.get(&next.0) {
                        Some(&id) => {
                            tallies.dedup_hits += 1;
                            id as usize
                        }
                        None => {
                            if states.len() >= limits.max_states {
                                truncated = Some(Truncation::StateLimit);
                                break 'outer;
                            }
                            let id = states.len();
                            seen.insert(next.0, id as u32);
                            states.push(next);
                            edges.push(Vec::new());
                            id
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
                    if !pn.enabled(m, t) || !filter(&scratch, t) {
                        continue;
                    }
                    visit!(t);
                }
            }
            cur += 1;
        }

        let markings: Vec<Marking> = states.iter().map(|s| s.unpack(places)).collect();
        Self::finish_sequential(net, markings, edges, max_tokens_seen, truncated, tallies, true)
    }

    /// BFS for nets too wide to pack: markings are interned once into a
    /// [`StateStore`] arena and the frontier is a cursor over its dense
    /// ids; the only per-state allocation left is the arena growth itself.
    fn sequential_wide(
        net: &Net,
        limits: ReachLimits,
        filter: &(impl Fn(&Marking, TransId) -> bool + Sync),
        red: &mut ActiveReduction,
    ) -> ReachGraph {
        let places = net.num_places();
        let mut tallies = SeqTallies {
            ample_active: red.stubborn.is_some(),
            symmetry_active: red.symmetry.is_some(),
            ..SeqTallies::default()
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

        let markings = store.to_markings();
        Self::finish_sequential(net, markings, edges, max_tokens_seen, truncated, tallies, false)
    }

    /// Shared tail of the sequential engines: stats, obs flush, index
    /// build. `packed` notes which representation carried the exploration.
    fn finish_sequential(
        net: &Net,
        markings: Vec<Marking>,
        edges: Vec<Vec<(TransId, usize)>>,
        max_tokens_seen: u32,
        truncated: Option<Truncation>,
        tallies: SeqTallies,
        packed: bool,
    ) -> ReachGraph {
        let deadlocks = markings.iter().filter(|m| net.is_deadlocked(m)).count();
        let edge_count = edges.iter().map(Vec::len).sum();
        let stats = ReachStats {
            states: markings.len(),
            edges: edge_count,
            deadlocks,
            max_tokens_seen,
            truncated,
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
            Self::flush_representation(&stats, packed);
            Self::flush_stats(&stats);
        }
        let index = markings
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, m)| (m, i))
            .collect();
        ReachGraph {
            markings,
            index,
            edges,
            stats,
        }
    }

    /// Publish which state representation carried an exploration.
    fn flush_representation(stats: &ReachStats, packed: bool) {
        let reg = jcc_obs::global();
        reg.counter("petri.reach.interned").add(stats.states as u64);
        if packed {
            reg.counter("petri.reach.packed").add(stats.states as u64);
        }
    }

    /// Publish an exploration's summary statistics to the global registry.
    /// Called once per engine run, never from the hot loop.
    fn flush_stats(stats: &ReachStats) {
        let reg = jcc_obs::global();
        reg.counter("petri.reach.explorations").inc();
        reg.counter("petri.reach.states").add(stats.states as u64);
        reg.counter("petri.reach.edges").add(stats.edges as u64);
        reg.counter("petri.reach.deadlocks")
            .add(stats.deadlocks as u64);
        if stats.truncated.is_some() {
            reg.counter("petri.reach.truncations").inc();
        }
    }

    /// Parallel dispatch: the work-stealing engine runs over `Copy` packed
    /// words when the net fits, owned markings otherwise. Returns `None`
    /// when the exploration hit a limit (caller falls back to the
    /// sequential engine for exact truncation semantics).
    fn explore_parallel(
        net: &Net,
        limits: ReachLimits,
        filter: &(impl Fn(&Marking, TransId) -> bool + Sync),
        red: &ActiveReduction,
    ) -> Option<ReachGraph> {
        let _span = jcc_obs::span!("petri.reach.parallel");
        // Reduction tallies, accumulated Relaxed: each is a sum of
        // per-state quantities over the deterministic explored set, so the
        // totals are deterministic despite racing workers.
        let ample_pruned = AtomicUsize::new(0);
        let symmetry_hits = AtomicUsize::new(0);
        let sym = red.symmetry;
        let graph = match PackedNet::try_new(net, &limits) {
            Some(pn) => {
                let places = net.num_places();
                let bound = limits.max_tokens_per_place;
                let pn = &pn;
                let stub = &red.stubborn;
                let ample_pruned = &ample_pruned;
                let symmetry_hits = &symmetry_hits;
                let mut m0 = pn.initial();
                if let Some(s) = sym {
                    m0 = s.canonicalize_packed(m0);
                }
                type PackedCtx = (Marking, Option<StubbornSets>, Vec<TransId>);
                Self::parallel_generic(
                    net,
                    limits,
                    m0,
                    // Per-worker scratch: a marking for the filter/ample
                    // callbacks, a private stubborn-set engine, a buffer
                    // for the ample transitions.
                    &|| (net.initial_marking(), stub.clone(), Vec::new()),
                    &move |ctx: &mut PackedCtx,
                           m: &PackedMarking,
                           succs: &mut Vec<(TransId, PackedMarking)>| {
                        let (scratch, stubborn, ample_buf) = ctx;
                        m.unpack_into(&mut scratch.0);
                        let fire = |t: TransId, succs: &mut Vec<(TransId, PackedMarking)>| {
                            let mut sink = 0u32;
                            match pn.fire(*m, t, bound, &mut sink) {
                                Ok(next) => {
                                    let next = match sym {
                                        Some(s) => {
                                            let canon = s.canonicalize_packed(next);
                                            if canon.0 != next.0 {
                                                symmetry_hits.fetch_add(1, Ordering::Relaxed);
                                            }
                                            canon
                                        }
                                        None => next,
                                    };
                                    succs.push((t, next));
                                    false
                                }
                                Err(_) => true,
                            }
                        };
                        if let Some(st) = stubborn.as_mut() {
                            let n_enabled = st.ample_into(&scratch.0, ample_buf);
                            ample_pruned
                                .fetch_add(n_enabled - ample_buf.len(), Ordering::Relaxed);
                            for &t in ample_buf.iter() {
                                if fire(t, succs) {
                                    return true;
                                }
                            }
                        } else {
                            for t in net.transitions() {
                                if !pn.enabled(*m, t) || !filter(scratch, t) {
                                    continue;
                                }
                                if fire(t, succs) {
                                    return true;
                                }
                            }
                        }
                        false
                    },
                    &|s: &PackedMarking| s.unpack(places),
                    true,
                )
            }
            None => {
                let bound = limits.max_tokens_per_place;
                let stub = &red.stubborn;
                let ample_pruned = &ample_pruned;
                let symmetry_hits = &symmetry_hits;
                let mut m0 = net.initial_marking();
                if let Some(s) = sym {
                    m0 = s.canonicalize_marking(&m0);
                }
                type WideCtx = (Option<StubbornSets>, Option<LaneCanon>, Vec<TransId>);
                Self::parallel_generic(
                    net,
                    limits,
                    m0,
                    &|| (stub.clone(), sym.map(LaneCanon::new), Vec::new()),
                    &move |ctx: &mut WideCtx, m: &Marking, succs: &mut Vec<(TransId, Marking)>| {
                        let (stubborn, canon, ample_buf) = ctx;
                        let mut fire = |t: TransId, succs: &mut Vec<(TransId, Marking)>| {
                            let mut next = net.fire(m, t).expect("enabled");
                            if next.0.iter().copied().max().unwrap_or(0) > bound {
                                return true;
                            }
                            if let Some(c) = canon.as_mut() {
                                if c.canonicalize(&mut next.0) {
                                    symmetry_hits.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            succs.push((t, next));
                            false
                        };
                        if let Some(st) = stubborn.as_mut() {
                            let n_enabled = st.ample_into(&m.0, ample_buf);
                            ample_pruned
                                .fetch_add(n_enabled - ample_buf.len(), Ordering::Relaxed);
                            for &t in ample_buf.iter() {
                                if fire(t, succs) {
                                    return true;
                                }
                            }
                        } else {
                            for t in net.transitions() {
                                if !net.enabled(m, t) || !filter(m, t) {
                                    continue;
                                }
                                if fire(t, succs) {
                                    return true;
                                }
                            }
                        }
                        false
                    },
                    &|s: &Marking| s.clone(),
                    false,
                )
            }
        };
        // Flush only for completed runs: every state is expanded exactly
        // once, so these totals are deterministic. Aborted runs replay
        // sequentially and flush their own (exact) tallies instead.
        if graph.is_some() && jcc_obs::enabled() {
            let reg = jcc_obs::global();
            if red.stubborn.is_some() {
                reg.counter("petri.reach.ample_pruned")
                    .add(ample_pruned.load(Ordering::Relaxed) as u64);
            }
            if sym.is_some() {
                reg.counter("petri.reach.symmetry_hits")
                    .add(symmetry_hits.load(Ordering::Relaxed) as u64);
            }
        }
        graph
    }

    /// Parallel discovery, generic over the state representation `S`
    /// (packed `u64` words or owned markings): work-stealing frontier with
    /// batched pops + FxHash-sharded seen-set, then a canonical renumbering
    /// pass. `expand` lists one state's successors into the given buffer
    /// (returning `true` to abort on a token-bound violation); `make_ctx`
    /// builds each worker's private scratch space.
    fn parallel_generic<S, C>(
        net: &Net,
        limits: ReachLimits,
        m0: S,
        make_ctx: &(impl Fn() -> C + Sync),
        expand: &(impl Fn(&mut C, &S, &mut Vec<(TransId, S)>) -> bool + Sync),
        to_marking: &impl Fn(&S) -> Marking,
        packed: bool,
    ) -> Option<ReachGraph>
    where
        S: Clone + Eq + Hash + Send + Sync,
    {
        // Worker-local tallies land here once per worker; flushed to the
        // global registry after the join so totals are deterministic.
        let total_steals = AtomicUsize::new(0);
        let total_dedup_hits = AtomicUsize::new(0);
        let total_batches = AtomicUsize::new(0);
        let threads = limits.parallelism.threads;
        let shard_count = (threads * 8).next_power_of_two();
        let shards: Vec<Mutex<FxHashSet<S>>> = (0..shard_count)
            .map(|_| Mutex::new(FxHashSet::default()))
            .collect();
        let queues: Vec<Mutex<VecDeque<S>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        // Per-worker successor records, merged after the join.
        type SuccessorRecord<S> = (S, Vec<(TransId, S)>);
        let records: Vec<Mutex<Vec<SuccessorRecord<S>>>> =
            (0..threads).map(|_| Mutex::new(Vec::new())).collect();

        let aborted = AtomicBool::new(false);
        let discovered = AtomicUsize::new(1);
        // States queued or currently being expanded; 0 means exploration
        // is complete (successors are enqueued before the parent retires).
        let pending = AtomicUsize::new(1);

        shards[Self::shard_of(&m0, shard_count)]
            .lock()
            .expect("shard lock")
            .insert(m0.clone());
        queues[0].lock().expect("queue lock").push_back(m0.clone());

        std::thread::scope(|scope| {
            for w in 0..threads {
                let shards = &shards;
                let queues = &queues;
                let records = &records;
                let aborted = &aborted;
                let discovered = &discovered;
                let pending = &pending;
                let total_steals = &total_steals;
                let total_dedup_hits = &total_dedup_hits;
                let total_batches = &total_batches;
                scope.spawn(move || {
                    let mut ctx = make_ctx();
                    let mut steals: usize = 0;
                    let mut dedup_hits: usize = 0;
                    let mut batches: usize = 0;
                    let mut expanded: usize = 0;
                    let mut local: Vec<SuccessorRecord<S>> = Vec::new();
                    // States grabbed but not yet expanded; they stay
                    // counted in `pending` until their record is pushed.
                    let mut batch: VecDeque<S> = VecDeque::new();
                    loop {
                        if aborted.load(Ordering::Relaxed) {
                            break;
                        }
                        if batch.is_empty() {
                            // Refill in one lock grab: own queue first
                            // (front, preserving rough BFS order), then
                            // steal a smaller slice from a victim's back.
                            // Batch sizes come from the configured policy;
                            // the adaptive default leaves half the visible
                            // queue behind so other workers can steal it.
                            {
                                let mut q = queues[w].lock().expect("queue lock");
                                let take = limits.batch.own_batch(q.len());
                                for _ in 0..take {
                                    match q.pop_front() {
                                        Some(s) => batch.push_back(s),
                                        None => break,
                                    }
                                }
                            }
                            if batch.is_empty() {
                                for v in 1..threads {
                                    let victim = (w + v) % threads;
                                    let mut q = queues[victim].lock().expect("queue lock");
                                    let take = limits.batch.steal_batch(q.len());
                                    for _ in 0..take {
                                        match q.pop_back() {
                                            Some(s) => batch.push_back(s),
                                            None => break,
                                        }
                                    }
                                    if !batch.is_empty() {
                                        steals += 1;
                                        if jcc_obs::progress_enabled() {
                                            jcc_obs::reach_progress().add_steals(1);
                                        }
                                        break;
                                    }
                                }
                            }
                            if batch.is_empty() {
                                if pending.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                std::thread::yield_now();
                                continue;
                            }
                            batches += 1;
                        }
                        let state = batch.pop_front().expect("non-empty batch");
                        expanded += 1;
                        if expanded & 1023 == 0 && jcc_obs::progress_enabled() {
                            jcc_obs::reach_progress().publish(
                                discovered.load(Ordering::Relaxed) as u64,
                                pending.load(Ordering::Relaxed) as u64,
                                0,
                            );
                        }

                        let mut succs: Vec<(TransId, S)> = Vec::new();
                        if expand(&mut ctx, &state, &mut succs) {
                            // Token bound violated: the sequential replay
                            // will reproduce the exact truncation report.
                            aborted.store(true, Ordering::Relaxed);
                            local.push((state, succs));
                            pending.fetch_sub(1, Ordering::Release);
                            break;
                        }
                        for (_, next) in &succs {
                            let is_new = shards[Self::shard_of(next, shard_count)]
                                .lock()
                                .expect("shard lock")
                                .insert(next.clone());
                            if is_new {
                                if discovered.fetch_add(1, Ordering::Relaxed) + 1
                                    > limits.max_states
                                {
                                    aborted.store(true, Ordering::Relaxed);
                                    break;
                                }
                                pending.fetch_add(1, Ordering::Release);
                                queues[w].lock().expect("queue lock").push_back(next.clone());
                            } else {
                                dedup_hits += 1;
                            }
                        }
                        local.push((state, succs));
                        pending.fetch_sub(1, Ordering::Release);
                    }
                    *records[w].lock().expect("record lock") = local;
                    total_steals.fetch_add(steals, Ordering::Relaxed);
                    total_dedup_hits.fetch_add(dedup_hits, Ordering::Relaxed);
                    total_batches.fetch_add(batches, Ordering::Relaxed);
                });
            }
        });

        if jcc_obs::enabled() {
            let reg = jcc_obs::global();
            reg.counter("petri.reach.steals")
                .add(total_steals.load(Ordering::Relaxed) as u64);
            reg.counter("petri.reach.dedup_hits")
                .add(total_dedup_hits.load(Ordering::Relaxed) as u64);
            reg.counter("petri.reach.queue_batches")
                .add(total_batches.load(Ordering::Relaxed) as u64);
        }
        if aborted.load(Ordering::Relaxed) {
            jcc_obs::event!("petri.reach.parallel_abort"; "reason" => "limit hit, sequential replay");
            return None;
        }

        let mut successors: FxHashMap<S, Vec<(TransId, S)>> = FxHashMap::default();
        for record in records {
            for (state, succs) in record.into_inner().expect("record lock") {
                successors.insert(state, succs);
            }
        }
        Some(Self::renumber_canonical(
            net,
            &m0,
            &successors,
            to_marking,
            packed,
        ))
    }

    /// Shard index of a state (FxHash-partitioned seen-set).
    fn shard_of<S: Hash>(state: &S, shard_count: usize) -> usize {
        (fxhash::hash64(state) as usize) & (shard_count - 1)
    }

    /// Rebuild the graph in canonical sequential-BFS order from the
    /// (unordered) state → successors map the parallel workers produced.
    /// Successor lists are already in transition order, so assigning state
    /// IDs by BFS discovery reproduces the sequential graph exactly.
    fn renumber_canonical<S: Clone + Eq + Hash>(
        net: &Net,
        m0: &S,
        successors: &FxHashMap<S, Vec<(TransId, S)>>,
        to_marking: &impl Fn(&S) -> Marking,
        packed: bool,
    ) -> ReachGraph {
        let _span = jcc_obs::span!("petri.reach.renumber");
        let total = successors.len();
        let mut markings: Vec<Marking> = Vec::with_capacity(total);
        let mut keys: Vec<S> = Vec::with_capacity(total);
        let mut ids: FxHashMap<S, usize> = FxHashMap::default();
        let mut edges: Vec<Vec<(TransId, usize)>> = Vec::with_capacity(total);
        let mut queue = VecDeque::new();

        let first = to_marking(m0);
        let mut max_tokens_seen = first.0.iter().copied().max().unwrap_or(0);
        ids.insert(m0.clone(), 0);
        keys.push(m0.clone());
        markings.push(first);
        edges.push(Vec::new());
        queue.push_back(0usize);

        while let Some(cur) = queue.pop_front() {
            let succs = successors
                .get(&keys[cur])
                .expect("every discovered state was expanded");
            for (t, next) in succs {
                let next_id = match ids.get(next) {
                    Some(&id) => id,
                    None => {
                        let id = markings.len();
                        let m = to_marking(next);
                        max_tokens_seen =
                            max_tokens_seen.max(m.0.iter().copied().max().unwrap_or(0));
                        ids.insert(next.clone(), id);
                        keys.push(next.clone());
                        markings.push(m);
                        edges.push(Vec::new());
                        queue.push_back(id);
                        id
                    }
                };
                edges[cur].push((*t, next_id));
            }
        }

        let deadlocks = markings.iter().filter(|m| net.is_deadlocked(m)).count();
        let edge_count = edges.iter().map(Vec::len).sum();
        let stats = ReachStats {
            states: markings.len(),
            edges: edge_count,
            deadlocks,
            max_tokens_seen,
            truncated: None,
        };
        if jcc_obs::enabled() {
            Self::flush_representation(&stats, packed);
            Self::flush_stats(&stats);
        }
        let index = markings
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, m)| (m, i))
            .collect();
        ReachGraph {
            markings,
            index,
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

    /// Look up a marking's state index.
    pub fn state_of(&self, m: &Marking) -> Option<usize> {
        self.index.get(m).copied()
    }

    /// Indices of dead markings (no outgoing edges *and* no enabled
    /// transition in the unfiltered net would be stricter; here we report
    /// states with no explored successor).
    pub fn dead_states(&self) -> Vec<usize> {
        self.edges
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
    }

    #[test]
    fn path_to_initial_is_empty() {
        let j = JavaNet::new(1);
        let g = ReachGraph::explore(j.net(), ReachLimits::default());
        assert_eq!(g.path_to(0), Some(vec![]));
    }

    #[test]
    fn state_lookup_roundtrip() {
        let j = JavaNet::new(1);
        let g = ReachGraph::explore(j.net(), ReachLimits::default());
        for (i, m) in g.markings().iter().enumerate() {
            assert_eq!(g.state_of(m), Some(i));
        }
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
    fn parallel_graph_is_identical_to_sequential() {
        for threads in [2usize, 3, 8] {
            for n in 1..=4 {
                let j = JavaNet::new(n);
                let seq = ReachGraph::explore(
                    j.net(),
                    ReachLimits {
                        parallelism: Parallelism::sequential(),
                        ..ReachLimits::default()
                    },
                );
                let par = ReachGraph::explore(
                    j.net(),
                    ReachLimits {
                        parallelism: Parallelism::with_threads(threads),
                        ..ReachLimits::default()
                    },
                );
                assert_graphs_identical(&seq, &par);
            }
        }
    }

    #[test]
    fn parallel_filtered_graph_is_identical_to_sequential() {
        for n in 1..=3 {
            let j = JavaNet::new(n);
            let seq = ReachGraph::explore_filtered(
                j.net(),
                ReachLimits {
                    parallelism: Parallelism::sequential(),
                    ..ReachLimits::default()
                },
                j.notify_side_condition(),
            );
            let par = ReachGraph::explore_filtered(
                j.net(),
                ReachLimits {
                    parallelism: Parallelism::with_threads(4),
                    ..ReachLimits::default()
                },
                j.notify_side_condition(),
            );
            assert_graphs_identical(&seq, &par);
        }
    }

    #[test]
    fn parallel_truncation_falls_back_to_sequential_prefix() {
        // Token-bound truncation: the parallel engine must report the exact
        // sequential prefix (it re-runs sequentially on abort).
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.transition("grow", &[p], &[p, q]);
        let net = b.build().unwrap();
        let limits = |threads| ReachLimits {
            max_states: 1000,
            max_tokens_per_place: 16,
            parallelism: Parallelism::with_threads(threads),
            ..ReachLimits::default()
        };
        let seq = ReachGraph::explore(&net, limits(1));
        let par = ReachGraph::explore(&net, limits(4));
        assert_graphs_identical(&seq, &par);
        assert!(matches!(
            par.stats().truncated,
            Some(Truncation::TokenBound { .. })
        ));

        // State-limit truncation likewise.
        let j = JavaNet::new(3);
        let limits = |threads| ReachLimits {
            max_states: 5,
            max_tokens_per_place: 64,
            parallelism: Parallelism::with_threads(threads),
            ..ReachLimits::default()
        };
        let seq = ReachGraph::explore(j.net(), limits(1));
        let par = ReachGraph::explore(j.net(), limits(2));
        assert_graphs_identical(&seq, &par);
        assert_eq!(par.stats().truncated, Some(Truncation::StateLimit));
    }

    #[test]
    fn boxed_reference_matches_interned_engines_on_java_nets() {
        // n=1 → 5 places (packed engine); n=2 → 9 places (wide engine).
        for n in 1..=2 {
            let j = JavaNet::new(n);
            let interned = ReachGraph::explore(j.net(), ReachLimits::default());
            let boxed =
                ReachGraph::explore_boxed(j.net(), ReachLimits::default(), |_, _| true);
            assert_graphs_identical(&interned, &boxed);
            let interned = ReachGraph::explore_filtered(
                j.net(),
                ReachLimits::default(),
                j.notify_side_condition(),
            );
            let boxed = ReachGraph::explore_boxed(
                j.net(),
                ReachLimits::default(),
                j.notify_side_condition(),
            );
            assert_graphs_identical(&interned, &boxed);
        }
    }

    #[test]
    fn overloaded_initial_marking_truncates_identically() {
        // m0 already violates the token bound: the packed engine must
        // refuse the net (it only checks produced places) and the wide
        // engine must reproduce the boxed whole-marking scan exactly.
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
        let boxed = ReachGraph::explore_boxed(&net, limits, |_, _| true);
        assert_graphs_identical(&interned, &boxed);
        assert_eq!(
            interned.stats().truncated,
            Some(Truncation::TokenBound { place_index: 0 })
        );
    }

    /// A small random net plus exploration limits, spanning both the packed
    /// (≤8 places) and wide regimes, with bounds tight enough to exercise
    /// truncation on some inputs.
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
                        parallelism: Parallelism::sequential(),
                        ..ReachLimits::default()
                    };
                    (b.build().unwrap(), limits)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Satellite property: the interned engines (packed and wide) are
        /// observationally identical to the pre-optimization boxed engine —
        /// same markings, edges, stats, and truncation reports.
        #[test]
        fn interned_engines_match_boxed_reference(
            (net, limits) in arb_net_and_limits(),
        ) {
            let interned = ReachGraph::explore(&net, limits);
            let boxed = ReachGraph::explore_boxed(&net, limits, |_, _| true);
            prop_assert_eq!(interned.stats(), boxed.stats());
            prop_assert_eq!(interned.markings(), boxed.markings());
            for i in 0..interned.markings().len() {
                prop_assert_eq!(interned.successors(i), boxed.successors(i));
            }
        }

        /// And the parallel engine agrees with both on random nets (falling
        /// back to sequential replay whenever the exploration truncates).
        #[test]
        fn parallel_matches_boxed_reference(
            (net, limits) in arb_net_and_limits(),
        ) {
            let par = ReachGraph::explore(
                &net,
                ReachLimits {
                    parallelism: Parallelism::with_threads(3),
                    ..limits
                },
            );
            let boxed = ReachGraph::explore_boxed(&net, limits, |_, _| true);
            prop_assert_eq!(par.stats(), boxed.stats());
            prop_assert_eq!(par.markings(), boxed.markings());
            for i in 0..par.markings().len() {
                prop_assert_eq!(par.successors(i), boxed.successors(i));
            }
        }

        /// Ample-set reduction preserves the set of reachable dead
        /// markings *exactly* on random nets (both packed and wide
        /// regimes), for every non-truncating exploration.
        #[test]
        fn ample_reduction_preserves_dead_markings(
            (net, limits) in arb_net_and_limits(),
        ) {
            let full = ReachGraph::explore_boxed(&net, limits, |_, _| true);
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
                    parallelism: Parallelism::sequential(),
                    ..ReachLimits::default()
                },
            );
            let quotient = ReachGraph::explore(
                j.net(),
                ReachLimits {
                    parallelism: Parallelism::sequential(),
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
    fn packed_engine_symmetry_quotient_matches_full_orbits() {
        // A 5-place net (packed regime): shared token s, two symmetric
        // lanes [a_i, b_i] with t_i: a_i+s -> b_i and u_i: b_i -> a_i+s.
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
        let full = ReachGraph::explore(&net, ReachLimits::default());
        let quotient = ReachGraph::explore(
            &net,
            ReachLimits {
                parallelism: Parallelism::sequential(),
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
        // And the packed parallel engine agrees byte-for-byte.
        let par = ReachGraph::explore(
            &net,
            ReachLimits {
                parallelism: Parallelism::with_threads(4),
                reduction: Reduction {
                    ample: false,
                    symmetry: Some(spec),
                },
                ..ReachLimits::default()
            },
        );
        assert_graphs_identical(&quotient, &par);
    }

    #[test]
    fn full_reduction_is_byte_deterministic_across_thread_counts() {
        // The reduced graph itself obeys the canonical-renumbering
        // guarantee: parallelism 1/2/4 produce identical graphs, and the
        // deadlock verdict matches the exhaustive reference orbit-wise.
        for n in [2usize, 4, 6] {
            let j = JavaNet::new(n);
            let spec = j.thread_symmetry();
            let reduction = Reduction::full(Some(spec));
            let graphs: Vec<ReachGraph> = [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    ReachGraph::explore(
                        j.net(),
                        ReachLimits {
                            parallelism: Parallelism::with_threads(threads),
                            reduction,
                            ..ReachLimits::default()
                        },
                    )
                })
                .collect();
            assert_graphs_identical(&graphs[0], &graphs[1]);
            assert_graphs_identical(&graphs[0], &graphs[2]);
            let full =
                ReachGraph::explore_boxed(j.net(), ReachLimits::default(), |_, _| true);
            assert_eq!(
                dead_marking_set(&graphs[0], j.net(), Some(spec)),
                dead_marking_set(&full, j.net(), Some(spec)),
                "n={n}"
            );
            assert!(graphs[0].stats().states < full.stats().states, "n={n}");
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

    #[test]
    fn batch_policies_produce_identical_parallel_graphs() {
        let j = JavaNet::new(4);
        let base = ReachGraph::explore(
            j.net(),
            ReachLimits {
                parallelism: Parallelism::sequential(),
                ..ReachLimits::default()
            },
        );
        for batch in [
            crate::parallel::BatchPolicy::Adaptive,
            crate::parallel::BatchPolicy::FIXED_LEGACY,
            crate::parallel::BatchPolicy::Fixed { own: 1, steal: 1 },
        ] {
            let par = ReachGraph::explore(
                j.net(),
                ReachLimits {
                    parallelism: Parallelism::with_threads(4),
                    batch,
                    ..ReachLimits::default()
                },
            );
            assert_graphs_identical(&base, &par);
        }
    }
}
