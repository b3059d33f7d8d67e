//! Interned state storage for reachability exploration.
//!
//! Exploration used to carry heap-allocated `Marking(Box<[u32]>)` values
//! everywhere: the BFS frontier and the dedup maps each held (and cloned,
//! and SipHash-hashed) their own copies. This module replaces that with
//! two representations, one engine each in [`crate::reach`], chosen per
//! net:
//!
//! * [`PackedMarking`] — the whole marking in one `u64`, one byte per
//!   place, for nets with at most [`MAX_PACKED_PLACES`] places and token
//!   counts below 256. Every model in the paper (the 5-place Figure-1
//!   monitor net) and every component scenario fits. A packed marking is
//!   `Copy`: moving it through queues, sets and edge records costs a
//!   register, and [`PackedNet`] fires transitions with two 64-bit adds.
//! * [`StateStore`] — an append-only flat arena for wider nets: each
//!   interned marking is a `stride`-long run of `u32`s stored exactly
//!   once, addressed by a dense `u32` [`StateId`]. Dedup goes through an
//!   FxHash → newest-id index with a per-id collision chain, comparing
//!   token slices only on a (deterministic) hash match. [`SliceStore`]
//!   is its variable-length sibling.
//!
//! Both representations are *deterministic by construction*: FxHash has no
//! per-process seed, arena ids are assigned in insertion order, and at most
//! one candidate on a hash chain can match — so the sequential engines
//! produce identical ids on every run.

use crate::net::{Marking, Net, TransId};
use crate::reach::ReachLimits;
use fxhash::FxHashMap;

/// The largest number of places a marking can have and still pack into a
/// single `u64` (one byte per place).
pub const MAX_PACKED_PLACES: usize = 8;

/// A dense identifier of an interned marking inside a [`StateStore`].
///
/// Ids are assigned in insertion order starting at 0, so a store built by
/// a sequential BFS numbers states exactly in discovery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The dense index of this state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A whole marking packed into one `u64`: place `i`'s token count lives in
/// byte `i` (little-endian — place 0 is the least-significant byte).
///
/// ```text
///   bit 63                                                    bit 0
///   ┌────────┬────────┬────────┬────────┬────────┬────────┬────────┬────────┐
///   │ place 7│ place 6│ place 5│ place 4│ place 3│ place 2│ place 1│ place 0│
///   └────────┴────────┴────────┴────────┴────────┴────────┴────────┴────────┘
///     tokens   tokens   tokens   tokens   tokens   tokens   tokens   tokens
/// ```
///
/// Unused high bytes (nets with fewer than 8 places) are zero, so equality
/// and hashing of the raw `u64` coincide with marking equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedMarking(pub u64);

impl PackedMarking {
    /// Pack a marking. `None` when the net is too wide (more than
    /// [`MAX_PACKED_PLACES`] places) or any token count exceeds 255.
    pub fn pack(marking: &Marking) -> Option<PackedMarking> {
        if marking.len() > MAX_PACKED_PLACES {
            return None;
        }
        let mut word = 0u64;
        for (i, &tokens) in marking.0.iter().enumerate() {
            if tokens > u32::from(u8::MAX) {
                return None;
            }
            word |= u64::from(tokens) << (8 * i);
        }
        Some(PackedMarking(word))
    }

    /// Unpack into a fresh `places`-long marking.
    pub fn unpack(self, places: usize) -> Marking {
        let mut tokens = vec![0u32; places];
        self.unpack_into(&mut tokens);
        Marking(tokens.into_boxed_slice())
    }

    /// Unpack into an existing buffer (the engines reuse one scratch
    /// marking instead of allocating per state).
    #[inline]
    pub fn unpack_into(self, out: &mut [u32]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.tokens(i);
        }
    }

    /// Token count of place `i`.
    #[inline]
    pub fn tokens(self, i: usize) -> u32 {
        u32::from((self.0 >> (8 * i)) as u8)
    }
}

/// One transition of a [`PackedNet`]: aggregated per-place weights as
/// byte-lane delta words plus the per-arc views the enabling and bound
/// checks walk.
#[derive(Debug, Clone)]
struct PackedTrans {
    /// Aggregated input weights, one byte per consuming place; subtracted
    /// whole (no lane can borrow into its neighbour once enabled).
    sub: u64,
    /// Aggregated output weights, one byte per producing place; added
    /// whole (no lane can carry once the bound check passed).
    add: u64,
    /// (place index, aggregated weight) of each consuming place.
    inputs: Vec<(usize, u32)>,
    /// (place index, aggregated weight) of each producing place.
    outputs: Vec<(usize, u32)>,
}

/// A net compiled for packed firing: every transition's arcs folded into
/// byte-lane delta words over [`PackedMarking`]s.
#[derive(Debug, Clone)]
pub struct PackedNet {
    places: usize,
    trans: Vec<PackedTrans>,
    initial: PackedMarking,
}

impl PackedNet {
    /// Compile `net` for packed exploration under `limits`. `None` when the
    /// net (or the limit configuration) cannot guarantee byte-lane safety:
    /// more than [`MAX_PACKED_PLACES`] places, an aggregated arc weight or
    /// initial token count above 255, or a per-place token bound above 255
    /// (the bound check is what keeps additions carry-free). An initial
    /// marking already over the token bound is also rejected: the boxed
    /// engine notices such a violation by scanning the *whole* successor
    /// marking, while the packed fire only checks produced places, so those
    /// nets take the exact-semantics wide path instead.
    pub fn try_new(net: &Net, limits: &ReachLimits) -> Option<PackedNet> {
        let places = net.num_places();
        if places > MAX_PACKED_PLACES || limits.max_tokens_per_place > u32::from(u8::MAX) {
            return None;
        }
        let m0 = net.initial_marking();
        if m0.0.iter().any(|&t| t > limits.max_tokens_per_place) {
            return None;
        }
        let initial = PackedMarking::pack(&m0)?;
        let mut trans = Vec::with_capacity(net.num_transitions());
        for t in net.transitions() {
            let inputs = aggregate_arcs(net.inputs(t), places)?;
            let outputs = aggregate_arcs(net.outputs(t), places)?;
            let lanes = |arcs: &[(usize, u32)]| {
                arcs.iter()
                    .fold(0u64, |w, &(p, weight)| w | (u64::from(weight) << (8 * p)))
            };
            trans.push(PackedTrans {
                sub: lanes(&inputs),
                add: lanes(&outputs),
                inputs,
                outputs,
            });
        }
        Some(PackedNet {
            places,
            trans,
            initial,
        })
    }

    /// Number of places of the underlying net.
    #[inline]
    pub fn places(&self) -> usize {
        self.places
    }

    /// The packed initial marking.
    #[inline]
    pub fn initial(&self) -> PackedMarking {
        self.initial
    }

    /// True if transition `t` is enabled in `m` (every consuming place
    /// holds at least the aggregated arc weight).
    #[inline]
    pub fn enabled(&self, m: PackedMarking, t: TransId) -> bool {
        self.trans[t.index()]
            .inputs
            .iter()
            .all(|&(p, w)| m.tokens(p) >= w)
    }

    /// Fire `t` (must be enabled) in `m`. Returns the successor, or
    /// `Err(place)` with the lowest-index place whose token count would
    /// exceed `bound` — the exact truncation report the boxed engine makes.
    ///
    /// Safety of the whole-word arithmetic: the enabling check guarantees
    /// every `sub` lane subtracts without borrowing, and the bound check
    /// (`bound` ≤ 255, verified per producing place *before* the add)
    /// guarantees every `add` lane stays below 256, so no carry can cross
    /// into a neighbouring place.
    #[inline]
    pub fn fire(
        &self,
        m: PackedMarking,
        t: TransId,
        bound: u32,
        max_seen: &mut u32,
    ) -> Result<PackedMarking, usize> {
        let tr = &self.trans[t.index()];
        let drained = PackedMarking(m.0.wrapping_sub(tr.sub));
        let mut violation: Option<usize> = None;
        let mut fire_max = 0u32;
        for &(p, w) in &tr.outputs {
            let tokens = drained.tokens(p) + w;
            if tokens > bound {
                // Lowest place index wins, matching the boxed engine's
                // first-offending-place scan.
                violation = Some(violation.map_or(p, |v| v.min(p)));
            } else {
                fire_max = fire_max.max(tokens);
            }
        }
        if let Some(p) = violation {
            // Out-of-bound successors never contribute to `max_seen`, just
            // as the boxed engine discards the whole marking's peak.
            return Err(p);
        }
        *max_seen = (*max_seen).max(fire_max);
        Ok(PackedMarking(drained.0.wrapping_add(tr.add)))
    }
}

/// Fold duplicate arcs to the same place into one aggregated weight;
/// `None` when an aggregate exceeds 255 (not byte-lane safe).
fn aggregate_arcs(
    arcs: &[(crate::net::PlaceId, u32)],
    places: usize,
) -> Option<Vec<(usize, u32)>> {
    let mut weight = vec![0u64; places];
    for &(p, w) in arcs {
        weight[p.index()] += u64::from(w);
    }
    let mut out = Vec::new();
    for (p, &w) in weight.iter().enumerate() {
        if w > u64::from(u8::MAX) {
            return None;
        }
        if w > 0 {
            out.push((p, w as u32));
        }
    }
    Some(out)
}

/// The dedup index both stores share: a hash maps to the newest id filed
/// under it, and `older` links each id to the previous one with the same
/// hash. Probes compare the stored slices along the chain, so a hash
/// collision costs a comparison, never a wrong answer, and filing an id
/// allocates nothing per state.
#[derive(Debug, Default)]
struct HashChains {
    newest: FxHashMap<u64, StateId>,
    /// Per id: the next-older id with the same hash ([`NO_STATE`] ends
    /// the chain). Its length is the number of ids filed.
    older: Vec<StateId>,
}

/// Chain terminator of [`HashChains`].
const NO_STATE: StateId = StateId(u32::MAX);

impl HashChains {
    /// The newest id filed under `hash` whose slice `matches`.
    fn find(&self, hash: u64, matches: impl Fn(StateId) -> bool) -> Option<StateId> {
        let mut id = *self.newest.get(&hash)?;
        while id != NO_STATE {
            if matches(id) {
                return Some(id);
            }
            id = self.older[id.index()];
        }
        None
    }

    /// File the next dense id under `hash`.
    fn push(&mut self, hash: u64) -> StateId {
        let id = StateId(self.older.len() as u32);
        let older = self.newest.insert(hash, id).unwrap_or(NO_STATE);
        self.older.push(older);
        id
    }
}

/// Append-only interning arena for markings of nets too wide to pack, and
/// for the VM explorer's states (one section id per word).
///
/// Token vectors live contiguously in one flat `Vec<u32>` (`stride` words
/// per state), deduplicated through hash chains with full-slice
/// confirmation. Ids are insertion-ordered, so a store filled by
/// sequential BFS *is* the canonical state numbering.
#[derive(Debug)]
pub struct StateStore {
    stride: usize,
    arena: Vec<u32>,
    chains: HashChains,
}

impl StateStore {
    /// An empty store for markings of `stride` places.
    pub fn new(stride: usize) -> StateStore {
        StateStore {
            stride,
            arena: Vec::new(),
            chains: HashChains::default(),
        }
    }

    /// Number of interned states.
    #[inline]
    pub fn len(&self) -> usize {
        self.chains.older.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The token slice of an interned state.
    #[inline]
    pub fn tokens(&self, id: StateId) -> &[u32] {
        let start = id.index() * self.stride;
        &self.arena[start..start + self.stride]
    }

    /// Look up `tokens` without interning.
    pub fn get(&self, tokens: &[u32]) -> Option<StateId> {
        debug_assert_eq!(tokens.len(), self.stride);
        self.chains
            .find(fxhash::hash64(tokens), |id| self.tokens(id) == tokens)
    }

    /// Intern `tokens`: return its id and whether it was newly inserted.
    pub fn intern(&mut self, tokens: &[u32]) -> (StateId, bool) {
        self.intern_hashed(tokens, fxhash::hash64(tokens))
    }

    /// [`intern`](Self::intern) under a hash the caller computed. Any
    /// function of the slice will do — a weak one only lengthens the
    /// collision chains, because every hit is confirmed against the full
    /// slice. Callers that hash with their own function (and tests that
    /// truncate it to force collisions) use this entry point.
    pub fn intern_hashed(&mut self, tokens: &[u32], hash: u64) -> (StateId, bool) {
        debug_assert_eq!(tokens.len(), self.stride);
        if let Some(id) = self.chains.find(hash, |id| self.tokens(id) == tokens) {
            return (id, false);
        }
        self.arena.extend_from_slice(tokens);
        (self.chains.push(hash), true)
    }

    /// Materialize every interned state as a [`Marking`], in id order —
    /// the one allocation per state the final [`crate::reach::ReachGraph`]
    /// still makes.
    pub fn to_markings(&self) -> Vec<Marking> {
        (0..self.len())
            .map(|i| Marking(self.tokens(StateId(i as u32)).to_vec().into_boxed_slice()))
            .collect()
    }
}

/// Append-only interner of variable-length `u32` slices (the VM
/// explorer's state sections), with the same dense ids and exact
/// hash-chain dedup as [`StateStore`].
#[derive(Debug, Default)]
pub struct SliceStore {
    words: Vec<u32>,
    /// Slice `k` is `words[ends[k - 1]..ends[k]]`, starting at 0 for `k = 0`.
    ends: Vec<usize>,
    chains: HashChains,
}

impl SliceStore {
    /// The words of an interned slice.
    pub fn words(&self, id: StateId) -> &[u32] {
        let start = id.index().checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.words[start..self.ends[id.index()]]
    }

    /// Intern `words` under `hash` (any function of the words; see
    /// [`StateStore::intern_hashed`]): its id and whether it is new.
    pub fn intern_hashed(&mut self, words: &[u32], hash: u64) -> (StateId, bool) {
        if let Some(id) = self.chains.find(hash, |id| self.words(id) == words) {
            return (id, false);
        }
        self.words.extend_from_slice(words);
        self.ends.push(self.words.len());
        (self.chains.push(hash), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use proptest::prelude::*;

    fn marking(tokens: &[u32]) -> Marking {
        Marking(tokens.to_vec().into_boxed_slice())
    }

    #[test]
    fn pack_unpack_known_values() {
        let m = marking(&[1, 0, 255, 7]);
        let p = PackedMarking::pack(&m).unwrap();
        assert_eq!(p.tokens(0), 1);
        assert_eq!(p.tokens(2), 255);
        assert_eq!(p.unpack(4), m);
    }

    #[test]
    fn pack_rejects_wide_or_big() {
        assert!(PackedMarking::pack(&marking(&[0; 9])).is_none());
        assert!(PackedMarking::pack(&marking(&[256])).is_none());
        assert!(PackedMarking::pack(&marking(&[0; 8])).is_some());
        assert!(PackedMarking::pack(&marking(&[255; 8])).is_some());
    }

    #[test]
    fn packed_net_fires_like_boxed_net() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 3);
        let q = b.place("q", 0);
        let t = b.weighted_transition("t", &[(p, 2)], &[(q, 5)]);
        let net = b.build().unwrap();
        let limits = ReachLimits::default();
        let pn = PackedNet::try_new(&net, &limits).unwrap();
        let m0 = pn.initial();
        assert!(pn.enabled(m0, t));
        let mut max_seen = 0;
        let m1 = pn.fire(m0, t, 64, &mut max_seen).unwrap();
        assert_eq!(m1.unpack(2), net.fire(&net.initial_marking(), t).unwrap());
        assert_eq!(max_seen, 5);
        assert!(!pn.enabled(m1, t));
    }

    #[test]
    fn packed_fire_reports_lowest_violating_place() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 10);
        let r = b.place("r", 10);
        // Feeds both q and r past a bound of 10 — place index 1 must win.
        let t = b.transition("t", &[p], &[r, q]);
        let net = b.build().unwrap();
        let pn = PackedNet::try_new(&net, &ReachLimits::default()).unwrap();
        let mut max_seen = 0;
        assert_eq!(pn.fire(pn.initial(), t, 10, &mut max_seen), Err(1));
    }

    #[test]
    fn packed_net_rejects_unsafe_configurations() {
        let mut b = NetBuilder::new();
        for i in 0..9 {
            b.place(format!("p{i}"), 0);
        }
        let nine = b.build().unwrap();
        assert!(PackedNet::try_new(&nine, &ReachLimits::default()).is_none());

        let mut b = NetBuilder::new();
        let p = b.place("p", 0);
        b.weighted_transition("t", &[], &[(p, 300)]);
        let heavy = b.build().unwrap();
        assert!(PackedNet::try_new(&heavy, &ReachLimits::default()).is_none());

        let mut b = NetBuilder::new();
        b.place("p", 1);
        let small = b.build().unwrap();
        let wide_bound = ReachLimits {
            max_tokens_per_place: 300,
            ..ReachLimits::default()
        };
        assert!(PackedNet::try_new(&small, &wide_bound).is_none());
        assert!(PackedNet::try_new(&small, &ReachLimits::default()).is_some());

        // Initial marking already over the token bound: the wide engine's
        // whole-marking scan handles that case, so packing refuses it.
        let mut b = NetBuilder::new();
        b.place("p", 50);
        let loaded = b.build().unwrap();
        let tight = ReachLimits {
            max_tokens_per_place: 10,
            ..ReachLimits::default()
        };
        assert!(PackedNet::try_new(&loaded, &tight).is_none());
    }

    #[test]
    fn packed_net_aggregates_duplicate_arcs() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 2);
        let q = b.place("q", 0);
        // q appears twice in the outputs: net effect +2.
        let t = b.transition("t", &[p], &[q, q]);
        let net = b.build().unwrap();
        let pn = PackedNet::try_new(&net, &ReachLimits::default()).unwrap();
        let mut max_seen = 0;
        let m1 = pn.fire(pn.initial(), t, 64, &mut max_seen).unwrap();
        assert_eq!(m1.unpack(2), net.fire(&net.initial_marking(), t).unwrap());
        assert_eq!(m1.tokens(1), 2);
    }

    #[test]
    fn store_interns_once_and_preserves_order() {
        let mut store = StateStore::new(3);
        let (a, new_a) = store.intern(&[1, 2, 3]);
        let (b, new_b) = store.intern(&[4, 5, 6]);
        let (a2, new_a2) = store.intern(&[1, 2, 3]);
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_eq!(a, StateId(0));
        assert_eq!(b, StateId(1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.tokens(b), &[4, 5, 6]);
        assert_eq!(store.get(&[1, 2, 3]), Some(a));
        assert_eq!(store.get(&[9, 9, 9]), None);
        assert_eq!(
            store.to_markings(),
            vec![marking(&[1, 2, 3]), marking(&[4, 5, 6])]
        );
    }

    #[test]
    fn store_handles_zero_stride_nets() {
        let mut store = StateStore::new(0);
        assert!(store.is_empty());
        let (id, new) = store.intern(&[]);
        assert!(new);
        assert_eq!(id, StateId(0));
        let (id2, new2) = store.intern(&[]);
        assert!(!new2);
        assert_eq!(id2, id);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_confirms_every_hash_hit() {
        // One hash for every slice: each lookup walks the whole chain and
        // still tells the slices apart.
        let mut store = StateStore::new(2);
        let slices = [[1, 2], [3, 4], [1, 3], [2, 1]];
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(store.intern_hashed(s, 7), (StateId(i as u32), true));
        }
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(store.intern_hashed(s, 7), (StateId(i as u32), false));
        }
        assert_eq!(store.len(), slices.len());
        let mut slices_store = SliceStore::default();
        let varied: [&[u32]; 4] = [&[], &[1], &[1, 2], &[2]];
        for round in [true, false] {
            for (i, s) in varied.iter().enumerate() {
                assert_eq!(slices_store.intern_hashed(s, 7), (StateId(i as u32), round));
                assert_eq!(slices_store.words(StateId(i as u32)), *s);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite property: pack/unpack round-trips over arbitrary
        /// ≤8-place markings with byte-range token counts.
        #[test]
        fn packed_marking_roundtrips(
            tokens in proptest::collection::vec(0u32..=255, 0..=8),
        ) {
            let m = marking(&tokens);
            let p = PackedMarking::pack(&m).expect("eligible marking");
            prop_assert_eq!(p.unpack(tokens.len()), m);
            for (i, &t) in tokens.iter().enumerate() {
                prop_assert_eq!(p.tokens(i), t);
            }
            // And per-place writes land in disjoint lanes: re-packing the
            // unpacked marking is the identity on the word.
            let again = PackedMarking::pack(&p.unpack(tokens.len())).unwrap();
            prop_assert_eq!(again, p);
        }

        /// The store is a bijection between distinct token slices and ids.
        #[test]
        fn store_intern_is_injective(
            slices in proptest::collection::vec(
                proptest::collection::vec(0u32..4, 4),
                1..40,
            ),
        ) {
            let mut store = StateStore::new(4);
            let mut reference: Vec<Vec<u32>> = Vec::new();
            for s in &slices {
                let (id, new) = store.intern(s);
                match reference.iter().position(|r| r == s) {
                    Some(pos) => {
                        prop_assert!(!new);
                        prop_assert_eq!(id.index(), pos);
                    }
                    None => {
                        prop_assert!(new);
                        prop_assert_eq!(id.index(), reference.len());
                        reference.push(s.clone());
                    }
                }
                prop_assert_eq!(store.tokens(id), s.as_slice());
            }
            prop_assert_eq!(store.len(), reference.len());
        }
    }
}
