//! Interned state storage for reachability exploration.
//!
//! Exploration used to carry heap-allocated `Marking(Box<[u32]>)` values
//! everywhere: the BFS frontier and the dedup maps each held (and cloned,
//! and SipHash-hashed) their own copies. [`StateStore`] replaces that with
//! an append-only flat arena: each interned marking is a `stride`-long run
//! of `u32`s stored exactly once, addressed by a dense `u32` [`StateId`].
//! Dedup goes through a hash → newest-id index with a per-id collision
//! chain, comparing token slices only on a (deterministic) hash match.
//! Callers compute the hash: the VM explorer uses FxHash, and the petri
//! BFS an incremental weighted sum; it keeps the arena as its graph's
//! markings ([`StateStore::into_arena`]).
//! [`SliceStore`] is its variable-length sibling, which the VM explorer
//! interns its state sections into.
//!
//! Both stores are *deterministic by construction*: neither hash has a
//! per-process seed, arena ids are assigned in insertion order, and at most
//! one candidate on a hash chain can match — so the sequential engines
//! produce identical ids on every run.

use fxhash::FxHashMap;

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

/// Append-only interning arena for the markings of a reachability
/// exploration, and for the VM explorer's states (one section id per word).
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

    /// Look up `tokens` without interning, under `hash`: the function of
    /// the slice the states were interned under (see
    /// [`intern_hashed`](Self::intern_hashed)).
    pub fn get_hashed(&self, tokens: &[u32], hash: u64) -> Option<StateId> {
        debug_assert_eq!(tokens.len(), self.stride);
        self.chains.find(hash, |id| self.tokens(id) == tokens)
    }

    /// Intern `tokens` under a hash the caller computed: return its id and
    /// whether it was newly inserted. Any function of the slice will do —
    /// a weak one only lengthens the collision chains, because every hit
    /// is confirmed against the full slice (tests truncate it to force
    /// collisions).
    pub fn intern_hashed(&mut self, tokens: &[u32], hash: u64) -> (StateId, bool) {
        debug_assert_eq!(tokens.len(), self.stride);
        if let Some(id) = self.chains.find(hash, |id| self.tokens(id) == tokens) {
            return (id, false);
        }
        self.arena.extend_from_slice(tokens);
        (self.chains.push(hash), true)
    }

    /// File `tokens` under `hash` without probing, when the caller knows
    /// no state holds them (the VM explorer's states that contain a section
    /// interned just now): their new id.
    pub fn push_absent(&mut self, tokens: &[u32], hash: u64) -> StateId {
        debug_assert_eq!(tokens.len(), self.stride);
        debug_assert!(
            self.get_hashed(tokens, hash).is_none(),
            "push_absent of an interned state"
        );
        self.arena.extend_from_slice(tokens);
        self.chains.push(hash)
    }

    /// The arena itself: state `i`'s tokens are `[i * stride..(i + 1) *
    /// stride]`. The dedup index is dropped.
    pub fn into_arena(self) -> Vec<u32> {
        self.arena
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
    use proptest::prelude::*;

    /// Intern under FxHash, as the VM explorer does.
    fn intern(store: &mut StateStore, tokens: &[u32]) -> (StateId, bool) {
        store.intern_hashed(tokens, fxhash::hash64(tokens))
    }

    #[test]
    fn store_interns_once_and_preserves_order() {
        let mut store = StateStore::new(3);
        let (a, new_a) = intern(&mut store, &[1, 2, 3]);
        let (b, new_b) = intern(&mut store, &[4, 5, 6]);
        let (a2, new_a2) = intern(&mut store, &[1, 2, 3]);
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_eq!(a, StateId(0));
        assert_eq!(b, StateId(1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.tokens(b), &[4, 5, 6]);
        assert_eq!(
            store.get_hashed(&[1, 2, 3], fxhash::hash64(&[1, 2, 3])),
            Some(a)
        );
        assert_eq!(
            store.get_hashed(&[9, 9, 9], fxhash::hash64(&[9, 9, 9])),
            None
        );
        assert_eq!(store.into_arena(), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn store_handles_zero_stride_nets() {
        let mut store = StateStore::new(0);
        assert!(store.is_empty());
        let (id, new) = intern(&mut store, &[]);
        assert!(new);
        assert_eq!(id, StateId(0));
        let (id2, new2) = intern(&mut store, &[]);
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
                let (id, new) = intern(&mut store, s);
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
