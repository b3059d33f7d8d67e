//! The VM state encoding, and the explorer's exact, collapse-compressed
//! state storage.
//!
//! **The flat state.** A [`Vm`] is a handful of flat buffers whose layout
//! `compile` fixes once per component:
//!
//! * one *field slot* per field (declared, or only stored to), and per
//!   thread one fixed array of *local slots* — as many as the largest
//!   method needs, laid out by the running method's parameters and locals.
//!   A slot is a `Option<Value>`: `None` is the explicit unset tag, for a
//!   stored-only field before its first store and for a local before its
//!   assignment (or outside a call). A `Value` copies without allocating
//!   (strings are shared `Arc<str>`s);
//! * per thread a control record: call index, status, program counter,
//!   return register and *coverage marker* — the exact, dense site id of
//!   the last method start, method end or synchronization site the thread
//!   passed (compile numbers every such context once, so two contexts
//!   never share an id);
//! * per lock an `(owner, count)` pair. Wait sets hold no lists: a waiting
//!   thread's status carries a *wait ticket* from a machine-wide counter,
//!   and a lock's FIFO wait order is its waiters' ticket order;
//! * one fixed-size record per spec call (started, completed, returned).
//!
//! **The encoding.** A state is encoded as `u32` words in sections: one
//! *global* section (the field slots) and one section per thread (its
//! control record, local slots, marker, observable call results, and its
//! role in every lock — held with a reentrancy count, or waiting at a FIFO
//! position, the rank of its ticket). No section mentions a thread index
//! or a raw ticket, so a thread's section means the same thing in any slot.
//! Each distinct section is interned once in a [`SliceStore`]; the state
//! itself is the fixed-stride vector `[global id, thread 0 id, …, thread
//! n-1 id]`, interned in [`jcc_petri::state::StateStore`]. Most successors
//! change one thread and perhaps the fields, so a state costs `1 + n`
//! words plus an index entry, while the sections are shared by every state
//! that contains them (collapse compression, as in SPIN's `-DCOLLAPSE`).
//!
//! **Dirty sections.** A step records which sections it changed: the
//! stepping thread's; the global section on a field store; and on
//! `notify`/`notifyAll` every thread then in the lock's wait set (the
//! woken leave it, the rest move up). No other step changes another
//! thread's section: lock ownership is encoded in the owner's section
//! only, and a new waiter joins at the back of the FIFO order. The
//! explorer keeps each path state's section ids, so interning a successor
//! re-encodes and re-interns only its dirty sections; in debug builds
//! every incremental intern is checked against a full re-encoding.
//!
//! Every store confirms a hash hit against the full word slice, so dedup
//! is exact: a collision costs a comparison, never a pruned subtree. A
//! state that contains a section interned just now cannot be stored yet,
//! so it is filed without a probe. A state whose section ids the explorer
//! already knows (from its memo of lock-free steps) can be looked up before
//! the machine steps into it, and, when absent, is filed after the step
//! without a second probe.
//!
//! Thread symmetry: threads with identical specs (one
//! [`Vm::symmetry_groups`] group) are interchangeable, and because
//! sections carry no thread indices, permuting such threads permutes
//! their section ids and nothing else. Sorting each group's ids therefore
//! maps every permutation of a state to one canonical vector, and two
//! states share a vector exactly when some renaming within groups makes
//! them identical.

use jcc_petri::state::{SliceStore, StateId, StateStore};

use super::{Dirty, Status, Vm};
use crate::value::{Slot, Value};

/// The hash every store in this module files a word slice under. Tests
/// can truncate it to a few bits ([`force_collisions`]) to prove that
/// dedup never trusts it.
fn hash_words(words: &[u32]) -> u64 {
    let hash = fxhash::hash64(words);
    #[cfg(test)]
    let hash = hash & HASH_MASK.with(std::cell::Cell::get);
    hash
}

#[cfg(test)]
thread_local! {
    static HASH_MASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// Keep only the low `bits` bits of [`hash_words`] on this thread (64
/// restores the full hash).
#[cfg(test)]
pub(crate) fn force_collisions(bits: u32) {
    let mask = u64::MAX.checked_shr(64u32.saturating_sub(bits));
    HASH_MASK.with(|m| m.set(mask.unwrap_or(0)));
}

impl Vm {
    /// Encode the global section of the state: the field slots. Lock state
    /// lives in the thread sections (see
    /// [`encode_thread`](Self::encode_thread)).
    pub(crate) fn encode_global(&self, out: &mut Vec<u32>) {
        for slot in &self.fields {
            encode_slot(slot, out);
        }
    }

    /// Encode thread `i`'s section: its control state, frame and local
    /// slots, its last coverage marker, the observable projection of its
    /// call results (completed, returned value), and its role in every
    /// lock. The section never names a thread index, so interchangeable
    /// threads in the same situation encode identically.
    ///
    /// Lock roles are `(lock << 1, count)` for a held lock and
    /// `(lock << 1 | 1, position)` for the wait set the thread is in.
    /// Together they restore every lock exactly: a lock no thread holds
    /// has count 0, and the positions rebuild the FIFO order. The call
    /// results are part of the state because two paths that reach the same
    /// configuration with different values already returned must not
    /// merge, or signature enumeration would under-approximate; a result's
    /// method name is not encoded, because call `k` of a thread is always
    /// its spec's call `k`.
    pub(crate) fn encode_thread(&self, i: usize, out: &mut Vec<u32>) {
        let t = &self.threads[i];
        out.push(t.call_idx as u32);
        match t.status {
            Status::Idle => out.push(0),
            Status::Running => out.push(1),
            Status::BlockedEntry { lock } => out.extend([2, lock as u32]),
            Status::Waiting { lock, holds, .. } => out.extend([3, lock as u32, holds]),
            Status::Reacquire { lock, holds } => out.extend([4, lock as u32, holds]),
            Status::Finished => out.push(5),
            Status::Faulted => out.push(6),
        }
        match t.frame {
            None => out.push(0),
            Some(f) => {
                out.extend([1, f.method_idx as u32, f.pc as u32]);
                encode_slot(&t.ret_reg, out);
                let used = self.program.component.methods[f.method_idx].locals.len();
                let base = i * self.program.frame_size;
                for slot in &self.locals[base..base + used] {
                    encode_slot(slot, out);
                }
            }
        }
        out.push(t.marker);
        let calls = &self.calls[self.program.calls_of(i)];
        let started = calls
            .iter()
            .take_while(|c| c.started_step.is_some())
            .count();
        out.push(started as u32);
        for call in &calls[..started] {
            out.push(u32::from(call.completed_step.is_some()));
            encode_slot(&call.returned, out);
        }
        let roles = out.len();
        out.push(0);
        for (l, lock) in self.locks.iter().enumerate() {
            if lock.owner == Some(i) {
                out.extend([(l as u32) << 1, lock.count]);
            }
        }
        if let Status::Waiting { lock, ticket, .. } = t.status {
            let ahead = self
                .threads
                .iter()
                .filter(|w| matches!(w.status, Status::Waiting { lock: l, ticket: u, .. } if l == lock && u < ticket))
                .count();
            out.extend([(lock as u32) << 1 | 1, ahead as u32]);
        }
        out[roles] = ((out.len() - roles - 1) / 2) as u32;
    }
}

/// Encode a slot. The low two bits of the first word say which kind
/// follows (the fourth kind is an unset slot), so the encoding is
/// self-delimiting.
fn encode_slot(slot: &Slot, out: &mut Vec<u32>) {
    match slot {
        Some(Value::Int(n)) => out.extend([0, *n as u32, (*n >> 32) as u32]),
        Some(Value::Bool(b)) => out.push(1 | (u32::from(*b) << 2)),
        Some(Value::Str(s)) => {
            out.push(2 | ((s.len() as u32) << 2));
            out.extend(s.as_bytes().chunks(4).map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0u32, |w, (i, &b)| w | (u32::from(b) << (8 * i)))
            }));
        }
        None => out.push(3),
    }
}

/// The explorer's seen-set: every state interned once, as a vector of
/// section ids, and quotiented by thread symmetry when asked.
#[derive(Debug)]
pub(crate) struct StateTable {
    globals: SliceStore,
    threads: SliceStore,
    roots: StateStore,
    /// Symmetry groups whose section ids are sorted (empty = no quotient).
    groups: Vec<Vec<usize>>,
    /// The encoded sections of the state being interned, back to back.
    scratch: Vec<u32>,
    /// Per encoded section: its slot in the state's section ids (0 for
    /// the global section, `1 + i` for thread `i`'s) and its end in
    /// `scratch`.
    encoded: Vec<(usize, usize)>,
    /// The symmetry-sorted state vector of the last intern or probe.
    root: Vec<u32>,
    sorted: Vec<u32>,
    /// The hash of `root` as the last [`probe`](Self::probe) left it.
    probed: u64,
}

impl StateTable {
    /// An empty table for states of `vm`'s shape; `symmetry` quotients by
    /// [`Vm::symmetry_groups`].
    pub(crate) fn new(vm: &Vm, symmetry: bool) -> StateTable {
        StateTable {
            globals: SliceStore::default(),
            threads: SliceStore::default(),
            roots: StateStore::new(1 + vm.thread_count()),
            groups: if symmetry {
                vm.symmetry_groups()
            } else {
                Vec::new()
            },
            scratch: Vec::new(),
            encoded: Vec::new(),
            root: Vec::new(),
            sorted: Vec::new(),
            probed: 0,
        }
    }

    /// Intern `vm`'s state from scratch: its id and whether it is new.
    /// `ids` receives the state's section ids, global first, in thread
    /// order (before any symmetry sort).
    pub(crate) fn intern_all(&mut self, vm: &Vm, ids: &mut Vec<u32>) -> (StateId, bool) {
        ids.resize(1 + vm.thread_count(), 0);
        self.encode(vm, Dirty::ALL);
        self.dedup(vm, ids)
    }

    /// Intern `vm`, one step past the state whose section ids `ids` holds,
    /// in two halves: this one encodes only the sections that step
    /// changed, and [`dedup`](Self::dedup) finishes.
    pub(crate) fn encode_step(&mut self, vm: &Vm) {
        self.encode(vm, vm.dirty);
    }

    fn encode(&mut self, vm: &Vm, dirty: Dirty) {
        self.scratch.clear();
        self.encoded.clear();
        if dirty.global {
            vm.encode_global(&mut self.scratch);
            self.encoded.push((0, self.scratch.len()));
        }
        for i in 0..vm.thread_count() {
            if dirty.has_thread(i) {
                vm.encode_thread(i, &mut self.scratch);
                self.encoded.push((1 + i, self.scratch.len()));
            }
        }
    }

    /// Intern the sections just encoded from `vm` into `ids`, and then
    /// the state: its id and whether it is new. `ids` is left holding
    /// `vm`'s own section ids.
    pub(crate) fn dedup(&mut self, vm: &Vm, ids: &mut [u32]) -> (StateId, bool) {
        let (mut start, mut fresh) = (0, false);
        for &(slot, end) in &self.encoded {
            let section = &self.scratch[start..end];
            let store = if slot == 0 {
                &mut self.globals
            } else {
                &mut self.threads
            };
            let (id, new) = store.intern_hashed(section, hash_words(section));
            ids[slot] = id.0;
            fresh |= new;
            start = end;
        }
        if fresh {
            #[cfg(debug_assertions)]
            self.assert_sections(vm, ids);
            // No stored state contains a section interned just now.
            let hash = self.canonical(ids);
            (self.roots.push_absent(&self.root, hash), true)
        } else {
            self.dedup_known(vm, ids)
        }
    }

    /// Intern `vm`'s state, whose section ids `ids` already holds (all of
    /// them interned): its id and whether it is new.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn dedup_known(&mut self, vm: &Vm, ids: &[u32]) -> (StateId, bool) {
        #[cfg(debug_assertions)]
        self.assert_sections(vm, ids);
        let hash = self.canonical(ids);
        self.roots.intern_hashed(&self.root, hash)
    }

    /// Look up the state whose section ids `ids` holds (all of them
    /// interned) without interning it. On a miss,
    /// [`file_probed`](Self::file_probed) files it once the machine is in
    /// it.
    pub(crate) fn probe(&mut self, ids: &[u32]) -> Option<StateId> {
        self.probed = self.canonical(ids);
        self.roots.get_hashed(&self.root, self.probed)
    }

    /// File the state the last [`probe`](Self::probe) missed, `vm`'s
    /// (whose section ids `ids` holds): its new id.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn file_probed(&mut self, vm: &Vm, ids: &[u32]) -> StateId {
        #[cfg(debug_assertions)]
        self.assert_sections(vm, ids);
        self.roots.push_absent(&self.root, self.probed)
    }

    /// Put the state vector of section ids `ids` into `root`, each
    /// symmetry group's ids sorted: its hash.
    fn canonical(&mut self, ids: &[u32]) -> u64 {
        self.root.clear();
        self.root.extend_from_slice(ids);
        for group in &self.groups {
            self.sorted.clear();
            self.sorted.extend(group.iter().map(|&i| self.root[1 + i]));
            self.sorted.sort_unstable();
            for (&slot, &id) in group.iter().zip(&self.sorted) {
                self.root[1 + slot] = id;
            }
        }
        hash_words(&self.root)
    }

    /// The differential guard for incremental interning: every section id
    /// in `ids` names exactly the words a full re-encoding of `vm` gives.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_sections(&mut self, vm: &Vm, ids: &[u32]) {
        self.scratch.clear();
        vm.encode_global(&mut self.scratch);
        assert_eq!(
            self.globals.words(StateId(ids[0])),
            &self.scratch[..],
            "stale global section"
        );
        for i in 0..vm.thread_count() {
            self.scratch.clear();
            vm.encode_thread(i, &mut self.scratch);
            assert_eq!(
                self.threads.words(StateId(ids[1 + i])),
                &self.scratch[..],
                "stale section of thread {i}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::machine::{CallSpec, ThreadSpec};
    use jcc_model::examples;

    /// Step thread `t` until it waits or blocks.
    fn run_until_stuck(vm: &mut Vm, t: usize) {
        while vm.runnable().contains(&t) {
            vm.step(t);
        }
    }

    #[test]
    fn symmetry_merges_wait_set_orders_of_interchangeable_threads() {
        let consumer = ThreadSpec {
            name: "c".into(),
            calls: vec![CallSpec::new("receive", vec![])],
        };
        let vm = Vm::new(
            compile(&examples::producer_consumer()).unwrap(),
            vec![consumer.clone(), consumer],
        );
        // Both consumers end up waiting, in opposite FIFO orders: each
        // state is the other with the threads renamed.
        let (mut a, mut b) = (vm.clone(), vm.clone());
        run_until_stuck(&mut a, 0);
        run_until_stuck(&mut a, 1);
        run_until_stuck(&mut b, 1);
        run_until_stuck(&mut b, 0);
        assert!(a.runnable().is_empty() && b.runnable().is_empty());
        let mut ids = Vec::new();
        let mut plain = StateTable::new(&vm, false);
        assert_ne!(
            plain.intern_all(&a, &mut ids).0,
            plain.intern_all(&b, &mut ids).0
        );
        let mut quotient = StateTable::new(&vm, true);
        assert_eq!(
            quotient.intern_all(&a, &mut ids).0,
            quotient.intern_all(&b, &mut ids).0
        );
    }

    #[test]
    fn value_encodings_are_distinct_and_self_delimiting() {
        let slots = [
            Some(Value::Int(0)),
            Some(Value::Int(-1)),
            Some(Value::Int(1 << 40)),
            Some(Value::Bool(false)),
            Some(Value::Bool(true)),
            Some(Value::Str("".into())),
            Some(Value::Str("abcd".into())),
            Some(Value::Str("abcde".into())),
            None,
        ];
        let encoded: Vec<Vec<u32>> = slots
            .iter()
            .map(|slot| {
                let mut words = Vec::new();
                encode_slot(slot, &mut words);
                words
            })
            .collect();
        // No encoding is a prefix of another, so concatenations decode
        // unambiguously.
        for (i, a) in encoded.iter().enumerate() {
            for (j, b) in encoded.iter().enumerate() {
                assert!(i == j || !b.starts_with(a), "{a:?} is a prefix of {b:?}");
            }
        }
    }

    #[test]
    fn notify_dirties_every_waiter_and_nothing_else() {
        let consumer = ThreadSpec {
            name: "c".into(),
            calls: vec![CallSpec::new("receive", vec![])],
        };
        let producer = ThreadSpec {
            name: "p".into(),
            calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
        };
        let mut vm = Vm::new(
            compile(&examples::producer_consumer()).unwrap(),
            vec![consumer.clone(), consumer, producer],
        );
        run_until_stuck(&mut vm, 0);
        run_until_stuck(&mut vm, 1);
        // The producer's steps up to its notifyAll change its own section,
        // and the fields when it stores; the notifyAll also changes both
        // waiters'.
        let mut woke = false;
        while vm.runnable().contains(&2) {
            vm.step(2);
            let dirty = vm.dirty;
            assert!(dirty.has_thread(2));
            let waiters = dirty.has_thread(0) && dirty.has_thread(1);
            assert_eq!(waiters, dirty.has_thread(0) || dirty.has_thread(1));
            woke |= waiters;
        }
        assert!(woke, "the producer's notifyAll dirties both waiters");
    }
}
