//! The VM state encoding, and the explorer's exact, collapse-compressed
//! state storage.
//!
//! A VM state is encoded as `u32` words in sections: one *global* section
//! (the shared fields) and one section per thread (its control state,
//! frame, coverage marker, observable call results, and its role in every
//! lock — held with a reentrancy count, or waiting at a FIFO position).
//! No section mentions a thread index, so a thread's section means the
//! same thing in any slot. Each distinct section is interned once in a
//! [`SliceStore`]; the state itself is the fixed-stride vector
//! `[global id, thread 0 id, …, thread n-1 id]`, interned in
//! [`jcc_petri::state::StateStore`]. Most successors change one thread and
//! perhaps the fields, so a state costs `1 + n` words plus an index entry,
//! while the sections are shared by every state that contains them
//! (collapse compression, as in SPIN's `-DCOLLAPSE`).
//!
//! Every store confirms a hash hit against the full word slice, so dedup
//! is exact: a collision costs a comparison, never a pruned subtree.
//!
//! Thread symmetry: threads with identical specs (one
//! [`Vm::symmetry_groups`] group) are interchangeable, and because
//! sections carry no thread indices, permuting such threads permutes
//! their section ids and nothing else. Sorting each group's ids therefore
//! maps every permutation of a state to one canonical vector, and two
//! states share a vector exactly when some renaming within groups makes
//! them identical.

use std::collections::BTreeMap;

use jcc_petri::state::{SliceStore, StateId, StateStore};

use super::{Status, Vm};
use crate::compile::{CompiledComponent, Instr};
use crate::value::Value;

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

/// Names the encoder resolves map keys against: every field and, per
/// method, every local a state can hold, sorted so a `BTreeMap` walk
/// meets them in order.
#[derive(Debug)]
pub(crate) struct Layout {
    fields: Vec<String>,
    locals: Vec<Vec<String>>,
}

impl Layout {
    /// The declared fields plus every stored-to field, and per method its
    /// parameters plus every stored-to local.
    pub(crate) fn of(component: &CompiledComponent) -> Layout {
        let mut fields: Vec<String> = component.fields.iter().map(|(n, _)| n.clone()).collect();
        let mut locals = Vec::with_capacity(component.methods.len());
        for method in &component.methods {
            let mut names = method.params.clone();
            for instr in &method.code {
                match instr {
                    Instr::StoreField { name, .. } => fields.push(name.clone()),
                    Instr::StoreLocal { name, .. } => names.push(name.clone()),
                    _ => {}
                }
            }
            names.sort_unstable();
            names.dedup();
            locals.push(names);
        }
        fields.sort_unstable();
        fields.dedup();
        Layout { fields, locals }
    }
}

impl Vm {
    /// Encode the global section of the state: the shared fields. Lock
    /// state lives in the thread sections (see
    /// [`encode_thread`](Self::encode_thread)).
    pub(crate) fn encode_global(&self, out: &mut Vec<u32>) {
        encode_map(&self.fields, &self.layout.fields, out);
    }

    /// Encode thread `i`'s section: its control state and frame, its last
    /// coverage marker, the observable projection of its call results
    /// (completed, returned value), and its role in every lock. The
    /// section never names a thread index, so interchangeable threads in
    /// the same situation encode identically.
    ///
    /// Lock roles are `(lock << 1, count)` for a held lock and
    /// `(lock << 1 | 1, position)` for a wait-set entry. Together they
    /// restore every lock exactly: a lock no thread holds has count 0, and
    /// the positions rebuild the FIFO order. The call results are part of
    /// the state because two paths that reach the same configuration with
    /// different values already returned must not merge, or signature
    /// enumeration would under-approximate; a result's method name is not
    /// encoded, because call `k` of a thread is always its spec's call `k`.
    pub(crate) fn encode_thread(&self, i: usize, out: &mut Vec<u32>) {
        let t = &self.threads[i];
        out.push(t.call_idx as u32);
        match &t.status {
            Status::Idle => out.push(0),
            Status::Running => out.push(1),
            Status::BlockedEntry { lock } => out.extend([2, *lock as u32]),
            Status::Waiting { lock, holds } => out.extend([3, *lock as u32, *holds]),
            Status::Reacquire { lock, holds } => out.extend([4, *lock as u32, *holds]),
            Status::Finished => out.push(5),
            Status::Faulted => out.push(6),
        }
        match &t.frame {
            None => out.push(0),
            Some(f) => {
                out.extend([1, f.method_idx as u32, f.pc as u32]);
                encode_opt_value(&f.ret_reg, out);
                encode_map(&f.locals, &self.layout.locals[f.method_idx], out);
            }
        }
        let marker = self.last_marker[i];
        out.extend([marker as u32, (marker >> 32) as u32]);
        out.push(self.results[i].len() as u32);
        for call in &self.results[i] {
            out.push(u32::from(call.completed_step.is_some()));
            encode_opt_value(&call.returned, out);
        }
        let roles = out.len();
        out.push(0);
        for (l, lock) in self.locks.iter().enumerate() {
            if lock.owner == Some(i) {
                out.extend([(l as u32) << 1, lock.count]);
            }
            if let Some(pos) = lock.wait_set.iter().position(|&w| w == i) {
                out.extend([(l as u32) << 1 | 1, pos as u32]);
            }
        }
        out[roles] = ((out.len() - roles - 1) / 2) as u32;
    }
}

/// Encode `map` as a presence bitmask over `names` followed by the present
/// values in name order. `names` is sorted and holds every key.
fn encode_map(map: &BTreeMap<String, Value>, names: &[String], out: &mut Vec<u32>) {
    let mask = out.len();
    out.resize(mask + names.len().div_ceil(32), 0);
    if map.len() == names.len() {
        // The keys are a subset of `names`, so equal sizes mean equal sets.
        for slot in 0..names.len() {
            out[mask + slot / 32] |= 1 << (slot % 32);
        }
        for value in map.values() {
            encode_value(value, out);
        }
        return;
    }
    let mut slot = 0;
    for (key, value) in map {
        while names[slot] != *key {
            slot += 1;
        }
        out[mask + slot / 32] |= 1 << (slot % 32);
        encode_value(value, out);
        slot += 1;
    }
}

/// Encode a value. The low two bits of the first word say which kind
/// follows, so the encoding is self-delimiting.
fn encode_value(value: &Value, out: &mut Vec<u32>) {
    match value {
        Value::Int(n) => out.extend([0, *n as u32, (*n >> 32) as u32]),
        Value::Bool(b) => out.push(1 | (u32::from(*b) << 2)),
        Value::Str(s) => {
            out.push(2 | ((s.len() as u32) << 2));
            out.extend(s.as_bytes().chunks(4).map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0u32, |w, (i, &b)| w | (u32::from(b) << (8 * i)))
            }));
        }
    }
}

/// Encode an optional value (`None` takes the fourth kind tag).
fn encode_opt_value(value: &Option<Value>, out: &mut Vec<u32>) {
    match value {
        Some(v) => encode_value(v, out),
        None => out.push(3),
    }
}

/// A section's id in `store`.
fn intern(store: &mut SliceStore, section: &[u32]) -> u32 {
    store.intern_hashed(section, hash_words(section)).0 .0
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
    scratch: Vec<u32>,
    root: Vec<u32>,
    sorted: Vec<u32>,
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
            root: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// Intern `vm`'s state: its id and whether it is new.
    pub(crate) fn intern(&mut self, vm: &Vm) -> (StateId, bool) {
        self.scratch.clear();
        vm.encode_global(&mut self.scratch);
        self.root.clear();
        self.root.push(intern(&mut self.globals, &self.scratch));
        for i in 0..vm.thread_count() {
            self.scratch.clear();
            vm.encode_thread(i, &mut self.scratch);
            self.root.push(intern(&mut self.threads, &self.scratch));
        }
        for group in &self.groups {
            self.sorted.clear();
            self.sorted.extend(group.iter().map(|&i| self.root[1 + i]));
            self.sorted.sort_unstable();
            for (&slot, &id) in group.iter().zip(&self.sorted) {
                self.root[1 + slot] = id;
            }
        }
        self.roots.intern_hashed(&self.root, hash_words(&self.root))
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
        let mut plain = StateTable::new(&vm, false);
        assert_ne!(plain.intern(&a).0, plain.intern(&b).0);
        let mut quotient = StateTable::new(&vm, true);
        assert_eq!(quotient.intern(&a).0, quotient.intern(&b).0);
    }

    #[test]
    fn value_encodings_are_distinct_and_self_delimiting() {
        let values = [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(1 << 40),
            Value::Bool(false),
            Value::Bool(true),
            Value::Str(String::new()),
            Value::Str("abcd".into()),
            Value::Str("abcde".into()),
        ];
        let mut encoded: Vec<Vec<u32>> = values
            .iter()
            .map(|v| {
                let mut words = Vec::new();
                encode_value(v, &mut words);
                words
            })
            .collect();
        let mut none = Vec::new();
        encode_opt_value(&None, &mut none);
        encoded.push(none);
        // No encoding is a prefix of another, so concatenations decode
        // unambiguously.
        for (i, a) in encoded.iter().enumerate() {
            for (j, b) in encoded.iter().enumerate() {
                assert!(i == j || !b.starts_with(a), "{a:?} is a prefix of {b:?}");
            }
        }
    }
}
