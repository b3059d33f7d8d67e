//! The paper's Figure-1 net — one thread interacting with an object lock —
//! and its composition for N threads sharing the lock.
//!
//! Places (per thread):
//!
//! * `A` — executing outside any synchronized block,
//! * `B` — requesting entry to a critical section,
//! * `C` — executing inside the critical section (holds the lock),
//! * `D` — in the *wait* state.
//!
//! Shared place `E` — the object lock is available.
//!
//! Transitions (per thread): `T1: A→B`, `T2: B+E→C`, `T3: C→D+E`,
//! `T4: C→A+E`, `T5: D→B`.
//!
//! The composition keeps one `E` place and replicates `A`–`D`/`T1`–`T5`
//! per thread, which is exactly how the paper describes testing a component
//! "under the assumption of multiple thread access". Note that the plain
//! net over-approximates Java in one respect the paper calls out with the
//! dashed arc into T5: a waiting thread cannot wake *itself*; in the net,
//! `T5` is structurally enabled whenever `D` is marked. The
//! [`JavaNet::notify_side_condition`] filter and the VM crate impose the
//! extra condition when it matters.

use crate::net::{Marking, Net, NetBuilder, PlaceId, TransId};
use crate::transition::Transition;

/// The four per-thread places of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadPlace {
    /// Executing outside a synchronized block.
    Outside,
    /// Requesting an object lock (blocked at the monitor boundary).
    Requesting,
    /// Executing in the critical section, holding the lock.
    Critical,
    /// Suspended in the wait state.
    Waiting,
}

impl ThreadPlace {
    /// All four per-thread places, in A..D order.
    pub const ALL: [ThreadPlace; 4] = [
        ThreadPlace::Outside,
        ThreadPlace::Requesting,
        ThreadPlace::Critical,
        ThreadPlace::Waiting,
    ];

    /// The single-letter name Figure 1 uses.
    pub fn letter(self) -> char {
        match self {
            ThreadPlace::Outside => 'A',
            ThreadPlace::Requesting => 'B',
            ThreadPlace::Critical => 'C',
            ThreadPlace::Waiting => 'D',
        }
    }
}

/// The Figure-1 net for `n` threads sharing one object lock, with typed
/// access to its places and transitions.
#[derive(Debug, Clone)]
pub struct JavaNet {
    net: Net,
    threads: usize,
    lock_place: PlaceId,
    // thread-major: place_ids[thread][place]
    place_ids: Vec<[PlaceId; 4]>,
    // thread-major: trans_ids[thread][transition]
    trans_ids: Vec<[TransId; 5]>,
    // by transition index: the thread and model transition it belongs to
    trans_class: Vec<(usize, Transition)>,
}

impl JavaNet {
    /// Build the model for `threads` threads (Figure 1 itself is
    /// `JavaNet::new(1)`). Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "the model needs at least one thread");
        let mut b = NetBuilder::new();
        let lock_place = b.place("E", 1);
        let mut place_ids = Vec::with_capacity(threads);
        let mut trans_ids = Vec::with_capacity(threads);
        for th in 0..threads {
            let suffix = |letter: char| {
                if threads == 1 {
                    letter.to_string()
                } else {
                    format!("{letter}{th}")
                }
            };
            let a = b.place(suffix('A'), 1);
            let bb = b.place(suffix('B'), 0);
            let c = b.place(suffix('C'), 0);
            let d = b.place(suffix('D'), 0);
            let tname = |i: usize| {
                if threads == 1 {
                    format!("T{i}")
                } else {
                    format!("T{i}.{th}")
                }
            };
            let t1 = b.transition(tname(1), &[a], &[bb]);
            let t2 = b.transition(tname(2), &[bb, lock_place], &[c]);
            let t3 = b.transition(tname(3), &[c], &[d, lock_place]);
            let t4 = b.transition(tname(4), &[c], &[a, lock_place]);
            let t5 = b.transition(tname(5), &[d], &[bb]);
            place_ids.push([a, bb, c, d]);
            trans_ids.push([t1, t2, t3, t4, t5]);
        }
        let net = b.build().expect("generated names are unique");
        let mut trans_class = vec![(0, Transition::T1); net.num_transitions()];
        for (th, row) in trans_ids.iter().enumerate() {
            for (i, t) in row.iter().enumerate() {
                trans_class[t.index()] = (th, Transition::from_index(i));
            }
        }
        JavaNet {
            net,
            threads,
            lock_place,
            place_ids,
            trans_ids,
            trans_class,
        }
    }

    /// The underlying generic net.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// The thread-permutation symmetry of this composition: all threads
    /// are identical copies of Figure 1, so their four-place lanes
    /// (contiguous `A..D` runs after the shared `E` at index 0) are
    /// interchangeable. Feed this to
    /// [`crate::reach::ReachLimits::reduction`] to explore the quotient.
    pub fn thread_symmetry(&self) -> crate::reduce::SymmetrySpec {
        crate::reduce::SymmetrySpec {
            first_place: 1,
            lanes: self.threads as u32,
            lane_width: 4,
        }
    }

    /// Number of modeled threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared lock-availability place `E`.
    pub fn lock_place(&self) -> PlaceId {
        self.lock_place
    }

    /// The place id for `place` of `thread`.
    pub fn place(&self, thread: usize, place: ThreadPlace) -> PlaceId {
        let idx = match place {
            ThreadPlace::Outside => 0,
            ThreadPlace::Requesting => 1,
            ThreadPlace::Critical => 2,
            ThreadPlace::Waiting => 3,
        };
        self.place_ids[thread][idx]
    }

    /// The transition id for model transition `t` of `thread`.
    pub fn transition(&self, thread: usize, t: Transition) -> TransId {
        self.trans_ids[thread][t.index()]
    }

    /// Which thread and model transition a raw [`TransId`] belongs to.
    pub fn classify_transition(&self, id: TransId) -> Option<(usize, Transition)> {
        self.trans_class.get(id.index()).copied()
    }

    /// Where `thread` currently is in `marking`, if it is in exactly one
    /// place (always true for markings reachable from the initial one).
    pub fn thread_state(&self, marking: &[u32], thread: usize) -> Option<ThreadPlace> {
        let mut found = None;
        for place in ThreadPlace::ALL {
            if marking[self.place(thread, place).index()] > 0 {
                if found.is_some() {
                    return None;
                }
                found = Some(place);
            }
        }
        found
    }

    /// True if the object lock is available in `marking`.
    pub fn lock_available(&self, marking: &[u32]) -> bool {
        marking[self.lock_place.index()] > 0
    }

    /// The mutual-exclusion P-invariant: `E + Σᵢ Cᵢ` is conserved (and equals
    /// 1 from the initial marking), so at most one thread is ever in its
    /// critical section. Returns the weight vector.
    pub fn mutex_invariant(&self) -> Vec<i64> {
        let mut w = vec![0i64; self.net.num_places()];
        w[self.lock_place.index()] = 1;
        for th in 0..self.threads {
            w[self.place(th, ThreadPlace::Critical).index()] = 1;
        }
        w
    }

    /// The per-thread conservation P-invariant: `Aᵢ + Bᵢ + Cᵢ + Dᵢ` is
    /// conserved (equals 1), i.e. each thread is always in exactly one state.
    pub fn thread_invariant(&self, thread: usize) -> Vec<i64> {
        let mut w = vec![0i64; self.net.num_places()];
        for place in ThreadPlace::ALL {
            w[self.place(thread, place).index()] = 1;
        }
        w
    }

    /// A firing filter encoding the dashed-arc side condition of Figure 1:
    /// a thread's `T5` may only fire when *another* thread is inside the
    /// critical section (only a lock-holding thread can call `notify`).
    /// Pass to [`crate::reach::ReachGraph::explore_filtered`].
    ///
    /// T1–T4 pass in O(1); T5 scans the other threads' `C` places.
    pub fn notify_side_condition(&self) -> impl Fn(&Marking, TransId) -> bool + '_ {
        move |marking, id| match self.classify_transition(id) {
            Some((th, Transition::T5)) => self.place_ids.iter().enumerate().any(|(other, row)| {
                other != th
                    && marking.0[row[2].index()] > 0
                    && self.thread_state(&marking.0, other) == Some(ThreadPlace::Critical)
            }),
            _ => true,
        }
    }

    /// True in `marking` if no thread can ever make progress again under the
    /// dashed-arc side condition ("a thread in the wait state cannot wake
    /// itself", and only a thread inside the monitor can notify).
    ///
    /// Under the net's invariants (each thread in exactly one of A–D, lock
    /// available iff no thread in C), a thread in `A`, `B` or `C` can always
    /// progress eventually, so the only dead configuration is *every* thread
    /// suspended in `D` — the model-level picture of the paper's FF-T5 "no
    /// other thread calls notify whilst this thread is in the wait state"
    /// (including the one-thread wait-forever case).
    pub fn all_threads_stuck(&self, marking: &[u32]) -> bool {
        (0..self.threads)
            .all(|th| self.thread_state(marking, th) == Some(ThreadPlace::Waiting))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::Transition as T;

    #[test]
    fn single_thread_structure_matches_figure_1() {
        let j = JavaNet::new(1);
        let net = j.net();
        assert_eq!(net.num_places(), 5);
        assert_eq!(net.num_transitions(), 5);
        for (name, tokens) in [("A", 1), ("B", 0), ("C", 0), ("D", 0), ("E", 1)] {
            let p = net.place_by_name(name).expect(name);
            assert_eq!(net.initial_marking().tokens(p), tokens, "place {name}");
        }
    }

    #[test]
    fn single_thread_firing_cycle() {
        let j = JavaNet::new(1);
        let net = j.net();
        let m0 = net.initial_marking();
        // T1: A -> B
        let m1 = net.fire(&m0, j.transition(0, T::T1)).unwrap();
        assert_eq!(j.thread_state(&m1.0, 0), Some(ThreadPlace::Requesting));
        assert!(j.lock_available(&m1.0));
        // T2: B + E -> C
        let m2 = net.fire(&m1, j.transition(0, T::T2)).unwrap();
        assert_eq!(j.thread_state(&m2.0, 0), Some(ThreadPlace::Critical));
        assert!(!j.lock_available(&m2.0));
        // T3: C -> D + E
        let m3 = net.fire(&m2, j.transition(0, T::T3)).unwrap();
        assert_eq!(j.thread_state(&m3.0, 0), Some(ThreadPlace::Waiting));
        assert!(j.lock_available(&m3.0));
        // T5: D -> B
        let m4 = net.fire(&m3, j.transition(0, T::T5)).unwrap();
        assert_eq!(j.thread_state(&m4.0, 0), Some(ThreadPlace::Requesting));
        // T2 then T4 returns to the initial marking.
        let m5 = net.fire(&m4, j.transition(0, T::T2)).unwrap();
        let m6 = net.fire(&m5, j.transition(0, T::T4)).unwrap();
        assert_eq!(m6, m0);
    }

    #[test]
    fn lock_blocks_second_thread() {
        let j = JavaNet::new(2);
        let net = j.net();
        let m0 = net.initial_marking();
        let m = net.fire(&m0, j.transition(0, T::T1)).unwrap();
        let m = net.fire(&m, j.transition(0, T::T2)).unwrap();
        let m = net.fire(&m, j.transition(1, T::T1)).unwrap();
        // Thread 1 requests but cannot acquire: E is empty.
        assert!(!net.enabled(&m, j.transition(1, T::T2)));
        // After thread 0 releases, thread 1 can acquire.
        let m = net.fire(&m, j.transition(0, T::T4)).unwrap();
        assert!(net.enabled(&m, j.transition(1, T::T2)));
    }

    #[test]
    fn classify_transition_roundtrip() {
        let j = JavaNet::new(3);
        for th in 0..3 {
            for t in T::ALL {
                let id = j.transition(th, t);
                assert_eq!(j.classify_transition(id), Some((th, t)));
            }
        }
    }

    #[test]
    fn classify_transition_rejects_foreign_ids() {
        let j = JavaNet::new(2);
        assert_eq!(j.classify_transition(TransId(9)), Some((1, T::T5)));
        assert_eq!(j.classify_transition(TransId(10)), None);
    }

    #[test]
    fn side_condition_matches_its_definition() {
        // Every 0/1 marking of the two-thread net, reachable or not: T5
        // passes exactly when another thread is in C and nowhere else.
        let j = JavaNet::new(2);
        let filter = j.notify_side_condition();
        let places = j.net().num_places();
        for bits in 0u32..1 << places {
            let m = Marking((0..places).map(|p| bits >> p & 1).collect());
            for t in j.net().transitions() {
                let (th, kind) = j.classify_transition(t).unwrap();
                let want = kind != T::T5
                    || (0..2).any(|other| {
                        other != th
                            && j.thread_state(&m.0, other) == Some(ThreadPlace::Critical)
                    });
                assert_eq!(filter(&m, t), want, "{m:?} {t:?}");
            }
        }
    }

    #[test]
    fn invariants_hold_along_a_run() {
        let j = JavaNet::new(2);
        let net = j.net();
        let mutex = j.mutex_invariant();
        let th0 = j.thread_invariant(0);
        let th1 = j.thread_invariant(1);
        let weigh = |m: &Marking, w: &[i64]| -> i64 {
            m.0.iter()
                .zip(w)
                .map(|(&t, &wi)| i64::from(t) * wi)
                .sum()
        };
        let mut m = net.initial_marking();
        assert_eq!(weigh(&m, &mutex), 1);
        let seq = [
            j.transition(0, T::T1),
            j.transition(1, T::T1),
            j.transition(0, T::T2),
            j.transition(0, T::T3),
            j.transition(1, T::T2),
            j.transition(0, T::T5),
            j.transition(1, T::T4),
            j.transition(0, T::T2),
            j.transition(0, T::T4),
        ];
        for t in seq {
            m = net.fire(&m, t).unwrap();
            assert_eq!(weigh(&m, &mutex), 1, "mutex invariant");
            assert_eq!(weigh(&m, &th0), 1, "thread 0 conservation");
            assert_eq!(weigh(&m, &th1), 1, "thread 1 conservation");
        }
    }

    #[test]
    fn stuck_detection_waiting_with_no_notifier() {
        // Single thread waits: nobody can ever notify it (the paper's FF-T5
        // "only one thread in the system and thus waits forever").
        let j = JavaNet::new(1);
        let net = j.net();
        let m = net.fire(&net.initial_marking(), j.transition(0, T::T1)).unwrap();
        let m = net.fire(&m, j.transition(0, T::T2)).unwrap();
        let m = net.fire(&m, j.transition(0, T::T3)).unwrap();
        // In the raw net T5 is structurally enabled; under the dashed-arc
        // side condition the lone waiting thread can never be woken.
        assert_eq!(j.thread_state(&m.0, 0), Some(ThreadPlace::Waiting));
        assert!(j.all_threads_stuck(&m.0));
        assert!(!j.all_threads_stuck(&net.initial_marking().0));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = JavaNet::new(0);
    }
}
