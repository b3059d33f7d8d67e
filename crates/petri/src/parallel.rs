//! Shared parallel-execution primitives: the [`Parallelism`] knob threaded
//! through every exploration config in the workspace, and a deterministic
//! [`parallel_map`] used to fan independent work items across scoped
//! worker threads.
//!
//! Design rules (see DESIGN.md §4 "Parallel exploration"):
//!
//! * `threads = 1` must take the *existing sequential code path* — no
//!   thread is ever spawned, so single-threaded behaviour is bit-for-bit
//!   what it was before parallelism existed.
//! * Parallel results must be deterministic: work is partitioned by item
//!   index (never by completion order) and reassembled positionally, so
//!   the output of [`parallel_map`] is independent of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads exploration fans out across.
///
/// `threads = 1` selects the sequential code path everywhere; any higher
/// value enables the parallel engines. The default is the machine's
/// available core count, so parallelism scales with the hardware without
/// configuration — results are identical either way by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of worker threads (>= 1).
    pub threads: usize,
}

impl Parallelism {
    /// Explicit thread count (clamped up to 1).
    pub fn with_threads(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
        }
    }

    /// The sequential configuration (`threads = 1`).
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// One worker per available core.
    pub fn available() -> Self {
        Parallelism {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// True when this configuration takes the sequential path.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
    }
}

/// How many frontier states a parallel worker pops from its own queue (and
/// steals from a victim) per lock acquisition.
///
/// The original fixed sizes (8 own / 4 steal) starve the steal path on
/// small frontiers: one worker drains its whole queue in a few batched
/// pops before anyone else sees work, so `petri.reach.steals` stays
/// near zero and the frontier never spreads. `Adaptive` takes at most
/// half of what is visible, leaving the rest stealable. Batch sizes only
/// affect scheduling — the canonically renumbered result graph is
/// byte-identical under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Take `min(cap, max(1, len/2))` states per pop: half the visible
    /// queue, capped at the old fixed sizes (8 own / 4 steal).
    #[default]
    Adaptive,
    /// Fixed batch sizes (clamped up to 1 each).
    Fixed {
        /// States popped from the worker's own queue per lock hold.
        own: usize,
        /// States stolen from a victim's queue per lock hold.
        steal: usize,
    },
}

/// Cap on adaptive own-queue batches (the old fixed own size).
pub const OWN_BATCH_CAP: usize = 8;
/// Cap on adaptive steal batches (the old fixed steal size).
pub const STEAL_BATCH_CAP: usize = 4;

impl BatchPolicy {
    /// The legacy fixed 8/4 policy.
    pub const FIXED_LEGACY: BatchPolicy = BatchPolicy::Fixed {
        own: OWN_BATCH_CAP,
        steal: STEAL_BATCH_CAP,
    };

    /// How many states to pop from the worker's own queue, given its
    /// current visible length.
    #[inline]
    pub fn own_batch(self, queue_len: usize) -> usize {
        match self {
            BatchPolicy::Adaptive => (queue_len / 2).clamp(1, OWN_BATCH_CAP),
            BatchPolicy::Fixed { own, .. } => own.max(1),
        }
    }

    /// How many states to steal from a victim queue of the given length.
    #[inline]
    pub fn steal_batch(self, victim_len: usize) -> usize {
        match self {
            BatchPolicy::Adaptive => (victim_len / 2).clamp(1, STEAL_BATCH_CAP),
            BatchPolicy::Fixed { steal, .. } => steal.max(1),
        }
    }
}

/// Map `f` over `items`, fanning the calls across `parallelism.threads`
/// scoped workers. The output is positionally identical to
/// `items.iter().map(f).collect()` regardless of thread count or
/// scheduling: workers claim item *indices* from a shared atomic cursor
/// and write results back into their item's slot.
///
/// `threads = 1` (or fewer than two items) runs the plain sequential map
/// on the calling thread.
pub fn parallel_map<T, U, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if jcc_obs::enabled() {
        let reg = jcc_obs::global();
        reg.counter("petri.parallel_map.calls").inc();
        reg.counter("petri.parallel_map.items")
            .add(items.len() as u64);
    }
    let workers = parallelism.threads.min(items.len().max(1));
    if workers <= 1 {
        let _span = jcc_obs::span!("petri.parallel_map.sequential");
        return items.iter().map(f).collect();
    }
    let _span = jcc_obs::span!("petri.parallel_map");

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<U>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || Mutex::new(None));

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_parallelism_is_one_thread() {
        assert!(Parallelism::sequential().is_sequential());
        assert_eq!(Parallelism::with_threads(0).threads, 1);
        assert!(Parallelism::available().threads >= 1);
    }

    #[test]
    fn parallel_map_matches_sequential_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let par = parallel_map(Parallelism::with_threads(threads), &items, |x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(Parallelism::with_threads(4), &empty, |x| *x).is_empty());
        assert_eq!(
            parallel_map(Parallelism::with_threads(4), &[7u32], |x| x + 1),
            vec![8]
        );
    }
}
