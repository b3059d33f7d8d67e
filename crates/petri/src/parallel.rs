//! Shared parallel-execution primitives: the [`Parallelism`] knob and a
//! deterministic [`parallel_map`] that fans independent work items across
//! scoped worker threads. The mutation study's (mutant × scenario) matrix
//! is its one fan-out; exploration itself is single-threaded.
//!
//! Design rules (see DESIGN.md §4 "One engine per representation"):
//!
//! * `threads = 1` runs the plain sequential map on the calling thread —
//!   no thread is ever spawned.
//! * Results are deterministic: work is partitioned by item index (never
//!   by completion order) and reassembled positionally, so the output of
//!   [`parallel_map`] is independent of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a [`parallel_map`] fans out across.
///
/// `threads = 1` runs on the calling thread. The default is the machine's
/// available core count, so the fan-out scales with the hardware without
/// configuration; results are identical either way by construction.
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
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
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
        assert_eq!(Parallelism::sequential().threads, 1);
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
