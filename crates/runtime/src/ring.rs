//! Fixed-size lock-free SPSC rings — the capture substrate behind
//! [`EventLog`](crate::EventLog).
//!
//! One ring per (instrumented OS thread, log): the owning thread is the
//! only producer, the log's collector is the only consumer, so the ring
//! needs no shared lock and no CAS loop — a producer publishes a whole
//! record with one release-store of `tail`, a consumer retires it with one
//! release-store of `head`. The crate is `#![forbid(unsafe_code)]`, so
//! slots are `AtomicU64` words rather than an `UnsafeCell` byte buffer;
//! records are encoded as word sequences by the capture layer
//! (`events.rs`).
//!
//! **The no-block producer contract**: [`SpscRing::try_push`] either
//! publishes the whole record or returns `false` immediately — it never
//! spins, never waits for the consumer, and never allocates. On `false`
//! the capture layer bumps the ring's drop counter and moves on; a
//! `CaptureGap` record is injected once space frees up, so the drained
//! stream stays honest about what is missing.
//!
//! Record framing is part of the ring contract: every record starts with a
//! header word whose bits [`EXTRA_SHIFT`]`..`[`EXTRA_SHIFT`]`+16` give the
//! number of payload words following the [`HEADER_WORDS`]-word prefix.
//! Because a record becomes visible only via the producer's single `tail`
//! store, the consumer always sees whole records.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed prefix of every record: header, stamp, thread, monitor.
pub const HEADER_WORDS: usize = 4;

/// Bit offset of the 16-bit "extra payload words" field in the header word.
pub const EXTRA_SHIFT: u32 = 32;

/// Smallest ring we will allocate (words); tiny rings are only useful in
/// drop-path tests.
pub const MIN_CAPACITY_WORDS: usize = 16;

/// Default per-producer ring capacity in words (16384 words = 128 KiB; a
/// transition record is [`HEADER_WORDS`] words, so ≈ 4096 events of
/// headroom per thread between collector visits).
pub const DEFAULT_CAPACITY_WORDS: usize = 1 << 14;

/// A single-producer single-consumer ring of `u64` words.
///
/// `head`/`tail` are monotonically increasing word counts (never wrapped);
/// slot indices are `cursor & mask`. With 64-bit cursors, overflow is not
/// a practical concern.
#[derive(Debug)]
pub struct SpscRing {
    slots: Box<[AtomicU64]>,
    mask: u64,
    /// Words consumed (written by the consumer, read by the producer).
    head: AtomicU64,
    /// Words published (written by the producer, read by the consumer).
    tail: AtomicU64,
    /// Events dropped because the ring was full (producer-side, monotone).
    dropped: AtomicU64,
    /// High-water mark of occupied words, maintained by the producer.
    occupancy_hwm: AtomicU64,
}

impl SpscRing {
    /// A ring with at least `capacity` words (rounded up to a power of
    /// two, floored at [`MIN_CAPACITY_WORDS`]).
    pub fn with_capacity_words(capacity: usize) -> Self {
        let cap = capacity.max(MIN_CAPACITY_WORDS).next_power_of_two();
        let slots: Vec<AtomicU64> = (0..cap).map(|_| AtomicU64::new(0)).collect();
        SpscRing {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            occupancy_hwm: AtomicU64::new(0),
        }
    }

    /// Producer: publish one whole record, or fail without blocking.
    ///
    /// Only the owning thread may call this. Returns `false` when the
    /// record does not fit in the free space right now (the caller should
    /// [`note_drop`](Self::note_drop)).
    pub fn try_push(&self, words: &[u64]) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let used = tail - head;
        if self.slots.len() as u64 - used < words.len() as u64 {
            return false;
        }
        for (i, &w) in words.iter().enumerate() {
            self.slots[((tail + i as u64) & self.mask) as usize].store(w, Ordering::Relaxed);
        }
        // The release store is the publication point: a consumer that
        // acquire-loads this tail value sees every slot store above.
        self.tail.store(tail + words.len() as u64, Ordering::Release);
        let used_after = used + words.len() as u64;
        if used_after > self.occupancy_hwm.load(Ordering::Relaxed) {
            self.occupancy_hwm.store(used_after, Ordering::Relaxed);
        }
        true
    }

    /// Producer: record that one event was discarded because the ring was
    /// full.
    pub fn note_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Events dropped on this ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// High-water mark of occupied words.
    pub fn occupancy_hwm(&self) -> u64 {
        self.occupancy_hwm.load(Ordering::Relaxed)
    }

    /// Consumer: pop the next whole record into `buf`. Returns `false`
    /// when the ring is empty. Only one consumer may drain a ring at a
    /// time (the log's collector serializes on its own lock).
    pub fn pop_record(&self, buf: &mut Vec<u64>) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return false;
        }
        let header = self.slots[(head & self.mask) as usize].load(Ordering::Relaxed);
        let extra = (header >> EXTRA_SHIFT) & 0xffff;
        let len = HEADER_WORDS as u64 + extra;
        debug_assert!(tail - head >= len, "partial record published");
        buf.clear();
        for i in 0..len {
            buf.push(self.slots[((head + i) & self.mask) as usize].load(Ordering::Relaxed));
        }
        // Release so the producer's subsequent acquire-load of `head` sees
        // the slots as reusable only after we finished reading them.
        self.head.store(head + len, Ordering::Release);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(extra: u64) -> u64 {
        extra << EXTRA_SHIFT
    }

    #[test]
    fn push_pop_roundtrip() {
        let r = SpscRing::with_capacity_words(64);
        assert!(r.try_push(&[header(1), 10, 1, 0, 99]));
        assert!(r.try_push(&[header(0), 11, 2, 0]));
        let mut buf = Vec::new();
        assert!(r.pop_record(&mut buf));
        assert_eq!(buf, vec![header(1), 10, 1, 0, 99]);
        assert!(r.pop_record(&mut buf));
        assert_eq!(buf, vec![header(0), 11, 2, 0]);
        assert!(!r.pop_record(&mut buf));
    }

    #[test]
    fn full_ring_rejects_without_blocking() {
        let r = SpscRing::with_capacity_words(MIN_CAPACITY_WORDS);
        // 16 words = four 4-word records.
        for _ in 0..4 {
            assert!(r.try_push(&[header(0), 0, 0, 0]));
        }
        assert!(!r.try_push(&[header(0), 0, 0, 0]));
        r.note_drop();
        assert_eq!(r.dropped(), 1);
        // Draining one record frees exactly one record's space.
        let mut buf = Vec::new();
        assert!(r.pop_record(&mut buf));
        assert!(r.try_push(&[header(0), 7, 7, 7]));
        assert_eq!(r.occupancy_hwm(), 16);
    }

    #[test]
    fn wraparound_preserves_records() {
        let r = SpscRing::with_capacity_words(MIN_CAPACITY_WORDS);
        let mut buf = Vec::new();
        // 5-word records against a 16-word ring force index wraparound.
        for i in 0..50u64 {
            assert!(r.try_push(&[header(1), i, 1, 0, i * i]));
            assert!(r.pop_record(&mut buf));
            assert_eq!(buf, vec![header(1), i, 1, 0, i * i]);
        }
        assert!(!r.pop_record(&mut buf), "every record was drained");
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing() {
        use std::sync::Arc;
        let r = Arc::new(SpscRing::with_capacity_words(1 << 10));
        let p = Arc::clone(&r);
        let n = 20_000u64;
        let producer = std::thread::spawn(move || {
            let mut pushed = 0u64;
            let mut i = 0u64;
            while pushed < n {
                if p.try_push(&[header(1), i, 1, 0, i]) {
                    pushed += 1;
                    i += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut buf = Vec::new();
        let mut expect = 0u64;
        while expect < n {
            if r.pop_record(&mut buf) {
                assert_eq!(buf[1], expect, "records must arrive in order");
                assert_eq!(buf[4], expect);
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(r.dropped(), 0);
    }
}
