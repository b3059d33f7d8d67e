//! The shared event log: every monitor operation, data access and coverage
//! marker, in one global order (per log).
//!
//! # Capture architecture (always-on monitoring)
//!
//! Capture is lock-free on the hot path: each instrumented OS thread owns
//! a fixed-size SPSC ring ([`crate::ring`]) per log. [`EventLog::log`] /
//! [`EventLog::log_as`] encode the event into `u64` words, take a global
//! order stamp with one `fetch_add`, and publish with one release-store —
//! **producers never block and never take a shared lock**. When a ring is
//! full the event is dropped, a per-ring drop counter is bumped, and a
//! [`EventKind::CaptureGap`] record (attributed to the logical thread
//! whose events were lost) is injected as soon as space frees up, so the
//! drained stream stays honest about what is missing.
//!
//! A *collector* (whoever calls [`EventLog::snapshot`], [`EventLog::len`],
//! [`EventLog::drain_for_each`], …) drains all rings, merges records by
//! stamp and renumbers [`Event::seq`] densely — readers still see one
//! gap-free global order.
//!
//! The shared name tables (monitor names via
//! [`EventLog::register_monitor`], interned variable/method strings) are
//! *registration-class* state behind a mutex: a producer touches the lock
//! only on the first use of a new string per thread (a per-thread cache
//! absorbs the steady state).
//!
//! # Sampling
//!
//! [`EventLog::set_sampling`] installs a probabilistic, seeded sampling
//! knob with a power-of-two rate (`shift` = log2 of the rate). Sampling
//! applies **only** to data and coverage events (`Read`, `Write`,
//! `MethodStart`, `MethodEnd`, `Site`); synchronization events
//! (`Transition`, `Notify`) are always captured. That asymmetry is
//! what keeps downstream detectors *sound under sampling*: held-lock sets
//! stay exact and only the set of observed accesses shrinks, so a sampled
//! stream can under-report but never invent a finding. The keep/skip
//! decision hashes `(seed, logical thread, per-thread event ordinal)`, so
//! a single-threaded [`EventLog::log_as`] replay is bit-for-bit
//! deterministic for a fixed seed.
//!
//! Thread identity is **per log**: the first thread to log into an
//! [`EventLog`] gets id 1, the second id 2, and so on, regardless of how
//! many threads earlier tests or suites spun up. (The process-wide token
//! behind [`current_thread_id`] still exists — monitors use it for
//! ownership checks — but it never leaks into logged events, so obs
//! snapshots and cross-test comparisons see stable ids.)
//!
//! When `jcc-obs` recording is enabled, every *captured* event is bridged
//! into the global metrics registry (`runtime.events`,
//! `runtime.transition.T*`, notify/lost-notification tallies) through
//! handles cached per producer, plus capture health: a
//! `runtime.capture.latency_ns` log2 histogram (timed every 64th event),
//! `runtime.capture.dropped` / `runtime.capture.sampled_out` counters and
//! a `runtime.ring.occupancy_hwm_words` high-water gauge.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;

use jcc_cofg::TimelineFold;
use jcc_petri::event::{Event, EventKind};
use jcc_petri::Transition;

use crate::lock;
use crate::ring::{SpscRing, DEFAULT_CAPACITY_WORDS, EXTRA_SHIFT, HEADER_WORDS};

/// Identifies a monitor instance within one [`EventLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MonitorId(pub u64);

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_LOG_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// This thread's producer rings, one slot per live log it has logged
    /// into (typically one or two; dead and stale slots are evicted on
    /// registration).
    static PRODUCERS: RefCell<Vec<ProducerSlot>> = const { RefCell::new(Vec::new()) };
}

/// A process-wide token for the current OS thread, stable for its
/// lifetime. Used by monitors for ownership checks; event logs map it to a
/// dense per-log id (see the module docs), so this value never appears in
/// [`Event::thread`].
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

// --- record encoding -----------------------------------------------------
//
// [header, stamp, thread, lock, extra...] where the header packs tag
// (bits 56..64), flags (48..56) and the extra-word count (32..48, the
// framing field the ring's consumer uses). The lock word is 0 for kinds
// that carry no lock.

const TAG_SHIFT: u32 = 56;
const FLAGS_SHIFT: u32 = 48;

const TAG_TRANSITION: u64 = 0; // flags = Transition::index()
const TAG_NOTIFY: u64 = 1; // flags bit0 = all; extra: [waiters]
const TAG_READ: u64 = 2; // extra: [name id]
const TAG_WRITE: u64 = 3; // extra: [name id]
const TAG_METHOD_START: u64 = 4; // extra: [name id]
const TAG_METHOD_END: u64 = 5; // extra: [name id]
const TAG_SITE: u64 = 6; // flags = exit; extra: [name id, path...]
const TAG_GAP: u64 = 7; // extra: [dropped]
const TAG_FAULT: u64 = 8; // extra: [message id]

/// SplitMix64 finalizer — the sampling hash (no external hasher dep).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which kinds the sampling knob may skip. Synchronization events are
/// always captured — that is the soundness-under-sampling contract.
fn sampling_applies(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::Read { .. }
            | EventKind::Write { .. }
            | EventKind::MethodStart { .. }
            | EventKind::MethodEnd { .. }
            | EventKind::Site { .. }
    )
}

// --- shared log state ----------------------------------------------------

#[derive(Debug, Default)]
struct NameTable {
    monitor_names: Vec<String>,
    /// Interned strings (variables, methods), shared across the log.
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl NameTable {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }
}

#[derive(Debug, Default)]
struct ProducerRegistry {
    /// All producer rings of the current epoch, registration order.
    rings: Vec<Arc<SpscRing>>,
    /// Process-wide thread token → dense per-log id, in first-log order.
    thread_ids: HashMap<u64, u64>,
}

#[derive(Debug, Default)]
struct Collected {
    /// Events retained for [`EventLog::snapshot`] (everything collected
    /// except what streaming [`EventLog::drain_for_each`] consumed).
    events: Vec<Event>,
    /// Total events ever collected — the dense [`Event::seq`] allocator.
    total: u64,
}

#[derive(Debug)]
struct LogShared {
    id: u64,
    /// Bumped by [`EventLog::clear`]; producers re-register when stale.
    epoch: AtomicU64,
    /// The global order stamp: one wait-free `fetch_add` per captured
    /// event. Stamps may have gaps (dropped events waste one) — the
    /// collector renumbers `seq` densely, only the *order* matters.
    stamp: AtomicU64,
    /// log2 of the sampling rate (0 = capture everything).
    sample_shift: AtomicU64,
    sample_seed: AtomicU64,
    /// Events skipped by the sampling knob (not drops!).
    sampled_out: AtomicU64,
    /// Ring capacity (words) for producers registered from now on.
    ring_capacity: AtomicUsize,
    names: Mutex<NameTable>,
    registry: Mutex<ProducerRegistry>,
    collected: Mutex<Collected>,
}

impl Default for LogShared {
    fn default() -> Self {
        LogShared {
            id: NEXT_LOG_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
            sample_shift: AtomicU64::new(0),
            sample_seed: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            ring_capacity: AtomicUsize::new(DEFAULT_CAPACITY_WORDS),
            names: Mutex::new(NameTable::default()),
            registry: Mutex::new(ProducerRegistry::default()),
            collected: Mutex::new(Collected::default()),
        }
    }
}

// --- the per-thread producer ---------------------------------------------

/// Cached obs handles — resolved once per producer so the hot path never
/// touches the registry lock. `Registry::reset` zeroes metrics in place,
/// so cached handles stay valid across `BenchReporter` reinits.
struct ObsHandles {
    events: jcc_obs::Counter,
    transitions: [jcc_obs::Counter; 5],
    waits: jcc_obs::Counter,
    notify_issued: jcc_obs::Counter,
    notify_all: jcc_obs::Counter,
    notify_lost: jcc_obs::Counter,
    reads: jcc_obs::Counter,
    writes: jcc_obs::Counter,
    markers: jcc_obs::Counter,
    gaps: jcc_obs::Counter,
    dropped: jcc_obs::Counter,
    sampled_out: jcc_obs::Counter,
    latency: Arc<jcc_obs::Histogram>,
    occupancy: jcc_obs::Gauge,
}

impl ObsHandles {
    fn resolve() -> Self {
        let reg = jcc_obs::global();
        ObsHandles {
            events: reg.counter("runtime.events"),
            transitions: [
                reg.counter("runtime.transition.T1"),
                reg.counter("runtime.transition.T2"),
                reg.counter("runtime.transition.T3"),
                reg.counter("runtime.transition.T4"),
                reg.counter("runtime.transition.T5"),
            ],
            waits: reg.counter("runtime.waits"),
            notify_issued: reg.counter("runtime.notify.issued"),
            notify_all: reg.counter("runtime.notify.all"),
            notify_lost: reg.counter("runtime.notify.lost"),
            reads: reg.counter("runtime.reads"),
            writes: reg.counter("runtime.writes"),
            markers: reg.counter("runtime.markers"),
            gaps: reg.counter("runtime.capture.gaps"),
            dropped: reg.counter("runtime.capture.dropped"),
            sampled_out: reg.counter("runtime.capture.sampled_out"),
            latency: reg.histogram("runtime.capture.latency_ns"),
            occupancy: reg.gauge("runtime.ring.occupancy_hwm_words"),
        }
    }
}

struct ProducerSlot {
    log_id: u64,
    epoch: u64,
    shared: Weak<LogShared>,
    ring: Arc<SpscRing>,
    /// Dense per-log id, allocated on this thread's first `log()`.
    dense_id: Option<u64>,
    /// Thread-local intern cache: string → shared table id.
    names: HashMap<String, u32>,
    /// Per logical thread: events seen (the sampling ordinal).
    sample_counters: HashMap<u64, u64>,
    /// Per logical thread: events dropped since its last gap record.
    pending_gaps: HashMap<u64, u64>,
    /// Capture ops on this slot (drives the 1-in-64 latency timer).
    ops: u64,
    scratch: Vec<u64>,
    obs: Option<ObsHandles>,
}

impl ProducerSlot {
    fn obs_handles(&mut self) -> &ObsHandles {
        if self.obs.is_none() {
            self.obs = Some(ObsHandles::resolve());
        }
        self.obs.as_ref().expect("just installed")
    }

    fn dense_id(&mut self, shared: &LogShared) -> u64 {
        if let Some(id) = self.dense_id {
            return id;
        }
        let mut reg = lock(&shared.registry);
        let token = current_thread_id();
        let next = reg.thread_ids.len() as u64 + 1;
        let id = *reg.thread_ids.entry(token).or_insert(next);
        self.dense_id = Some(id);
        id
    }

    fn intern(&mut self, shared: &LogShared, name: &str) -> u64 {
        if let Some(&id) = self.names.get(name) {
            return id as u64;
        }
        let id = lock(&shared.names).intern(name);
        self.names.insert(name.to_string(), id);
        id as u64
    }

    /// Encode `kind` into `self.scratch` (header/stamp/thread/lock +
    /// payload), taking the global stamp last.
    fn encode(&mut self, shared: &LogShared, thread: u64, kind: &EventKind) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0, 0, thread, 0]);
        let (tag, flags) = match kind {
            EventKind::Transition { t, lock } => {
                self.scratch[3] = *lock;
                (TAG_TRANSITION, t.index() as u64)
            }
            EventKind::Notify { lock, all, waiters } => {
                self.scratch[3] = *lock;
                self.scratch.push(*waiters as u64);
                (TAG_NOTIFY, *all as u64)
            }
            EventKind::Read { var } => {
                let id = self.intern(shared, var);
                self.scratch.push(id);
                (TAG_READ, 0)
            }
            EventKind::Write { var } => {
                let id = self.intern(shared, var);
                self.scratch.push(id);
                (TAG_WRITE, 0)
            }
            EventKind::MethodStart { method } => {
                let id = self.intern(shared, method);
                self.scratch.push(id);
                (TAG_METHOD_START, 0)
            }
            EventKind::MethodEnd { method } => {
                let id = self.intern(shared, method);
                self.scratch.push(id);
                (TAG_METHOD_END, 0)
            }
            EventKind::Site { method, path, exit } => {
                let id = self.intern(shared, method);
                self.scratch.push(id);
                for &p in path {
                    self.scratch.push(p as u64);
                }
                (TAG_SITE, *exit as u64)
            }
            EventKind::Fault { message } => {
                let id = self.intern(shared, message);
                self.scratch.push(id);
                (TAG_FAULT, 0)
            }
            EventKind::CaptureGap { dropped } => {
                self.scratch.push(*dropped);
                (TAG_GAP, 0)
            }
        };
        let extra = (self.scratch.len() - HEADER_WORDS) as u64;
        let stamp = shared.stamp.fetch_add(1, Ordering::Relaxed);
        self.scratch[0] = (tag << TAG_SHIFT) | (flags << FLAGS_SHIFT) | (extra << EXTRA_SHIFT);
        self.scratch[1] = stamp;
    }

    /// Flush pending gap records (one per degraded logical thread) ahead
    /// of the next event so gaps always precede post-gap events. Returns
    /// `false` when even the gap records don't fit.
    fn flush_gaps(&mut self, shared: &LogShared) -> bool {
        if self.pending_gaps.is_empty() {
            return true;
        }
        let mut pending: Vec<(u64, u64)> = self.pending_gaps.drain().collect();
        pending.sort_unstable();
        for (i, &(thread, dropped)) in pending.iter().enumerate() {
            let stamp = shared.stamp.fetch_add(1, Ordering::Relaxed);
            let words = [
                (TAG_GAP << TAG_SHIFT) | (1u64 << EXTRA_SHIFT),
                stamp,
                thread,
                0,
                dropped,
            ];
            if !self.ring.try_push(&words) {
                // Put the unflushed remainder back and report failure.
                for &(t, d) in &pending[i..] {
                    self.pending_gaps.insert(t, d);
                }
                return false;
            }
            if jcc_obs::enabled() {
                self.obs_handles().gaps.inc();
            }
        }
        true
    }

    fn capture(&mut self, shared: &LogShared, explicit: Option<u64>, kind: EventKind) {
        let obs_on = jcc_obs::enabled();
        let t0 = if obs_on && self.ops & 0x3f == 0 {
            Some(Instant::now())
        } else {
            None
        };
        self.ops += 1;

        let thread = match explicit {
            Some(t) => t,
            None => self.dense_id(shared),
        };

        let shift = shared.sample_shift.load(Ordering::Relaxed) as u32;
        if shift > 0 && sampling_applies(&kind) {
            let n = self.sample_counters.entry(thread).or_insert(0);
            let ordinal = *n;
            *n += 1;
            let seed = shared.sample_seed.load(Ordering::Relaxed);
            if mix64(seed ^ thread.rotate_left(32) ^ ordinal) & ((1u64 << shift) - 1) != 0 {
                shared.sampled_out.fetch_add(1, Ordering::Relaxed);
                if obs_on {
                    self.obs_handles().sampled_out.inc();
                }
                return;
            }
        }

        if obs_on {
            self.bridge(&kind);
        }

        if !self.flush_gaps(shared) {
            // No room even for the gap record: this event is lost too.
            self.drop_event(thread, obs_on);
            return;
        }
        self.encode(shared, thread, &kind);
        if !self.ring.try_push(&self.scratch) {
            self.drop_event(thread, obs_on);
            return;
        }

        if let Some(t0) = t0 {
            let hwm = self.ring.occupancy_hwm();
            let h = self.obs_handles();
            h.latency.record(t0.elapsed().as_nanos() as u64);
            h.occupancy.set_max(hwm);
        }
    }

    fn drop_event(&mut self, thread: u64, obs_on: bool) {
        self.ring.note_drop();
        *self.pending_gaps.entry(thread).or_insert(0) += 1;
        if obs_on {
            self.obs_handles().dropped.inc();
        }
    }

    /// Fold one captured event into the global obs registry. `Notify` with
    /// zero waiters is the *lost notification* shape — a wake-up nobody
    /// was there to receive — so it gets its own tally. Sampled-out and
    /// dropped events are counted separately, never here.
    fn bridge(&mut self, kind: &EventKind) {
        let h = self.obs_handles();
        h.events.inc();
        match kind {
            EventKind::Transition { t, .. } => {
                h.transitions[t.index()].inc();
                if *t == Transition::T3 {
                    h.waits.inc();
                }
            }
            EventKind::Notify { all, waiters, .. } => {
                h.notify_issued.inc();
                if *all {
                    h.notify_all.inc();
                }
                if *waiters == 0 {
                    h.notify_lost.inc();
                }
            }
            EventKind::Read { .. } => h.reads.inc(),
            EventKind::Write { .. } => h.writes.inc(),
            EventKind::MethodStart { .. }
            | EventKind::MethodEnd { .. }
            | EventKind::Site { .. } => h.markers.inc(),
            EventKind::Fault { .. } => {}
            EventKind::CaptureGap { .. } => h.gaps.inc(),
        }
    }
}

/// Decode one ring record back into an [`Event`] (seq filled in later).
fn decode(words: &[u64], names: &NameTable) -> Option<(u64, Event)> {
    let header = *words.first()?;
    let tag = header >> TAG_SHIFT;
    let flags = (header >> FLAGS_SHIFT) & 0xff;
    let stamp = words[1];
    let thread = words[2];
    let lock = words[3];
    let extra = &words[HEADER_WORDS..];
    let name = |i: usize| -> String {
        names
            .strings
            .get(extra[i] as usize)
            .cloned()
            .unwrap_or_default()
    };
    let kind = match tag {
        TAG_TRANSITION => EventKind::Transition {
            t: Transition::from_index(flags as usize),
            lock,
        },
        TAG_NOTIFY => EventKind::Notify {
            lock,
            all: flags & 1 == 1,
            waiters: extra[0] as usize,
        },
        TAG_READ => EventKind::Read { var: name(0) },
        TAG_WRITE => EventKind::Write { var: name(0) },
        TAG_METHOD_START => EventKind::MethodStart { method: name(0) },
        TAG_METHOD_END => EventKind::MethodEnd { method: name(0) },
        TAG_SITE => EventKind::Site {
            method: name(0),
            path: extra[1..].iter().map(|&p| p as usize).collect(),
            exit: flags & 1 == 1,
        },
        TAG_FAULT => EventKind::Fault { message: name(0) },
        TAG_GAP => EventKind::CaptureGap { dropped: extra[0] },
        _ => return None,
    };
    Some((
        stamp,
        Event {
            seq: 0,
            thread,
            kind,
        },
    ))
}

/// A shared, append-only event log. Cheap to clone (shared handle).
#[derive(Clone, Default)]
pub struct EventLog {
    shared: Arc<LogShared>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("id", &self.shared.id)
            .field("epoch", &self.shared.epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// A fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a monitor name, returning its id. Id 0 is reserved for
    /// "no monitor", so the first registration returns `MonitorId(1)`.
    pub fn register_monitor(&self, name: impl Into<String>) -> MonitorId {
        let mut names = lock(&self.shared.names);
        names.monitor_names.push(name.into());
        MonitorId(names.monitor_names.len() as u64)
    }

    /// The registered name of a monitor (`"<none>"` for id 0).
    pub fn monitor_name(&self, id: MonitorId) -> String {
        if id.0 == 0 {
            return "<none>".to_string();
        }
        lock(&self.shared.names).monitor_names[(id.0 - 1) as usize].clone()
    }

    /// Append an event from the current thread. The event's thread id is
    /// the current thread's dense *per-log* id, allocated on first use, so
    /// logs observe ids 1, 2, … in first-log order no matter how many
    /// threads ran earlier in the process. Lock-free and non-blocking (see
    /// the module docs).
    pub fn log(&self, kind: EventKind) {
        self.capture(None, kind);
    }

    /// The calling thread's dense id in this log (allocated here when the
    /// thread has not logged yet): the `thread` of its events.
    pub(crate) fn thread_id(&self) -> u64 {
        PRODUCERS.with(|cell| {
            let mut slots = cell.borrow_mut();
            let slot = self.slot_index(&mut slots);
            slots[slot].dense_id(&self.shared)
        })
    }

    /// Append an event attributed to an explicit thread id (used by the VM,
    /// whose logical threads are not OS threads). Explicit ids bypass the
    /// per-log allocator; the calling OS thread's ring carries the event.
    pub fn log_as(&self, thread: u64, kind: EventKind) {
        self.capture(Some(thread), kind);
    }

    fn capture(&self, explicit: Option<u64>, kind: EventKind) {
        PRODUCERS.with(|cell| {
            let mut slots = cell.borrow_mut();
            let slot = self.slot_index(&mut slots);
            slots[slot].capture(&self.shared, explicit, kind);
        });
    }

    /// Find (or register) this thread's producer slot for this log.
    fn slot_index(&self, slots: &mut Vec<ProducerSlot>) -> usize {
        let epoch = self.shared.epoch.load(Ordering::Relaxed);
        if let Some(i) = slots.iter().position(|s| s.log_id == self.shared.id) {
            if slots[i].epoch == epoch {
                return i;
            }
            // The log was cleared since: drop the stale slot (its ring is
            // no longer registered) and fall through to re-register. The
            // intern cache is kept valid by clear() retaining the string
            // table, but dense ids must be re-allocated.
            slots.remove(i);
        }
        slots.retain(|s| s.shared.strong_count() > 0);
        let ring = Arc::new(SpscRing::with_capacity_words(
            self.shared.ring_capacity.load(Ordering::Relaxed),
        ));
        lock(&self.shared.registry).rings.push(Arc::clone(&ring));
        slots.push(ProducerSlot {
            log_id: self.shared.id,
            epoch,
            shared: Arc::downgrade(&self.shared),
            ring,
            dense_id: None,
            names: HashMap::new(),
            sample_counters: HashMap::new(),
            pending_gaps: HashMap::new(),
            ops: 0,
            scratch: Vec::with_capacity(16),
            obs: None,
        });
        slots.len() - 1
    }

    /// Convenience: log a transition.
    pub fn transition(&self, monitor: MonitorId, t: Transition) {
        self.log(EventKind::Transition { t, lock: monitor.0 });
    }

    /// Drain all producer rings into the collector, merging by stamp and
    /// renumbering `seq` densely. With `sink` the freshly drained events
    /// are streamed out (not retained); without it they append to the
    /// retained snapshot. Lock order: collected → registry → names.
    fn collect(&self, mut sink: Option<&mut dyn FnMut(Event)>) -> MutexGuard<'_, Collected> {
        let mut collected = lock(&self.shared.collected);
        let rings: Vec<Arc<SpscRing>> = lock(&self.shared.registry).rings.clone();
        let mut batch: Vec<(u64, Event)> = Vec::new();
        {
            let names = lock(&self.shared.names);
            let mut buf = Vec::new();
            for ring in &rings {
                while ring.pop_record(&mut buf) {
                    if let Some(rec) = decode(&buf, &names) {
                        batch.push(rec);
                    }
                }
            }
        }
        batch.sort_unstable_by_key(|&(stamp, _)| stamp);
        for (_, mut ev) in batch {
            ev.seq = collected.total;
            collected.total += 1;
            match &mut sink {
                Some(f) => f(ev),
                None => collected.events.push(ev),
            }
        }
        collected
    }

    /// Snapshot of all events so far (drains the producer rings first).
    /// Events already consumed by [`EventLog::drain_for_each`] are not
    /// included — a log is typically used either retained (snapshot) or
    /// streaming (drain), not both.
    pub fn snapshot(&self) -> Vec<Event> {
        self.collect(None).events.clone()
    }

    /// Consume every not-yet-consumed event, in global order, without
    /// retaining them — the streaming counterpart of
    /// [`EventLog::snapshot`] for saturation workloads where retaining
    /// millions of events would dominate memory. Do not call other log
    /// accessors from inside the callback.
    pub fn drain_for_each<F: FnMut(Event)>(&self, mut f: F) {
        drop(self.collect(Some(&mut |e| f(e))));
    }

    /// Number of events collected (logged and not sampled out / dropped),
    /// including events consumed by [`EventLog::drain_for_each`].
    pub fn len(&self) -> usize {
        self.collect(None).total as usize
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all events and reset the dense thread-id allocator: after a
    /// clear, the next thread to log gets id 1 again, and
    /// [`EventLog::allocated_threads`] restarts from zero. Producer rings
    /// are discarded (live producers re-register on their next event;
    /// events logged concurrently with a clear may be discarded with
    /// them). Monitor registrations and the interned string table are
    /// *kept* — names are registration-class state, not events.
    pub fn clear(&self) {
        let mut collected = lock(&self.shared.collected);
        let mut reg = lock(&self.shared.registry);
        self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        reg.rings.clear();
        reg.thread_ids.clear();
        collected.events.clear();
        collected.total = 0;
        self.shared.stamp.store(0, Ordering::Relaxed);
        self.shared.sampled_out.store(0, Ordering::Relaxed);
    }

    /// Install the sampling knob: keep roughly 1 in `2^shift` data and
    /// coverage events (`shift` is capped at 63; 0 restores full
    /// capture). Synchronization events are never sampled out — see the
    /// module docs for why that keeps detectors sound. The decision is a
    /// seeded hash of the logical thread and its event ordinal, so
    /// replaying the same stream through [`EventLog::log_as`] from one
    /// driver thread keeps or skips exactly the same events.
    pub fn set_sampling(&self, shift: u32, seed: u64) {
        let shift = shift.min(63);
        self.shared
            .sample_shift
            .store(shift as u64, Ordering::Relaxed);
        self.shared.sample_seed.store(seed, Ordering::Relaxed);
        if jcc_obs::enabled() {
            jcc_obs::global()
                .gauge("runtime.sampling.rate")
                .set(1u64 << shift);
        }
    }

    /// Current sampling shift (log2 of the rate; 0 = capture everything).
    pub fn sampling_shift(&self) -> u32 {
        self.shared.sample_shift.load(Ordering::Relaxed) as u32
    }

    /// Events skipped by the sampling knob since the last clear.
    pub fn sampled_out_count(&self) -> u64 {
        self.shared.sampled_out.load(Ordering::Relaxed)
    }

    /// Ring capacity (in `u64` words) for producers registered from now
    /// on; existing rings keep their size. Mostly for tests and benches —
    /// the default ([`DEFAULT_CAPACITY_WORDS`]) fits ≈4k transition
    /// events per thread.
    pub fn set_ring_capacity_words(&self, words: usize) {
        self.shared.ring_capacity.store(words, Ordering::Relaxed);
    }

    /// Total events dropped on full rings since the last clear (the
    /// authoritative count; `CaptureGap` records carry the same numbers
    /// into the stream, but only materialize once the dropping thread
    /// logs again).
    pub fn drop_count(&self) -> u64 {
        let reg = lock(&self.shared.registry);
        reg.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Highest ring occupancy (words) any producer has seen.
    pub fn ring_occupancy_hwm(&self) -> u64 {
        let reg = lock(&self.shared.registry);
        reg.rings.iter().map(|r| r.occupancy_hwm()).max().unwrap_or(0)
    }

    /// Count transition events of a given kind (retained events only).
    pub fn count_transition(&self, t: Transition) -> usize {
        self.collect(None)
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Transition { t: fired, .. } if fired == t))
            .count()
    }

    /// How many distinct threads have logged via [`EventLog::log`] (the
    /// per-log id allocator's high-water mark).
    pub fn allocated_threads(&self) -> usize {
        lock(&self.shared.registry).thread_ids.len()
    }

    /// All distinct thread ids appearing in the log, in first-seen order.
    pub fn threads(&self) -> Vec<u64> {
        let collected = self.collect(None);
        let mut seen = Vec::new();
        for e in &collected.events {
            if !seen.contains(&e.thread) {
                seen.push(e.thread);
            }
        }
        seen
    }

    /// Build a causal schedule timeline from the log: one lane per logged
    /// thread (first-log order), the event sequence number as the clock,
    /// intervals and causality edges derived from the Figure-1 transitions
    /// (see [`jcc_obs::timeline`]). Purely a read of the recorded events —
    /// building a timeline never alters the log.
    pub fn timeline(&self) -> jcc_obs::timeline::Timeline {
        let events = self.snapshot();
        let mut fold = TimelineFold::new("events", None);
        for e in &events {
            fold.observe(e, |lock| self.monitor_name(MonitorId(lock)));
        }
        fold.finish(events.len() as u64).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_petri::Transition as T;

    #[test]
    fn sequence_numbers_are_gap_free() {
        let log = EventLog::new();
        let m = log.register_monitor("m");
        for _ in 0..5 {
            log.transition(m, T::T1);
        }
        let events = log.snapshot();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn monitor_names_registered() {
        let log = EventLog::new();
        let a = log.register_monitor("alpha");
        let b = log.register_monitor("beta");
        assert_eq!(log.monitor_name(a), "alpha");
        assert_eq!(log.monitor_name(b), "beta");
        assert_eq!(log.monitor_name(MonitorId(0)), "<none>");
        assert_ne!(a, b);
    }

    #[test]
    fn thread_ids_distinct_across_threads() {
        let log = EventLog::new();
        let m = log.register_monitor("m");
        let l2 = log.clone();
        let h = std::thread::spawn(move || {
            l2.transition(m, T::T1);
        });
        h.join().unwrap();
        log.transition(m, T::T1);
        let threads = log.threads();
        assert_eq!(threads.len(), 2);
        assert_ne!(threads[0], threads[1]);
    }

    #[test]
    fn count_and_clear() {
        let log = EventLog::new();
        let m = log.register_monitor("m");
        log.transition(m, T::T1);
        log.transition(m, T::T2);
        log.transition(m, T::T1);
        assert_eq!(log.count_transition(T::T1), 2);
        assert_eq!(log.count_transition(T::T4), 0);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.monitor_name(m), "m");
    }

    #[test]
    fn clear_resets_thread_id_allocator() {
        // The satellite regression: a cleared log used to keep stale
        // dense ids, so reuse skewed allocated_threads() and id density.
        let log = EventLog::new();
        let m = log.register_monitor("m");
        log.transition(m, T::T1);
        let l2 = log.clone();
        std::thread::spawn(move || l2.transition(m, T::T1))
            .join()
            .unwrap();
        assert_eq!(log.allocated_threads(), 2);
        log.clear();
        assert_eq!(log.allocated_threads(), 0);
        // The same OS thread re-registers and the allocator restarts at 1.
        log.transition(m, T::T2);
        assert_eq!(log.allocated_threads(), 1);
        let events = log.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].thread, 1);
        assert_eq!(events[0].seq, 0);
    }

    #[test]
    fn log_as_attributes_thread() {
        let log = EventLog::new();
        log.log_as(42, EventKind::MethodStart { method: "m".into() });
        assert_eq!(log.snapshot()[0].thread, 42);
    }

    #[test]
    fn thread_ids_are_dense_per_log() {
        // Ids are allocated per log in first-log order — 1, 2, … — no
        // matter how many threads earlier tests burned through the
        // process-wide token counter.
        let log = EventLog::new();
        let m = log.register_monitor("m");
        log.transition(m, T::T1); // this thread logs first -> id 1
        let l2 = log.clone();
        std::thread::spawn(move || l2.transition(m, T::T1))
            .join()
            .unwrap();
        log.transition(m, T::T2); // same thread keeps its id
        let events = log.snapshot();
        assert_eq!(events[0].thread, 1);
        assert_eq!(events[1].thread, 2);
        assert_eq!(events[2].thread, 1);
        assert_eq!(log.allocated_threads(), 2);
    }

    #[test]
    fn timeline_from_log_reconstructs_wait_and_wake() {
        use jcc_obs::timeline::{EdgeKind, IntervalKind};
        let log = EventLog::new();
        let m = log.register_monitor("buffer");
        // Thread 1 waits; thread 2 notifies and hands the lock over.
        log.log_as(1, EventKind::MethodStart { method: "receive".into() });
        log.log_as(1, EventKind::Transition { t: T::T1, lock: m.0 });
        log.log_as(1, EventKind::Transition { t: T::T2, lock: m.0 });
        log.log_as(1, EventKind::Transition { t: T::T3, lock: m.0 });
        log.log_as(2, EventKind::MethodStart { method: "send".into() });
        log.log_as(2, EventKind::Transition { t: T::T1, lock: m.0 });
        log.log_as(2, EventKind::Transition { t: T::T2, lock: m.0 });
        log.log_as(2, EventKind::Notify { lock: m.0, all: true, waiters: 1 });
        log.log_as(1, EventKind::Transition { t: T::T5, lock: m.0 });
        log.log_as(2, EventKind::Transition { t: T::T4, lock: m.0 });
        log.log_as(1, EventKind::Transition { t: T::T2, lock: m.0 });
        log.log_as(1, EventKind::Transition { t: T::T4, lock: m.0 });
        let t = log.timeline();
        assert_eq!(t.lanes.len(), 2);
        assert_eq!(t.clock, "events");
        let kinds: Vec<IntervalKind> = t.lanes[0].intervals.iter().map(|iv| iv.kind).collect();
        assert!(kinds.contains(&IntervalKind::Waiting), "{t:?}");
        assert!(t.edges.iter().any(|e| e.kind == EdgeKind::NotifyWake));
        assert!(t.edges.iter().any(|e| e.kind == EdgeKind::ReleaseAcquire));
        assert!(t.render_ascii().contains("buffer"));
    }

    #[test]
    fn per_log_ids_are_independent_across_logs() {
        // The same OS thread is id 1 in every fresh log: event logs from
        // different tests/suites can be compared without id drift.
        let a = EventLog::new();
        let b = EventLog::new();
        let m = a.register_monitor("m");
        let n = b.register_monitor("n");
        a.transition(m, T::T1);
        b.transition(n, T::T1);
        assert_eq!(a.snapshot()[0].thread, 1);
        assert_eq!(b.snapshot()[0].thread, 1);
    }

    #[test]
    fn multithreaded_capture_preserves_per_thread_order() {
        let log = EventLog::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let l = log.clone();
                std::thread::spawn(move || {
                    for j in 0..500usize {
                        l.log(EventKind::Site {
                            method: "m".into(),
                            path: vec![j],
                            exit: false,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 2000);
        assert_eq!(log.drop_count(), 0);
        // seq gap-free and per-thread program order intact.
        let mut next_path: HashMap<u64, usize> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            if let EventKind::Site { path, .. } = &e.kind {
                let expect = next_path.entry(e.thread).or_insert(0);
                assert_eq!(path[0], *expect, "thread {} reordered", e.thread);
                *expect += 1;
            }
        }
        assert_eq!(log.allocated_threads(), 4);
    }

    #[test]
    fn full_ring_drops_and_injects_gap_records() {
        let log = EventLog::new();
        // 16 words = four 4-word transition records.
        log.set_ring_capacity_words(16);
        let m = log.register_monitor("m");
        for _ in 0..10 {
            log.log_as(7, EventKind::Transition { t: T::T1, lock: m.0 });
        }
        // Four fit, six dropped; the producer never blocked.
        assert_eq!(log.drop_count(), 6);
        let events = log.snapshot();
        assert_eq!(events.len(), 4);
        // Draining freed the ring: the next event is preceded by the gap
        // record carrying the losses, attributed to the gapped thread.
        log.log_as(7, EventKind::Transition { t: T::T2, lock: m.0 });
        let events = log.snapshot();
        assert_eq!(events.len(), 6);
        assert_eq!(events[4].kind, EventKind::CaptureGap { dropped: 6 });
        assert_eq!(events[4].thread, 7);
        assert_eq!(events[5].kind, EventKind::Transition { t: T::T2, lock: m.0 });
        // seq stays dense across the gap.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn sampling_is_seeded_and_deterministic_under_log_as() {
        let run = |shift: u32, seed: u64| -> Vec<Event> {
            let log = EventLog::new();
            log.set_sampling(shift, seed);
            let m = log.register_monitor("m");
            for i in 0..256u64 {
                let t = 1 + (i % 3);
                log.log_as(t, EventKind::Transition { t: T::T2, lock: m.0 });
                log.log_as(t, EventKind::Write { var: format!("v{}", i % 7) });
                log.log_as(t, EventKind::Transition { t: T::T4, lock: m.0 });
            }
            log.snapshot()
        };
        let a = run(3, 42);
        let b = run(3, 42);
        assert_eq!(a, b, "same seed must keep the same events");
        // Sync events are never sampled out; data events thin out.
        let transitions = a
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Transition { .. }))
            .count();
        assert_eq!(transitions, 512);
        let writes = a
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Write { .. }))
            .count();
        assert!(writes < 128, "rate 8 should drop most writes, kept {writes}");
        assert!(writes > 0, "rate 8 should keep some writes");
        // A different seed keeps a different subset.
        let c = run(3, 43);
        assert_ne!(a, c);
        // Shift 0 captures everything.
        let full = run(0, 42);
        assert_eq!(full.len(), 256 * 3);
    }

    #[test]
    fn drain_for_each_streams_without_retaining() {
        let log = EventLog::new();
        let m = log.register_monitor("m");
        for _ in 0..8 {
            log.transition(m, T::T1);
        }
        let mut seen = Vec::new();
        log.drain_for_each(|e| seen.push(e.seq));
        assert_eq!(seen, (0..8).collect::<Vec<u64>>());
        // Streamed events are consumed, not retained…
        assert!(log.snapshot().is_empty());
        // …but still counted, and seq keeps advancing densely.
        assert_eq!(log.len(), 8);
        log.transition(m, T::T2);
        assert_eq!(log.snapshot()[0].seq, 8);
    }
}
