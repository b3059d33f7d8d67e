//! The Java-style monitor: a reentrant object lock with one wait set,
//! emitting a Figure-1 transition event for every state change.
//!
//! The mapping onto the petri-net model:
//!
//! | operation                   | transitions emitted                      |
//! |-----------------------------|------------------------------------------|
//! | [`JavaMonitor::enter`]      | T1 (request), then T2 once granted       |
//! | [`MonitorGuard::wait`]      | T3 (suspend+release), then T5 on wake-up, then T2 on re-acquisition |
//! | guard drop / final exit     | T4 (release)                             |
//! | [`MonitorGuard::notify`]    | `Notify` (the woken thread logs its own T5) |
//!
//! Reentrant `enter` while already owning the lock emits no transitions —
//! in the model the thread is already in place C.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use jcc_petri::event::EventKind;
use jcc_petri::Transition;

use crate::events::{current_thread_id, EventLog, MonitorId};
use crate::lock;

#[derive(Debug)]
struct State<T> {
    owner: Option<u64>,
    hold_count: u32,
    /// Tickets of threads currently in the wait set, in wait order.
    /// Notifications are *ticketed*, not counted: an anonymous permit
    /// counter would let a thread that waits later steal a wake-up issued
    /// to an earlier waiter (a lost wake-up this crate's own test suite
    /// caught). A notified ticket moves to `notified` and is removed from
    /// both sets when its owner leaves the wait.
    wait_set: Vec<u64>,
    /// Tickets whose wake-up has been issued.
    notified: std::collections::BTreeSet<u64>,
    /// Next wait ticket.
    next_ticket: u64,
    data: T,
}

impl<T> State<T> {
    /// Threads in the wait set that have not been notified yet.
    fn unnotified(&self) -> usize {
        self.wait_set.len() - self.notified.len()
    }
}

/// A Java-style monitor protecting `data`.
///
/// All concurrency operations are instrumented: they emit events into the
/// [`EventLog`] the monitor was created with.
#[derive(Debug)]
pub struct JavaMonitor<T> {
    id: MonitorId,
    log: EventLog,
    state: Mutex<State<T>>,
    /// Threads blocked acquiring the lock (model place B).
    entry: Condvar,
    /// Threads in the wait set (model place D).
    waitset: Condvar,
}

impl<T> JavaMonitor<T> {
    /// Create a monitor named `name`, registered in `log`.
    pub fn new(name: impl Into<String>, log: &EventLog, data: T) -> Self {
        let id = log.register_monitor(name);
        JavaMonitor {
            id,
            log: log.clone(),
            state: Mutex::new(State {
                owner: None,
                hold_count: 0,
                wait_set: Vec::new(),
                notified: std::collections::BTreeSet::new(),
                next_ticket: 0,
                data,
            }),
            entry: Condvar::new(),
            waitset: Condvar::new(),
        }
    }

    /// This monitor's id in the event log.
    pub fn id(&self) -> MonitorId {
        self.id
    }

    /// The event log this monitor reports to.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Enter the monitor (Java: start of a `synchronized` region), blocking
    /// until the lock is granted. Reentrant.
    pub fn enter(&self) -> MonitorGuard<'_, T> {
        let me = current_thread_id();
        let mut s = lock(&self.state);
        if s.owner == Some(me) {
            s.hold_count += 1;
            return MonitorGuard { monitor: self };
        }
        self.log.transition(self.id, Transition::T1);
        while s.owner.is_some() {
            s = self.entry.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.owner = Some(me);
        s.hold_count = 1;
        self.log.transition(self.id, Transition::T2);
        MonitorGuard { monitor: self }
    }

    /// Try to enter without blocking; `None` if another thread owns the
    /// lock. Emits T1/T2 only on success.
    pub fn try_enter(&self) -> Option<MonitorGuard<'_, T>> {
        let me = current_thread_id();
        let mut s = lock(&self.state);
        if s.owner == Some(me) {
            s.hold_count += 1;
            return Some(MonitorGuard { monitor: self });
        }
        if s.owner.is_some() {
            return None;
        }
        self.log.transition(self.id, Transition::T1);
        s.owner = Some(me);
        s.hold_count = 1;
        self.log.transition(self.id, Transition::T2);
        Some(MonitorGuard { monitor: self })
    }

    /// Read `data` *without* holding the lock — deliberately racy, for
    /// FF-T1 (interference) experiments. Logs a `Read` event with an empty
    /// lockset context.
    pub fn unsync_read<R>(&self, var: &str, f: impl FnOnce(&T) -> R) -> R {
        self.log.log(EventKind::Read { var: var.to_string() });
        let s = lock(&self.state);
        f(&s.data)
    }

    /// Write `data` *without* holding the lock — deliberately racy, for
    /// FF-T1 experiments.
    pub fn unsync_write<R>(&self, var: &str, f: impl FnOnce(&mut T) -> R) -> R {
        self.log.log(EventKind::Write { var: var.to_string() });
        let mut s = lock(&self.state);
        f(&mut s.data)
    }

    fn exit(&self) {
        let me = current_thread_id();
        let mut s = lock(&self.state);
        assert_eq!(s.owner, Some(me), "exit by non-owner");
        s.hold_count -= 1;
        if s.hold_count == 0 {
            s.owner = None;
            self.log.transition(self.id, Transition::T4);
            self.entry.notify_one();
        }
    }
}

/// An entered monitor. Dropping it leaves the synchronized region
/// (emitting T4 when the outermost hold is released).
#[derive(Debug)]
pub struct MonitorGuard<'a, T> {
    monitor: &'a JavaMonitor<T>,
}

impl<T> MonitorGuard<'_, T> {
    /// Access the protected data immutably, logging a `Read` of `var`.
    pub fn read<R>(&self, var: &str, f: impl FnOnce(&T) -> R) -> R {
        let m = self.monitor;
        m.log.log(EventKind::Read { var: var.to_string() });
        let s = lock(&m.state);
        debug_assert_eq!(s.owner, Some(current_thread_id()));
        f(&s.data)
    }

    /// Access the protected data mutably, logging a `Write` of `var`.
    pub fn write<R>(&self, var: &str, f: impl FnOnce(&mut T) -> R) -> R {
        let m = self.monitor;
        m.log.log(EventKind::Write { var: var.to_string() });
        let mut s = lock(&m.state);
        debug_assert_eq!(s.owner, Some(current_thread_id()));
        f(&mut s.data)
    }

    /// Access without logging (for bookkeeping the detectors should not see).
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut s = lock(&self.monitor.state);
        f(&mut s.data)
    }

    /// Java `wait()`: release the lock, join the wait set, and on
    /// notification re-acquire the lock. Emits T3, then T5 + T2.
    ///
    /// Panics if the guard is held reentrantly (`wait` inside a nested
    /// `synchronized (this)` would need to release all holds; Java releases
    /// only the waited monitor once per `wait`, and this runtime keeps the
    /// stricter rule to surface suspect designs early).
    pub fn wait(&self) {
        self.wait_internal(None);
    }

    /// Like [`wait`](Self::wait) but gives up after `timeout` of real time
    /// (Java's `wait(long)`); returns `true` if notified, `false` on
    /// timeout. Either way the lock is re-acquired before returning.
    pub fn wait_for(&self, timeout: Duration) -> bool {
        self.wait_internal(Some(timeout))
    }

    fn wait_internal(&self, timeout: Option<Duration>) -> bool {
        let m = self.monitor;
        let me = current_thread_id();
        let mut s = lock(&m.state);
        assert_eq!(s.owner, Some(me), "wait by non-owner");
        assert_eq!(
            s.hold_count, 1,
            "wait while holding the monitor reentrantly"
        );
        // T3: suspend and release the lock.
        s.owner = None;
        s.hold_count = 0;
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.wait_set.push(ticket);
        m.log.transition(m.id, Transition::T3);
        m.entry.notify_one();

        let deadline = timeout.map(|t| Instant::now() + t);
        let mut notified = true;
        while !s.notified.contains(&ticket) {
            match deadline {
                None => s = m.waitset.wait(s).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    let timed_out = now >= d || {
                        let (g, r) = m
                            .waitset
                            .wait_timeout(s, d - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        s = g;
                        r.timed_out()
                    };
                    if timed_out {
                        notified = s.notified.contains(&ticket);
                        break;
                    }
                }
            }
        }
        s.notified.remove(&ticket);
        if let Some(pos) = s.wait_set.iter().position(|&t| t == ticket) {
            s.wait_set.remove(pos);
        }
        // T5: woken (or timed out) — back to requesting the lock.
        m.log.transition(m.id, Transition::T5);
        while s.owner.is_some() {
            s = m.entry.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.owner = Some(me);
        s.hold_count = 1;
        m.log.transition(m.id, Transition::T2);
        notified
    }

    /// Java `notify()`: wake one arbitrary waiter (no-op if none).
    pub fn notify(&self) {
        let m = self.monitor;
        let mut s = lock(&m.state);
        assert_eq!(s.owner, Some(current_thread_id()), "notify by non-owner");
        let waiters = s.unnotified();
        m.log.log(EventKind::Notify {
            lock: m.id.0,
            all: false,
            waiters,
        });
        // Wake the longest-waiting un-notified ticket (Java may pick any;
        // FIFO keeps runs reproducible). Wake-ups are ticketed, so a later
        // waiter can never consume this one.
        let target = s
            .wait_set
            .iter()
            .copied()
            .find(|t| !s.notified.contains(t));
        if let Some(t) = target {
            s.notified.insert(t);
            m.waitset.notify_all();
        }
    }

    /// Java `notifyAll()`: wake every waiter.
    pub fn notify_all(&self) {
        let m = self.monitor;
        let mut s = lock(&m.state);
        assert_eq!(
            s.owner,
            Some(current_thread_id()),
            "notifyAll by non-owner"
        );
        let waiters = s.unnotified();
        m.log.log(EventKind::Notify {
            lock: m.id.0,
            all: true,
            waiters,
        });
        let all: Vec<u64> = s.wait_set.clone();
        s.notified.extend(all);
        m.waitset.notify_all();
    }

    /// Wait until `pred` over the protected data holds (re-checking after
    /// every wake-up — the while-loop idiom the paper's Figure 2 uses).
    pub fn wait_while(&self, mut blocked_when: impl FnMut(&T) -> bool) {
        loop {
            let blocked = {
                let s = lock(&self.monitor.state);
                blocked_when(&s.data)
            };
            if !blocked {
                return;
            }
            self.wait();
        }
    }
}

impl<T> Drop for MonitorGuard<'_, T> {
    fn drop(&mut self) {
        self.monitor.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_petri::Transition as T;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn enter_exit_emits_t1_t2_t4() {
        let log = EventLog::new();
        let m = JavaMonitor::new("m", &log, 0u32);
        {
            let g = m.enter();
            g.write("v", |d| *d = 1);
        }
        let kinds: Vec<_> = log
            .snapshot()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Transition { t, .. } => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![T::T1, T::T2, T::T4]);
    }

    #[test]
    fn reentrant_enter_emits_once() {
        let log = EventLog::new();
        let m = JavaMonitor::new("m", &log, ());
        {
            let _g1 = m.enter();
            let _g2 = m.enter();
            let _g3 = m.enter();
        }
        assert_eq!(log.count_transition(T::T1), 1);
        assert_eq!(log.count_transition(T::T2), 1);
        assert_eq!(log.count_transition(T::T4), 1);
    }

    #[test]
    fn try_enter_fails_when_contended() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("m", &log, ()));
        let g = m.enter();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.try_enter().is_none());
        assert!(h.join().unwrap());
        drop(g);
        assert!(m.try_enter().is_some());
    }

    #[test]
    fn wait_releases_and_notify_wakes() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("buf", &log, Option::<i32>::None));
        let m2 = Arc::clone(&m);
        let consumer = thread::spawn(move || {
            let g = m2.enter();
            g.wait_while(|d| d.is_none());
            g.with(|d| d.take().unwrap())
        });
        // Let the consumer block.
        thread::sleep(Duration::from_millis(20));
        {
            let g = m.enter();
            g.with(|d| *d = Some(7));
            g.notify();
        }
        assert_eq!(consumer.join().unwrap(), 7);
        // The consumer fired T3 then T5 then T2.
        assert!(log.count_transition(T::T3) >= 1);
        assert!(log.count_transition(T::T5) >= 1);
    }

    #[test]
    fn notify_with_no_waiters_is_lost() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("m", &log, false));
        {
            let g = m.enter();
            g.notify(); // lost: nobody waits
        }
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            let g = m2.enter();
            // The earlier notify must NOT satisfy this wait.
            g.wait_for(Duration::from_millis(40))
        });
        assert!(!h.join().unwrap(), "pre-wait notify must be lost");
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("m", &log, false));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    let g = m.enter();
                    g.wait_while(|&ready| !ready);
                    true
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        {
            let g = m.enter();
            g.with(|d| *d = true);
            g.notify_all();
        }
        for h in handles {
            assert!(h.join().unwrap());
        }
        let waiters_seen = log.snapshot().iter().any(|e| {
            matches!(e.kind, EventKind::Notify { all: true, waiters, .. } if waiters == 4)
        });
        assert!(waiters_seen, "notifyAll should have seen 4 waiters");
    }

    #[test]
    fn single_notify_wakes_exactly_one() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("m", &log, 0usize));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    let g = m.enter();
                    let woke = g.wait_for(Duration::from_millis(120));
                    if woke {
                        g.with(|d| *d += 1);
                    }
                    woke
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        {
            let g = m.enter();
            g.notify();
        }
        let woken: usize = handles
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(woken, 1, "notify must wake exactly one of three waiters");
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("ctr", &log, (0i64, false)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..100 {
                        let g = m.enter();
                        g.with(|d| {
                            assert!(!d.1, "two threads inside the monitor");
                            d.1 = true;
                            d.0 += 1;
                            d.1 = false;
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let g = m.enter();
        assert_eq!(g.with(|d| d.0), 800);
    }

    #[test]
    fn wait_timeout_reacquires_lock() {
        let log = EventLog::new();
        let m = JavaMonitor::new("m", &log, 5u8);
        let g = m.enter();
        let notified = g.wait_for(Duration::from_millis(10));
        assert!(!notified);
        // Still owner: data accessible, and a further exit works.
        assert_eq!(g.with(|d| *d), 5);
    }

    #[test]
    fn guarded_accesses_sit_between_acquire_and_release() {
        let log = EventLog::new();
        let m = JavaMonitor::new("m", &log, 0u32);
        {
            let g = m.enter();
            g.write("v", |d| *d = 1);
            g.read("v", |d| *d);
        }
        let kinds: Vec<EventKind> = log.snapshot().into_iter().map(|e| e.kind).collect();
        let lock = m.id().0;
        assert_eq!(kinds[1].acquired(), Some(lock));
        assert!(matches!(kinds[2], EventKind::Write { ref var } if var == "v"));
        assert!(matches!(kinds[3], EventKind::Read { ref var } if var == "v"));
        assert_eq!(kinds[4].released(), Some(lock));
    }

    #[test]
    fn unsync_access_logs_reads_and_writes() {
        let log = EventLog::new();
        let m = JavaMonitor::new("m", &log, 1u32);
        m.unsync_write("v", |d| *d = 2);
        assert_eq!(m.unsync_read("v", |d| *d), 2);
        let events = log.snapshot();
        assert!(matches!(events[0].kind, EventKind::Write { ref var } if var == "v"));
        assert!(matches!(events[1].kind, EventKind::Read { ref var } if var == "v"));
    }
}
