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

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use jcc_petri::event::EventKind;
use jcc_petri::Transition;

use crate::events::{current_thread_id, EventLog, MonitorId};
use crate::lock;

/// A thread in the wait set: its wait ticket and its OS-thread token.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    ticket: u64,
    thread: u64,
}

#[derive(Debug)]
struct State<T> {
    owner: Option<u64>,
    hold_count: u32,
    /// Threads currently in the wait set, in wait order. Notifications
    /// are *ticketed*, not counted: an anonymous permit counter would let
    /// a thread that waits later steal a wake-up issued to an earlier
    /// waiter (a lost wake-up this crate's own test suite caught). A
    /// notified ticket moves to `notified` and is removed from both sets
    /// when its owner leaves the wait.
    wait_set: Vec<Waiter>,
    /// Tickets whose wake-up has been issued.
    notified: BTreeSet<u64>,
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
                notified: BTreeSet::new(),
                next_ticket: 0,
                data,
            }),
            entry: Condvar::new(),
            waitset: Condvar::new(),
        }
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

    /// Freeze the monitor's state until the result is dropped (the
    /// executor's quiescence check; it freezes monitors in one order).
    pub(crate) fn freeze(&self) -> Frozen<'_, T> {
        Frozen(lock(&self.state))
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

/// A monitor's state, frozen while this lives.
pub(crate) struct Frozen<'a, T>(MutexGuard<'a, State<T>>);

impl<T> Frozen<'_, T> {
    /// True when the OS thread `thread` sits in the wait set un-notified.
    pub(crate) fn waits(&self, thread: u64) -> bool {
        let s = &self.0;
        s.wait_set
            .iter()
            .any(|w| w.thread == thread && !s.notified.contains(&w.ticket))
    }

    /// True when `thread`, inside `enter` or `wait` on this monitor,
    /// cannot return until some other thread acts: it waits un-notified,
    /// or another thread owns the lock it needs.
    pub(crate) fn blocks(&self, thread: u64) -> bool {
        let owner = self.0.owner;
        owner != Some(thread) && (self.waits(thread) || owner.is_some())
    }
}

/// An entered monitor. Dropping it leaves the synchronized region
/// (emitting T4 when the outermost hold is released).
#[derive(Debug)]
pub struct MonitorGuard<'a, T> {
    monitor: &'a JavaMonitor<T>,
}

impl<T> MonitorGuard<'_, T> {
    /// Access the protected data without logging.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut s = lock(&self.monitor.state);
        f(&mut s.data)
    }

    /// Java `wait()`: release the lock — every hold of a reentrant owner,
    /// as Java does — join the wait set, and on notification re-acquire
    /// the lock with the same hold count. Emits T3, then T5 + T2.
    pub fn wait(&self) {
        let m = self.monitor;
        let me = current_thread_id();
        let mut s = lock(&m.state);
        assert_eq!(s.owner, Some(me), "wait by non-owner");
        // T3: suspend and release the lock.
        let holds = s.hold_count;
        s.owner = None;
        s.hold_count = 0;
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.wait_set.push(Waiter { ticket, thread: me });
        m.log.transition(m.id, Transition::T3);
        m.entry.notify_one();
        while !s.notified.contains(&ticket) {
            s = m.waitset.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.notified.remove(&ticket);
        s.wait_set.retain(|w| w.ticket != ticket);
        // T5: woken — back to requesting the lock.
        m.log.transition(m.id, Transition::T5);
        while s.owner.is_some() {
            s = m.entry.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.owner = Some(me);
        s.hold_count = holds;
        m.log.transition(m.id, Transition::T2);
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
            .map(|w| w.ticket)
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
        assert_eq!(s.owner, Some(current_thread_id()), "notifyAll by non-owner");
        let waiters = s.unnotified();
        m.log.log(EventKind::Notify {
            lock: m.id.0,
            all: true,
            waiters,
        });
        let all: Vec<u64> = s.wait_set.iter().map(|w| w.ticket).collect();
        s.notified.extend(all);
        m.waitset.notify_all();
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
    use std::time::Duration;

    /// The Figure-2 idiom: wait until `ready` holds over the data.
    fn wait_until<D>(g: &MonitorGuard<'_, D>, ready: impl Fn(&D) -> bool) {
        while !g.with(|d| ready(d)) {
            g.wait();
        }
    }

    /// Spin until `log` has seen `n` firings of `t`.
    fn await_firings(log: &EventLog, t: T, n: usize) {
        while log.count_transition(t) < n {
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn enter_exit_emits_t1_t2_t4() {
        let log = EventLog::new();
        let m = JavaMonitor::new("m", &log, 0u32);
        {
            let g = m.enter();
            g.with(|d| *d = 1);
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
    fn reentrant_wait_releases_every_hold_and_restores_them() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("m", &log, false));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            let outer = m2.enter();
            let inner = m2.enter();
            wait_until(&inner, |&ready| ready);
            drop(inner);
            // Still held once: this exit is the final one.
            drop(outer);
        });
        await_firings(&log, T::T3, 1);
        {
            // The waiter's two holds are both released, so this enters.
            let g = m.enter();
            g.with(|d| *d = true);
            g.notify_all();
        }
        waiter.join().unwrap();
        let g = m.enter();
        assert!(g.with(|d| *d));
        drop(g);
        assert_eq!(log.count_transition(T::T4), 3, "one final exit per owner");
    }

    #[test]
    fn wait_releases_and_notify_wakes() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("buf", &log, Option::<i32>::None));
        let m2 = Arc::clone(&m);
        let consumer = thread::spawn(move || {
            let g = m2.enter();
            wait_until(&g, Option::is_some);
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
        let m = Arc::new(JavaMonitor::new("m", &log, ()));
        m.enter().notify(); // lost: nobody waits
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.enter().wait());
        await_firings(&log, T::T3, 1);
        thread::sleep(Duration::from_millis(40));
        // The earlier notify must NOT satisfy this wait.
        assert!(!h.is_finished(), "pre-wait notify must be lost");
        assert_eq!(log.count_transition(T::T5), 0);
        m.enter().notify();
        h.join().unwrap();
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let log = EventLog::new();
        let m = Arc::new(JavaMonitor::new("m", &log, false));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || wait_until(&m.enter(), |&ready| ready))
            })
            .collect();
        await_firings(&log, T::T3, 4);
        {
            let g = m.enter();
            g.with(|d| *d = true);
            g.notify_all();
        }
        for h in handles {
            h.join().unwrap();
        }
        let waiters_seen = log.snapshot().iter().any(
            |e| matches!(e.kind, EventKind::Notify { all: true, waiters, .. } if waiters == 4),
        );
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
                    g.wait();
                    g.with(|d| *d += 1);
                })
            })
            .collect();
        await_firings(&log, T::T3, 3);
        m.enter().notify();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(
            m.enter().with(|d| *d),
            1,
            "notify must wake exactly one of three waiters"
        );
        m.enter().notify_all();
        for h in handles {
            h.join().unwrap();
        }
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
}
