//! The deterministic test driver: Brinch Hansen's test-process construction
//! automated over the abstract clock.
//!
//! A [`Schedule`] is a set of labelled calls, each released at a chosen
//! abstract time. [`TestDriver::run`] spawns one real thread per call,
//! advances the clock one tick per quantum of real time, and records each
//! call's completion time. Calls still blocked when the schedule ends (plus
//! a grace period) are recorded as never completing — which is itself the
//! signal for the permanent-suspension failure classes (FF-T2, FF-T5,
//! EF-T3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::clock::AbstractClock;

/// One scheduled call: released when the clock reaches `at`.
pub struct ScheduledCall {
    /// Label used in the resulting [`CallRecord`].
    pub label: String,
    /// Clock time at which the call is released.
    pub at: u64,
    /// The call itself. Receives the clock (so components may inspect it).
    pub action: Box<dyn FnOnce(&AbstractClock) + Send>,
}

/// A deterministic test schedule.
#[derive(Default)]
pub struct Schedule {
    calls: Vec<ScheduledCall>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a call released at clock time `at`.
    pub fn call(
        mut self,
        label: impl Into<String>,
        at: u64,
        action: impl FnOnce(&AbstractClock) + Send + 'static,
    ) -> Self {
        self.calls.push(ScheduledCall {
            label: label.into(),
            at,
            action: Box::new(action),
        });
        self
    }

    /// Number of scheduled calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True when no calls are scheduled.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// The largest release time in the schedule (0 when empty).
    pub fn horizon(&self) -> u64 {
        self.calls.iter().map(|c| c.at).max().unwrap_or(0)
    }
}

/// The outcome of one scheduled call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRecord {
    /// The schedule label.
    pub label: String,
    /// When the call was released.
    pub released_at: u64,
    /// Clock time when the call returned, or `None` if it never completed
    /// within the run (permanently suspended as far as the test can tell).
    pub completed_at: Option<u64>,
}

impl CallRecord {
    /// True if the call completed at exactly the expected clock time.
    pub fn completed_at_time(&self, t: u64) -> bool {
        self.completed_at == Some(t)
    }

    /// True if the call completed no later than clock time `t`.
    pub fn completed_by(&self, t: u64) -> bool {
        matches!(self.completed_at, Some(c) if c <= t)
    }

    /// True if the call never completed.
    pub fn suspended(&self) -> bool {
        self.completed_at.is_none()
    }
}

/// Runs [`Schedule`]s deterministically against a component under test.
#[derive(Debug, Clone)]
pub struct TestDriver {
    /// Real-time quantum granted to the threads between clock ticks.
    pub quantum: Duration,
    /// Extra ticks granted after the last release before giving up on
    /// blocked calls.
    pub grace_ticks: u64,
}

impl Default for TestDriver {
    fn default() -> Self {
        TestDriver {
            quantum: Duration::from_millis(15),
            grace_ticks: 3,
        }
    }
}

impl TestDriver {
    /// A driver with the default quantum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `schedule`, returning one record per call in schedule order,
    /// together with the clock used (so callers can inspect the final time).
    pub fn run(&self, schedule: Schedule) -> (Vec<CallRecord>, AbstractClock) {
        let clock = AbstractClock::new();
        let horizon = schedule.horizon() + self.grace_ticks;
        let n = schedule.calls.len();
        // Completion times, u64::MAX = not completed.
        let completions: Arc<Vec<AtomicU64>> =
            Arc::new((0..n).map(|_| AtomicU64::new(u64::MAX)).collect());

        let mut meta = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, call) in schedule.calls.into_iter().enumerate() {
            meta.push((call.label, call.at));
            let clock = clock.clone();
            let completions = Arc::clone(&completions);
            let at = call.at;
            let action = call.action;
            handles.push(thread::spawn(move || {
                clock.await_time(at);
                action(&clock);
                completions[i].store(clock.time(), Ordering::SeqCst);
            }));
        }

        // Advance the clock one tick per quantum.
        for _ in 0..horizon {
            thread::sleep(self.quantum);
            clock.tick();
        }
        // Grace period of real time for last completions.
        thread::sleep(self.quantum * 2);

        let records: Vec<CallRecord> = meta
            .into_iter()
            .enumerate()
            .map(|(i, (label, released_at))| {
                let c = completions[i].load(Ordering::SeqCst);
                CallRecord {
                    label,
                    released_at,
                    completed_at: (c != u64::MAX).then_some(c),
                }
            })
            .collect();

        // Detach still-blocked threads: they hold only test state and the
        // process-level cleanup reclaims them when the test binary exits.
        for h in handles {
            if h.is_finished() {
                let _ = h.join();
            }
        }
        (records, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};

    #[test]
    fn calls_release_in_clock_order() {
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        let schedule = Schedule::new()
            .call("second", 2, move |_| o2.lock().unwrap().push("second"))
            .call("first", 1, move |_| o1.lock().unwrap().push("first"));
        let (records, _) = TestDriver::new().run(schedule);
        assert_eq!(*order.lock().unwrap(), vec!["first", "second"]);
        assert!(records.iter().all(|r| !r.suspended()));
        // Completion times match release times (instant actions).
        assert!(records[0].completed_at.unwrap() >= 2);
        assert!(records[1].completed_at.unwrap() >= 1);
    }

    #[test]
    fn blocked_call_recorded_as_suspended() {
        // An action that waits for a clock time that never arrives.
        let schedule = Schedule::new().call("stuck", 1, |clock| {
            clock.await_time(1_000_000);
        });
        let driver = TestDriver {
            quantum: Duration::from_millis(5),
            grace_ticks: 2,
        };
        let (records, _) = driver.run(schedule);
        assert!(records[0].suspended());
    }

    #[test]
    fn empty_schedule_runs() {
        let (records, clock) = TestDriver::new().run(Schedule::new());
        assert!(records.is_empty());
        assert_eq!(clock.time(), TestDriver::new().grace_ticks);
    }

    #[test]
    fn record_helpers() {
        let r = CallRecord {
            label: "x".into(),
            released_at: 1,
            completed_at: Some(3),
        };
        assert!(r.completed_at_time(3));
        assert!(!r.completed_at_time(2));
        assert!(r.completed_by(3));
        assert!(r.completed_by(5));
        assert!(!r.completed_by(2));
        assert!(!r.suspended());
    }

    #[test]
    fn schedule_horizon() {
        let s = Schedule::new()
            .call("a", 4, |_| {})
            .call("b", 2, |_| {});
        assert_eq!(s.horizon(), 4);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(Schedule::new().horizon(), 0);
    }

    #[test]
    fn producer_consumer_style_handoff() {
        // A tiny monitor: consumer at t=1 blocks until producer at t=2.
        let slot: Arc<(Mutex<Option<i32>>, Condvar)> = Arc::new((Mutex::new(None), Condvar::new()));
        let s1 = Arc::clone(&slot);
        let s2 = Arc::clone(&slot);
        let schedule = Schedule::new()
            .call("consume", 1, move |_| {
                let (m, cv) = &*s1;
                let mut guard = m.lock().unwrap();
                while guard.is_none() {
                    guard = cv.wait(guard).unwrap();
                }
            })
            .call("produce", 2, move |_| {
                let (m, cv) = &*s2;
                *m.lock().unwrap() = Some(42);
                cv.notify_all();
            });
        let (records, _) = TestDriver::new().run(schedule);
        // The consumer completes only after the producer ran: at time >= 2.
        assert!(records[0].completed_at.unwrap() >= 2);
        assert!(!records[1].suspended());
    }
}
