//! The abstract clock: `await(t)`, `tick`, `time`.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The ConAn abstract clock. Cheap to clone (shared handle).
///
/// The clock only moves when [`tick`](AbstractClock::tick) is called —
/// usually by the test driver — so thread wake-up order is controlled by
/// the tester, not the OS scheduler.
#[derive(Clone, Debug, Default)]
pub struct AbstractClock {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    time: Mutex<u64>,
    advanced: Condvar,
}

impl AbstractClock {
    /// A new clock at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of units of time passed since the clock started.
    pub fn time(&self) -> u64 {
        *lock(&self.inner.time)
    }

    /// Advance the time by one unit, waking any threads awaiting it.
    /// Returns the new time.
    pub fn tick(&self) -> u64 {
        let mut t = lock(&self.inner.time);
        *t += 1;
        self.inner.advanced.notify_all();
        *t
    }

    /// Advance the clock to at least `target` (no-op if already there).
    pub fn tick_to(&self, target: u64) -> u64 {
        let mut t = lock(&self.inner.time);
        if *t < target {
            *t = target;
            self.inner.advanced.notify_all();
        }
        *t
    }

    /// Delay the calling thread until the clock reaches `t`.
    pub fn await_time(&self, t: u64) {
        let mut cur = lock(&self.inner.time);
        while *cur < t {
            cur = self
                .inner
                .advanced
                .wait(cur)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`await_time`](Self::await_time) but gives up after `timeout`
    /// of real time; returns `true` if the clock reached `t`.
    pub fn await_time_for(&self, t: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut cur = lock(&self.inner.time);
        while *cur < t {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            cur = self
                .inner
                .advanced
                .wait_timeout(cur, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }
}

/// Lock `m`, recovering the guard when a thread panicked while holding
/// it: the clock's time is one integer, valid after any update.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn starts_at_zero_and_ticks() {
        let c = AbstractClock::new();
        assert_eq!(c.time(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.time(), 2);
    }

    #[test]
    fn tick_to_is_monotone() {
        let c = AbstractClock::new();
        assert_eq!(c.tick_to(5), 5);
        assert_eq!(c.tick_to(3), 5);
        assert_eq!(c.time(), 5);
    }

    #[test]
    fn await_time_released_by_tick() {
        let c = AbstractClock::new();
        let c2 = c.clone();
        let h = thread::spawn(move || {
            c2.await_time(3);
            c2.time()
        });
        // Give the waiter a moment to block, then tick past.
        thread::sleep(Duration::from_millis(10));
        c.tick();
        c.tick();
        c.tick();
        assert!(h.join().unwrap() >= 3);
    }

    #[test]
    fn await_time_already_reached_returns_immediately() {
        let c = AbstractClock::new();
        c.tick_to(10);
        c.await_time(5); // must not block
        assert_eq!(c.time(), 10);
    }

    #[test]
    fn await_time_for_times_out() {
        let c = AbstractClock::new();
        let reached = c.await_time_for(1, Duration::from_millis(20));
        assert!(!reached);
    }

    #[test]
    fn many_waiters_all_released() {
        let c = AbstractClock::new();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let c = c.clone();
                thread::spawn(move || {
                    c.await_time(i % 3 + 1);
                    true
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(10));
        c.tick_to(3);
        for h in handles {
            assert!(h.join().unwrap());
        }
    }
}
