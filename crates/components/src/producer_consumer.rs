//! The paper's Figure-2 component, natively: an asymmetric producer–consumer
//! monitor. `send` stores a whole string; `receive` drains it one character
//! at a time. Both methods are synchronized on the component's monitor and
//! use the wait-in-a-while-loop idiom with `notifyAll`.
//!
//! [`PcFaults`] injects the same failure classes the model-level mutation
//! operators seed, so the ConAn-style completion-time experiments can
//! demonstrate detection on real threads.

use std::fmt;

use jcc_runtime::{EventLog, JavaMonitor};

use crate::coverage::{mark, method_end, method_start};

/// Fault injection switches for [`ProducerConsumer`]. All `false` = the
/// correct Figure-2 component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcFaults {
    /// FF-T3: skip the guard entirely — `receive`/`send` never wait.
    pub skip_wait: bool,
    /// EF-T5 exposure: check the guard with `if` instead of `while`.
    pub if_instead_of_while: bool,
    /// FF-T5: use `notify` instead of `notifyAll`.
    pub notify_not_all: bool,
    /// FF-T5: drop the notification entirely.
    pub drop_notify: bool,
    /// EF-T3: an extra spurious `wait` at the start of `send`.
    pub spurious_wait_in_send: bool,
}

/// Error surfaced when a fault-injected run corrupts the monitor state
/// (mirrors the runtime exception a Java component would throw).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardViolation {
    /// Description of the corrupted state.
    pub message: String,
}

impl fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for GuardViolation {}

#[derive(Debug, Default)]
struct State {
    contents: Vec<char>,
    total_length: usize,
    cur_pos: usize,
}

/// The asymmetric producer–consumer monitor of Figure 2.
#[derive(Debug)]
pub struct ProducerConsumer {
    monitor: JavaMonitor<State>,
    faults: PcFaults,
}

impl ProducerConsumer {
    /// A correct component reporting into `log`.
    pub fn new(log: &EventLog) -> Self {
        Self::with_faults(log, PcFaults::default())
    }

    /// A component with injected faults.
    pub fn with_faults(log: &EventLog, faults: PcFaults) -> Self {
        ProducerConsumer {
            monitor: JavaMonitor::new("ProducerConsumer", log, State::default()),
            faults,
        }
    }

    fn log(&self) -> &EventLog {
        self.monitor.log()
    }

    /// Receive a single character, blocking while the buffer is empty.
    pub fn receive(&self) -> Result<char, GuardViolation> {
        method_start(self.log(), "receive");
        let guard = self.monitor.enter();
        // while (curPos == 0) wait();
        if !self.faults.skip_wait {
            let mut first = true;
            loop {
                let empty = guard.read("curPos", |s| s.cur_pos == 0);
                if !empty {
                    break;
                }
                if self.faults.if_instead_of_while && !first {
                    break; // `if` re-checks nothing after the first wake-up
                }
                first = false;
                mark(self.log(), "receive", &[0, 0]);
                guard.wait();
            }
        }
        // y = contents.charAt(totalLength - curPos); curPos--;
        let y = guard.write("curPos", |s| {
            let idx = s.total_length - s.cur_pos.min(s.total_length);
            let ch = s.contents.get(idx).copied();
            if ch.is_some() && s.cur_pos > 0 {
                s.cur_pos -= 1;
            }
            ch
        });
        let Some(y) = y else {
            method_end(self.log(), "receive");
            return Err(GuardViolation {
                message: "receive read past the buffer (guard bypassed)".into(),
            });
        };
        // notifyAll
        if !self.faults.drop_notify {
            mark(self.log(), "receive", &[3]);
            if self.faults.notify_not_all {
                guard.notify();
            } else {
                guard.notify_all();
            }
        }
        drop(guard);
        method_end(self.log(), "receive");
        Ok(y)
    }

    /// Send a string of characters, blocking while the buffer is nonempty.
    pub fn send(&self, x: &str) -> Result<(), GuardViolation> {
        method_start(self.log(), "send");
        let guard = self.monitor.enter();
        if self.faults.spurious_wait_in_send {
            guard.wait();
        }
        // while (curPos > 0) wait();
        if !self.faults.skip_wait {
            let mut first = true;
            loop {
                let nonempty = guard.read("curPos", |s| s.cur_pos > 0);
                if !nonempty {
                    break;
                }
                if self.faults.if_instead_of_while && !first {
                    break;
                }
                first = false;
                mark(self.log(), "send", &[0, 0]);
                guard.wait();
            }
        }
        let overwrote = guard.write("contents", |s| {
            let overwrote = s.cur_pos > 0;
            s.contents = x.chars().collect();
            s.total_length = s.contents.len();
            s.cur_pos = s.total_length;
            overwrote
        });
        if !self.faults.drop_notify {
            mark(self.log(), "send", &[4]);
            if self.faults.notify_not_all {
                guard.notify();
            } else {
                guard.notify_all();
            }
        }
        drop(guard);
        method_end(self.log(), "send");
        if overwrote {
            Err(GuardViolation {
                message: "send overwrote unconsumed characters (guard bypassed)".into(),
            })
        } else {
            Ok(())
        }
    }

    /// Characters not yet received (snapshot).
    pub fn pending(&self) -> usize {
        let guard = self.monitor.enter();
        guard.with(|s| s.cur_pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_clock::{Schedule, TestDriver};
    use std::sync::Arc;

    #[test]
    fn single_threaded_roundtrip() {
        let log = EventLog::new();
        let pc = ProducerConsumer::new(&log);
        pc.send("abc").unwrap();
        assert_eq!(pc.pending(), 3);
        assert_eq!(pc.receive().unwrap(), 'a');
        assert_eq!(pc.receive().unwrap(), 'b');
        assert_eq!(pc.receive().unwrap(), 'c');
        assert_eq!(pc.pending(), 0);
    }

    #[test]
    fn consumer_blocks_until_producer_arrives() {
        let log = EventLog::new();
        let pc = Arc::new(ProducerConsumer::new(&log));
        let pc1 = Arc::clone(&pc);
        let pc2 = Arc::clone(&pc);
        let schedule = Schedule::new()
            .call("receive", 1, move |_| {
                assert_eq!(pc1.receive().unwrap(), 'x');
            })
            .call("send", 2, move |_| {
                pc2.send("x").unwrap();
            });
        let (records, _) = TestDriver::new().run(schedule);
        // The receive completes only after the send released it: >= 2.
        assert!(records[0].completed_at.unwrap() >= 2, "{records:?}");
        assert!(records[1].completed_by(3));
    }

    #[test]
    fn producer_blocks_while_buffer_nonempty() {
        let log = EventLog::new();
        let pc = Arc::new(ProducerConsumer::new(&log));
        pc.send("ab").unwrap();
        let pc1 = Arc::clone(&pc);
        let pc2 = Arc::clone(&pc);
        let pc3 = Arc::clone(&pc);
        let schedule = Schedule::new()
            .call("send2", 1, move |_| {
                pc1.send("cd").unwrap();
            })
            .call("recv1", 2, move |_| {
                assert_eq!(pc2.receive().unwrap(), 'a');
            })
            .call("recv2", 3, move |_| {
                assert_eq!(pc3.receive().unwrap(), 'b');
            });
        let (records, _) = TestDriver::new().run(schedule);
        // send2 can only complete after both receives drained the buffer.
        assert!(records[0].completed_at.unwrap() >= 3, "{records:?}");
    }

    #[test]
    fn skip_wait_fault_detected_as_guard_violation() {
        let log = EventLog::new();
        let pc = ProducerConsumer::with_faults(
            &log,
            PcFaults {
                skip_wait: true,
                ..PcFaults::default()
            },
        );
        // receive on an empty buffer barges through and errs.
        assert!(pc.receive().is_err());
        // send over a nonempty buffer overwrites and errs.
        pc.send("ab").unwrap();
        assert!(pc.send("cd").is_err());
    }

    #[test]
    fn drop_notify_fault_leaves_consumer_suspended() {
        let log = EventLog::new();
        let pc = Arc::new(ProducerConsumer::with_faults(
            &log,
            PcFaults {
                drop_notify: true,
                ..PcFaults::default()
            },
        ));
        let pc1 = Arc::clone(&pc);
        let pc2 = Arc::clone(&pc);
        let schedule = Schedule::new()
            .call("receive", 1, move |_| {
                let _ = pc1.receive();
            })
            .call("send", 2, move |_| {
                let _ = pc2.send("x");
            });
        let (records, _) = TestDriver::new().run(schedule);
        assert!(records[0].suspended(), "consumer must never be woken");
        assert!(!records[1].suspended());
    }

    #[test]
    fn notify_not_all_loses_distinct_waiters() {
        // Producer waits (buffer full) and consumer waits cannot happen at
        // once here; instead: two consumers wait, a 1-char send with
        // `notify` wakes only one — the other stays suspended even though a
        // second send follows into the now-empty... (buffer refills). Use
        // three consumers / two sends to leave one stranded.
        let log = EventLog::new();
        let pc = Arc::new(ProducerConsumer::with_faults(
            &log,
            PcFaults {
                notify_not_all: true,
                ..PcFaults::default()
            },
        ));
        let c1 = Arc::clone(&pc);
        let c2 = Arc::clone(&pc);
        let p = Arc::clone(&pc);
        let schedule = Schedule::new()
            .call("recv-a", 1, move |_| {
                let _ = c1.receive();
            })
            .call("recv-b", 1, move |_| {
                let _ = c2.receive();
            })
            .call("send", 3, move |_| {
                let _ = p.send("x");
            });
        let (records, _) = TestDriver::new().run(schedule);
        let suspended = records.iter().filter(|r| r.suspended()).count();
        // One consumer gets the character; with notify (not notifyAll) the
        // other was woken at most transiently and re-waits: exactly one of
        // the two receive calls stays suspended.
        assert_eq!(suspended, 1, "{records:?}");
    }

    #[test]
    fn pending_reports_remaining() {
        let log = EventLog::new();
        let pc = ProducerConsumer::new(&log);
        pc.send("hello").unwrap();
        pc.receive().unwrap();
        assert_eq!(pc.pending(), 4);
    }

    #[test]
    fn unicode_contents_handled() {
        let log = EventLog::new();
        let pc = ProducerConsumer::new(&log);
        pc.send("éü").unwrap();
        assert_eq!(pc.receive().unwrap(), 'é');
        assert_eq!(pc.receive().unwrap(), 'ü');
    }
}
