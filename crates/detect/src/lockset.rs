//! The Eraser lockset algorithm (Savage, Burrows, Nelson, Sobalvarro &
//! Anderson 1997) — the dynamic data-race detector the paper cites as the
//! technique for FF-T1 (interference).
//!
//! Per shared variable, the analyzer tracks a state machine and a candidate
//! lockset `C(v)`:
//!
//! * **Virgin** → first access moves to **Exclusive(t)** (one thread only —
//!   initialization is exempt),
//! * a second thread moves to **Shared** (reads) or **SharedModified**
//!   (writes), refining `C(v)` to the intersection of locks held at each
//!   access,
//! * an empty `C(v)` in **SharedModified** is a race report.
//!
//! A thread holds a lock from its T2 until its T3 (wait) or T4; reentrant
//! re-entries are invisible, which is right for lockset purposes — the lock
//! stays held.

use std::collections::{BTreeSet, HashMap, HashSet};

use jcc_petri::event::{Event, EventKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Virgin,
    Exclusive(u64),
    Shared,
    SharedModified,
}

/// A reported potential race on one variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The variable.
    pub var: String,
    /// Whether the offending access was a write.
    pub on_write: bool,
    /// The accessing thread.
    pub thread: u64,
    /// `seq` of the offending access.
    pub seq: u64,
}

/// The lockset analyzer. Feed events with [`LocksetAnalyzer::observe`] or
/// run a whole stream with [`LocksetAnalyzer::analyze`].
#[derive(Debug, Default)]
pub struct LocksetAnalyzer {
    held: HashMap<u64, BTreeSet<u64>>,
    state: HashMap<String, VarState>,
    candidates: HashMap<String, BTreeSet<u64>>,
    reported: BTreeSet<String>,
    races: Vec<RaceReport>,
    /// Threads whose held sets can no longer be trusted (capture gaps).
    forgotten: HashSet<u64>,
}

impl LocksetAnalyzer {
    /// A fresh analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run the whole stream and return the race reports.
    pub fn analyze(events: &[Event]) -> Vec<RaceReport> {
        let mut a = Self::new();
        for e in events {
            a.observe(e);
        }
        a.races
    }

    /// The race reports so far, one per variable, in report order.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Feed one event; returns the race it newly reported, if any.
    pub fn observe(&mut self, event: &Event) -> Option<&RaceReport> {
        let thread = event.thread;
        match &event.kind {
            EventKind::Read { var } => return self.access(event.seq, thread, var, false),
            EventKind::Write { var } => return self.access(event.seq, thread, var, true),
            kind => {
                if let Some(lock) = kind.acquired() {
                    self.held.entry(thread).or_default().insert(lock);
                } else if let Some(lock) = kind.released() {
                    if let Some(set) = self.held.get_mut(&thread) {
                        set.remove(&lock);
                    }
                }
            }
        }
        None
    }

    /// Stop trusting `thread` after a capture gap. Its held set may now
    /// under-approximate reality, so counting its later accesses could
    /// empty a candidate set that a full capture would keep populated — a
    /// false positive. Its accesses are ignored from here on.
    pub fn forget_thread(&mut self, thread: u64) {
        self.held.remove(&thread);
        self.forgotten.insert(thread);
    }

    fn access(&mut self, seq: u64, thread: u64, var: &str, is_write: bool) -> Option<&RaceReport> {
        if self.forgotten.contains(&thread) {
            return None;
        }
        let no_locks = BTreeSet::new();
        let held = self.held.get(&thread).unwrap_or(&no_locks);
        let state = self.state.get(var).copied().unwrap_or(VarState::Virgin);
        let next = match (state, is_write) {
            (VarState::Virgin, _) => VarState::Exclusive(thread),
            (VarState::Exclusive(t), _) if t == thread => state,
            (VarState::Exclusive(_), _) => {
                // A second thread: initialize the candidates.
                self.candidates.insert(var.to_string(), held.clone());
                if is_write {
                    VarState::SharedModified
                } else {
                    VarState::Shared
                }
            }
            (VarState::Shared | VarState::SharedModified, _) => {
                if let Some(c) = self.candidates.get_mut(var) {
                    c.retain(|lock| held.contains(lock));
                }
                if is_write {
                    VarState::SharedModified
                } else {
                    state
                }
            }
        };
        match self.state.get_mut(var) {
            Some(s) => *s = next,
            None => {
                self.state.insert(var.to_string(), next);
            }
        }
        let racy = next == VarState::SharedModified
            && self.candidates.get(var).is_some_and(BTreeSet::is_empty)
            && self.reported.insert(var.to_string());
        if !racy {
            return None;
        }
        self.races.push(RaceReport {
            var: var.to_string(),
            on_write: is_write,
            thread,
            seq,
        });
        self.races.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use jcc_petri::Transition;

    fn ev(thread: u64, kind: EventKind) -> Event {
        Event {
            seq: 0,
            thread,
            kind,
        }
    }
    fn acq(thread: u64, lock: u64) -> Event {
        let t = Transition::T2;
        ev(thread, EventKind::Transition { t, lock })
    }
    fn rel(thread: u64, lock: u64) -> Event {
        let t = Transition::T4;
        ev(thread, EventKind::Transition { t, lock })
    }
    fn rd(thread: u64, var: &str) -> Event {
        let var = var.to_string();
        ev(thread, EventKind::Read { var })
    }
    fn wr(thread: u64, var: &str) -> Event {
        let var = var.to_string();
        ev(thread, EventKind::Write { var })
    }

    #[test]
    fn consistently_locked_variable_is_clean() {
        let events = vec![
            acq(1, 10),
            wr(1, "x"),
            rel(1, 10),
            acq(2, 10),
            wr(2, "x"),
            rel(2, 10),
            acq(1, 10),
            rd(1, "x"),
            rel(1, 10),
        ];
        assert!(LocksetAnalyzer::analyze(&events).is_empty());
    }

    #[test]
    fn unlocked_shared_write_is_a_race() {
        let events = vec![wr(1, "x"), wr(2, "x")];
        let races = LocksetAnalyzer::analyze(&events);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].var, "x");
        assert!(races[0].on_write);
        assert_eq!(races[0].thread, 2);
    }

    #[test]
    fn initialization_by_single_thread_exempt() {
        // One thread reads and writes without locks: no race.
        let events = vec![wr(1, "x"), rd(1, "x"), wr(1, "x")];
        assert!(LocksetAnalyzer::analyze(&events).is_empty());
    }

    #[test]
    fn read_shared_without_locks_not_reported_until_written() {
        // Threads only read after initialization: Shared, never
        // SharedModified — Eraser stays quiet.
        let events = vec![wr(1, "x"), rd(2, "x"), rd(3, "x")];
        assert!(LocksetAnalyzer::analyze(&events).is_empty());
        // A later unprotected write tips it into a race.
        let mut events = events;
        events.push(wr(3, "x"));
        let races = LocksetAnalyzer::analyze(&events);
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn inconsistent_locks_detected() {
        // Thread 1 protects x with lock 10, thread 2 with lock 20. The
        // candidate set starts at {20} on the first shared access and the
        // third access intersects it to ∅.
        let events = vec![
            acq(1, 10),
            wr(1, "x"),
            rel(1, 10),
            acq(2, 20),
            wr(2, "x"),
            rel(2, 20),
            acq(1, 10),
            wr(1, "x"),
            rel(1, 10),
        ];
        let races = LocksetAnalyzer::analyze(&events);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].thread, 1);
    }

    #[test]
    fn one_report_per_variable() {
        let events = vec![wr(1, "x"), wr(2, "x"), wr(1, "x"), wr(2, "x")];
        assert_eq!(LocksetAnalyzer::analyze(&events).len(), 1);
    }

    #[test]
    fn distinct_variables_reported_separately() {
        let events = vec![wr(1, "x"), wr(2, "x"), wr(1, "y"), wr(2, "y")];
        let races = LocksetAnalyzer::analyze(&events);
        let vars: Vec<_> = races.iter().map(|r| r.var.clone()).collect();
        assert_eq!(vars, vec!["x", "y"]);
    }

    #[test]
    fn reentrant_holding_keeps_protection() {
        // Release of one of two held locks keeps the other protecting x.
        let events = vec![
            acq(1, 10),
            acq(1, 20),
            wr(1, "x"),
            rel(1, 20),
            rel(1, 10),
            acq(2, 10),
            wr(2, "x"),
            rel(2, 10),
        ];
        assert!(LocksetAnalyzer::analyze(&events).is_empty());
    }

    #[test]
    fn racy_counter_component_detected_via_vm() {
        use jcc_vm::{compile, CallSpec, RunConfig, Scheduler, ThreadSpec, Vm};
        let c = jcc_model::examples::racy_counter();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "a".into(),
                    calls: vec![CallSpec::new("increment", vec![])],
                },
                ThreadSpec {
                    name: "b".into(),
                    calls: vec![CallSpec::new("increment", vec![])],
                },
            ],
        );
        let out = vm.run(&RunConfig {
            scheduler: Scheduler::RoundRobin,
            max_steps: 10_000,
        });
        let races = LocksetAnalyzer::analyze(&out.trace);
        assert!(
            races.iter().any(|r| r.var == "count"),
            "unsynchronized counter must race: {races:?}"
        );
    }
}
