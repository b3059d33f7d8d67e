//! Mapping detector output onto the ten Table-1 failure classes.

use std::fmt;

use jcc_petri::event::Event;
use jcc_petri::{Deviation, FailureClass, Transition};
use jcc_vm::{ExploreResult, RunOutcome, Verdict};

use crate::lockorder::LockOrderCycle;
use crate::lockset::RaceReport;
use crate::online::OnlineMonitor;

/// A classified finding: a Table-1 failure class with supporting evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The failure class.
    pub class: FailureClass,
    /// What was observed.
    pub evidence: String,
}

impl Finding {
    fn new(deviation: Deviation, transition: Transition, evidence: impl Into<String>) -> Self {
        Finding {
            class: FailureClass::new(deviation, transition),
            evidence: evidence.into(),
        }
    }

    /// FF-T1 (interference): a lockset race.
    pub(crate) fn race(r: &RaceReport) -> Self {
        Finding::new(
            Deviation::FailureToFire,
            Transition::T1,
            format!(
                "variable `{}` accessed by multiple threads with an \
                 empty candidate lockset (thread {} {} without consistent locking)",
                r.var,
                r.thread,
                if r.on_write { "wrote" } else { "read" }
            ),
        )
    }

    /// Potential FF-T2 (permanent suspension): a lock-order cycle.
    pub(crate) fn cycle(locks: &[u64]) -> Self {
        Finding::new(
            Deviation::FailureToFire,
            Transition::T2,
            format!(
                "locks {locks:?} are acquired in inconsistent orders — two threads can block \
                 each other forever"
            ),
        )
    }

    /// The mid-run FF-T2 alert: acquiring `lock` while holding `held` added
    /// the edge that closed a lock-order cycle.
    pub(crate) fn cycle_closed(held: u64, lock: u64) -> Self {
        Finding::new(
            Deviation::FailureToFire,
            Transition::T2,
            format!(
                "acquiring lock {lock} while holding lock {held} closes a lock-order \
                 cycle — threads taking the opposite order can deadlock"
            ),
        )
    }

    /// FF-T5: `count` notifications issued on `monitor` while its wait set
    /// was empty — wake-ups nobody could receive.
    pub(crate) fn lost_notifications(monitor: u64, count: u64) -> Self {
        Finding::new(
            Deviation::FailureToFire,
            Transition::T5,
            format!(
                "monitor {monitor} issued {count} notification(s) with no thread in the wait \
                 set — the wake-ups were lost"
            ),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class.code(), self.evidence)
    }
}

/// Classify a single VM run outcome.
pub fn classify_outcome(outcome: &RunOutcome) -> Vec<Finding> {
    use Deviation::*;
    use Transition::*;
    let mut out = Vec::new();
    match &outcome.verdict {
        Verdict::Completed => {}
        Verdict::Deadlock { waiting, blocked } => {
            if !waiting.is_empty() {
                out.push(Finding::new(
                    FailureToFire,
                    T5,
                    format!(
                        "thread(s) {waiting:?} permanently suspended in a wait set — no \
                         notification will ever arrive"
                    ),
                ));
            }
            if !blocked.is_empty() {
                out.push(Finding::new(
                    FailureToFire,
                    T2,
                    format!(
                        "thread(s) {blocked:?} blocked forever acquiring an object lock"
                    ),
                ));
                out.push(Finding::new(
                    FailureToFire,
                    T4,
                    "some thread never released the lock the blocked threads need",
                ));
            }
        }
        Verdict::StepLimit => {
            out.push(Finding::new(
                FailureToFire,
                T4,
                "step budget exhausted — a thread loops without leaving its critical section \
                 (or the system livelocks)",
            ));
        }
        Verdict::Faulted { thread, message } => {
            if message.contains("IllegalMonitorState") {
                out.push(Finding::new(
                    FailureToFire,
                    T1,
                    format!(
                        "thread {thread} used wait/notify without entering the monitor: {message}"
                    ),
                ));
            } else {
                out.push(Finding::new(
                    FailureToFire,
                    T3,
                    format!(
                        "thread {thread} faulted inside the component ({message}) — a guard \
                         was bypassed (missed wait) or state was corrupted"
                    ),
                ));
            }
        }
    }
    out
}

/// Classify an exhaustive-exploration result.
pub fn classify_explore(result: &ExploreResult) -> Vec<Finding> {
    use Deviation::*;
    use Transition::*;
    let mut out = Vec::new();
    if let Some(w) = &result.deadlock_witness {
        out.extend(classify_outcome(w));
    }
    if let Some(w) = &result.fault_witness {
        out.extend(classify_outcome(w));
    }
    if result.cycle_paths > 0 {
        let evidence = if result.inescapable_cycles > 0 {
            format!(
                "{} schedule(s) enter a loop no other thread can break — a critical section \
                 is never left",
                result.inescapable_cycles
            )
        } else {
            format!(
                "{} schedule(s) can repeat a state forever without completing a call",
                result.cycle_paths
            )
        };
        out.push(Finding::new(FailureToFire, T4, evidence));
    }
    dedupe(&mut out);
    out
}

/// Classify lockset race reports (FF-T1: interference).
pub fn classify_races(races: &[RaceReport]) -> Vec<Finding> {
    races.iter().map(Finding::race).collect()
}

/// Classify lock-order cycles (potential FF-T2: permanent suspension).
pub fn classify_cycles(cycles: &[LockOrderCycle]) -> Vec<Finding> {
    cycles.iter().map(|c| Finding::cycle(&c.locks)).collect()
}

/// Dynamic analysis of a whole event stream: lockset races, lock-order
/// cycles and lost notifications, in that order, deduped — the final
/// verdicts of an [`OnlineMonitor`] fed the same stream.
pub fn classify_runtime_events(events: &[Event]) -> Vec<Finding> {
    let mut monitor = OnlineMonitor::new();
    monitor.observe_all(events);
    monitor.verdicts()
}

pub(crate) fn dedupe(findings: &mut Vec<Finding>) {
    let mut seen = std::collections::HashSet::new();
    findings.retain(|f| seen.insert((f.class, f.evidence.clone())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples;
    use jcc_model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
    use jcc_vm::{compile, explore, CallSpec, ExploreConfig, RunConfig, ThreadSpec, Value, Vm};

    fn pc_threads() -> Vec<ThreadSpec> {
        vec![
            ThreadSpec {
                name: "c".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            },
        ]
    }

    #[test]
    fn completed_run_has_no_findings() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(compile(&c).unwrap(), pc_threads());
        let out = vm.run(&RunConfig::default());
        assert!(classify_outcome(&out).is_empty());
    }

    #[test]
    fn lone_waiter_classified_ff_t5() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "c".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let findings = classify_outcome(&out);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].class.code(), "FF-T5");
    }

    #[test]
    fn drop_notify_mutant_classified_ff_t5_by_exploration() {
        let c = examples::producer_consumer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::DropNotify && m.method == "send")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let vm = Vm::new(compile(&mutant).unwrap(), pc_threads());
        let r = explore(vm, &ExploreConfig::default(), None);
        let findings = classify_explore(&r);
        assert!(
            findings.iter().any(|f| f.class.code() == "FF-T5"),
            "{findings:?}"
        );
    }

    #[test]
    fn hold_lock_forever_classified_ff_t4() {
        let c = examples::producer_consumer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::HoldLockForever && m.method == "send")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let vm = Vm::new(compile(&mutant).unwrap(), pc_threads());
        let r = explore(vm, &ExploreConfig::default(), None);
        let findings = classify_explore(&r);
        assert!(
            findings.iter().any(|f| f.class.code() == "FF-T4"),
            "{findings:?}"
        );
    }

    #[test]
    fn illegal_monitor_state_classified_ff_t1() {
        let c = examples::producer_consumer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::DropSynchronized && m.method == "send")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let mut vm = Vm::new(compile(&mutant).unwrap(), pc_threads());
        let out = vm.run(&RunConfig::default());
        let findings = classify_outcome(&out);
        assert!(
            findings.iter().any(|f| f.class.code() == "FF-T1"),
            "{findings:?}"
        );
    }

    #[test]
    fn races_and_cycles_classified() {
        let races = vec![RaceReport {
            var: "count".into(),
            on_write: true,
            thread: 2,
            seq: 5,
        }];
        let f = classify_races(&races);
        assert_eq!(f[0].class.code(), "FF-T1");
        assert!(f[0].evidence.contains("count"));

        let cycles = vec![LockOrderCycle { locks: vec![1, 2] }];
        let f = classify_cycles(&cycles);
        assert_eq!(f[0].class.code(), "FF-T2");
    }

    #[test]
    fn finding_display() {
        let f = Finding::new(Deviation::FailureToFire, Transition::T5, "lost wakeup");
        assert_eq!(f.to_string(), "FF-T5: lost wakeup");
    }

    #[test]
    fn classify_runtime_events_is_the_online_reference() {
        use jcc_petri::event::EventKind;
        use jcc_petri::Transition as T;
        let ev = |seq: u64, thread: u64, kind: EventKind| Event { seq, thread, kind };
        let fire = |seq, thread, t, lock| ev(seq, thread, EventKind::Transition { t, lock });
        let notify = |seq, lock, all, waiters| {
            ev(seq, 1, EventKind::Notify { lock, all, waiters })
        };
        let events = vec![
            // Unprotected cross-thread writes: FF-T1 on `x`.
            ev(0, 1, EventKind::Write { var: "x".into() }),
            ev(1, 2, EventKind::Write { var: "x".into() }),
            // Opposite nesting of monitors 1 and 2: FF-T2.
            fire(2, 1, T::T2, 1),
            fire(3, 1, T::T2, 2),
            fire(4, 1, T::T4, 2),
            fire(5, 1, T::T4, 1),
            fire(6, 2, T::T2, 2),
            fire(7, 2, T::T2, 1),
            fire(8, 2, T::T4, 1),
            fire(9, 2, T::T4, 2),
            // Two wasted notifies on monitor 3: FF-T5, tallied once.
            notify(10, 3, false, 0),
            notify(11, 3, true, 0),
            // A received notify is not lost.
            notify(12, 2, true, 1),
            // A trailing capture gap changes nothing already observed.
            ev(13, 2, EventKind::CaptureGap { dropped: 5 }),
        ];
        let texts: Vec<String> = classify_runtime_events(&events)
            .iter()
            .map(|f| f.to_string())
            .collect();
        assert_eq!(
            texts,
            [
                "FF-T1: variable `x` accessed by multiple threads with an empty candidate \
                 lockset (thread 2 wrote without consistent locking)",
                "FF-T2: locks [1, 2] are acquired in inconsistent orders — two threads can \
                 block each other forever",
                "FF-T5: monitor 3 issued 2 notification(s) with no thread in the wait \
                 set — the wake-ups were lost",
            ]
        );
    }
}
