//! The online monitor: the lockset, lock-order and lost-notification
//! detectors composed over one event stream, consumed as it is drained.
//!
//! An [`OnlineMonitor`] is fed events one at a time (e.g. from
//! `jcc_runtime::EventLog::drain_for_each`) and raises [`OnlineAlert`]s
//! mid-run, at the event that completes the evidence: Eraser locksets
//! (FF-T1), the lock-order graph (FF-T2) and the lost-notification shape
//! (FF-T5). Its [`OnlineMonitor::verdicts`] are the post-hoc
//! classification too — [`classify_runtime_events`] is a fold of this
//! monitor — so every evidence string exists once.
//!
//! [`classify_runtime_events`]: crate::classify_runtime_events
//!
//! # Degraded mode (capture gaps)
//!
//! Capture rings are per-thread, so a
//! [`CaptureGap`](jcc_petri::EventKind::CaptureGap) from thread *t* means
//! only *t*'s stream has holes — every other thread's stream is still
//! complete. On a gap the monitor:
//!
//! * permanently excludes *t*'s later data accesses from lockset analysis
//!   (an under-approximated held-set could otherwise empty a candidate
//!   set and fabricate a race), and
//! * clears *t*'s held-lock nesting; post-gap nesting is rebuilt only from
//!   observed acquires, so every lock-order edge still corresponds to a
//!   real nesting (missing edges only *shrink* cycles).
//!
//! The result is the subset guarantee: degraded verdicts never introduce a
//! false subject — every reported race variable is racy on the full
//! stream, every reported cycle is contained in a full-stream cycle, and
//! every lost-notification monitor really issued a wasted notify. (With
//! drops, evidence *strings* may differ — e.g. a race may be pinned on a
//! different thread — which is why the guarantee is stated over subjects,
//! exposed via [`OnlineMonitor::race_vars`],
//! [`OnlineMonitor::cycle_lock_sets`] and
//! [`OnlineMonitor::lost_monitors`].)

use std::collections::BTreeMap;

use jcc_petri::event::{Event, EventKind};

use crate::classify::{dedupe, Finding};
use crate::lockorder::LockOrderGraph;
use crate::lockset::LocksetAnalyzer;

/// A finding raised mid-run, stamped with the event that completed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineAlert {
    /// `seq` of the triggering event.
    pub seq: u64,
    /// The finding at that point.
    pub finding: Finding,
}

/// Tally of lost notifications: notifications issued while the wait set
/// was empty, per monitor.
#[derive(Debug, Default)]
pub struct LostNotifications {
    counts: BTreeMap<u64, u64>,
}

impl LostNotifications {
    /// Feed one event; returns the monitor when this is its first lost
    /// notification.
    pub fn observe(&mut self, event: &Event) -> Option<u64> {
        let EventKind::Notify {
            lock, waiters: 0, ..
        } = event.kind
        else {
            return None;
        };
        let n = self.counts.entry(lock).or_insert(0);
        *n += 1;
        (*n == 1).then_some(lock)
    }

    /// Wasted notifications per monitor, by monitor id.
    pub fn counts(&self) -> &BTreeMap<u64, u64> {
        &self.counts
    }
}

/// The streaming monitor. Feed every drained event to
/// [`OnlineMonitor::observe`]; read [`OnlineMonitor::alerts`] mid-run and
/// [`OnlineMonitor::verdicts`] at the end.
#[derive(Debug, Default)]
pub struct OnlineMonitor {
    lockset: LocksetAnalyzer,
    order: LockOrderGraph,
    lost: LostNotifications,
    degraded: bool,
    dropped_events: u64,
    alerts: Vec<OnlineAlert>,
    events_seen: u64,
}

impl OnlineMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one event.
    pub fn observe(&mut self, e: &Event) {
        self.events_seen += 1;
        if let EventKind::CaptureGap { dropped } = e.kind {
            self.dropped_events += dropped;
            self.degraded = true;
            self.lockset.forget_thread(e.thread);
            self.order.forget_thread(e.thread);
            return;
        }
        let seq = e.seq;
        if let Some(race) = self.lockset.observe(e) {
            let finding = Finding::race(race);
            self.alerts.push(OnlineAlert { seq, finding });
        }
        for (held, lock) in self.order.observe(e) {
            let finding = Finding::cycle_closed(held, lock);
            self.alerts.push(OnlineAlert { seq, finding });
        }
        if let Some(monitor) = self.lost.observe(e) {
            let finding = Finding::lost_notifications(monitor, 1);
            self.alerts.push(OnlineAlert { seq, finding });
        }
    }

    /// Feed a whole slice (replay convenience).
    pub fn observe_all(&mut self, events: &[Event]) {
        for e in events {
            self.observe(e);
        }
    }

    /// Findings raised mid-run so far, in raise order. Alert evidence is
    /// the state *at the triggering event* (e.g. a lost-notification count
    /// of 1); [`OnlineMonitor::verdicts`] renders the final tallies.
    pub fn alerts(&self) -> &[OnlineAlert] {
        &self.alerts
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// True once any capture gap has been observed — verdicts are then a
    /// sound subset rather than exact (see the module docs).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Events lost to capture gaps, as reported by the gap records.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Race subjects: the variables with a confirmed empty candidate
    /// lockset, in report order.
    pub fn race_vars(&self) -> Vec<String> {
        self.lockset.races().iter().map(|r| r.var.clone()).collect()
    }

    /// Cycle subjects: each strongly connected lock set (sorted), from
    /// the incrementally built graph.
    pub fn cycle_lock_sets(&self) -> Vec<Vec<u64>> {
        self.order.cycles().into_iter().map(|c| c.locks).collect()
    }

    /// Lost-notification subjects: monitors that issued a notification
    /// with nobody in the wait set.
    pub fn lost_monitors(&self) -> Vec<u64> {
        self.lost.counts().keys().copied().collect()
    }

    /// Final verdicts: lockset races (report order), lock-order cycles
    /// (SCCs over the incrementally built graph — the stream is never
    /// re-read), then lost notifications (by monitor id), deduplicated.
    pub fn verdicts(&self) -> Vec<Finding> {
        let mut out: Vec<Finding> = self.lockset.races().iter().map(Finding::race).collect();
        out.extend(self.order.cycles().iter().map(|c| Finding::cycle(&c.locks)));
        out.extend(
            self.lost
                .counts()
                .iter()
                .map(|(&monitor, &count)| Finding::lost_notifications(monitor, count)),
        );
        dedupe(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_petri::Transition as T;

    fn ev(seq: u64, thread: u64, kind: EventKind) -> Event {
        Event { seq, thread, kind }
    }

    fn acq(seq: u64, t: u64, l: u64) -> Event {
        ev(seq, t, EventKind::Transition { t: T::T2, lock: l })
    }
    fn rel(seq: u64, t: u64, l: u64) -> Event {
        ev(seq, t, EventKind::Transition { t: T::T4, lock: l })
    }
    fn wr(seq: u64, t: u64, var: &str) -> Event {
        ev(seq, t, EventKind::Write { var: var.into() })
    }

    #[test]
    fn race_alert_raised_at_the_offending_event() {
        let mut m = OnlineMonitor::new();
        m.observe_all(&[wr(0, 1, "x"), wr(1, 2, "x")]);
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].seq, 1);
        assert_eq!(m.alerts()[0].finding.class.code(), "FF-T1");
        assert_eq!(m.race_vars(), vec!["x".to_string()]);
        assert_eq!(m.verdicts().len(), 1);
    }

    #[test]
    fn cycle_alert_on_edge_insertion_and_scc_verdict() {
        let mut m = OnlineMonitor::new();
        m.observe_all(&[
            acq(0, 1, 1),
            acq(1, 1, 2),
            rel(2, 1, 2),
            rel(3, 1, 1),
            acq(4, 2, 2),
            acq(5, 2, 1), // closes the cycle — alert here
            rel(6, 2, 1),
            rel(7, 2, 2),
        ]);
        let cycle_alerts: Vec<_> = m
            .alerts()
            .iter()
            .filter(|a| a.finding.class.code() == "FF-T2")
            .collect();
        assert_eq!(cycle_alerts.len(), 1);
        assert_eq!(cycle_alerts[0].seq, 5);
        assert_eq!(m.cycle_lock_sets(), vec![vec![1, 2]]);
        let v = m.verdicts();
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().starts_with("FF-T2: locks [1, 2]"));
    }

    #[test]
    fn lost_notification_tallied_per_monitor() {
        let mut m = OnlineMonitor::new();
        let lost = |seq, lock| {
            ev(
                seq,
                1,
                EventKind::Notify {
                    lock,
                    all: false,
                    waiters: 0,
                },
            )
        };
        m.observe_all(&[lost(0, 3), lost(1, 3), lost(2, 5)]);
        assert_eq!(m.lost_monitors(), vec![3, 5]);
        assert_eq!(m.alerts().len(), 2, "one alert per monitor");
        let v = m.verdicts();
        assert_eq!(v.len(), 2);
        assert!(v[0].evidence.contains("monitor 3 issued 2 notification(s)"));
        assert!(v[1].evidence.contains("monitor 5 issued 1 notification(s)"));
    }

    #[test]
    fn gap_taints_thread_and_suppresses_its_accesses() {
        let mut m = OnlineMonitor::new();
        // Thread 2 held a lock before its gap; the lockset must not trust
        // its post-gap (apparently lock-free) accesses.
        m.observe_all(&[
            acq(0, 1, 10),
            wr(1, 1, "x"),
            rel(2, 1, 10),
            ev(3, 2, EventKind::CaptureGap { dropped: 4 }),
            wr(4, 2, "x"), // would race if trusted — suppressed
        ]);
        assert!(m.degraded());
        assert_eq!(m.dropped_events(), 4);
        assert!(m.verdicts().is_empty(), "{:?}", m.verdicts());
        // Untainted threads still race normally.
        m.observe_all(&[wr(5, 3, "x")]);
        assert_eq!(m.race_vars(), vec!["x".to_string()]);
    }

    #[test]
    fn notify_with_waiters_is_not_lost() {
        let mut m = OnlineMonitor::new();
        m.observe(&ev(
            0,
            1,
            EventKind::Notify {
                lock: 2,
                all: true,
                waiters: 3,
            },
        ));
        assert!(m.verdicts().is_empty());
    }
}
