//! Alert-fed live timelines: build the causal schedule timeline *while the
//! run is still going*, with online-monitor alerts stamped into it as typed
//! notes the moment they fire.
//!
//! [`EventLog::timeline`] is a post-hoc read: snapshot the log, fold every
//! event through a [`TimelineFold`], render. [`LiveTimeline`] is the same
//! fold fed incrementally — feed it each drained event and it grows the
//! in-flight [`Timeline`](jcc_obs::timeline::Timeline) one event at a
//! time, runs an [`OnlineMonitor`] alongside, and appends every
//! [`OnlineAlert`](jcc_detect::OnlineAlert) as a note on the triggering
//! thread's lane at the triggering event's clock value.
//!
//! On a no-drop stream with no alerts, [`LiveTimeline::finish`] therefore
//! renders byte-identically to [`EventLog::timeline`] (same lanes, same
//! intervals, same edges, same notes). When alerts do fire, the live
//! timeline is the post-hoc one plus the alert notes — and feeding the
//! same events in one batch ([`LiveTimeline::from_log`]) produces the
//! identical document, so "watched live" and "replayed later" tell the
//! same story.

use jcc_cofg::TimelineFold;
use jcc_detect::OnlineMonitor;
use jcc_obs::timeline::Timeline;
use jcc_petri::event::Event;

use crate::events::{EventLog, MonitorId};

/// An incrementally-built causal timeline with online alerts stamped in as
/// they fire. See the module docs.
#[derive(Debug)]
pub struct LiveTimeline {
    fold: TimelineFold,
    monitor: OnlineMonitor,
    /// How many of the monitor's alerts have already been stamped.
    stamped: usize,
    /// Events observed so far — the finished timeline's horizon.
    events_seen: u64,
}

impl Default for LiveTimeline {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveTimeline {
    /// A fresh live timeline (clock: `"events"`, like the post-hoc path).
    pub fn new() -> Self {
        LiveTimeline {
            fold: TimelineFold::new("events", None),
            monitor: OnlineMonitor::new(),
            stamped: 0,
            events_seen: 0,
        }
    }

    /// Replay convenience: feed every retained event of `log` in one batch.
    /// Byte-equivalent to observing the same events one at a time.
    pub fn from_log(log: &EventLog) -> Self {
        let mut live = LiveTimeline::new();
        for e in log.snapshot() {
            live.observe(log, &e);
        }
        live
    }

    /// Feed one drained event: fold it into the timeline (as
    /// [`EventLog::timeline`] does), run the online monitor on it, and
    /// stamp any alert it raised as a note at the event's clock value.
    /// `log` resolves monitor display names; pass the log the event came
    /// from.
    pub fn observe(&mut self, log: &EventLog, e: &Event) {
        self.events_seen += 1;
        let lane = self
            .fold
            .observe(e, |lock| log.monitor_name(MonitorId(lock)));
        self.monitor.observe(e);
        // Stamp anything the monitor just raised. Alerts carry the seq of
        // the triggering event — this event — so the note lands on this
        // lane at `at`, in raise order.
        let alerts = self.monitor.alerts();
        while self.stamped < alerts.len() {
            let a = &alerts[self.stamped];
            self.fold.note(lane, a.seq, &format!("ALERT {}", a.finding));
            self.stamped += 1;
        }
    }

    /// The online monitor running alongside (alerts, verdicts, tallies).
    pub fn monitor(&self) -> &OnlineMonitor {
        &self.monitor
    }

    /// How many alerts have been stamped into the timeline so far.
    pub fn alerts_stamped(&self) -> usize {
        self.stamped
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Close every lane and return the finished timeline. The horizon is
    /// the number of observed events — the post-hoc path's
    /// `events.len()`.
    pub fn finish(self) -> Timeline {
        self.fold.finish(self.events_seen).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_petri::event::EventKind;
    use jcc_petri::Transition as T;

    /// A clean handoff: two threads take the same lock in turn. No races,
    /// no cycles, no notifications — the online monitor stays silent.
    fn quiet_handoff(log: &EventLog) {
        let lock = log.register_monitor("slot").0;
        for thread in [1, 2] {
            for t in [T::T1, T::T2, T::T4] {
                log.log_as(thread, EventKind::Transition { t, lock });
            }
        }
    }

    /// The FF-T5 walkthrough: the opener notifies into an empty wait set,
    /// then the passer waits forever (the losing Gate schedule).
    fn gate_walkthrough(log: &EventLog) {
        let lock = log.register_monitor("gate").0;
        let fire = |thread, t| log.log_as(thread, EventKind::Transition { t, lock });
        fire(2, T::T2);
        let var = "open".to_string();
        log.log_as(2, EventKind::Write { var });
        let (all, waiters) = (false, 0);
        log.log_as(2, EventKind::Notify { lock, all, waiters });
        fire(2, T::T4);
        fire(1, T::T2);
        fire(1, T::T3);
    }

    #[test]
    fn quiet_stream_byte_matches_the_posthoc_timeline() {
        let log = EventLog::new();
        quiet_handoff(&log);
        let mut live = LiveTimeline::new();
        for e in log.snapshot() {
            live.observe(&log, &e);
        }
        assert_eq!(live.alerts_stamped(), 0, "handoff raises no alerts");
        let live_t = live.finish();
        let posthoc = log.timeline();
        assert_eq!(live_t, posthoc);
        assert_eq!(live_t.render_ascii(), posthoc.render_ascii());
        assert_eq!(live_t.to_chrome_string(), posthoc.to_chrome_string());
    }

    #[test]
    fn incremental_and_batch_builds_are_byte_identical() {
        let log = EventLog::new();
        gate_walkthrough(&log);
        let mut incremental = LiveTimeline::new();
        for e in log.snapshot() {
            incremental.observe(&log, &e);
        }
        let batch = LiveTimeline::from_log(&log);
        assert_eq!(incremental.alerts_stamped(), batch.alerts_stamped());
        let a = incremental.finish();
        let b = batch.finish();
        assert_eq!(a, b);
        assert_eq!(a.render_ascii(), b.render_ascii());
        assert_eq!(a.to_chrome_string(), b.to_chrome_string());
    }

    #[test]
    fn gate_alert_is_stamped_at_the_notify_event() {
        let log = EventLog::new();
        gate_walkthrough(&log);
        let live = LiveTimeline::from_log(&log);
        assert!(live.alerts_stamped() >= 1, "FF-T5 fires mid-run");
        let events = log.snapshot();
        let notify_seq = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Notify { .. }))
            .unwrap()
            .seq;
        let t = live.finish();
        let alert_note = t
            .notes
            .iter()
            .find(|n| n.text.starts_with("ALERT FF-T5"))
            .expect("the lost notification is stamped as a note");
        assert_eq!(alert_note.at, notify_seq);
        // The note sits on the opener's lane (thread 2 logged first → lane 0).
        assert_eq!(t.lanes[alert_note.lane].name, "thread-2");
        // The live timeline is the post-hoc one plus alert notes: the
        // builder's own lost-notification note is still there too.
        assert!(t
            .notes
            .iter()
            .any(|n| n.text.contains("lost notification")));
    }

    #[test]
    fn live_monitor_verdicts_match_a_standalone_monitor() {
        let log = EventLog::new();
        gate_walkthrough(&log);
        let live = LiveTimeline::from_log(&log);
        let mut standalone = OnlineMonitor::new();
        standalone.observe_all(&log.snapshot());
        assert_eq!(live.monitor().verdicts(), standalone.verdicts());
        assert_eq!(live.events_seen(), standalone.events_seen());
    }

    #[test]
    fn monitorless_events_resolve_the_none_name() {
        let log = EventLog::new();
        log.log_as(
            1,
            EventKind::Site {
                method: "m".into(),
                path: vec![0],
                exit: false,
            },
        );
        let live = LiveTimeline::from_log(&log);
        let t = live.finish();
        assert_eq!(t.lanes.len(), 1, "markers still allocate the lane");
        assert_eq!(t.horizon, 1);
    }
}
