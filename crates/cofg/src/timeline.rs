//! Causal schedule timelines folded from event streams.
//!
//! [`TimelineFold`] is the one producer of causal timelines: the VM's
//! witness timelines and the runtime log's post-hoc timeline both feed
//! their events through it. Each event becomes
//! the [`TimelineBuilder`] verb of the Figure-1 transition it fires
//! (T1 → requesting, T2 → critical section, T3 → waiting, T5 →
//! re-acquiring), on the lane of its thread. With a [`CoverageTracker`]
//! the fold also walks the component's CoFGs, through the tracker's own
//! arc walk, and stamps each interval with the arc its thread traversed
//! during it. The tracker keeps the walk's per-arc traversal counts, so
//! one pass over a trace yields both the timeline and its arc heat.

use std::collections::HashMap;

use jcc_obs::timeline::{Timeline, TimelineBuilder};
use jcc_petri::event::{Event, EventKind};
use jcc_petri::Transition;

use crate::coverage::CoverageTracker;

/// Folds a clock-ordered event stream into a [`Timeline`]. See the module
/// docs.
#[derive(Debug)]
pub struct TimelineFold {
    builder: TimelineBuilder,
    /// Thread id → lane index.
    lanes: HashMap<u64, usize>,
    coverage: Option<CoverageTracker>,
}

impl TimelineFold {
    /// A fold whose lanes are allocated on first sight of a thread, named
    /// `thread-<id>`. `clock` names what the timeline counts.
    pub fn new(clock: &str, coverage: Option<CoverageTracker>) -> Self {
        TimelineFold {
            builder: TimelineBuilder::new(clock),
            lanes: HashMap::new(),
            coverage,
        }
    }

    /// A fold with one lane per name declared up front: thread `i` is lane
    /// `i`. Threads beyond the list are allocated as in [`TimelineFold::new`].
    pub fn with_lanes(clock: &str, names: &[String], coverage: Option<CoverageTracker>) -> Self {
        let mut fold = TimelineFold::new(clock, coverage);
        for (i, name) in names.iter().enumerate() {
            let lane = fold.builder.lane(name);
            fold.lanes.insert(i as u64, lane);
        }
        fold
    }

    /// Fold one event at its clock value and return its lane. `lock_name`
    /// renders a lock for display. The CoFG arc an event completes is
    /// stamped before the event's verb applies, so the arc into `end`
    /// stays on the call's last interval rather than the idle one after it.
    pub fn observe<S: AsRef<str>>(&mut self, e: &Event, lock_name: impl Fn(u64) -> S) -> usize {
        let lane = match self.lanes.get(&e.thread) {
            Some(&lane) => lane,
            None => {
                let lane = self.builder.lane(&format!("thread-{}", e.thread));
                self.lanes.insert(e.thread, lane);
                lane
            }
        };
        if let Some(tracker) = &mut self.coverage {
            if let Some(idx) = tracker.observe(e) {
                let method = match &e.kind {
                    EventKind::MethodStart { method }
                    | EventKind::MethodEnd { method }
                    | EventKind::Site { method, .. } => method,
                    _ => unreachable!("only method and site events cover arcs"),
                };
                let g = tracker.cofg(method).expect("a covered arc has a CoFG");
                let arc = &g.arcs[idx];
                let label = format!("{method}: {} -> {}", g.label(arc.from), g.label(arc.to));
                self.builder.stamp_arc(lane, &label);
            }
        }
        timeline_verb(&mut self.builder, lane, e, lock_name);
        lane
    }

    /// Close every lane at `horizon` and return the timeline, with the
    /// coverage tracker the fold walked (`None` when it was built without
    /// one).
    pub fn finish(self, horizon: u64) -> (Timeline, Option<CoverageTracker>) {
        (self.builder.finish(horizon), self.coverage)
    }
}

/// Apply the timeline verb of `e` on `lane`, at the event's clock value.
/// Data accesses, coverage sites and capture gaps have no verb.
fn timeline_verb<S: AsRef<str>>(
    b: &mut TimelineBuilder,
    lane: usize,
    e: &Event,
    lock_name: impl Fn(u64) -> S,
) {
    let at = e.seq;
    match &e.kind {
        EventKind::Transition { t, lock } => {
            let name = lock_name(*lock);
            let l = name.as_ref();
            match t {
                Transition::T1 => b.requests(lane, at, l),
                Transition::T2 => b.acquires(lane, at, l),
                Transition::T3 => b.waits(lane, at, l),
                Transition::T4 => b.releases(lane, at, l),
                Transition::T5 => b.woken(lane, at, l),
            }
        }
        EventKind::Notify { lock, all, waiters } => {
            b.notify(lane, at, lock_name(*lock).as_ref(), *all, *waiters);
        }
        EventKind::MethodStart { .. } => b.begins(lane, at),
        EventKind::MethodEnd { .. } => b.idles(lane, at),
        EventKind::Fault { message } => b.faults(lane, at, message),
        EventKind::Read { .. }
        | EventKind::Write { .. }
        | EventKind::Site { .. }
        | EventKind::CaptureGap { .. } => {}
    }
}
