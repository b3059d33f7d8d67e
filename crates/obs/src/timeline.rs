//! Causal schedule timelines: one lane per thread, typed intervals, and
//! cross-lane causality edges.
//!
//! The paper's diagnostic story is *which transition fired (or failed to
//! fire) when*: Table 1 classifies failures by deviations of the Figure-1
//! transitions T1–T5. A [`Timeline`] is that story made visible for one
//! explored schedule — each thread is a lane of typed intervals (running,
//! requesting-lock, in-critical-section, waiting), and the cross-lane
//! [`CausalEdge`]s record who woke whom (notify → wake-up, T5) and whose
//! release enabled whose acquire (T4 → T2). Intervals and edges carry the
//! Table-1 transition that opened them and, when the producer knows it, the
//! CoFG arc being traversed.
//!
//! This crate is dependency-free, so the timeline model speaks in plain
//! strings and numbers; `jcc-cofg`'s `TimelineFold` drives the
//! [`TimelineBuilder`] from the shared event stream, for the VM's traces
//! and the runtime's event logs alike. The
//! clock is abstract (VM steps or event sequence numbers, never wall
//! time), so a timeline is a pure function of the schedule: the same
//! component and seed render byte-identically at any worker count.
//!
//! Two renderings:
//! * [`Timeline::render_ascii`] — the terminal view printed next to every
//!   counterexample,
//! * [`Timeline::to_chrome_json`] — the Chrome Trace Event Format document
//!   (loadable in Perfetto / `chrome://tracing`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;

/// What a thread is doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalKind {
    /// Between calls (or before the first / after the last).
    Idle,
    /// Executing outside any monitor.
    Running,
    /// Blocked requesting a lock (model place B; opened by T1, or by T5 for
    /// the re-acquisition after a wake-up).
    RequestingLock,
    /// Inside a monitor (holding at least one lock; opened by T2).
    InCriticalSection,
    /// Suspended in a wait set (model place D; opened by T3).
    Waiting,
    /// Dead after a runtime fault.
    Faulted,
}

impl IntervalKind {
    /// Stable machine name (used in the Chrome export).
    pub fn name(self) -> &'static str {
        match self {
            IntervalKind::Idle => "idle",
            IntervalKind::Running => "running",
            IntervalKind::RequestingLock => "requesting-lock",
            IntervalKind::InCriticalSection => "critical-section",
            IntervalKind::Waiting => "waiting",
            IntervalKind::Faulted => "faulted",
        }
    }

    /// One-character glyph for the ASCII chart.
    pub fn glyph(self) -> char {
        match self {
            IntervalKind::Idle => '.',
            IntervalKind::Running => 'R',
            IntervalKind::RequestingLock => 'q',
            IntervalKind::InCriticalSection => 'C',
            IntervalKind::Waiting => 'W',
            IntervalKind::Faulted => 'X',
        }
    }
}

/// One typed interval of a lane. `start..end` on the abstract clock
/// (half-open; zero-length intervals are kept — they still carry their
/// transition stamp).
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Clock value the interval opened at.
    pub start: u64,
    /// Clock value it closed at (exclusive; `>= start`).
    pub end: u64,
    /// What the thread was doing.
    pub kind: IntervalKind,
    /// The lock involved, for lock-related kinds.
    pub lock: Option<String>,
    /// The Table-1 transition (1–5 for T1–T5) that opened this interval.
    pub transition: Option<u8>,
    /// The CoFG arc traversed during this interval, when known.
    pub arc: Option<String>,
}

/// The kind of a cross-lane causality edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A notification woke a waiting thread (T5).
    NotifyWake,
    /// A lock release enabled a blocked thread's acquisition (T4 → T2).
    ReleaseAcquire,
}

impl EdgeKind {
    /// Stable machine name (used in the Chrome export).
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::NotifyWake => "notify-wake",
            EdgeKind::ReleaseAcquire => "release-acquire",
        }
    }
}

/// A cross-lane causality edge.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalEdge {
    /// What kind of causality.
    pub kind: EdgeKind,
    /// Source lane (the notifier / releaser).
    pub from_lane: usize,
    /// Clock value of the cause.
    pub from_time: u64,
    /// Destination lane (the woken / acquiring thread).
    pub to_lane: usize,
    /// Clock value of the effect.
    pub to_time: u64,
    /// The lock the edge travels through.
    pub lock: String,
    /// The Table-1 transition fired at the destination (5 for a wake-up,
    /// 2 for an enabled acquisition).
    pub transition: u8,
    /// The CoFG arc that fired the cause, when known (e.g. the arc ending
    /// at the notify node).
    pub arc: Option<String>,
}

/// A point annotation on a lane (lost notifications, faults).
#[derive(Debug, Clone, PartialEq)]
pub struct Note {
    /// The lane the note belongs to.
    pub lane: usize,
    /// Clock value.
    pub at: u64,
    /// Free text.
    pub text: String,
}

/// One thread's lane: a name and its intervals in clock order.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Display name of the thread.
    pub name: String,
    /// Intervals in increasing `start` order, gap-free from 0 to the
    /// timeline horizon.
    pub intervals: Vec<Interval>,
}

/// A causal schedule timeline. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// What the clock counts (`"steps"` for VM schedules, `"events"` for
    /// runtime event logs).
    pub clock: String,
    /// One lane per thread, in thread order.
    pub lanes: Vec<Lane>,
    /// Cross-lane causality edges, in discovery order.
    pub edges: Vec<CausalEdge>,
    /// Point annotations, in discovery order.
    pub notes: Vec<Note>,
    /// Exclusive end of the clock (every interval ends at or before it).
    pub horizon: u64,
}

/// Widest ASCII chart rendered before the tail is elided.
const ASCII_MAX_COLS: u64 = 240;

impl Timeline {
    /// Render the timeline as the terminal chart printed next to every
    /// counterexample: one row per lane (one column per clock tick), then
    /// the causality edges and notes.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let cols = self.horizon.min(ASCII_MAX_COLS);
        let _ = writeln!(
            out,
            "causal timeline (clock: {}, 1 column = 1 {}, horizon {})",
            self.clock,
            self.clock.trim_end_matches('s'),
            self.horizon
        );
        let _ = writeln!(
            out,
            "legend: . idle  R running  q requesting-lock  C critical-section  W waiting  X faulted"
        );
        let name_w = self
            .lanes
            .iter()
            .map(|l| l.name.chars().count())
            .max()
            .unwrap_or(0)
            .max(4);
        for lane in &self.lanes {
            let mut row = vec!['.'; cols as usize];
            for iv in &lane.intervals {
                let hi = iv.end.min(cols);
                for slot in row
                    .iter_mut()
                    .take(hi as usize)
                    .skip(iv.start.min(cols) as usize)
                {
                    *slot = iv.kind.glyph();
                }
            }
            let chart: String = row.into_iter().collect();
            let _ = writeln!(out, "  {:<name_w$} |{chart}|", lane.name);
        }
        if self.horizon > ASCII_MAX_COLS {
            let _ = writeln!(
                out,
                "  (chart truncated at {ASCII_MAX_COLS} of {} columns)",
                self.horizon
            );
        }
        if !self.edges.is_empty() {
            let _ = writeln!(out, "causality:");
            for e in &self.edges {
                let from = self.lane_name(e.from_lane);
                let to = self.lane_name(e.to_lane);
                let arc = match &e.arc {
                    Some(a) => format!("; arc {a}"),
                    None => String::new(),
                };
                let line = match e.kind {
                    EdgeKind::NotifyWake => format!(
                        "{from} ~notify~> {to} wakes on `{}` (T{}{arc})",
                        e.lock, e.transition
                    ),
                    EdgeKind::ReleaseAcquire => format!(
                        "{from} -release-> {to} acquires `{}` (T{}{arc})",
                        e.lock, e.transition
                    ),
                };
                let _ = writeln!(out, "  [{:>4}->{:>4}] {line}", e.from_time, e.to_time);
            }
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "notes:");
            for n in &self.notes {
                let _ = writeln!(
                    out,
                    "  [{:>4}] {}: {}",
                    n.at,
                    self.lane_name(n.lane),
                    n.text
                );
            }
        }
        out
    }

    fn lane_name(&self, i: usize) -> &str {
        self.lanes.get(i).map(|l| l.name.as_str()).unwrap_or("?")
    }

    /// Export as a Chrome Trace Event Format document (the JSON object
    /// form, with a `traceEvents` array), loadable in Perfetto and
    /// `chrome://tracing`. One abstract clock tick maps to one microsecond
    /// of trace time. Intervals become complete (`X`) slices, causality
    /// edges become flow event pairs (`s`/`f`), notes become thread-scoped
    /// instants (`i`).
    pub fn to_chrome_json(&self) -> Json {
        let str_pair = |k: &str, v: &str| (k.to_string(), Json::Str(v.to_string()));
        let num_pair = |k: &str, v: f64| (k.to_string(), Json::Num(v));
        let mut events: Vec<Json> = Vec::new();
        events.push(Json::obj([
            str_pair("ph", "M"),
            str_pair("name", "process_name"),
            num_pair("pid", 0.0),
            num_pair("ts", 0.0),
            (
                "args".to_string(),
                Json::obj([str_pair("name", "jcc schedule")]),
            ),
        ]));
        for (i, lane) in self.lanes.iter().enumerate() {
            events.push(Json::obj([
                str_pair("ph", "M"),
                str_pair("name", "thread_name"),
                num_pair("pid", 0.0),
                num_pair("tid", i as f64),
                num_pair("ts", 0.0),
                (
                    "args".to_string(),
                    Json::obj([str_pair("name", &lane.name)]),
                ),
            ]));
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            for iv in &lane.intervals {
                if iv.kind == IntervalKind::Idle {
                    continue;
                }
                let name = match &iv.lock {
                    Some(lock) => format!("{} `{lock}`", iv.kind.name()),
                    None => iv.kind.name().to_string(),
                };
                let mut args: BTreeMap<String, Json> = BTreeMap::new();
                args.insert("kind".into(), Json::Str(iv.kind.name().into()));
                if let Some(lock) = &iv.lock {
                    args.insert("lock".into(), Json::Str(lock.clone()));
                }
                if let Some(t) = iv.transition {
                    args.insert("transition".into(), Json::Str(format!("T{t}")));
                }
                if let Some(arc) = &iv.arc {
                    args.insert("cofg_arc".into(), Json::Str(arc.clone()));
                }
                events.push(Json::obj([
                    str_pair("ph", "X"),
                    str_pair("cat", "schedule"),
                    (
                        "name".to_string(),
                        Json::Str(name),
                    ),
                    num_pair("pid", 0.0),
                    num_pair("tid", i as f64),
                    num_pair("ts", iv.start as f64),
                    num_pair("dur", (iv.end - iv.start) as f64),
                    ("args".to_string(), Json::Obj(args)),
                ]));
            }
        }
        for (id, e) in self.edges.iter().enumerate() {
            let mut args: BTreeMap<String, Json> = BTreeMap::new();
            args.insert("lock".into(), Json::Str(e.lock.clone()));
            args.insert("transition".into(), Json::Str(format!("T{}", e.transition)));
            if let Some(arc) = &e.arc {
                args.insert("cofg_arc".into(), Json::Str(arc.clone()));
            }
            for (ph, lane, ts) in [("s", e.from_lane, e.from_time), ("f", e.to_lane, e.to_time)] {
                let mut fields = vec![
                    str_pair("ph", ph),
                    str_pair("cat", "causality"),
                    str_pair("name", e.kind.name()),
                    num_pair("id", id as f64),
                    num_pair("pid", 0.0),
                    num_pair("tid", lane as f64),
                    num_pair("ts", ts as f64),
                    ("args".to_string(), Json::Obj(args.clone())),
                ];
                if ph == "f" {
                    fields.push(str_pair("bp", "e"));
                }
                events.push(Json::obj(fields));
            }
        }
        for n in &self.notes {
            events.push(Json::obj([
                str_pair("ph", "i"),
                str_pair("s", "t"),
                str_pair("cat", "note"),
                str_pair("name", &n.text),
                num_pair("pid", 0.0),
                num_pair("tid", n.lane as f64),
                num_pair("ts", n.at as f64),
            ]));
        }
        Json::obj([
            ("traceEvents".to_string(), Json::Arr(events)),
            (
                "displayTimeUnit".to_string(),
                Json::Str("ms".to_string()),
            ),
            (
                "otherData".to_string(),
                Json::obj([
                    ("clock".to_string(), Json::Str(self.clock.clone())),
                    ("horizon".to_string(), Json::Num(self.horizon as f64)),
                ]),
            ),
        ])
    }

    /// [`Timeline::to_chrome_json`] as compact JSON text (one trailing
    /// newline) — the Chrome-trace artifact file format.
    pub fn to_chrome_string(&self) -> String {
        let mut s = self.to_chrome_json().to_string_compact();
        s.push('\n');
        s
    }
}

#[derive(Debug)]
struct LaneState {
    name: String,
    intervals: Vec<Interval>,
    open: Interval,
    /// Locks currently held (display names).
    holds: Vec<String>,
    /// The most recently completed CoFG arc, for stamping edges.
    last_arc: Option<String>,
}

/// Builds a [`Timeline`] from a stream of monitor events in clock order.
///
/// The builder owns the cross-lane bookkeeping — who last released each
/// lock, who last notified on it — so its one driver (`jcc-cofg`'s
/// `TimelineFold`) only translates events into verbs:
///
/// ```
/// use jcc_obs::timeline::TimelineBuilder;
///
/// let mut b = TimelineBuilder::new("steps");
/// let p = b.lane("producer");
/// let c = b.lane("consumer");
/// b.begins(c, 0);
/// b.requests(c, 1, "this");
/// b.acquires(c, 2, "this");
/// b.waits(c, 3, "this");
/// b.begins(p, 4);
/// b.requests(p, 5, "this");
/// b.acquires(p, 6, "this");
/// b.notify(p, 7, "this", true, 1);
/// b.woken(c, 7, "this");
/// b.releases(p, 8, "this");
/// b.acquires(c, 9, "this");
/// let timeline = b.finish(12);
/// assert_eq!(timeline.lanes.len(), 2);
/// assert_eq!(timeline.edges.len(), 2, "one wake edge, one handoff edge");
/// ```
#[derive(Debug)]
pub struct TimelineBuilder {
    clock: String,
    lanes: Vec<LaneState>,
    edges: Vec<CausalEdge>,
    notes: Vec<Note>,
    /// Per lock: (lane, time) of the most recent release (T4 or the
    /// implicit release of T3).
    last_release: BTreeMap<String, (usize, u64)>,
    /// Per lock: (lane, time, arc) of the most recent notification.
    last_notify: BTreeMap<String, (usize, u64, Option<String>)>,
}

impl TimelineBuilder {
    /// A fresh builder; `clock` names what the timeline counts.
    pub fn new(clock: &str) -> Self {
        TimelineBuilder {
            clock: clock.to_string(),
            lanes: Vec::new(),
            edges: Vec::new(),
            notes: Vec::new(),
            last_release: BTreeMap::new(),
            last_notify: BTreeMap::new(),
        }
    }

    /// Add a lane, returning its index. Every lane starts idle at clock 0.
    pub fn lane(&mut self, name: &str) -> usize {
        self.lanes.push(LaneState {
            name: name.to_string(),
            intervals: Vec::new(),
            open: Interval {
                start: 0,
                end: 0,
                kind: IntervalKind::Idle,
                lock: None,
                transition: None,
                arc: None,
            },
            holds: Vec::new(),
            last_arc: None,
        });
        self.lanes.len() - 1
    }

    fn set_kind(
        &mut self,
        lane: usize,
        at: u64,
        kind: IntervalKind,
        lock: Option<&str>,
        transition: Option<u8>,
    ) {
        let l = &mut self.lanes[lane];
        if l.open.kind == kind && l.open.lock.as_deref() == lock {
            return;
        }
        let mut closed = l.open.clone();
        closed.end = at.max(closed.start);
        l.intervals.push(closed);
        l.open = Interval {
            start: at,
            end: at,
            kind,
            lock: lock.map(str::to_string),
            transition,
            arc: None,
        };
    }

    /// The lane began executing a call (method entry).
    pub fn begins(&mut self, lane: usize, at: u64) {
        self.set_kind(lane, at, IntervalKind::Running, None, None);
    }

    /// The lane finished its call and is idle between calls.
    pub fn idles(&mut self, lane: usize, at: u64) {
        self.set_kind(lane, at, IntervalKind::Idle, None, None);
    }

    /// T1: the lane requested `lock` (entered model place B).
    pub fn requests(&mut self, lane: usize, at: u64, lock: &str) {
        self.set_kind(lane, at, IntervalKind::RequestingLock, Some(lock), Some(1));
    }

    /// T2: the lane acquired `lock`. When another lane's release let this
    /// request through, a [`EdgeKind::ReleaseAcquire`] edge is recorded.
    pub fn acquires(&mut self, lane: usize, at: u64, lock: &str) {
        if let Some(&(from_lane, from_time)) = self.last_release.get(lock) {
            let waiting_since = self.lanes[lane].open.start;
            if from_lane != lane
                && self.lanes[lane].open.kind == IntervalKind::RequestingLock
                && from_time >= waiting_since
            {
                self.edges.push(CausalEdge {
                    kind: EdgeKind::ReleaseAcquire,
                    from_lane,
                    from_time,
                    to_lane: lane,
                    to_time: at,
                    lock: lock.to_string(),
                    transition: 2,
                    arc: None,
                });
            }
        }
        if !self.lanes[lane].holds.iter().any(|l| l == lock) {
            self.lanes[lane].holds.push(lock.to_string());
        }
        self.set_kind(
            lane,
            at,
            IntervalKind::InCriticalSection,
            Some(lock),
            Some(2),
        );
    }

    /// T3: the lane suspended into `lock`'s wait set (model place D),
    /// releasing the lock.
    pub fn waits(&mut self, lane: usize, at: u64, lock: &str) {
        self.lanes[lane].holds.retain(|l| l != lock);
        self.last_release.insert(lock.to_string(), (lane, at));
        self.set_kind(lane, at, IntervalKind::Waiting, Some(lock), Some(3));
    }

    /// T4: the lane released `lock`.
    pub fn releases(&mut self, lane: usize, at: u64, lock: &str) {
        self.lanes[lane].holds.retain(|l| l != lock);
        self.last_release.insert(lock.to_string(), (lane, at));
        if self.lanes[lane].holds.is_empty() {
            self.set_kind(lane, at, IntervalKind::Running, None, Some(4));
        } else {
            let inner = self.lanes[lane].holds.last().cloned();
            self.set_kind(
                lane,
                at,
                IntervalKind::InCriticalSection,
                inner.as_deref(),
                Some(4),
            );
        }
    }

    /// T5: the lane was woken from `lock`'s wait set and is re-acquiring
    /// (back in place B). Records the [`EdgeKind::NotifyWake`] edge from
    /// the notifier.
    pub fn woken(&mut self, lane: usize, at: u64, lock: &str) {
        if let Some((from_lane, from_time, arc)) = self.last_notify.get(lock).cloned() {
            if from_lane != lane {
                self.edges.push(CausalEdge {
                    kind: EdgeKind::NotifyWake,
                    from_lane,
                    from_time,
                    to_lane: lane,
                    to_time: at,
                    lock: lock.to_string(),
                    transition: 5,
                    arc,
                });
            }
        }
        self.set_kind(lane, at, IntervalKind::RequestingLock, Some(lock), Some(5));
    }

    /// The lane issued a notification on `lock` (`all` = `notifyAll`) with
    /// `waiters` threads in place D. A zero-waiter notification is the lost
    /// notification shape and earns a note.
    pub fn notify(&mut self, lane: usize, at: u64, lock: &str, all: bool, waiters: usize) {
        let arc = self.lanes[lane].last_arc.clone();
        self.last_notify.insert(lock.to_string(), (lane, at, arc));
        if waiters == 0 {
            let what = if all { "notifyAll" } else { "notify" };
            self.notes.push(Note {
                lane,
                at,
                text: format!(
                    "{what} on `{lock}` fired with no thread in place D (lost notification)"
                ),
            });
        }
    }

    /// The lane faulted; it stays dead to the horizon.
    pub fn faults(&mut self, lane: usize, at: u64, message: &str) {
        self.notes.push(Note {
            lane,
            at,
            text: format!("FAULT: {message}"),
        });
        self.set_kind(lane, at, IntervalKind::Faulted, None, None);
    }

    /// Stamp the CoFG arc the lane just finished traversing onto its open
    /// interval (and remember it for the next notification edge).
    pub fn stamp_arc(&mut self, lane: usize, arc: &str) {
        self.lanes[lane].open.arc = Some(arc.to_string());
        self.lanes[lane].last_arc = Some(arc.to_string());
    }

    /// Close every lane at `horizon` and return the finished timeline.
    pub fn finish(self, horizon: u64) -> Timeline {
        let TimelineBuilder {
            clock,
            lanes,
            edges,
            notes,
            ..
        } = self;
        let lanes = lanes
            .into_iter()
            .map(|mut l| {
                let mut open = l.open;
                open.end = horizon.max(open.start);
                l.intervals.push(open);
                Lane {
                    name: l.name,
                    intervals: l.intervals,
                }
            })
            .collect();
        Timeline {
            clock,
            lanes,
            edges,
            notes,
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handoff_timeline() -> Timeline {
        let mut b = TimelineBuilder::new("steps");
        let p = b.lane("producer");
        let c = b.lane("consumer");
        b.begins(c, 0);
        b.requests(c, 1, "this");
        b.acquires(c, 2, "this");
        b.waits(c, 3, "this");
        b.begins(p, 4);
        b.requests(p, 5, "this");
        b.acquires(p, 6, "this");
        b.stamp_arc(p, "send: start -> notifyAll");
        b.notify(p, 7, "this", true, 1);
        b.woken(c, 7, "this");
        b.releases(p, 8, "this");
        b.idles(p, 9);
        b.acquires(c, 9, "this");
        b.releases(c, 10, "this");
        b.idles(c, 11);
        b.finish(12)
    }

    #[test]
    fn builder_produces_gap_free_lanes() {
        let t = handoff_timeline();
        assert_eq!(t.lanes.len(), 2);
        for lane in &t.lanes {
            let mut clock = 0;
            for iv in &lane.intervals {
                assert_eq!(iv.start, clock, "{}: gap before {iv:?}", lane.name);
                assert!(iv.end >= iv.start);
                clock = iv.end;
            }
            assert_eq!(clock, t.horizon, "{}: lane must reach horizon", lane.name);
        }
    }

    #[test]
    fn causality_edges_recorded() {
        let t = handoff_timeline();
        assert_eq!(t.edges.len(), 2);
        let wake = &t.edges[0];
        assert_eq!(wake.kind, EdgeKind::NotifyWake);
        assert_eq!((wake.from_lane, wake.to_lane), (0, 1));
        assert_eq!(wake.transition, 5);
        assert_eq!(wake.arc.as_deref(), Some("send: start -> notifyAll"));
        let handoff = &t.edges[1];
        assert_eq!(handoff.kind, EdgeKind::ReleaseAcquire);
        assert_eq!((handoff.from_time, handoff.to_time), (8, 9));
    }

    #[test]
    fn lost_notification_earns_note() {
        let mut b = TimelineBuilder::new("steps");
        let p = b.lane("opener");
        b.begins(p, 0);
        b.acquires(p, 1, "this");
        b.notify(p, 2, "this", false, 0);
        let t = b.finish(3);
        assert_eq!(t.notes.len(), 1);
        assert!(t.notes[0].text.contains("no thread in place D"), "{t:?}");
    }

    #[test]
    fn ascii_chart_shows_lanes_and_edges() {
        let text = handoff_timeline().render_ascii();
        assert!(text.contains("causal timeline"), "{text}");
        assert!(text.contains("producer"), "{text}");
        assert!(text.contains("consumer"), "{text}");
        assert!(text.contains("~notify~>"), "{text}");
        assert!(text.contains("-release->"), "{text}");
        // The consumer waits (W) before its wake-up and re-acquisition.
        let consumer_row = text
            .lines()
            .find(|l| l.trim_start().starts_with("consumer"))
            .unwrap();
        assert!(consumer_row.contains('W'), "{consumer_row}");
        assert!(consumer_row.contains('q'), "{consumer_row}");
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let t = handoff_timeline();
        let text = t.to_chrome_string();
        let parsed = Json::parse(&text).expect("chrome export parses");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // Process + 2 thread metadata, slices, 2 flow pairs, no notes.
        assert!(events.len() > 7, "{}", events.len());
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"M"));
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"s"));
        assert!(phases.contains(&"f"));
        // Slices carry transition stamps.
        let stamped = events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("transition"))
                .and_then(Json::as_str)
                == Some("T2")
        });
        assert!(stamped, "no T2-stamped slice");
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = handoff_timeline();
        let b = handoff_timeline();
        assert_eq!(a.render_ascii(), b.render_ascii());
        assert_eq!(a.to_chrome_string(), b.to_chrome_string());
    }
}
