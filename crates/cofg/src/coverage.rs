//! Arc-coverage tracking: folding a runtime stream of concurrency-statement
//! markers into CoFG arc coverage.
//!
//! Both the VM interpreter (`jcc-vm`) and the native runtime components emit
//! [`SiteId`] markers as threads pass concurrency statements. The tracker
//! keeps, per thread, the last concurrency node of its active method
//! invocation; each new marker covers the arc between the two.
//!
//! The tracker folds markers in one of two ways, over one arc walk:
//!
//! * **A stream** ([`CoverageTracker::record`], [`CoverageTracker::observe`]):
//!   each marker's arc is credited at once, against per-thread cursors
//!   that persist across calls.
//! * **A search path** ([`CoverageTracker::advance`],
//!   [`CoverageTracker::retreat`]): an explorer's DFS folds each step's
//!   events onto the current path and backs out of steps again. The path
//!   has its own cursors, on an undo log, and a step's arcs and strays are
//!   credited only when the search backs out of it, once per observed path
//!   end reached meanwhile — what replaying each observed path from fresh
//!   cursors would credit.

use std::collections::HashMap;

use jcc_model::ast::StmtPath;
use jcc_petri::event::{Event, EventKind};

use crate::graph::{Cofg, NodeId};

/// Where within a method a marker fired.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Marker {
    /// Method entry.
    Start,
    /// Method exit.
    End,
    /// A concurrency statement at this path. For an explicit `synchronized`
    /// block this is the *entry* side.
    Stmt(StmtPath),
    /// The exit side of the explicit `synchronized` block at this path.
    SyncExit(StmtPath),
}

impl Marker {
    fn mark(&self) -> Mark<'_> {
        match self {
            Marker::Start => Mark::Start,
            Marker::End => Mark::End,
            Marker::Stmt(path) => Mark::Stmt {
                path: &path.0,
                exit: false,
            },
            Marker::SyncExit(path) => Mark::Stmt {
                path: &path.0,
                exit: true,
            },
        }
    }
}

/// A runtime coverage marker: method plus position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SiteId {
    /// The method being executed.
    pub method: String,
    /// The position within it.
    pub marker: Marker,
}

impl SiteId {
    /// Marker for method entry.
    pub fn start(method: impl Into<String>) -> Self {
        SiteId {
            method: method.into(),
            marker: Marker::Start,
        }
    }

    /// Marker for method exit.
    pub fn end(method: impl Into<String>) -> Self {
        SiteId {
            method: method.into(),
            marker: Marker::End,
        }
    }

    /// Marker for a statement.
    pub fn stmt(method: impl Into<String>, path: StmtPath) -> Self {
        SiteId {
            method: method.into(),
            marker: Marker::Stmt(path),
        }
    }
}

/// A marker as the arc walk reads it, borrowed from a [`Marker`] or an
/// event.
#[derive(Clone, Copy)]
enum Mark<'a> {
    Start,
    End,
    Stmt { path: &'a [usize], exit: bool },
}

/// The method and marker an event carries, if it is a marker at all.
fn event_mark(event: &Event) -> Option<(&str, Mark<'_>)> {
    match &event.kind {
        EventKind::MethodStart { method } => Some((method, Mark::Start)),
        EventKind::MethodEnd { method } => Some((method, Mark::End)),
        EventKind::Site { method, path, exit } => Some((method, Mark::Stmt { path, exit: *exit })),
        _ => None,
    }
}

/// A thread's place in its arc walk: its method (an index into the
/// tracker's methods) and the last concurrency node it passed.
type Cursor = (usize, NodeId);

/// What one marker credits, besides moving its thread's cursor.
#[derive(Debug, Clone, Copy)]
enum Hit {
    Nothing,
    Arc { method: usize, arc: usize },
    Stray,
}

/// One method's CoFG and the coverage of its arcs.
#[derive(Debug, Clone)]
struct MethodArcs {
    cofg: Cofg,
    covered: Vec<bool>,
    /// Arc traversal counts, indexed like `covered`.
    hits: Vec<u64>,
}

/// The path fold's state along the current search path.
#[derive(Debug, Clone, Default)]
struct PathWalk {
    /// Each thread seen on the path, with its cursor.
    threads: Vec<(u64, Option<Cursor>)>,
    /// Cursor changes, undone on retreat: (slot in `threads`, cursor
    /// before).
    undo: Vec<(usize, Option<Cursor>)>,
    /// The hits of the steps on the path, credited on retreat.
    hits: Vec<Hit>,
    /// Per step on the path: the lengths of `undo` and `hits` before it.
    steps: Vec<(usize, usize)>,
}

impl PathWalk {
    /// `thread`'s slot in `threads`, added on first sight.
    fn slot(&mut self, thread: u64) -> usize {
        match self.threads.iter().position(|&(t, _)| t == thread) {
            Some(slot) => slot,
            None => {
                self.threads.push((thread, None));
                self.threads.len() - 1
            }
        }
    }
}

/// Tracks CoFG arc coverage over one component's methods.
#[derive(Debug, Clone)]
pub struct CoverageTracker {
    /// One entry per method, sorted by name.
    methods: Vec<MethodArcs>,
    /// Method name → index into `methods`.
    index: HashMap<String, usize>,
    /// The stream fold's cursor per thread (active invocation).
    last: HashMap<u64, Cursor>,
    path: PathWalk,
    /// Events that could not be attributed to an arc (unknown method,
    /// no active invocation, or no matching arc).
    pub strays: usize,
}

impl CoverageTracker {
    /// Build a tracker over the given per-method CoFGs.
    pub fn new(cofgs: impl IntoIterator<Item = Cofg>) -> Self {
        let mut by_name = HashMap::new();
        for g in cofgs {
            let arcs = g.arcs.len();
            by_name.insert(
                g.method.clone(),
                MethodArcs {
                    cofg: g,
                    covered: vec![false; arcs],
                    hits: vec![0; arcs],
                },
            );
        }
        let mut methods: Vec<MethodArcs> = by_name.into_values().collect();
        methods.sort_by(|a, b| a.cofg.method.cmp(&b.cofg.method));
        let index = methods
            .iter()
            .enumerate()
            .map(|(i, m)| (m.cofg.method.clone(), i))
            .collect();
        CoverageTracker {
            methods,
            index,
            last: HashMap::new(),
            path: PathWalk::default(),
            strays: 0,
        }
    }

    /// Record one marker from `thread`, returning the index (in the
    /// method's CoFG arc list) of the arc it covered, if any.
    pub fn record(&mut self, thread: u64, site: &SiteId) -> Option<usize> {
        self.record_mark(thread, &site.method, site.marker.mark())
    }

    /// Fold one event: method starts and ends and coverage sites become
    /// markers of the event's thread; every other kind is ignored. Returns
    /// the index of the arc the event covered, as [`CoverageTracker::record`].
    pub fn observe(&mut self, event: &Event) -> Option<usize> {
        let (method, mark) = event_mark(event)?;
        self.record_mark(event.thread, method, mark)
    }

    fn record_mark(&mut self, thread: u64, method: &str, mark: Mark<'_>) -> Option<usize> {
        let cursor = self.last.get(&thread).copied();
        let (next, hit) = self.walk(cursor, method, mark);
        match next {
            Some(cursor) => self.last.insert(thread, cursor),
            None => self.last.remove(&thread),
        };
        self.credit(hit, 1)
    }

    /// Fold one search step's events onto the current path: move the
    /// path's thread cursors and keep the step's arcs and strays pending
    /// until [`CoverageTracker::retreat`] backs out of it. The first step
    /// of a path starts from no active invocation on any thread.
    pub fn advance(&mut self, events: &[Event]) {
        self.path
            .steps
            .push((self.path.undo.len(), self.path.hits.len()));
        for e in events {
            let Some((method, mark)) = event_mark(e) else {
                continue;
            };
            let slot = self.path.slot(e.thread);
            let cursor = self.path.threads[slot].1;
            let (next, hit) = self.walk(cursor, method, mark);
            self.path.undo.push((slot, cursor));
            self.path.threads[slot].1 = next;
            if !matches!(hit, Hit::Nothing) {
                self.path.hits.push(hit);
            }
        }
    }

    /// Back out of the last step [`CoverageTracker::advance`] folded,
    /// crediting its arcs and strays `ends` times: once per observed path
    /// end reached while it was on the path. With `ends == 0` it leaves no
    /// trace.
    ///
    /// # Panics
    /// When no step is on the path.
    pub fn retreat(&mut self, ends: u64) {
        let (undo, hits) = self.path.steps.pop().expect("a step to retreat from");
        if ends > 0 {
            for i in hits..self.path.hits.len() {
                self.credit(self.path.hits[i], ends);
            }
        }
        let path = &mut self.path;
        path.hits.truncate(hits);
        for (slot, cursor) in path.undo.drain(undo..).rev() {
            path.threads[slot].1 = cursor;
        }
    }

    /// One marker's move in a thread's arc walk from `cursor`: the
    /// thread's next cursor and what the move credits.
    fn walk(&self, cursor: Option<Cursor>, method: &str, mark: Mark<'_>) -> (Option<Cursor>, Hit) {
        let Some(&m) = self.index.get(method) else {
            return (cursor, Hit::Stray);
        };
        let g = &self.methods[m].cofg;
        let to = match mark {
            Mark::Start => return (Some((m, g.start())), Hit::Nothing),
            Mark::End => g.end(),
            Mark::Stmt { path, exit } => match g.node_at(path, exit) {
                Some(node) => node,
                None => return (cursor, Hit::Stray),
            },
        };
        let hit = match cursor {
            Some((current, from)) if current == m => g
                .arc_between(from, to)
                .map_or(Hit::Stray, |arc| Hit::Arc { method: m, arc }),
            _ => Hit::Stray,
        };
        let next = match mark {
            Mark::End => None,
            _ => Some((m, to)),
        };
        (next, hit)
    }

    /// Credit `hit` `times` times; the covered arc's index, if any.
    fn credit(&mut self, hit: Hit, times: u64) -> Option<usize> {
        match hit {
            Hit::Nothing => None,
            Hit::Arc { method, arc } => {
                let m = &mut self.methods[method];
                m.covered[arc] = true;
                m.hits[arc] += times;
                Some(arc)
            }
            Hit::Stray => {
                self.strays += times as usize;
                None
            }
        }
    }

    fn method_arcs(&self, method: &str) -> Option<&MethodArcs> {
        self.index.get(method).map(|&i| &self.methods[i])
    }

    /// Total arcs across all methods.
    pub fn total_arcs(&self) -> usize {
        self.methods.iter().map(|m| m.covered.len()).sum()
    }

    /// Covered arcs across all methods.
    pub fn covered_arcs(&self) -> usize {
        self.methods
            .iter()
            .map(|m| m.covered.iter().filter(|&&b| b).count())
            .sum()
    }

    /// Coverage ratio in `[0, 1]`; 1.0 for a component with no arcs.
    pub fn ratio(&self) -> f64 {
        let total = self.total_arcs();
        if total == 0 {
            1.0
        } else {
            self.covered_arcs() as f64 / total as f64
        }
    }

    /// True when every arc of every method is covered.
    pub fn complete(&self) -> bool {
        self.covered_arcs() == self.total_arcs()
    }

    /// Human-readable list of uncovered arcs: `(method, arc description)`.
    pub fn uncovered(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for m in &self.methods {
            for (i, &c) in m.covered.iter().enumerate() {
                if !c {
                    out.push((m.cofg.method.clone(), m.cofg.describe_arc(i)));
                }
            }
        }
        out
    }

    /// Per-method `(covered, total)` pairs, sorted by method name.
    pub fn per_method(&self) -> Vec<(String, usize, usize)> {
        self.methods
            .iter()
            .map(|m| {
                let covered = m.covered.iter().filter(|&&b| b).count();
                (m.cofg.method.clone(), covered, m.covered.len())
            })
            .collect()
    }

    /// Per-arc traversal counts for `method`, indexed like the CoFG's arc
    /// list. `None` for an unknown method.
    pub fn arc_hits(&self, method: &str) -> Option<&[u64]> {
        self.method_arcs(method).map(|m| m.hits.as_slice())
    }

    /// Whether `method`'s arc `idx` has been covered.
    pub fn arc_covered(&self, method: &str, idx: usize) -> bool {
        self.method_arcs(method)
            .and_then(|m| m.covered.get(idx))
            .copied()
            .unwrap_or(false)
    }

    /// The CoFG this tracker holds for `method`, when known.
    pub fn cofg(&self, method: &str) -> Option<&Cofg> {
        self.method_arcs(method).map(|m| &m.cofg)
    }

    /// Method names this tracker covers, sorted.
    pub fn methods(&self) -> Vec<&str> {
        self.methods
            .iter()
            .map(|m| m.cofg.method.as_str())
            .collect()
    }

    /// Merge coverage from another tracker over the same CoFGs.
    pub fn merge(&mut self, other: &CoverageTracker) {
        for theirs in &other.methods {
            if let Some(&i) = self.index.get(&theirs.cofg.method) {
                let mine = &mut self.methods[i];
                for (a, b) in mine.covered.iter_mut().zip(&theirs.covered) {
                    *a |= b;
                }
                for (a, b) in mine.hits.iter_mut().zip(&theirs.hits) {
                    *a += b;
                }
            }
        }
        self.strays += other.strays;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_component_cofgs;
    use jcc_model::examples;

    fn tracker() -> CoverageTracker {
        let c = examples::producer_consumer();
        CoverageTracker::new(build_component_cofgs(&c))
    }

    #[test]
    fn empty_tracker_zero_coverage() {
        let t = tracker();
        assert_eq!(t.covered_arcs(), 0);
        assert_eq!(t.total_arcs(), 10); // 5 arcs × 2 methods
        assert_eq!(t.ratio(), 0.0);
        assert!(!t.complete());
        assert_eq!(t.uncovered().len(), 10);
    }

    #[test]
    fn straight_send_covers_two_arcs() {
        // A send with an empty buffer: start -> notifyAll -> end.
        let mut t = tracker();
        t.record(1, &SiteId::start("send"));
        t.record(1, &SiteId::stmt("send", StmtPath(vec![4])));
        t.record(1, &SiteId::end("send"));
        assert_eq!(t.covered_arcs(), 2);
        assert_eq!(t.strays, 0);
    }

    #[test]
    fn wait_loop_covers_wait_arcs() {
        // receive that waits twice then completes:
        // start -> wait, wait -> wait, wait -> notifyAll, notifyAll -> end.
        let mut t = tracker();
        let wait = StmtPath(vec![0, 0]);
        let notify = StmtPath(vec![3]);
        t.record(7, &SiteId::start("receive"));
        t.record(7, &SiteId::stmt("receive", wait.clone()));
        t.record(7, &SiteId::stmt("receive", wait.clone()));
        t.record(7, &SiteId::stmt("receive", notify));
        t.record(7, &SiteId::end("receive"));
        assert_eq!(t.covered_arcs(), 4);
        // Only start -> notifyAll remains for receive.
        let unc = t.uncovered();
        let receive_unc: Vec<_> = unc.iter().filter(|(m, _)| m == "receive").collect();
        assert_eq!(receive_unc.len(), 1);
        assert!(receive_unc[0].1.contains("start -> notifyAll"));
    }

    #[test]
    fn interleaved_threads_tracked_independently() {
        let mut t = tracker();
        t.record(1, &SiteId::start("send"));
        t.record(2, &SiteId::start("receive"));
        t.record(1, &SiteId::stmt("send", StmtPath(vec![4])));
        t.record(2, &SiteId::stmt("receive", StmtPath(vec![0, 0])));
        t.record(1, &SiteId::end("send"));
        assert_eq!(t.strays, 0);
        assert_eq!(t.covered_arcs(), 3);
    }

    #[test]
    fn stray_events_counted() {
        let mut t = tracker();
        // End without start.
        t.record(1, &SiteId::end("send"));
        assert_eq!(t.strays, 1);
        // Unknown method.
        t.record(1, &SiteId::start("ghost"));
        assert_eq!(t.strays, 2);
        // Unknown path.
        t.record(1, &SiteId::start("send"));
        t.record(1, &SiteId::stmt("send", StmtPath(vec![99])));
        assert_eq!(t.strays, 3);
    }

    #[test]
    fn arc_hits_count_traversals() {
        let mut t = tracker();
        // Two straight sends: start -> notifyAll -> end, twice.
        for _ in 0..2 {
            t.record(1, &SiteId::start("send"));
            t.record(1, &SiteId::stmt("send", StmtPath(vec![4])));
            t.record(1, &SiteId::end("send"));
        }
        let hits = t.arc_hits("send").unwrap();
        assert_eq!(hits.iter().sum::<u64>(), 4, "{hits:?}");
        assert_eq!(hits.iter().filter(|&&n| n == 2).count(), 2);
        for (i, &n) in hits.iter().enumerate() {
            assert_eq!(t.arc_covered("send", i), n > 0);
        }
        assert!(t.arc_hits("ghost").is_none());
        assert_eq!(t.methods(), vec!["receive", "send"]);
    }

    #[test]
    fn merge_unions_coverage() {
        let mut a = tracker();
        let mut b = tracker();
        a.record(1, &SiteId::start("send"));
        a.record(1, &SiteId::stmt("send", StmtPath(vec![4])));
        b.record(1, &SiteId::start("receive"));
        b.record(1, &SiteId::stmt("receive", StmtPath(vec![0, 0])));
        let a_only = a.covered_arcs();
        let b_only = b.covered_arcs();
        a.merge(&b);
        assert_eq!(a.covered_arcs(), a_only + b_only);
    }

    #[test]
    fn full_coverage_complete() {
        let mut t = tracker();
        let wait_r = StmtPath(vec![0, 0]);
        let notify_r = StmtPath(vec![3]);
        let wait_s = StmtPath(vec![0, 0]);
        let notify_s = StmtPath(vec![4]);
        // receive covering all five arcs needs two invocations.
        t.record(1, &SiteId::start("receive"));
        t.record(1, &SiteId::stmt("receive", wait_r.clone()));
        t.record(1, &SiteId::stmt("receive", wait_r.clone()));
        t.record(1, &SiteId::stmt("receive", notify_r.clone()));
        t.record(1, &SiteId::end("receive"));
        t.record(1, &SiteId::start("receive"));
        t.record(1, &SiteId::stmt("receive", notify_r));
        t.record(1, &SiteId::end("receive"));
        // send likewise.
        t.record(2, &SiteId::start("send"));
        t.record(2, &SiteId::stmt("send", wait_s.clone()));
        t.record(2, &SiteId::stmt("send", wait_s.clone()));
        t.record(2, &SiteId::stmt("send", notify_s.clone()));
        t.record(2, &SiteId::end("send"));
        t.record(2, &SiteId::start("send"));
        t.record(2, &SiteId::stmt("send", notify_s));
        t.record(2, &SiteId::end("send"));
        assert!(t.complete(), "uncovered: {:?}", t.uncovered());
        assert_eq!(t.ratio(), 1.0);
        assert_eq!(t.strays, 0);
    }

    #[test]
    fn per_method_breakdown() {
        let mut t = tracker();
        t.record(1, &SiteId::start("send"));
        t.record(1, &SiteId::stmt("send", StmtPath(vec![4])));
        t.record(1, &SiteId::end("send"));
        let pm = t.per_method();
        assert_eq!(pm.len(), 2);
        assert_eq!(pm[0], ("receive".to_string(), 0, 5));
        assert_eq!(pm[1], ("send".to_string(), 2, 5));
    }

    #[test]
    fn sync_exit_markers_cover_exit_nodes() {
        use crate::build::build_component_cofgs;
        let c = jcc_model::examples::lock_order_deadlock();
        let mut t = CoverageTracker::new(build_component_cofgs(&c));
        // forward: start -> enter(a) -> enter(b) -> exit(b) -> exit(a) -> end
        t.record(1, &SiteId::start("forward"));
        t.record(
            1,
            &SiteId {
                method: "forward".into(),
                marker: Marker::Stmt(StmtPath(vec![0])),
            },
        );
        t.record(
            1,
            &SiteId {
                method: "forward".into(),
                marker: Marker::Stmt(StmtPath(vec![0, 0])),
            },
        );
        t.record(
            1,
            &SiteId {
                method: "forward".into(),
                marker: Marker::SyncExit(StmtPath(vec![0, 0])),
            },
        );
        t.record(
            1,
            &SiteId {
                method: "forward".into(),
                marker: Marker::SyncExit(StmtPath(vec![0])),
            },
        );
        t.record(1, &SiteId::end("forward"));
        assert_eq!(t.strays, 0);
        let per = t.per_method();
        let fwd = per.iter().find(|(m, _, _)| m == "forward").unwrap();
        assert_eq!((fwd.1, fwd.2), (5, 5), "{:?}", t.uncovered());
    }

    #[test]
    fn sync_exit_marker_on_non_sync_path_is_stray() {
        let mut t = tracker();
        t.record(1, &SiteId::start("send"));
        t.record(
            1,
            &SiteId {
                method: "send".into(),
                marker: Marker::SyncExit(StmtPath(vec![4])),
            },
        );
        assert_eq!(t.strays, 1);
    }
}
