//! Arc-coverage tracking: folding a runtime stream of concurrency-statement
//! markers into CoFG arc coverage.
//!
//! Both the VM interpreter (`jcc-vm`) and the native runtime components emit
//! [`SiteId`] markers as threads pass concurrency statements. The tracker
//! keeps, per thread, the last concurrency node of its active method
//! invocation; each new marker covers the arc between the two.

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

/// Tracks CoFG arc coverage over one component's methods.
#[derive(Debug, Clone)]
pub struct CoverageTracker {
    cofgs: HashMap<String, Cofg>,
    covered: HashMap<String, Vec<bool>>,
    /// Per-method arc traversal counts (same indexing as `covered`).
    hits: HashMap<String, Vec<u64>>,
    /// Active invocation per thread: (method, last node).
    last: HashMap<u64, (String, NodeId)>,
    /// Events that could not be attributed to an arc (unknown method,
    /// no active invocation, or no matching arc).
    pub strays: usize,
}

impl CoverageTracker {
    /// Build a tracker over the given per-method CoFGs.
    pub fn new(cofgs: impl IntoIterator<Item = Cofg>) -> Self {
        let mut map = HashMap::new();
        let mut covered = HashMap::new();
        let mut hits = HashMap::new();
        for g in cofgs {
            covered.insert(g.method.clone(), vec![false; g.arcs.len()]);
            hits.insert(g.method.clone(), vec![0; g.arcs.len()]);
            map.insert(g.method.clone(), g);
        }
        CoverageTracker {
            cofgs: map,
            covered,
            hits,
            last: HashMap::new(),
            strays: 0,
        }
    }

    /// Record one marker from `thread`, returning the index (in the
    /// method's CoFG arc list) of the arc it covered, if any.
    pub fn record(&mut self, thread: u64, site: &SiteId) -> Option<usize> {
        let Some(cofg) = self.cofgs.get(&site.method) else {
            self.strays += 1;
            return None;
        };
        match &site.marker {
            Marker::Start => {
                self.last
                    .insert(thread, (site.method.clone(), cofg.start()));
                None
            }
            Marker::Stmt(path) | Marker::SyncExit(path) => {
                let want_exit = matches!(site.marker, Marker::SyncExit(_));
                let found = if want_exit {
                    cofg.sync_exit_by_path(path)
                } else {
                    cofg.node_by_path(path)
                };
                let Some(node) = found else {
                    self.strays += 1;
                    return None;
                };
                match self.last.get(&thread).cloned() {
                    Some((method, prev)) if method == site.method => {
                        let arc = self.cover(&method, prev, node);
                        self.last.insert(thread, (method, node));
                        arc
                    }
                    _ => {
                        self.strays += 1;
                        self.last.insert(thread, (site.method.clone(), node));
                        None
                    }
                }
            }
            Marker::End => match self.last.remove(&thread) {
                Some((method, prev)) if method == site.method => {
                    let end = self.cofgs[&method].end();
                    self.cover(&method, prev, end)
                }
                _ => {
                    self.strays += 1;
                    None
                }
            },
        }
    }

    fn cover(&mut self, method: &str, from: NodeId, to: NodeId) -> Option<usize> {
        let cofg = &self.cofgs[method];
        let idx = cofg.arc_between(from, to);
        match idx {
            Some(idx) => {
                self.covered.get_mut(method).unwrap()[idx] = true;
                self.hits.get_mut(method).unwrap()[idx] += 1;
            }
            None => self.strays += 1,
        }
        idx
    }

    /// Fold one event: method starts and ends and coverage sites become
    /// markers of the event's thread; every other kind is ignored. Returns
    /// the index of the arc the event covered, as [`CoverageTracker::record`].
    pub fn observe(&mut self, event: &Event) -> Option<usize> {
        let site = match &event.kind {
            EventKind::MethodStart { method } => SiteId::start(method.clone()),
            EventKind::MethodEnd { method } => SiteId::end(method.clone()),
            EventKind::Site { method, path, exit } => {
                let path = StmtPath(path.clone());
                SiteId {
                    method: method.clone(),
                    marker: if *exit {
                        Marker::SyncExit(path)
                    } else {
                        Marker::Stmt(path)
                    },
                }
            }
            _ => return None,
        };
        self.record(event.thread, &site)
    }

    /// Total arcs across all methods.
    pub fn total_arcs(&self) -> usize {
        self.covered.values().map(Vec::len).sum()
    }

    /// Covered arcs across all methods.
    pub fn covered_arcs(&self) -> usize {
        self.covered
            .values()
            .map(|v| v.iter().filter(|&&b| b).count())
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
        let mut methods: Vec<&String> = self.covered.keys().collect();
        methods.sort();
        for method in methods {
            let cofg = &self.cofgs[method];
            for (i, &c) in self.covered[method].iter().enumerate() {
                if !c {
                    out.push((method.clone(), cofg.describe_arc(i)));
                }
            }
        }
        out
    }

    /// Per-method `(covered, total)` pairs, sorted by method name.
    pub fn per_method(&self) -> Vec<(String, usize, usize)> {
        let mut out: Vec<(String, usize, usize)> = self
            .covered
            .iter()
            .map(|(m, v)| (m.clone(), v.iter().filter(|&&b| b).count(), v.len()))
            .collect();
        out.sort();
        out
    }

    /// Per-arc traversal counts for `method`, indexed like the CoFG's arc
    /// list. `None` for an unknown method.
    pub fn arc_hits(&self, method: &str) -> Option<&[u64]> {
        self.hits.get(method).map(Vec::as_slice)
    }

    /// Whether `method`'s arc `idx` has been covered.
    pub fn arc_covered(&self, method: &str, idx: usize) -> bool {
        self.covered
            .get(method)
            .and_then(|v| v.get(idx))
            .copied()
            .unwrap_or(false)
    }

    /// The CoFG this tracker holds for `method`, when known.
    pub fn cofg(&self, method: &str) -> Option<&Cofg> {
        self.cofgs.get(method)
    }

    /// Method names this tracker covers, sorted.
    pub fn methods(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.covered.keys().map(String::as_str).collect();
        out.sort_unstable();
        out
    }

    /// Merge coverage from another tracker over the same CoFGs.
    pub fn merge(&mut self, other: &CoverageTracker) {
        for (method, bits) in &other.covered {
            if let Some(mine) = self.covered.get_mut(method) {
                for (a, b) in mine.iter_mut().zip(bits) {
                    *a |= b;
                }
            }
        }
        for (method, counts) in &other.hits {
            if let Some(mine) = self.hits.get_mut(method) {
                for (a, b) in mine.iter_mut().zip(counts) {
                    *a += b;
                }
            }
        }
        self.strays += other.strays;
    }

    /// Reset per-thread state (e.g. between schedules) without losing
    /// accumulated coverage.
    pub fn reset_threads(&mut self) {
        self.last.clear();
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
