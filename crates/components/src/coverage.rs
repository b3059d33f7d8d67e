//! Coverage markers for the native components. A runtime log snapshot
//! folds into CoFG coverage through `CoverageTracker::observe`, exactly
//! like a VM trace.

use jcc_petri::event::EventKind;
use jcc_runtime::EventLog;

/// Helper used by the native components: log a statement marker.
pub(crate) fn mark(log: &EventLog, method: &str, path: &[usize]) {
    log.log(EventKind::Site {
        method: method.to_string(),
        path: path.to_vec(),
        exit: false,
    });
}

/// Helper: log a method start.
pub(crate) fn method_start(log: &EventLog, method: &str) {
    log.log(EventKind::MethodStart {
        method: method.to_string(),
    });
}

/// Helper: log a method end.
pub(crate) fn method_end(log: &EventLog, method: &str) {
    log.log(EventKind::MethodEnd {
        method: method.to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_cofg::build_component_cofgs;
    use jcc_cofg::coverage::CoverageTracker;

    #[test]
    fn markers_flow_into_tracker() {
        let c = jcc_model::examples::producer_consumer();
        let mut tracker = CoverageTracker::new(build_component_cofgs(&c));
        let log = EventLog::new();
        method_start(&log, "send");
        mark(&log, "send", &[4]); // notifyAll
        method_end(&log, "send");
        for e in log.snapshot() {
            tracker.observe(&e);
        }
        assert_eq!(tracker.covered_arcs(), 2);
        assert_eq!(tracker.strays, 0);
    }
}
