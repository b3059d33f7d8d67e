//! VM traces — [`jcc_petri::event::Event`] streams — and their conversion
//! to CoFG coverage markers.

use jcc_cofg::coverage::CoverageTracker;
use jcc_petri::event::{Event, EventKind};
use jcc_petri::Transition;

/// Fold a trace into a CoFG coverage tracker. Thread indices become
/// tracker thread ids directly.
pub fn apply_trace(trace: &[Event], tracker: &mut CoverageTracker) {
    for event in trace {
        tracker.observe(event);
    }
}

/// Render a trace as a human-readable interleaving story, one line per
/// event, with thread names substituted. The `locks` slice supplies lock
/// display names (index 0 is `this`).
pub fn render_trace(trace: &[Event], thread_names: &[String], locks: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let name = |i: u64| {
        thread_names
            .get(i as usize)
            .map(String::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let lock_name = |i: u64| {
        locks
            .get(i as usize)
            .map(String::as_str)
            .unwrap_or("?")
            .to_string()
    };
    for e in trace {
        let who = name(e.thread);
        let line = match &e.kind {
            EventKind::MethodStart { method } => format!("{who} calls {method}()"),
            EventKind::MethodEnd { method } => format!("{who} returns from {method}()"),
            EventKind::Transition { t, lock } => {
                let l = lock_name(*lock);
                match t {
                    Transition::T1 => format!("{who} requests lock `{l}` (T1)"),
                    Transition::T2 => format!("{who} acquires lock `{l}` (T2)"),
                    Transition::T3 => format!("{who} waits on `{l}`, releasing it (T3)"),
                    Transition::T4 => format!("{who} releases lock `{l}` (T4)"),
                    Transition::T5 => format!("{who} is woken on `{l}` (T5)"),
                }
            }
            EventKind::Notify { lock, all, waiters } => format!(
                "{who} calls {} on `{}` ({} waiter(s) present)",
                if *all { "notifyAll" } else { "notify" },
                lock_name(*lock),
                waiters
            ),
            // Coverage sites are bookkeeping, not narrative.
            EventKind::Site { .. } => continue,
            EventKind::Read { var } => format!("{who} reads `{var}`"),
            EventKind::Write { var } => format!("{who} writes `{var}`"),
            EventKind::Fault { message } => format!("{who} FAULTS: {message}"),
            EventKind::CaptureGap { dropped } => format!("{who} lost {dropped} event(s)"),
        };
        let _ = writeln!(out, "  [{:>4}] {line}", e.seq);
    }
    out
}

/// Count occurrences of each Figure-1 transition in a trace, indexed by
/// [`Transition::index`].
pub fn transition_counts(trace: &[Event]) -> [usize; 5] {
    let mut counts = [0usize; 5];
    for event in trace {
        if let EventKind::Transition { t, .. } = event.kind {
            counts[t.index()] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::machine::{CallSpec, RunConfig, ThreadSpec, Vm};
    use crate::value::Value;
    use jcc_cofg::build_component_cofgs;
    use jcc_model::examples;

    #[test]
    fn trace_drives_coverage() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "c".into(),
                    calls: vec![CallSpec::new("receive", vec![])],
                },
                ThreadSpec {
                    name: "p".into(),
                    calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
                },
            ],
        );
        let out = vm.run(&RunConfig::default());
        let mut tracker = CoverageTracker::new(build_component_cofgs(&c));
        apply_trace(&out.trace, &mut tracker);
        assert_eq!(tracker.strays, 0);
        // The consumer either waited first (covering start->wait) or not;
        // in round-robin it starts first and waits.
        assert!(tracker.covered_arcs() >= 3);
    }

    #[test]
    fn transition_counts_tally() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let counts = transition_counts(&out.trace);
        // T1, T2, T4 once each; no wait or wake.
        assert_eq!(counts, [1, 1, 0, 1, 0]);
    }

    #[test]
    fn trace_records_acquires_and_field_writes() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            }],
        );
        let out = vm.run(&RunConfig::default());
        // The first lock event is the acquire of `this` (lock 0).
        let first_lock = out.trace.iter().find_map(|e| e.kind.acquired());
        assert_eq!(first_lock, Some(0));
        let writes: Vec<&str> = out
            .trace
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Write { var } => Some(var.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(writes, ["contents", "totalLength", "curPos"]);
    }

    #[test]
    fn sync_block_sites_cover_enter_and_exit() {
        let c = examples::lock_order_deadlock();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "t".into(),
                calls: vec![CallSpec::new("forward", vec![])],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let mut tracker = CoverageTracker::new(build_component_cofgs(&c));
        apply_trace(&out.trace, &mut tracker);
        assert_eq!(tracker.strays, 0);
        // forward's CoFG has 5 arcs, all covered by one uncontended run.
        let per = tracker.per_method();
        let fwd = per.iter().find(|(m, _, _)| m == "forward").unwrap();
        assert_eq!((fwd.1, fwd.2), (5, 5));
    }

    #[test]
    fn render_trace_tells_the_story() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "consumer".into(),
                    calls: vec![CallSpec::new("receive", vec![])],
                },
                ThreadSpec {
                    name: "producer".into(),
                    calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
                },
            ],
        );
        let out = vm.run(&RunConfig::default());
        let text = render_trace(
            &out.trace,
            &["consumer".to_string(), "producer".to_string()],
            &["this".to_string()],
        );
        assert!(text.contains("consumer calls receive()"), "{text}");
        assert!(text.contains("consumer waits on `this`, releasing it (T3)"));
        assert!(text.contains("producer calls notifyAll on `this` (1 waiter(s) present)"));
        assert!(text.contains("consumer is woken on `this` (T5)"));
        assert!(text.contains("producer returns from send()"));
        // Coverage sites are omitted from the narrative.
        assert!(!text.contains("Site"));
    }
}
