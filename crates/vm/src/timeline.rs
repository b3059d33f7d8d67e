//! Building causal schedule timelines from VM run traces.
//!
//! [`timeline_of_outcome`] folds a [`RunOutcome`]'s step-stamped event
//! trace through a [`TimelineFold`]: one lane per logical thread,
//! intervals keyed by the Figure-1 transitions each event fires (T1 →
//! requesting-lock, T2 → critical-section, T3 → waiting, T5 →
//! re-acquiring), causality edges for notify→wake and release→acquire,
//! and — when the component's CoFGs are supplied — each interval stamped
//! with the CoFG arc the thread traversed during it.
//!
//! The timeline is a pure post-hoc function of the recorded trace (the
//! clock is the VM's logical step counter, never wall time), so it
//! inherits the determinism of the trace: the exhaustive explorer's
//! witness for a component is byte-identical on every run, and so is its
//! rendered timeline. Building a timeline can never change an
//! exploration result — it only reads what the run already recorded.

use jcc_cofg::{Cofg, CoverageTracker, TimelineFold};
use jcc_obs::timeline::Timeline;

use crate::machine::RunOutcome;

/// Build the causal timeline of one explored schedule. Pass the
/// component's CoFGs to stamp intervals and notify edges with the arcs
/// they traverse; pass `None` to skip arc attribution.
pub fn timeline_of_outcome(outcome: &RunOutcome, cofgs: Option<&[Cofg]>) -> Timeline {
    let coverage = cofgs.map(|g| CoverageTracker::new(g.iter().cloned()));
    fold_outcome(outcome, coverage).0
}

/// The arc-stamped timeline of one schedule together with the CoFG
/// coverage (and per-arc traversal counts) its trace earned, from one
/// walk of the trace.
pub fn timeline_with_coverage(outcome: &RunOutcome, cofgs: &[Cofg]) -> (Timeline, CoverageTracker) {
    let (timeline, tracker) =
        fold_outcome(outcome, Some(CoverageTracker::new(cofgs.iter().cloned())));
    (timeline, tracker.expect("the fold keeps its tracker"))
}

fn fold_outcome(
    outcome: &RunOutcome,
    coverage: Option<CoverageTracker>,
) -> (Timeline, Option<CoverageTracker>) {
    let mut fold = TimelineFold::with_lanes("steps", &outcome.thread_names, coverage);
    let lock_name = |lock: u64| -> &str {
        outcome
            .lock_names
            .get(lock as usize)
            .map(String::as_str)
            .unwrap_or("?")
    };
    for e in &outcome.trace {
        fold.observe(e, lock_name);
    }
    fold.finish(outcome.steps as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::machine::{CallSpec, RunConfig, ThreadSpec, Vm};
    use crate::value::Value;
    use jcc_cofg::build_component_cofgs;
    use jcc_model::examples;
    use jcc_obs::timeline::{EdgeKind, IntervalKind};

    fn pc_outcome() -> (RunOutcome, Vec<Cofg>) {
        let c = examples::producer_consumer();
        let cofgs = build_component_cofgs(&c);
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
        (vm.run(&RunConfig::default()), cofgs)
    }

    #[test]
    fn round_robin_pc_schedule_has_wait_wake_and_handoff() {
        let (out, cofgs) = pc_outcome();
        let t = timeline_of_outcome(&out, Some(&cofgs));
        assert_eq!(t.lanes.len(), 2);
        assert_eq!(t.lanes[0].name, "consumer");
        // Round-robin: the consumer waits first, the producer's notifyAll
        // wakes it — a T5 edge must exist.
        let wake = t
            .edges
            .iter()
            .find(|e| e.kind == EdgeKind::NotifyWake)
            .expect("wake edge");
        assert_eq!(wake.to_lane, 0, "consumer is woken");
        assert_eq!(wake.transition, 5);
        let consumer_kinds: Vec<IntervalKind> =
            t.lanes[0].intervals.iter().map(|iv| iv.kind).collect();
        assert!(consumer_kinds.contains(&IntervalKind::Waiting), "{t:?}");
        assert!(consumer_kinds.contains(&IntervalKind::InCriticalSection));
        // Lanes are gap-free to the horizon.
        for lane in &t.lanes {
            assert_eq!(lane.intervals.last().unwrap().end, t.horizon);
        }
    }

    #[test]
    fn intervals_carry_cofg_arcs_when_supplied() {
        let (out, cofgs) = pc_outcome();
        let with = timeline_of_outcome(&out, Some(&cofgs));
        let stamped = with
            .lanes
            .iter()
            .flat_map(|l| &l.intervals)
            .filter(|iv| iv.arc.is_some())
            .count();
        assert!(stamped > 0, "{with:?}");
        let arc_text: Vec<&str> = with
            .lanes
            .iter()
            .flat_map(|l| &l.intervals)
            .filter_map(|iv| iv.arc.as_deref())
            .collect();
        assert!(
            arc_text.iter().any(|a| a.contains("receive:")),
            "{arc_text:?}"
        );
        let without = timeline_of_outcome(&out, None);
        assert!(without
            .lanes
            .iter()
            .flat_map(|l| &l.intervals)
            .all(|iv| iv.arc.is_none()));
    }

    #[test]
    fn timeline_is_deterministic_for_a_fixed_outcome() {
        let (out, cofgs) = pc_outcome();
        let a = timeline_of_outcome(&out, Some(&cofgs));
        let b = timeline_of_outcome(&out, Some(&cofgs));
        assert_eq!(a.render_ascii(), b.render_ascii());
        assert_eq!(a.to_chrome_string(), b.to_chrome_string());
    }

    #[test]
    fn lost_notification_is_annotated() {
        // Producer runs alone: its notifyAll finds an empty wait set.
        let c = examples::producer_consumer();
        let mut vm = Vm::new(
            compile(&c).unwrap(),
            vec![ThreadSpec {
                name: "producer".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            }],
        );
        let out = vm.run(&RunConfig::default());
        let t = timeline_of_outcome(&out, None);
        assert_eq!(t.notes.len(), 1, "{t:?}");
        assert!(t.notes[0].text.contains("no thread in place D"));
        assert!(t.render_ascii().contains("lost notification"));
    }
}
