//! Integration: the always-on online detectors over the capture path.
//!
//! Every corpus component's VM trace is replayed through the lock-free
//! capture path (`EventLog::log_as`) and consumed by
//! [`jcc_core::detect::OnlineMonitor`]. On a fully-sampled, no-drop stream
//! the verdicts must equal the golden table in `tests/online_verdicts.rs`.
//! Under degradation — injected capture gaps or probabilistic sampling —
//! the verdicts may shrink but must never invent a finding: every degraded
//! race variable, lock-order cycle, and lost monitor must appear in the
//! full-stream result.

use std::collections::BTreeSet;

use jcc_core::components::zoo::full_corpus;
use jcc_core::detect::OnlineMonitor;
use jcc_core::petri::{Event, EventKind};
use jcc_core::runtime::EventLog;
use jcc_core::testgen::corpus::{registered, space_for};
use jcc_core::vm::{compile, CallSpec, RunConfig, ThreadSpec, Vm};

/// Golden verdicts per stream name.
const GOLDEN: &[(&str, &[&str])] = include!("online_verdicts.rs");

fn golden(name: &str) -> Vec<String> {
    let (_, verdicts) = GOLDEN
        .iter()
        .find(|(stream, _)| *stream == name)
        .unwrap_or_else(|| panic!("{name}: no golden verdicts"));
    verdicts.iter().map(|v| v.to_string()).collect()
}

/// Replay a VM trace into a fresh capture log via `log_as`.
fn replay(log: &EventLog, trace: &[Event]) {
    for e in trace {
        log.log_as(e.thread, e.kind.clone());
    }
}

/// One VM run per corpus component: one thread per session template from
/// the canonical scenario registry, default (deterministic) scheduling.
fn corpus_traces() -> Vec<(String, Vec<Event>)> {
    full_corpus()
        .into_iter()
        .map(|(name, component)| {
            let compiled = compile(&component).unwrap();
            let space = space_for(name).expect("corpus component is registered");
            let mut vm = Vm::new(
                compiled,
                space
                    .templates
                    .iter()
                    .enumerate()
                    .map(|(i, session)| ThreadSpec {
                        name: format!("t{i}"),
                        calls: session.clone(),
                    })
                    .collect(),
            );
            let out = vm.run(&RunConfig::default());
            (name.to_string(), out.trace)
        })
        .collect()
}

/// The FF-T5 walkthrough stream from `examples/timeline_trace.rs`, as the
/// capture layer records the losing schedule: the opener's notification
/// fires while the wait set is empty, then the passer waits forever.
fn gate_walkthrough(log: &EventLog) {
    use jcc_core::petri::Transition as T;
    let gate = 9;
    let fire = |thread, t| log.log_as(thread, EventKind::Transition { t, lock: gate });
    // Opener: enter, write the flag, notify into an empty wait set, leave.
    fire(2, T::T2);
    log.log_as(
        2,
        EventKind::Write {
            var: "open".to_string(),
        },
    );
    log.log_as(
        2,
        EventKind::Notify {
            lock: gate,
            all: false,
            waiters: 0,
        },
    );
    fire(2, T::T4);
    // Passer: enter, wait (T3) — and nobody will ever wake it.
    fire(1, T::T2);
    fire(1, T::T3);
}

fn verdict_strings(online: &OnlineMonitor) -> Vec<String> {
    online.verdicts().iter().map(|f| f.to_string()).collect()
}

/// On a fully-sampled no-drop stream the online verdicts equal the golden
/// table — recorded from the post-hoc classifier — for every corpus
/// component.
#[test]
fn online_verdicts_byte_match_posthoc_on_all_corpus_streams() {
    let mut checked = 0;
    for (name, trace) in corpus_traces() {
        let log = EventLog::new();
        replay(&log, &trace);
        assert_eq!(log.drop_count(), 0, "{name}: replay must not drop");
        assert_eq!(log.sampled_out_count(), 0, "{name}: rate 1 keeps all");
        let events = log.snapshot();
        assert!(!events.is_empty(), "{name}: trace produced no events");
        let mut online = OnlineMonitor::default();
        online.observe_all(&events);
        assert!(!online.degraded(), "{name}: no gaps were injected");
        assert_eq!(verdict_strings(&online), golden(&name), "{name}");
        checked += 1;
    }
    assert_eq!(
        checked,
        registered().len(),
        "every registered corpus component must be exercised"
    );
    assert_eq!(GOLDEN.len(), checked + 1, "the table also pins the Gate");
}

#[test]
fn event_stays_within_72_bytes() {
    // The VM clones its trace for every explored successor; a wider event
    // would slow exploration.
    assert!(std::mem::size_of::<Event>() <= 72);
}

#[test]
fn gate_walkthrough_byte_matches_and_reports_the_lost_notification() {
    let log = EventLog::new();
    gate_walkthrough(&log);
    let events = log.snapshot();
    let mut online = OnlineMonitor::default();
    online.observe_all(&events);
    let verdicts = verdict_strings(&online);
    assert_eq!(verdicts, golden("Gate"));
    assert!(
        verdicts.iter().any(|v| v.starts_with("FF-T5:")),
        "the lost notification must be classified: {verdicts:?}"
    );
    // The alert fired mid-run, at the notify event itself — not at the end.
    let alert = online
        .alerts()
        .iter()
        .find(|a| a.finding.class.code() == "FF-T5")
        .expect("an FF-T5 alert was raised while the run was still going");
    assert!(matches!(
        events[alert.seq as usize].kind,
        EventKind::Notify { waiters: 0, .. }
    ));
}

/// Degraded stream: replace a window of one thread's events with a
/// `CaptureGap` record attributed to that thread — exactly what the ring
/// produces when a producer overruns its buffer.
fn inject_gap(events: &[Event], victim: u64) -> Vec<Event> {
    let victim_positions: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.thread == victim)
        .map(|(i, _)| i)
        .collect();
    assert!(
        victim_positions.len() >= 3,
        "victim thread must have enough events to window"
    );
    // Drop the middle third of the victim's events.
    let lo = victim_positions.len() / 3;
    let hi = (2 * victim_positions.len()) / 3;
    let window: BTreeSet<usize> = victim_positions[lo..hi].iter().copied().collect();
    let gap_at = victim_positions[lo];
    let mut out = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        if i == gap_at {
            out.push(Event {
                seq: e.seq,
                thread: victim,
                kind: EventKind::CaptureGap {
                    dropped: window.len() as u64,
                },
            });
        } else if !window.contains(&i) {
            out.push(e.clone());
        }
    }
    out
}

fn subset_of_strings(sub: &[String], sup: &[String], what: &str, name: &str) {
    let sup: BTreeSet<&String> = sup.iter().collect();
    for s in sub {
        assert!(sup.contains(s), "{name}: degraded {what} {s:?} not in full run");
    }
}

/// Degraded-mode soundness: with an injected capture gap the online
/// verdict *subjects* (race variables, cycle lock sets, lost monitors)
/// are a subset of the full-stream subjects — never a false positive.
#[test]
fn injected_drops_degrade_to_a_subset_never_a_false_positive() {
    for (name, trace) in corpus_traces() {
        let log = EventLog::new();
        replay(&log, &trace);
        let events = log.snapshot();
        let mut full = OnlineMonitor::default();
        full.observe_all(&events);

        // Gap out each thread in turn that has enough events to window.
        let threads: BTreeSet<u64> = events.iter().map(|e| e.thread).collect();
        for victim in threads {
            let n = events.iter().filter(|e| e.thread == victim).count();
            if n < 3 {
                continue;
            }
            let degraded_events = inject_gap(&events, victim);
            let mut degraded = OnlineMonitor::default();
            degraded.observe_all(&degraded_events);
            assert!(degraded.degraded(), "{name}: gap must mark degraded mode");
            assert!(degraded.dropped_events() > 0);

            subset_of_strings(
                &degraded.race_vars(),
                &full.race_vars(),
                "race var",
                &name,
            );
            let full_cycles = full.cycle_lock_sets();
            for cycle in degraded.cycle_lock_sets() {
                let locks: BTreeSet<u64> = cycle.iter().copied().collect();
                assert!(
                    full_cycles
                        .iter()
                        .any(|fc| locks.iter().all(|l| fc.contains(l))),
                    "{name}: degraded cycle {cycle:?} not within any full cycle {full_cycles:?}"
                );
            }
            let full_lost: BTreeSet<u64> = full.lost_monitors().into_iter().collect();
            for m in degraded.lost_monitors() {
                assert!(
                    full_lost.contains(&m),
                    "{name}: degraded lost monitor {m} not in full run"
                );
            }
        }
    }
}

/// Probabilistic sampling thins only data events, so a sampled stream's
/// verdict subjects are likewise a subset of the fully-sampled ones.
#[test]
fn sampled_streams_never_invent_findings() {
    for (name, trace) in corpus_traces() {
        let full_log = EventLog::new();
        replay(&full_log, &trace);
        let full_events = full_log.snapshot();
        let mut full = OnlineMonitor::default();
        full.observe_all(&full_events);

        for shift in [1u32, 3] {
            let log = EventLog::new();
            log.set_sampling(shift, 0x5eed_0000 + shift as u64);
            replay(&log, &trace);
            let events = log.snapshot();
            let mut sampled = OnlineMonitor::default();
            sampled.observe_all(&events);

            // Transitions and notifications are never sampled out, so the
            // held-lock structure is exact.
            let count = |evs: &[Event], pred: fn(&EventKind) -> bool| {
                evs.iter().filter(|e| pred(&e.kind)).count()
            };
            let is_sync = |k: &EventKind| {
                matches!(k, EventKind::Transition { .. } | EventKind::Notify { .. })
            };
            assert_eq!(
                count(&events, is_sync),
                count(&full_events, is_sync),
                "{name} shift={shift}: sync events must survive sampling"
            );

            subset_of_strings(
                &sampled.race_vars(),
                &full.race_vars(),
                "race var",
                &name,
            );
            let full_lost: BTreeSet<u64> = full.lost_monitors().into_iter().collect();
            assert!(
                sampled
                    .lost_monitors()
                    .iter()
                    .all(|m| full_lost.contains(m)),
                "{name} shift={shift}: sampling must not invent lost notifications"
            );
        }
    }
}

/// The capture path itself is deterministic for a replay: two identical
/// replays produce identical snapshots and identical verdicts.
#[test]
fn replay_capture_is_deterministic() {
    let (name, trace) = corpus_traces().remove(0);
    let runs: Vec<Vec<String>> = (0..2)
        .map(|_| {
            let log = EventLog::new();
            replay(&log, &trace);
            let events = log.snapshot();
            let mut online = OnlineMonitor::default();
            online.observe_all(&events);
            verdict_strings(&online)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "{name}: replay verdicts must be stable");
}

#[test]
fn scenario_spec_sanity() {
    // Mirrors the registry-completeness invariant the suite relies on.
    for (name, _) in full_corpus() {
        assert!(space_for(name).is_some(), "{name} missing from registry");
    }
    let space = space_for("ProducerConsumer").unwrap();
    assert!(space
        .templates
        .iter()
        .flatten()
        .any(|c: &CallSpec| c.method == "receive"));
}
