//! Witness replay: an exploration whose observer reads no events
//! (`PathObserver::READS_EVENTS` false, as behind `explore(.., None)`)
//! builds none, and rebuilds each deadlock, fault and cycle witness by
//! replaying its path on a copy of the initial machine. It must report
//! exactly what a recording exploration reports: the same tally, the same
//! reduction counts and byte-identical witnesses (verdict, steps, trace
//! with its sequence numbers, results and names).
//!
//! The event-free search also settles the joins it can predict (a memoized
//! lock-free step into a stored state off the path) without stepping,
//! where the recording one steps every transition. So the same comparison
//! pins stepless joins too, and `enumerate_signatures` must reach the
//! signature sets of the same fold on a stepping search.
//!
//! Inputs: every registered component's scenario space (one thread per
//! session template), a capped mutant slice and six generated monitors,
//! each under the plain, ample, symmetric and fully reduced configs. The
//! sweeps over every corpus mutant run behind `--ignored`.

use std::collections::BTreeSet;

use jcc_core::components::gen::{call_plan, generate, GenConfig};
use jcc_core::components::zoo::full_corpus;
use jcc_core::model::ast::Component;
use jcc_core::model::mutate::all_mutants;
use jcc_core::model::parse_component;
use jcc_core::petri::event::Event;
use jcc_core::testgen::corpus::space_for;
use jcc_core::testgen::signature::{enumerate_signatures, EndState, EnumLimits, Signature};
use jcc_core::vm::{
    compile, explore, explore_observed, CallSpec, ExploreConfig, ExploreResult, PathEnd,
    PathObserver, RunConfig, RunOutcome, ThreadSpec, Verdict, Vm,
};

/// A recording observer: it reads every step's events (and counts them).
#[derive(Default)]
struct CountEvents(usize);

impl PathObserver for CountEvents {
    fn step(&mut self, events: &[Event]) {
        self.0 += events.len();
    }
}

/// Everything an exploration reports, witnesses included.
fn census(r: &ExploreResult) -> String {
    format!(
        "{:?} {} {} {:?} {:?} {:?}",
        r.tally(),
        r.ample_pruned,
        r.full_expansions,
        r.deadlock_witness,
        r.fault_witness,
        r.cycle_witness
    )
}

/// Plain, ample, symmetric, and ample + symmetric.
fn configs() -> [ExploreConfig; 4] {
    [(false, false), (true, false), (false, true), (true, true)].map(|(ample, symmetry)| {
        ExploreConfig {
            ample,
            symmetry,
            ..ExploreConfig::default()
        }
    })
}

/// Explore `threads` on `component` event-free and recording under every
/// config; the reports must match. The recording search steps every
/// transition, and the event-free one settles some joins without a step.
/// Returns the witnesses compared and the stepless joins.
fn replay_matches_recording(
    label: &str,
    component: &Component,
    threads: &[ThreadSpec],
) -> (usize, usize) {
    let Ok(compiled) = compile(component) else {
        return (0, 0);
    };
    let (mut witnesses, mut stepless) = (0, 0);
    for config in configs() {
        let make = || Vm::new(compiled.clone(), threads.to_vec());
        let free = explore(make(), &config, None);
        let mut counting = CountEvents::default();
        let recorded = explore_observed(make(), &config, &mut counting);
        assert_eq!(census(&free), census(&recorded), "{label} {config:?}");
        assert!(counting.0 > 0, "{label}: the recording search saw no events");
        assert_eq!(free.memo_hits, recorded.memo_hits, "{label} {config:?}");
        assert_eq!(recorded.stepless_joins, 0, "{label} {config:?}");
        let all = [&free.deadlock_witness, &free.fault_witness, &free.cycle_witness];
        witnesses += all.iter().filter(|w| w.is_some()).count();
        stepless += free.stepless_joins;
    }
    (witnesses, stepless)
}

/// The signature fold of `enumerate_signatures`, on a search that reads
/// events and so steps every transition.
#[derive(Default)]
struct SteppingSignatures(BTreeSet<Signature>);

impl PathObserver for SteppingSignatures {
    fn path_end(&mut self, vm: &Vm, end: PathEnd<'_>) {
        let end = match end {
            PathEnd::Terminal(Verdict::Completed) => EndState::Completed,
            PathEnd::Terminal(Verdict::Deadlock { .. }) => EndState::Deadlock,
            PathEnd::Terminal(Verdict::Faulted { .. }) => EndState::Faulted,
            PathEnd::Terminal(Verdict::StepLimit) | PathEnd::Cycle => EndState::NoProgress,
        };
        let results = vm
            .results()
            .iter()
            .map(|calls| {
                calls
                    .iter()
                    .map(|c| (!c.suspended(), c.returned.clone()))
                    .collect()
            })
            .collect();
        self.0.insert(Signature { end, results });
    }
}

/// `enumerate_signatures` on `threads` must reach the signature set, and
/// the truncation, of the same fold on a stepping search.
fn signatures_match_stepping(label: &str, component: &Component, threads: &[ThreadSpec]) {
    let Ok(compiled) = compile(component) else {
        return;
    };
    let make = || Vm::new(compiled.clone(), threads.to_vec());
    let limits = EnumLimits::default();
    let (free, truncated) = enumerate_signatures(make(), limits);
    let config = ExploreConfig {
        max_states: limits.max_states,
        max_depth: limits.max_depth,
        ..ExploreConfig::default()
    };
    let mut stepping = SteppingSignatures::default();
    let r = explore_observed(make(), &config, &mut stepping);
    assert_eq!(free, stepping.0, "{label}");
    assert_eq!(truncated, r.truncated, "{label}");
}

/// A registered component's scenario: one thread per session template, all
/// under one name so that identical sessions form symmetry groups.
fn registered_threads(name: &str) -> Vec<ThreadSpec> {
    let space = space_for(name).expect("corpus component is registered");
    space
        .templates
        .into_iter()
        .map(|calls| ThreadSpec {
            name: "w".into(),
            calls,
        })
        .collect()
}

#[test]
fn event_free_exploration_rebuilds_every_witness() {
    let corpus = full_corpus();
    assert_eq!(corpus.len(), 13);
    let mut witnesses = 0;
    for (name, component) in &corpus {
        let threads = registered_threads(name);
        witnesses += replay_matches_recording(name, component, &threads).0;
        signatures_match_stepping(name, component, &threads);
    }
    // The capped mutant slice: every mutant of two cheap components.
    for (name, component) in corpus
        .iter()
        .filter(|(name, _)| ["BoundedBuffer", "FutureCell"].contains(name))
    {
        let threads = registered_threads(name);
        for (mutation, mutant) in all_mutants(component) {
            let label = format!("{name}/{}", mutation.label());
            witnesses += replay_matches_recording(&label, &mutant, &threads).0;
        }
    }
    // Six generated monitors: sizes 1 and 2, three seeds each.
    for size in 1..=2 {
        for seed in 2024..2027 {
            let cfg = GenConfig::sized(size, seed);
            let threads: Vec<ThreadSpec> = call_plan(&cfg)
                .into_iter()
                .enumerate()
                .map(|(i, calls)| ThreadSpec {
                    name: format!("t{i}"),
                    calls: calls.into_iter().map(|m| CallSpec::new(m, vec![])).collect(),
                })
                .collect();
            let label = format!("generated size {size} seed {seed}");
            replay_matches_recording(&label, &generate(&cfg), &threads);
        }
    }
    assert!(witnesses > 100, "only {witnesses} witnesses compared");
}

/// Every mutant of every corpus component. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: event-free vs recording over every corpus mutant"]
fn every_corpus_mutant_rebuilds_its_witnesses() {
    let (mut mutants, mut witnesses) = (0, 0);
    for (name, component) in full_corpus() {
        let threads = registered_threads(name);
        for (mutation, mutant) in all_mutants(&component) {
            let label = format!("{name}/{}", mutation.label());
            witnesses += replay_matches_recording(&label, &mutant, &threads).0;
            mutants += 1;
        }
    }
    println!("witness replay: {mutants} mutants, {witnesses} witnesses compared");
    assert_eq!(mutants, 283);
}

/// Every mutant of every corpus component: the event-free search, which
/// settles joins it can predict without stepping, against one that reads
/// events and steps every transition. Tallies, witnesses and signature
/// sets must match. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: stepless joins against a stepping search over every corpus mutant"]
fn every_corpus_mutant_settles_joins_as_a_stepping_search() {
    let (mut mutants, mut stepless) = (0, 0);
    for (name, component) in full_corpus() {
        let threads = registered_threads(name);
        for (mutation, mutant) in all_mutants(&component) {
            let label = format!("{name}/{}", mutation.label());
            stepless += replay_matches_recording(&label, &mutant, &threads).1;
            signatures_match_stepping(&label, &mutant, &threads);
            mutants += 1;
        }
    }
    println!("stepless joins: {mutants} mutants, {stepless} joins settled without a step");
    assert_eq!(mutants, 283);
    assert!(stepless > 0);
}

/// An event-free observer that runs a clone of the machine at the first
/// path end where a thread can still move.
#[derive(Default)]
struct RunAClone(Option<RunOutcome>);

impl PathObserver for RunAClone {
    const READS_EVENTS: bool = false;

    fn path_end(&mut self, vm: &Vm, _end: PathEnd<'_>) {
        if self.0.is_none() && !vm.runnable().is_empty() {
            self.0 = Some(vm.clone().run(&RunConfig::default()));
        }
    }
}

#[test]
fn a_clone_taken_during_event_free_exploration_records() {
    // The explorer's machine builds no events, but a clone of it is a
    // machine of its own: it records. A path end where a thread can still
    // move is a cycle: here a spin another thread can end.
    let component = parse_component(
        "class Spin { boolean go = false; \
         void spin() { while (!go) { Thread.yield(); } } \
         void set() { go = true; } }",
    )
    .unwrap();
    let threads = ["spin", "set"]
        .map(|m| ThreadSpec {
            name: m.into(),
            calls: vec![CallSpec::new(m, vec![])],
        })
        .to_vec();
    let vm = Vm::new(compile(&component).unwrap(), threads);
    let mut observer = RunAClone::default();
    explore_observed(vm, &ExploreConfig::default(), &mut observer);
    let run = observer.0.expect("some path ends with a runnable thread");
    assert!(!run.trace.is_empty(), "the clone recorded nothing");
    assert_ne!(run.verdict, Verdict::StepLimit);
}
