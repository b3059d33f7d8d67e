//! Witness replay: an exploration whose observer reads no events
//! (`PathObserver::READS_EVENTS` false, as behind `explore(.., None)`)
//! builds none, and rebuilds each deadlock, fault and cycle witness by
//! replaying its path on a copy of the initial machine. It must report
//! exactly what a recording exploration reports: the same tally, the same
//! reduction counts and byte-identical witnesses (verdict, steps, trace
//! with its sequence numbers, results and names).
//!
//! Inputs: every registered component's scenario space (one thread per
//! session template), a capped mutant slice and six generated monitors,
//! each under the plain, ample, symmetric and fully reduced configs. The
//! sweep over every corpus mutant runs behind `--ignored`.

use jcc_core::components::gen::{call_plan, generate, GenConfig};
use jcc_core::components::zoo::full_corpus;
use jcc_core::model::ast::Component;
use jcc_core::model::mutate::all_mutants;
use jcc_core::petri::event::Event;
use jcc_core::testgen::corpus::space_for;
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
/// config; the reports must match. Returns the witnesses compared.
fn replay_matches_recording(label: &str, component: &Component, threads: &[ThreadSpec]) -> usize {
    let Ok(compiled) = compile(component) else {
        return 0;
    };
    let mut witnesses = 0;
    for config in configs() {
        let make = || Vm::new(compiled.clone(), threads.to_vec());
        let free = explore(make(), &config, None);
        let mut counting = CountEvents::default();
        let recorded = explore_observed(make(), &config, &mut counting);
        assert_eq!(census(&free), census(&recorded), "{label} {config:?}");
        assert!(counting.0 > 0, "{label}: the recording search saw no events");
        let all = [&free.deadlock_witness, &free.fault_witness, &free.cycle_witness];
        witnesses += all.iter().filter(|w| w.is_some()).count();
    }
    witnesses
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
        witnesses += replay_matches_recording(name, component, &registered_threads(name));
    }
    // The capped mutant slice: every mutant of two cheap components.
    for (name, component) in corpus
        .iter()
        .filter(|(name, _)| ["BoundedBuffer", "FutureCell"].contains(name))
    {
        let threads = registered_threads(name);
        for (mutation, mutant) in all_mutants(component) {
            let label = format!("{name}/{}", mutation.label());
            witnesses += replay_matches_recording(&label, &mutant, &threads);
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
            witnesses += replay_matches_recording(&label, &mutant, &threads);
            mutants += 1;
        }
    }
    println!("witness replay: {mutants} mutants, {witnesses} witnesses compared");
    assert_eq!(mutants, 283);
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
    // machine of its own: it records.
    let (name, component) = full_corpus().swap_remove(0);
    let vm = Vm::new(compile(&component).unwrap(), registered_threads(name));
    let mut observer = RunAClone::default();
    explore_observed(vm, &ExploreConfig::default(), &mut observer);
    let run = observer.0.expect("some path ends with a runnable thread");
    assert!(!run.trace.is_empty(), "{name}: the clone recorded nothing");
    assert_ne!(run.verdict, Verdict::StepLimit);
}
