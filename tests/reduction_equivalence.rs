//! Reduction equivalence: the state-space reductions (ample-set
//! partial-order reduction and thread-symmetry quotienting) must preserve
//! *which failure classes exist* — completed / deadlock / fault / cycle /
//! inescapable-cycle — for every component and mutant, even though state,
//! transition and path counts legitimately shrink.
//!
//! VM side: [`ExploreConfig::symmetry`] + [`ExploreConfig::ample`] against
//! the plain exhaustive search, over the full corpus (seed monitors + zoo)
//! and a capped mutant slice in CI; the full mutant sweep runs behind
//! `--ignored`. Petri side: a fully reduced [`ReachGraph`] must shrink the
//! graph and stay byte-deterministic across runs.

use jcc_core::components::zoo::full_corpus;
use jcc_core::model::mutate::all_mutants;
use jcc_core::petri::{JavaNet, ReachGraph, ReachLimits, Reduction};
use jcc_core::testgen::corpus::space_for;
use jcc_core::testgen::scenario::ScenarioSpace;
use jcc_core::vm::{
    compile, explore, CompiledComponent, ExploreConfig, ExploreResult, ThreadSpec, Vm,
};

/// The failure-class existence booleans a sound reduction must preserve.
fn classes(r: &ExploreResult) -> (bool, bool, bool, bool, bool) {
    (
        r.completed_paths > 0,
        r.deadlock_paths > 0,
        r.fault_paths > 0,
        r.cycle_paths > 0,
        r.inescapable_cycles > 0,
    )
}

fn reduced_config() -> ExploreConfig {
    ExploreConfig {
        symmetry: true,
        ample: true,
        ..ExploreConfig::default()
    }
}

/// Threads all share one display name so identical call sessions form
/// symmetry groups (ThreadSpec equality includes the name; names are
/// display-only, so this costs nothing and exercises the quotient).
fn vm_for(compiled: &CompiledComponent, space: &ScenarioSpace) -> Vm {
    Vm::new(
        compiled.clone(),
        space
            .templates
            .iter()
            .map(|session| ThreadSpec {
                name: "w".into(),
                calls: session.clone(),
            })
            .collect(),
    )
}

/// Compare the reduced exploration against the full one. Returns false
/// when the full search truncated (the comparison would be meaningless);
/// callers decide whether that is acceptable.
fn check_equivalent(label: &str, compiled: &CompiledComponent, space: &ScenarioSpace) -> bool {
    let full = explore(vm_for(compiled, space), &ExploreConfig::default(), None);
    if full.truncated {
        return false;
    }
    let reduced = explore(vm_for(compiled, space), &reduced_config(), None);
    // Every reduced path is a real path of at most the same length over a
    // subset of the reachable states, so a complete full search implies a
    // complete reduced one.
    assert!(!reduced.truncated, "{label}: reduced search truncated");
    assert_eq!(
        classes(&full),
        classes(&reduced),
        "{label}: failure classes diverged\nfull: {full:?}\nreduced: {reduced:?}"
    );
    assert!(
        reduced.states <= full.states,
        "{label}: reduction grew the state count ({} > {})",
        reduced.states,
        full.states
    );
    true
}

fn component_named(name: &str) -> jcc_core::model::ast::Component {
    full_corpus()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not in the corpus"))
        .1
}

/// Every corpus component (seed monitors and the zoo), unmutated: the
/// reduced exploration reports exactly the same failure classes.
#[test]
fn reduced_exploration_preserves_classes_for_every_corpus_component() {
    for (name, component) in full_corpus() {
        let compiled = compile(&component).unwrap();
        let space = space_for(name).expect("corpus component is registered");
        assert!(
            check_equivalent(name, &compiled, &space),
            "{name}: full search truncated — limits too small for the corpus"
        );
    }
}

/// CI-run capped slice: every mutant of two cheap components through the
/// reduced-vs-full comparison (mirrors the capped parallel-determinism
/// slice). The exhaustive 283-mutant sweep is the ignored test below.
#[test]
fn capped_mutant_slice_preserves_classes_under_reduction() {
    for name in ["BoundedBuffer", "FutureCell"] {
        let component = component_named(name);
        let space = space_for(name).expect("corpus component is registered");
        for (mutation, mutant) in all_mutants(&component) {
            let compiled = compile(&mutant).unwrap();
            check_equivalent(
                &format!("{name}/{}", mutation.label()),
                &compiled,
                &space,
            );
        }
    }
}

/// Stress: every mutant of every corpus component. Run with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "slow: reduced-vs-full over every corpus mutant"]
fn stress_every_corpus_mutant_preserves_classes_under_reduction() {
    let mut compared = 0usize;
    let mut skipped = 0usize;
    for (name, component) in full_corpus() {
        let space = space_for(name).expect("corpus component is registered");
        for (mutation, mutant) in all_mutants(&component) {
            let compiled = compile(&mutant).unwrap();
            if check_equivalent(&format!("{name}/{}", mutation.label()), &compiled, &space) {
                compared += 1;
            } else {
                skipped += 1;
            }
        }
    }
    println!("reduction equivalence: {compared} mutants compared, {skipped} truncated");
    assert!(compared > 0);
}

/// Petri side: the fully reduced reach graph (ample + symmetry) shrinks
/// the full graph and is byte-identical across runs.
#[test]
fn reduced_reach_graph_is_deterministic_across_runs() {
    for n in [2usize, 4] {
        let j = JavaNet::new(n);
        let limits = ReachLimits {
            reduction: Reduction::full(Some(j.thread_symmetry())),
            ..ReachLimits::default()
        };
        let reference = ReachGraph::explore(j.net(), limits);
        let full = ReachGraph::explore(j.net(), ReachLimits::default());
        assert!(
            reference.stats().states < full.stats().states,
            "n={n}: reduction must shrink the graph"
        );
        let g = ReachGraph::explore(j.net(), limits);
        assert_eq!(g.stats(), reference.stats(), "n={n}");
        assert!(g.markings().eq(reference.markings()), "n={n}");
        for i in 0..reference.stats().states {
            assert_eq!(g.successors(i), reference.successors(i), "n={n} state {i}");
        }
    }
}
