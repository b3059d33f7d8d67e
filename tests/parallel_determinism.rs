//! Parallel determinism: the mutation study's (mutant × scenario) matrix,
//! fanned across workers by `parallel_map`, must be *identical* to the
//! sequential run — same detection matrix, suite sizes and coverage — for
//! any worker count and across repeated runs. Scheduling may vary; results
//! may not.
//!
//! (See DESIGN.md §4: exploration itself is single-threaded; the matrix
//! cells are independent and reassembled positionally.)

use jcc_core::components::zoo::full_corpus;
use jcc_core::model::examples;
use jcc_core::petri::Parallelism;
use jcc_core::pipeline::{mutation_study, MutationStudyConfig, MutationStudyResult};
use jcc_core::testgen::corpus::space_for;
use jcc_core::testgen::scenario::ScenarioSpace;
use jcc_core::vm::{CallSpec, Value};

fn study_config(threads: usize) -> MutationStudyConfig {
    MutationStudyConfig {
        parallelism: Parallelism::with_threads(threads),
        ..MutationStudyConfig::default()
    }
}

/// The full detection matrix, labelled, in mutant-enumeration order.
fn detection_matrix(r: &MutationStudyResult) -> Vec<(String, bool, bool)> {
    r.mutants
        .iter()
        .map(|m| (m.mutation.label(), m.detected_directed, m.detected_random))
        .collect()
}

#[test]
fn mutation_matrix_identical_across_thread_counts_and_runs() {
    let c = examples::producer_consumer();
    let space = ScenarioSpace::new(vec![
        CallSpec::new("receive", vec![]),
        CallSpec::new("send", vec![Value::Str("a".into())]),
    ]);
    let reference = mutation_study(&c, &space, &study_config(1));
    let reference_matrix = detection_matrix(&reference);
    for threads in [2usize, 4] {
        for run in 0..2 {
            let r = mutation_study(&c, &space, &study_config(threads));
            assert_eq!(
                detection_matrix(&r),
                reference_matrix,
                "threads={threads} run={run}"
            );
            assert_eq!(r.directed_suite_size, reference.directed_suite_size);
            assert_eq!(r.random_suite_size, reference.random_suite_size);
            assert_eq!(r.directed_coverage, reference.directed_coverage);
            assert_eq!(r.random_coverage, reference.random_coverage);
        }
    }
}

/// One component's mutation-study matrix, checked at the given worker
/// counts against the sequential reference. Scenario spaces come from the
/// canonical registry (`jcc_core::testgen::corpus`).
fn assert_matrix_stable(name: &str, threads: &[usize]) {
    let component = full_corpus()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not in the corpus"))
        .1;
    let space = space_for(name).expect("corpus component is registered");
    let expected_mutants = jcc_core::model::mutate::all_mutants(&component).len();
    let reference = mutation_study(&component, &space, &study_config(1));
    assert_eq!(
        reference.mutants.len(),
        expected_mutants,
        "{name}: sequential study lost mutants"
    );
    let reference_matrix = detection_matrix(&reference);
    for &threads in threads {
        let r = mutation_study(&component, &space, &study_config(threads));
        assert_eq!(
            r.mutants.len(),
            expected_mutants,
            "{name} threads={threads}: lost mutants"
        );
        assert_eq!(
            detection_matrix(&r),
            reference_matrix,
            "{name} threads={threads}: matrix diverged"
        );
    }
}

/// CI-run, size-capped slice of the corpus stress test: two cheap
/// components — one seed monitor and one zoo entry — through the full
/// parallel mutation study at 2 and 4 workers, so the determinism
/// guarantee is exercised on every PR rather than only behind
/// `--ignored`. The exhaustive sweep over all thirteen components and
/// worker counts 2–8 stays in the ignored stress test below.
#[test]
fn capped_corpus_mutation_study_matrix_stable_at_two_and_four_workers() {
    for name in ["BoundedBuffer", "FutureCell"] {
        assert_matrix_stable(name, &[2, 4]);
    }
}

/// Stress: the parallel mutation study over the full corpus (seed
/// monitors and zoo) at every worker count from 2 to 8 — no panics, no
/// lost mutants, matrices all equal to the sequential run. Deliberately
/// timing-free (a single-core runner must pass it too). Run with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "slow: full corpus x 7 thread counts"]
fn stress_corpus_mutation_study_at_many_thread_counts() {
    let threads: Vec<usize> = (2..=8).collect();
    for (name, _) in full_corpus() {
        assert_matrix_stable(name, &threads);
    }
}
