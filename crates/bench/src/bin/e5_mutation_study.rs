//! E5 — the mutation study: CoFG-directed suites vs undirected random
//! testing, over the component corpus, per Table-1 failure class.
//!
//! Expected shape: the directed suite detects every behavioural mutant
//! except provable equivalents (the notify-for-notifyAll mutants of
//! components whose every method re-notifies); the random baseline misses
//! the wait/notify-path mutants that need specific interleavings.

use std::time::Instant;

use jcc_core::components::zoo::full_corpus;
use jcc_core::petri::Parallelism;
use jcc_core::pipeline::{mutation_study, MutationStudyConfig};
use jcc_core::report::render_study;
use jcc_core::testgen::corpus::space_for;

fn main() {
    let mut reporter = jcc_core::obs::BenchReporter::init("e5_mutation_study");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }
    // The full corpus — the five seed monitors plus the component zoo —
    // with each component's scenario space from the canonical registry.
    // (Readers–writers and the zoo's heterogeneous-waiter monitors are
    // where notify-for-notifyAll is a genuine FF-T5; on single-predicate
    // monitors it is an equivalent mutant.)
    let studies: Vec<(&str, jcc_core::model::Component)> = full_corpus();

    let seq_config = MutationStudyConfig {
        parallelism: Parallelism::sequential(),
        ..MutationStudyConfig::default()
    };
    // At least two workers, so the fan-out engine is exercised even on a
    // single-core host.
    let par_config = MutationStudyConfig {
        parallelism: Parallelism::with_threads(Parallelism::available().threads.max(2)),
        ..MutationStudyConfig::default()
    };
    let workers = par_config.parallelism.threads;
    let mut grand_directed = (0usize, 0usize);
    let mut grand_random = (0usize, 0usize);
    let mut components_scored = 0usize;
    for (name, component) in studies {
        let space = space_for(name)
            .unwrap_or_else(|| panic!("{name} missing from the scenario registry"));
        say!("================================================================");
        say!("E5 mutation study: {name}");
        say!("================================================================");
        let t0 = Instant::now();
        let sequential = mutation_study(&component, &space, &seq_config);
        let seq_time = t0.elapsed();
        let t0 = Instant::now();
        let result = mutation_study(&component, &space, &par_config);
        let par_time = t0.elapsed();
        assert_eq!(
            sequential.directed_score(),
            result.directed_score(),
            "parallel study must reproduce the sequential scores"
        );
        assert_eq!(sequential.random_score(), result.random_score());
        say!("{}", render_study(&result));
        say!(
            "throughput: sequential {seq_time:.1?}, parallel x{workers} {par_time:.1?}\n"
        );
        components_scored += 1;
        let (dd, dt) = result.directed_score();
        let (rd, rt) = result.random_score();
        grand_directed.0 += dd;
        grand_directed.1 += dt;
        grand_random.0 += rd;
        grand_random.1 += rt;
    }
    say!("================================================================");
    say!(
        "TOTAL behavioural mutants detected — directed: {}/{} ({:.0}%), random: {}/{} ({:.0}%)",
        grand_directed.0,
        grand_directed.1,
        100.0 * grand_directed.0 as f64 / grand_directed.1 as f64,
        grand_random.0,
        grand_random.1,
        100.0 * grand_random.0 as f64 / grand_random.1 as f64,
    );
    // The corpus's known totals: a change to suite construction, mutant
    // generation or the oracle that moves them must say so here.
    assert_eq!(grand_directed, (195, 247), "directed suite detections");
    assert_eq!(grand_random, (167, 247), "random suite detections");
    reporter.set_derived("components_scored", components_scored as f64);
    reporter.set_derived("behavioural_mutants", grand_directed.1 as f64);
    reporter.set_derived("detected_directed_total", grand_directed.0 as f64);
    reporter.set_derived("detected_random_total", grand_random.0 as f64);
    reporter.finish();
}
