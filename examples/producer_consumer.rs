//! The paper's worked example, end to end: Figure 2's producer–consumer
//! monitor through the full pipeline — CoFG-directed test-sequence
//! generation, exhaustive schedule exploration, a deterministic native run
//! under the abstract clock, and a ConAn-style script export.
//!
//! Run with `cargo run --example producer_consumer`.

use std::sync::Arc;

use jcc_core::clock::{Schedule, TestDriver};
use jcc_core::detect::completion::{check_completions, CompletionExpectation, Expectation};
use jcc_core::model::examples;
use jcc_core::pipeline::Pipeline;
use jcc_core::runtime::{EventLog, NativeComponent};
use jcc_core::testgen::conan::to_conan_script;
use jcc_core::testgen::scenario::{describe, ScenarioSpace};
use jcc_core::testgen::suite::GreedyConfig;
use jcc_core::vm::{compile, CallSpec, Value};

fn main() {
    // Record the whole run with jcc-obs: the JSON report printed at the end
    // is the same machine-readable artifact the bench binaries write to
    // BENCH_*.json (see README, "Reading a run report").
    jcc_core::obs::set_level(jcc_core::obs::ObsLevel::Summary);
    jcc_core::obs::global().reset();
    let started = std::time::Instant::now();

    let component = examples::producer_consumer();
    let pipeline = Pipeline::new(component).expect("Figure 2 is valid");
    println!(
        "ProducerConsumer: {} methods, {} CoFG arcs to cover\n",
        pipeline.component.methods.len(),
        pipeline.total_arcs()
    );

    // CoFG-directed test sequences.
    let space = ScenarioSpace::new(vec![
        CallSpec::new("receive", vec![]),
        CallSpec::new("send", vec![Value::Str("a".into())]),
        CallSpec::new("send", vec![Value::Str("ab".into())]),
    ]);
    let suite = pipeline.directed_suite(&space, &GreedyConfig::default());
    println!(
        "directed suite: {} scenarios, {:.0}% arc coverage ({} candidates examined)",
        suite.scenarios.len(),
        suite.coverage_ratio() * 100.0,
        suite.candidates_examined
    );
    for s in &suite.scenarios {
        println!("  {}", describe(s));
    }

    // Export the first scenario as a ConAn-style script.
    println!("\nConAn-style script for the first scenario:");
    println!("{}", to_conan_script("ProducerConsumer", &suite.scenarios[0]));

    // Deterministic native execution with completion-time checks: the
    // canonical "receive blocks until send" test.
    println!("--- native deterministic run ---");
    let log = EventLog::new();
    let compiled = compile(&pipeline.component).expect("Figure 2 compiles");
    let pc = Arc::new(NativeComponent::new(compiled, &log));
    let consumer = Arc::clone(&pc);
    let producer = Arc::clone(&pc);
    let schedule = Schedule::new()
        .call("receive", 1, move |_| {
            let got = consumer.call("receive", &[]).unwrap();
            assert_eq!(got, Some(Value::Str("z".into())));
        })
        .call("send", 2, move |_| {
            producer.call("send", &[Value::Str("z".into())]).unwrap();
        });
    let (records, _) = TestDriver::new().run(schedule);
    let violations = check_completions(
        &records,
        &[
            Expectation::new("receive", CompletionExpectation::Between(2, 3)),
            Expectation::new("send", CompletionExpectation::Between(2, 3)),
        ],
    );
    for r in &records {
        println!(
            "  {} released t={} completed {:?}",
            r.label, r.released_at, r.completed_at
        );
    }
    if violations.is_empty() {
        println!("completion-time oracle: PASS");
    } else {
        println!("completion-time oracle: {violations:?}");
    }

    println!("\n--- machine-readable run report (jcc-obs/v1) ---");
    let report = jcc_core::obs::RunReport::from_registry(
        "producer_consumer",
        jcc_core::obs::level(),
        started.elapsed().as_secs_f64(),
        jcc_core::obs::global(),
    );
    jcc_core::obs::set_level(jcc_core::obs::ObsLevel::Off);
    print!("{}", report.to_json_string());
}
