//! Coverage-driven testing: watch CoFG arc coverage grow as scenarios are
//! added, for every component in the corpus — the workflow of the paper's
//! Section 6 (each uncovered arc names the next test to write).
//!
//! The example runs with `jcc-obs` recording on and reads its numbers back
//! out of the machine-readable [`RunReport`] — the same artifact the
//! `jcc-bench` binaries write to `BENCH_*.json` — rather than out of the
//! trackers directly, demonstrating the "consume a run report" workflow
//! (see README, "Reading a run report").
//!
//! Run with `cargo run --example coverage_report`.

use jcc_core::cofg::{build_component_cofgs, CoverageTracker};
use jcc_core::model::examples;
use jcc_core::obs::{self, RunReport};
use jcc_core::report::render_coverage;
use jcc_core::testgen::scenario::{describe, ScenarioSpace};
use jcc_core::testgen::suite::GreedyConfig;
use jcc_core::vm::{compile, explore, CallSpec, ExploreConfig, Value, Vm};

fn main() {
    // Record the whole run: exploration publishes its own counters and the
    // coverage loop publishes arc-coverage gauges.
    obs::set_level(obs::ObsLevel::Summary);
    obs::global().reset();
    let started = std::time::Instant::now();

    let component = examples::producer_consumer();
    let cofgs = build_component_cofgs(&component);
    let compiled = compile(&component).unwrap();
    let space = ScenarioSpace::new(vec![
        CallSpec::new("receive", vec![]),
        CallSpec::new("send", vec![Value::Str("a".into())]),
        CallSpec::new("send", vec![Value::Str("ab".into())]),
    ]);
    let suite = jcc_core::testgen::suite::greedy_cover_suite(
        &component,
        &space,
        &GreedyConfig::default(),
    );

    let reg = obs::global();
    let mut tracker = CoverageTracker::new(cofgs);
    println!("building up coverage scenario by scenario:\n");
    for (i, scenario) in suite.scenarios.iter().enumerate() {
        let vm = Vm::new(compiled.clone(), scenario.clone());
        let _ = explore(vm, &ExploreConfig::default(), Some(&mut tracker));
        reg.gauge("coverage.ProducerConsumer.covered_arcs")
            .set(tracker.covered_arcs() as u64);
        reg.gauge("coverage.ProducerConsumer.total_arcs")
            .set(tracker.total_arcs() as u64);
        reg.counter("coverage.scenarios").inc();
        println!(
            "after scenario {} ({}): {}/{} arcs",
            i + 1,
            describe(scenario),
            tracker.covered_arcs(),
            tracker.total_arcs()
        );
    }
    println!();
    println!("{}", render_coverage(&tracker));

    println!("corpus summary (directed suites):");
    for (name, c) in examples::corpus() {
        let space = default_space(name);
        let suite =
            jcc_core::testgen::suite::greedy_cover_suite(&c, &space, &GreedyConfig::default());
        reg.gauge(&format!("coverage.{name}.suite_scenarios"))
            .set(suite.scenarios.len() as u64);
        reg.gauge(&format!("coverage.{name}.arc_coverage_pct"))
            .set((suite.coverage_ratio() * 100.0).round() as u64);
    }

    // Everything printed below comes from the RunReport — after a JSON
    // round trip, so it is exactly what a consumer of BENCH_*.json sees.
    let report = RunReport::from_registry(
        "coverage_report",
        obs::level(),
        started.elapsed().as_secs_f64(),
        reg,
    );
    obs::set_level(obs::ObsLevel::Off);
    let report =
        RunReport::from_json_str(&report.to_json_string()).expect("report round-trips");

    for (name, _) in examples::corpus() {
        println!(
            "  {name}: {} scenarios -> {}% arc coverage",
            report
                .gauges
                .get(&format!("coverage.{name}.suite_scenarios"))
                .copied()
                .unwrap_or(0),
            report
                .gauges
                .get(&format!("coverage.{name}.arc_coverage_pct"))
                .copied()
                .unwrap_or(0),
        );
    }
    println!(
        "\nfrom the run report: {} scenarios explored {} VM states ({} schedule \
         transitions) to cover {}/{} ProducerConsumer arcs",
        report.counter("coverage.scenarios"),
        report.counter("vm.explore.states"),
        report.counter("vm.explore.transitions"),
        report.gauges["coverage.ProducerConsumer.covered_arcs"],
        report.gauges["coverage.ProducerConsumer.total_arcs"],
    );
    println!("\n{}", report.render_summary());
}

fn default_space(name: &str) -> ScenarioSpace {
    match name {
        "ProducerConsumer" => ScenarioSpace::new(vec![
            CallSpec::new("receive", vec![]),
            CallSpec::new("send", vec![Value::Str("a".into())]),
            CallSpec::new("send", vec![Value::Str("ab".into())]),
        ]),
        "BoundedBuffer" => ScenarioSpace::new(vec![
            CallSpec::new("put", vec![Value::Int(1)]),
            CallSpec::new("put", vec![Value::Int(2)]),
            CallSpec::new("take", vec![]),
        ]),
        "Semaphore" => ScenarioSpace::new(vec![
            CallSpec::new("init", vec![Value::Int(1)]),
            CallSpec::new("acquire", vec![]),
            CallSpec::new("release", vec![]),
        ]),
        "ReadersWriters" => ScenarioSpace::of_sessions(vec![
            vec![
                CallSpec::new("startRead", vec![]),
                CallSpec::new("endRead", vec![]),
            ],
            vec![
                CallSpec::new("startWrite", vec![]),
                CallSpec::new("endWrite", vec![]),
            ],
        ]),
        "Barrier" => ScenarioSpace::new(vec![
            CallSpec::new("init", vec![Value::Int(2)]),
            CallSpec::new("await", vec![]),
        ]),
        other => panic!("no scenario space for {other}"),
    }
}
