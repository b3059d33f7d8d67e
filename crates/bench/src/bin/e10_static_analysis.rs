//! E10 — the static analyzer (`jcc-analyze`) evaluated against the mutant
//! corpus, with VM exploration + `jcc-detect` as ground truth.
//!
//! For every mutant of every corpus component, the analyzer's verdict is
//! the *delta* of diagnostic identities (check, class, method) at >=
//! Medium severity between the mutant and its correct parent, projected
//! to Table-1 class codes. Ground truth per mutant:
//!
//! * the **seeded** class, when the mutant is confirmed — detected by the
//!   exhaustive signature-set comparison on the directed suite, failed to
//!   compile, newly classified by exhaustive exploration, or statically
//!   seeded by construction (EF-T1, behaviourally neutral by design);
//! * plus any classes exhaustive exploration newly assigns to the mutant
//!   (`classify_explore` over the suite's scenarios, minus the parent's
//!   baseline classes from the same deliberately unbalanced scenarios).
//!
//! Recall for a class counts confirmed mutants *seeded* with it;
//! precision counts predictions against the full truth set. The four
//! deadlock/race specimens contribute FF-T2 data points (two faulty, two
//! controls) since no mutation operator seeds a lock-order cycle.
//!
//! Expected shape: recall >= 0.6 on FF-T2 / FF-T5 / EF-T3 / EF-T5, zero
//! High-severity diagnostics on the unmutated corpus, and byte-identical
//! analyzer output across runs — all asserted below.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use jcc_core::analyze::{analyze, Severity};
use jcc_core::components::zoo::full_corpus;
use jcc_core::model::examples;
use jcc_core::model::mutate::all_mutants;
use jcc_core::model::Component;
use jcc_core::pipeline::Pipeline;
use jcc_core::testgen::corpus::space_for;
use jcc_core::testgen::scenario::Scenario;
use jcc_core::testgen::signature::{enumerate_signatures, EnumLimits};
use jcc_core::testgen::suite::GreedyConfig;
use jcc_core::vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Vm};

/// Per-class hit/miss tallies for precision and recall.
#[derive(Default, Clone)]
struct Tally {
    pred_hit: usize,
    pred_miss: usize,
    rec_hit: usize,
    rec_miss: usize,
}

impl Tally {
    fn precision(&self) -> Option<f64> {
        let n = self.pred_hit + self.pred_miss;
        (n > 0).then(|| self.pred_hit as f64 / n as f64)
    }
    fn recall(&self) -> Option<f64> {
        let n = self.rec_hit + self.rec_miss;
        (n > 0).then(|| self.rec_hit as f64 / n as f64)
    }
}

/// Classes the exhaustive exploration assigns to `component` over
/// `scenarios` (union across scenarios).
fn dynamic_classes(component: &Component, scenarios: &[Scenario]) -> BTreeSet<String> {
    let Ok(compiled) = compile(component) else {
        return BTreeSet::new();
    };
    let config = ExploreConfig {
        max_states: 60_000,
        max_depth: 1_500,
        ..ExploreConfig::default()
    };
    let mut out = BTreeSet::new();
    for scenario in scenarios {
        let result = explore(Vm::new(compiled.clone(), scenario.clone()), &config, None);
        for finding in jcc_core::detect::classify::classify_explore(&result) {
            out.insert(finding.class.code().to_string());
        }
    }
    out
}

/// The analyzer's class-level verdict: diagnostic identities at >= Medium
/// that the mutant has and the parent lacks, projected to class codes.
fn predicted_delta(
    parent_ids: &BTreeSet<(String, String, String)>,
    mutant: &Component,
    analyze_clock: &mut Duration,
) -> BTreeSet<String> {
    let t0 = Instant::now();
    let report = analyze(mutant);
    *analyze_clock += t0.elapsed();
    report
        .identities(Severity::Medium)
        .difference(parent_ids)
        .map(|(_, class, _)| class.clone())
        .collect()
}

fn main() {
    let mut reporter = jcc_core::obs::BenchReporter::init("e10_static_analysis");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }

    // -- Gate 1: the unmutated corpus — seed monitors AND the component
    // -- zoo — earns zero High diagnostics, and the analyzer's output is
    // -- byte-identical across runs.
    for (name, component) in full_corpus() {
        let a = analyze(&component);
        let b = analyze(&component);
        assert_eq!(a.render(), b.render(), "{name}: nondeterministic render");
        assert_eq!(
            a.to_json_string(),
            b.to_json_string(),
            "{name}: nondeterministic JSON"
        );
        assert_eq!(
            a.count(Severity::High),
            0,
            "{name} (correct) got High diagnostics:\n{}",
            a.render()
        );
    }
    say!("gate: zero High-severity diagnostics on the clean corpus; output deterministic\n");

    let limits = EnumLimits {
        max_states: 40_000,
        max_depth: 1_000,
    };

    let mut tallies: BTreeMap<String, Tally> = BTreeMap::new();
    let mut analyze_clock = Duration::ZERO;
    let mut mutants_total = 0usize;
    let mut mutants_confirmed = 0usize;

    // -- The mutant corpus: every component of the full corpus (seed
    // -- monitors + zoo), scenario spaces from the canonical registry.
    for (name, parent) in full_corpus() {
        let space = space_for(name)
            .unwrap_or_else(|| panic!("{name} missing from the scenario registry"));
        let pipeline = Pipeline::new(parent.clone()).expect("corpus is valid");
        let scenarios: Vec<Scenario> =
            pipeline.directed_suite(&space, &GreedyConfig::default()).scenarios;
        let parent_baseline = dynamic_classes(&parent, &scenarios);
        let correct_sigs: Vec<_> = scenarios
            .iter()
            .map(|s| enumerate_signatures(Vm::new(pipeline.compiled.clone(), s.clone()), limits).0)
            .collect();
        let t0 = Instant::now();
        let parent_ids = analyze(&parent).identities(Severity::Medium);
        analyze_clock += t0.elapsed();

        say!("== {name}: {} mutants ==", all_mutants(&parent).len());
        for (mutation, mutant) in all_mutants(&parent) {
            mutants_total += 1;
            let predicted = predicted_delta(&parent_ids, &mutant, &mut analyze_clock);
            let seeded = mutation.kind.seeded_class().code().to_string();

            let compiled = compile(&mutant).ok();
            let detected = compiled.as_ref().is_some_and(|mc| {
                scenarios.iter().zip(&correct_sigs).any(|(s, correct)| {
                    enumerate_signatures(Vm::new(mc.clone(), s.clone()), limits).0 != *correct
                })
            });
            let dynamic: BTreeSet<String> = dynamic_classes(&mutant, &scenarios)
                .difference(&parent_baseline)
                .cloned()
                .collect();
            let confirmed = detected
                || compiled.is_none()
                || !dynamic.is_empty()
                || !mutation.kind.is_behavioural_failure();
            let mut truth = dynamic.clone();
            if confirmed {
                truth.insert(seeded.clone());
                mutants_confirmed += 1;
                let t = tallies.entry(seeded.clone()).or_default();
                if predicted.contains(&seeded) {
                    t.rec_hit += 1;
                } else {
                    t.rec_miss += 1;
                }
            }
            for p in &predicted {
                let t = tallies.entry(p.clone()).or_default();
                if truth.contains(p) {
                    t.pred_hit += 1;
                } else {
                    t.pred_miss += 1;
                }
            }
            say!(
                "  {:<44} seeded {seeded} {} predicted {predicted:?} truth {truth:?}",
                mutation.label(),
                if confirmed { "confirmed" } else { "unconfirmed" },
            );
        }
    }

    // -- The specimens: FF-T2 data points (no mutation operator seeds a
    // -- lock-order cycle). Two faulty, two controls.
    let specimens: Vec<(&str, Component, Vec<&str>)> = vec![
        (
            "LockOrder",
            examples::lock_order_deadlock(),
            vec!["forward", "backward"],
        ),
        (
            "DiningDeadlock",
            examples::dining_deadlock(),
            vec!["eat0", "eat1", "eat2"],
        ),
        (
            "DiningOrdered",
            examples::dining_ordered(),
            vec!["eat0", "eat1", "eat2"],
        ),
        (
            "RacyCounter",
            examples::racy_counter(),
            vec!["increment", "increment", "get"],
        ),
    ];
    say!("\n== specimens (FF-T2) ==");
    for (name, component, calls) in specimens {
        let scenario: Scenario = calls
            .iter()
            .enumerate()
            .map(|(i, m)| ThreadSpec {
                name: format!("t{i}"),
                calls: vec![CallSpec::new(*m, vec![])],
            })
            .collect();
        let t0 = Instant::now();
        let report = analyze(&component);
        analyze_clock += t0.elapsed();
        let predicted = report.classes(Severity::Medium).contains("FF-T2");
        let truth = dynamic_classes(&component, &[scenario]).contains("FF-T2");
        let t = tallies.entry("FF-T2".into()).or_default();
        match (truth, predicted) {
            (true, true) => {
                t.rec_hit += 1;
                t.pred_hit += 1;
            }
            (true, false) => t.rec_miss += 1,
            (false, true) => t.pred_miss += 1,
            (false, false) => {}
        }
        say!("  {name:<16} deadlock observed: {truth}, cycle predicted: {predicted}");
    }

    // -- Scores.
    say!("\n{:<8} {:>10} {:>8} {:>14} {:>14}", "class", "precision", "recall", "predictions", "truth-cases");
    for (class, t) in &tallies {
        let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.2}"));
        say!(
            "{class:<8} {:>10} {:>8} {:>14} {:>14}",
            fmt(t.precision()),
            fmt(t.recall()),
            t.pred_hit + t.pred_miss,
            t.rec_hit + t.rec_miss,
        );
        let key = class.to_lowercase().replace('-', "_");
        if let Some(p) = t.precision() {
            reporter.set_derived(&format!("precision_{key}"), p);
        }
        if let Some(r) = t.recall() {
            reporter.set_derived(&format!("recall_{key}"), r);
        }
    }
    say!(
        "\n{mutants_total} mutants ({mutants_confirmed} confirmed) + 4 specimens; \
         analyzer wall-clock {analyze_clock:.1?} total"
    );

    // -- Gate 2: the acceptance floor on the headline classes.
    for class in ["FF-T2", "FF-T5", "EF-T3", "EF-T5"] {
        let recall = tallies
            .get(class)
            .and_then(|t| t.recall())
            .unwrap_or_else(|| panic!("no ground-truth cases for {class}"));
        assert!(
            recall >= 0.6,
            "recall floor missed for {class}: {recall:.2} < 0.60"
        );
    }
    say!("gate: recall >= 0.60 on FF-T2, FF-T5, EF-T3, EF-T5");

    reporter.set_derived("components_total", full_corpus().len() as f64);
    reporter.set_derived("mutants_total", mutants_total as f64);
    reporter.set_derived("mutants_confirmed", mutants_confirmed as f64);
    reporter.set_derived("specimens", 4.0);
    reporter.set_derived("analyze_ms_total", analyze_clock.as_secs_f64() * 1e3);
    reporter.finish();
}
