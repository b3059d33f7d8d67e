//! The checked-in regression baselines (`ci/bench_baseline*.json`) are
//! `jcc-obs/v1` run reports that `jcc-report --gate` judges with the
//! `obs::ledger` rule table. These tests catch a baseline that no longer
//! parses, gates nothing, or whose floors no longer bite — before CI runs
//! the gate against a fresh bench report.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use jcc_core::obs::ledger::diff_reports;
use jcc_core::obs::{ObsLevel, Registry, RunReport};

fn ci_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci")
}

/// Every `ci/bench_baseline*.json`, parsed.
fn baselines() -> Vec<(String, RunReport)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(ci_dir()).expect("ci/ exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("bench_baseline") && name.ends_with(".json") {
            let text = std::fs::read_to_string(&path).unwrap();
            let report = RunReport::from_json_str(&text)
                .unwrap_or_else(|e| panic!("{name} is not a run report: {e:?}"));
            out.push((name, report));
        }
    }
    assert_eq!(out.len(), 5, "one baseline per gated bench (e8, e11-e14)");
    out
}

#[test]
fn every_baseline_parses_and_gates_at_least_one_key() {
    for (name, base) in baselines() {
        assert!(base.counters.is_empty() && base.phases.is_empty(), "{name}");
        let e = diff_reports(&base, &base);
        assert!(e.gated > 0, "{name} gates no key");
        assert_eq!(e.gated, base.derived.len(), "{name} carries an ungated key");
    }
}

#[test]
fn every_baseline_fails_a_run_at_070_of_its_floors() {
    for (name, base) in baselines() {
        let mut slowed = base.clone();
        let mut floors = 0;
        for (key, value) in slowed.derived.iter_mut() {
            // The floor rule's keys.
            if key.ends_with("_per_sec") || key.ends_with("_factor") {
                *value *= 0.7;
                floors += 1;
            }
        }
        assert!(floors > 0, "{name} carries no floor key");
        let e = diff_reports(&base, &slowed);
        assert_eq!(e.regressions.len(), floors, "{name}: {:?}", e.regressions);
    }
}

fn jcc_report(args: &[&Path]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_jcc-report"))
        .args(args)
        .args(["--gate", "--quiet"])
        .stderr(Stdio::null())
        .status()
        .expect("jcc-report runs")
        .code()
}

#[test]
fn the_gate_rejects_an_empty_baseline_and_a_raised_reduction_floor() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let current = ci_dir().join("bench_baseline.json");
    assert_eq!(jcc_report(&[&current, &current]), Some(0));

    let empty = tmp.join("empty_baseline.json");
    RunReport::from_registry("empty", ObsLevel::Summary, 0.0, &Registry::new())
        .write_to(&empty)
        .unwrap();
    assert_eq!(jcc_report(&[&empty, &current]), Some(2), "gates nothing");

    let mut raised = RunReport::from_json_str(&std::fs::read_to_string(&current).unwrap()).unwrap();
    let factor = raised.derived["reduction_factor"];
    raised.set_derived("reduction_factor", factor * 2.0);
    let raised_path = tmp.join("raised_reduction_floor.json");
    raised.write_to(&raised_path).unwrap();
    assert_eq!(jcc_report(&[&raised_path, &current]), Some(1), "reduction_factor is gated");
}
