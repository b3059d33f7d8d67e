//! The cross-run regression ledger (`jcc-ledger/v1`) and the one
//! regression gate.
//!
//! Every bench binary writes a `BENCH_<bin>.json` [`RunReport`]; the
//! checked-in baselines (`ci/bench_baseline*.json`) are `RunReport`s too,
//! carrying only the derived keys they gate. A [`Ledger`] diffs a sequence
//! of reports pairwise — raw counters, derived rates, coverage and
//! overhead percentages — flags regressions with the rule table below, and
//! serializes to a stable `jcc-ledger/v1` JSON document plus a human
//! table. `jcc-report <baseline> <current> --gate` is the CI gate.
//!
//! The rule table (`RULES`, each row a key predicate, a direction and a
//! bound); a derived key matches at most one rule:
//! * **floor** — `*_per_sec` and `*_factor` keys regress below
//!   [`THROUGHPUT_FLOOR`] × base;
//! * **coverage** — `*_pct` keys naming `coverage` regress more than
//!   [`COVERAGE_EPSILON`] points below base;
//! * **drop** — `*_pct` keys naming `drop` (the E12 drop rates) regress
//!   more than [`DROP_EPSILON`] points *above* base, a base of 0 when the
//!   base lacks the key;
//! * **budget** — `*_overhead_pct` keys regress above the absolute
//!   [`OVERHEAD_BUDGET_PCT`].
//!
//! Floor, coverage and budget rules judge only keys the base carries, so
//! a baseline opts into a gate by carrying the key, and a base key of one
//! of those rules is *gated*: [`Ledger::gated_count`] counts them, and a
//! gate run whose base reports gate nothing is a configuration error. The
//! drop rule instead judges whatever the current run reports: a drop-rate
//! key vanishing is an uninstrumented run, but one appearing above the
//! epsilon fires.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::json::Json;
use crate::report::RunReport;

/// The schema identifier written into every ledger document.
pub const SCHEMA: &str = "jcc-ledger/v1";

/// Throughput and ratio keys may lose at most 20% before flagging.
pub const THROUGHPUT_FLOOR: f64 = 0.8;

/// Coverage keys may lose at most this many percentage points.
pub const COVERAGE_EPSILON: f64 = 0.5;

/// Drop-rate keys may rise at most this many percentage points before the
/// monitor is considered to be shedding events it used to keep.
pub const DROP_EPSILON: f64 = 0.5;

/// The absolute budget, in percent, for every measured overhead figure:
/// the always-on capture path (E12) and the live-introspection stack (E14)
/// must each cost less than this to be worth leaving on.
pub const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// How a rule's limit follows from the base value.
#[derive(Clone, Copy)]
enum Bound {
    /// This fraction of the base value.
    TimesBase(f64),
    /// This many percentage points away from the base value.
    PointsFromBase(f64),
    /// This absolute value, whatever the base.
    Absolute(f64),
}

/// One row of the regression policy: which keys, which way, how far.
struct Rule {
    name: &'static str,
    matches: fn(&str) -> bool,
    /// The current value must stay at or above the limit (else at or below).
    higher_is_better: bool,
    bound: Bound,
    /// Only keys the base carries are judged, and losing one regresses.
    /// When `false`, any current value is judged (against a base of 0 when
    /// absent) and a lost key is quiet.
    gates: bool,
}

/// The regression policy. See the module docs.
const RULES: &[Rule] = &[
    Rule {
        name: "floor",
        matches: |k| k.ends_with("_per_sec") || k.ends_with("_factor"),
        higher_is_better: true,
        bound: Bound::TimesBase(THROUGHPUT_FLOOR),
        gates: true,
    },
    Rule {
        name: "coverage",
        matches: |k| k.ends_with("_pct") && k.contains("coverage"),
        higher_is_better: true,
        bound: Bound::PointsFromBase(COVERAGE_EPSILON),
        gates: true,
    },
    Rule {
        name: "drop",
        matches: |k| k.ends_with("_pct") && k.contains("drop"),
        higher_is_better: false,
        bound: Bound::PointsFromBase(DROP_EPSILON),
        gates: false,
    },
    Rule {
        name: "budget",
        matches: |k| k.ends_with("_overhead_pct"),
        higher_is_better: false,
        bound: Bound::Absolute(OVERHEAD_BUDGET_PCT),
        gates: true,
    },
];

impl Rule {
    /// The regression this rule flags for `key`, if any.
    fn check(&self, key: &str, base: Option<f64>, current: Option<f64>) -> Option<String> {
        let name = self.name;
        let Some(c) = current else {
            return base
                .filter(|_| self.gates)
                .map(|b| format!("{key} disappeared (was {b:.1}; {name} rule)"));
        };
        if self.gates && base.is_none() {
            return None;
        }
        let b = base.unwrap_or(0.0);
        let (limit, why) = match self.bound {
            Bound::TimesBase(f) => (b * f, format!("{:.0}% of base", f * 100.0)),
            Bound::PointsFromBase(p) if self.higher_is_better => (b - p, format!("{p} points")),
            Bound::PointsFromBase(p) => (b + p, format!("{p} points")),
            Bound::Absolute(a) => (a, "absolute".to_string()),
        };
        if self.higher_is_better && c >= limit || !self.higher_is_better && c <= limit {
            return None;
        }
        let verb = match base {
            None => "appeared at".to_string(),
            Some(b) if self.higher_is_better => format!("fell {b:.1} ->"),
            Some(b) => format!("rose {b:.1} ->"),
        };
        Some(format!("{key} {verb} {c:.1} ({name} rule: limit {limit:.1}, {why})"))
    }
}

/// One counter whose value differs between two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Value in the base run (0 when absent there).
    pub base: u64,
    /// Value in the current run (0 when absent there).
    pub current: u64,
}

impl CounterDelta {
    /// Signed change, current − base.
    pub fn delta(&self) -> i64 {
        self.current as i64 - self.base as i64
    }
}

/// One derived value compared between two runs. A side is `None` when the
/// key is absent in that run.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedDelta {
    /// Derived key (e.g. `states_per_sec`, `arc_coverage_pct`).
    pub name: String,
    /// Base-run value.
    pub base: Option<f64>,
    /// Current-run value.
    pub current: Option<f64>,
}

impl DerivedDelta {
    /// Percentage change relative to base; `None` when either side is
    /// missing or base is zero.
    pub fn pct_change(&self) -> Option<f64> {
        match (self.base, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some((c - b) / b * 100.0),
            _ => None,
        }
    }
}

/// The pairwise diff of two [`RunReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Producing binary of the base run.
    pub base_bin: String,
    /// Producing binary of the current run.
    pub current_bin: String,
    /// Base run wall-clock, seconds.
    pub base_wall_seconds: f64,
    /// Current run wall-clock, seconds.
    pub current_wall_seconds: f64,
    /// Counters whose values differ, name-sorted (absent = 0).
    pub counters_changed: Vec<CounterDelta>,
    /// How many counters (union of both runs) were identical.
    pub counters_unchanged: u64,
    /// Every derived key from either run, name-sorted.
    pub derived: Vec<DerivedDelta>,
    /// How many base keys a gating rule judged.
    pub gated: usize,
    /// Human descriptions of each regression the rules flagged.
    pub regressions: Vec<String>,
}

/// Diff `current` against `base` and flag regressions.
pub fn diff_reports(base: &RunReport, current: &RunReport) -> LedgerEntry {
    let counter_names: BTreeSet<&String> =
        base.counters.keys().chain(current.counters.keys()).collect();
    let mut counters_changed = Vec::new();
    let mut counters_unchanged = 0u64;
    for name in counter_names {
        let b = base.counter(name);
        let c = current.counter(name);
        if b == c {
            counters_unchanged += 1;
        } else {
            counters_changed.push(CounterDelta {
                name: name.clone(),
                base: b,
                current: c,
            });
        }
    }

    let derived_names: BTreeSet<&String> =
        base.derived.keys().chain(current.derived.keys()).collect();
    let mut derived = Vec::new();
    let mut regressions = Vec::new();
    let mut gated = 0;
    for name in derived_names {
        let d = DerivedDelta {
            name: name.clone(),
            base: base.derived.get(name).copied(),
            current: current.derived.get(name).copied(),
        };
        if let Some(rule) = RULES.iter().find(|r| (r.matches)(name)) {
            gated += usize::from(rule.gates && d.base.is_some());
            regressions.extend(rule.check(name, d.base, d.current));
        }
        derived.push(d);
    }

    LedgerEntry {
        base_bin: base.bin.clone(),
        current_bin: current.bin.clone(),
        base_wall_seconds: base.wall_seconds,
        current_wall_seconds: current.wall_seconds,
        counters_changed,
        counters_unchanged,
        derived,
        gated,
        regressions,
    }
}

/// A sequence of pairwise run diffs. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// One entry per consecutive report pair, in input order.
    pub entries: Vec<LedgerEntry>,
}

impl Ledger {
    /// Diff each consecutive pair of `reports` (n reports → n−1 entries).
    pub fn from_reports(reports: &[RunReport]) -> Ledger {
        Ledger {
            entries: reports
                .windows(2)
                .map(|w| diff_reports(&w[0], &w[1]))
                .collect(),
        }
    }

    /// Base keys judged by a gating rule, across all entries. Zero means
    /// the reports gate nothing, so a gate over them would pass by
    /// construction.
    pub fn gated_count(&self) -> usize {
        self.entries.iter().map(|e| e.gated).sum()
    }

    /// Total regressions flagged across all entries.
    pub fn regression_count(&self) -> usize {
        self.entries.iter().map(|e| e.regressions.len()).sum()
    }

    /// Serialize to the `jcc-ledger/v1` JSON value.
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<f64>| match v {
            Some(n) => Json::Num(n),
            None => Json::Null,
        };
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Json::obj([
                    ("base_bin".to_string(), Json::Str(e.base_bin.clone())),
                    ("current_bin".to_string(), Json::Str(e.current_bin.clone())),
                    (
                        "base_wall_seconds".to_string(),
                        Json::Num(e.base_wall_seconds),
                    ),
                    (
                        "current_wall_seconds".to_string(),
                        Json::Num(e.current_wall_seconds),
                    ),
                    (
                        "counters_changed".to_string(),
                        Json::Arr(
                            e.counters_changed
                                .iter()
                                .map(|c| {
                                    Json::obj([
                                        ("name".to_string(), Json::Str(c.name.clone())),
                                        ("base".to_string(), Json::Num(c.base as f64)),
                                        ("current".to_string(), Json::Num(c.current as f64)),
                                        ("delta".to_string(), Json::Num(c.delta() as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "counters_unchanged".to_string(),
                        Json::Num(e.counters_unchanged as f64),
                    ),
                    (
                        "derived".to_string(),
                        Json::Arr(
                            e.derived
                                .iter()
                                .map(|d| {
                                    Json::obj([
                                        ("name".to_string(), Json::Str(d.name.clone())),
                                        ("base".to_string(), opt_num(d.base)),
                                        ("current".to_string(), opt_num(d.current)),
                                        ("pct_change".to_string(), opt_num(d.pct_change())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "regressions".to_string(),
                        Json::Arr(
                            e.regressions
                                .iter()
                                .map(|r| Json::Str(r.clone()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            (
                "comparisons".to_string(),
                Json::Num(self.entries.len() as f64),
            ),
            (
                "regression_count".to_string(),
                Json::Num(self.regression_count() as f64),
            ),
            ("entries".to_string(), Json::Arr(entries)),
        ])
    }

    /// Serialize to pretty JSON text (one trailing newline) — the
    /// `jcc-ledger.json` file format.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }

    /// The human table `jcc-report` prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "jcc-report — cross-run ledger ({} comparison{}, {} regression{})",
            self.entries.len(),
            if self.entries.len() == 1 { "" } else { "s" },
            self.regression_count(),
            if self.regression_count() == 1 { "" } else { "s" },
        );
        for (i, e) in self.entries.iter().enumerate() {
            let _ = writeln!(
                out,
                "-- [{i}] {} ({:.3}s) -> {} ({:.3}s) --",
                e.base_bin, e.base_wall_seconds, e.current_bin, e.current_wall_seconds
            );
            let _ = writeln!(
                out,
                "  counters: {} unchanged, {} changed",
                e.counters_unchanged,
                e.counters_changed.len()
            );
            for c in &e.counters_changed {
                let _ = writeln!(
                    out,
                    "    {:<40} {:>12} -> {:<12} ({:+})",
                    c.name,
                    c.base,
                    c.current,
                    c.delta()
                );
            }
            if !e.derived.is_empty() {
                let _ = writeln!(out, "  derived:");
                for d in &e.derived {
                    let fmt_side = |v: Option<f64>| match v {
                        Some(n) => format!("{n:.1}"),
                        None => "absent".to_string(),
                    };
                    let pct = match d.pct_change() {
                        Some(p) => format!(" ({p:+.1}%)"),
                        None => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "    {:<40} {:>12} -> {:<12}{pct}",
                        d.name,
                        fmt_side(d.base),
                        fmt_side(d.current)
                    );
                }
            }
            let _ = writeln!(out, "  gated base keys: {}", e.gated);
            match e.regressions.len() {
                0 => {
                    let _ = writeln!(out, "  regressions: none");
                }
                _ => {
                    let _ = writeln!(out, "  regressions:");
                    for r in &e.regressions {
                        let _ = writeln!(out, "    REGRESSION: {r}");
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::ObsLevel;
    use crate::metrics::Registry;

    fn report(states: u64, rate: f64, coverage: Option<f64>) -> RunReport {
        let reg = Registry::new();
        reg.counter("vm.explore.states").add(states);
        reg.counter("transition.T1").add(17);
        let mut r = RunReport::from_registry("e8_statespace", ObsLevel::Summary, 1.0, &reg);
        r.set_derived("states_per_sec", rate);
        if let Some(c) = coverage {
            r.set_derived("arc_coverage_pct", c);
        }
        r
    }

    #[test]
    fn self_diff_has_zero_regressions() {
        let r = report(1000, 450_000.0, Some(60.0));
        let ledger = Ledger::from_reports(&[r.clone(), r]);
        assert_eq!(ledger.entries.len(), 1);
        assert_eq!(ledger.regression_count(), 0);
        assert!(ledger.entries[0].counters_changed.is_empty());
        assert_eq!(ledger.entries[0].counters_unchanged, 2);
    }

    #[test]
    fn counter_deltas_are_reported() {
        let a = report(1000, 450_000.0, None);
        let b = report(1016, 450_000.0, None);
        let e = diff_reports(&a, &b);
        assert_eq!(e.counters_changed.len(), 1);
        assert_eq!(e.counters_changed[0].name, "vm.explore.states");
        assert_eq!(e.counters_changed[0].delta(), 16);
        assert_eq!(e.counters_unchanged, 1);
    }

    #[test]
    fn throughput_floor_flags_regression() {
        let a = report(1000, 450_000.0, None);
        let ok = report(1000, 380_000.0, None);
        assert_eq!(diff_reports(&a, &ok).regressions.len(), 0, "within floor");
        let bad = report(1000, 300_000.0, None);
        let e = diff_reports(&a, &bad);
        assert_eq!(e.regressions.len(), 1, "{:?}", e.regressions);
        assert!(e.regressions[0].contains("states_per_sec"));
    }

    #[test]
    fn coverage_drop_and_disappearance_flag_regressions() {
        let a = report(1000, 450_000.0, Some(60.0));
        let small_drift = report(1000, 450_000.0, Some(59.8));
        assert_eq!(diff_reports(&a, &small_drift).regressions.len(), 0);
        let dropped = report(1000, 450_000.0, Some(50.0));
        assert_eq!(diff_reports(&a, &dropped).regressions.len(), 1);
        let gone = report(1000, 450_000.0, None);
        let e = diff_reports(&a, &gone);
        assert_eq!(e.regressions.len(), 1, "{:?}", e.regressions);
        assert!(e.regressions[0].contains("disappeared"));
    }

    /// A report shaped like the E11 corpus sweep writes it: per-size
    /// census and throughput keys, the ladder length, and the curve
    /// fingerprint — but no coverage key.
    fn e11_report(scale: f64) -> RunReport {
        let reg = Registry::new();
        reg.counter("vm.explore.states").add(162_159);
        let mut r = RunReport::from_registry("e11_corpus_sweep", ObsLevel::Summary, 2.5, &reg);
        for (n, states) in [(1u32, 339.0), (2, 12_032.0), (3, 48_415.0), (4, 101_373.0)] {
            r.set_derived(&format!("size{n}_states"), states);
            r.set_derived(&format!("size{n}_states_per_sec"), states / 0.4 * scale);
            r.set_derived(&format!("size{n}_diag_count"), 2.0 * n as f64);
        }
        r.set_derived("sweep_sizes", 4.0);
        r.set_derived("curve_fnv1a", 1.234e15);
        r.set_derived("states_per_sec", 63_000.0 * scale);
        r
    }

    #[test]
    fn e11_sweep_report_roundtrips_and_self_diffs_clean() {
        let r = e11_report(1.0);
        let back = RunReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r, "BENCH_e11.json round-trips losslessly");
        let ledger = Ledger::from_reports(&[back, r]);
        assert_eq!(ledger.regression_count(), 0, "a self-diff is clean");
        let derived_names: Vec<&str> = ledger.entries[0]
            .derived
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        for key in ["size1_states", "size4_states_per_sec", "sweep_sizes", "curve_fnv1a"] {
            assert!(derived_names.contains(&key), "missing {key} in {derived_names:?}");
        }
    }

    #[test]
    fn e11_throughput_drop_fires_the_per_sec_rule() {
        let base = e11_report(1.0);
        let slowed = e11_report(0.7);
        let e = diff_reports(&base, &slowed);
        // Every *_per_sec key fell to 0.7x (< the 0.8 floor): the aggregate
        // plus one per ladder size. The census and diag-count keys are not
        // throughput keys and must stay quiet.
        assert_eq!(e.regressions.len(), 5, "{:?}", e.regressions);
        assert!(e.regressions.iter().any(|r| r.contains("states_per_sec")));
        assert!(e
            .regressions
            .iter()
            .all(|r| !r.contains("_states ") && !r.contains("diag_count")));
    }

    #[test]
    fn older_e11_reports_without_per_size_keys_still_diff() {
        // An old-format BENCH_e11.json (before the per-size curve keys)
        // must still parse leniently and diff against a new report without
        // phantom regressions: the floor rule judges only keys the base
        // carries, so a key that appeared is not gated.
        let old_text: String = {
            let mut r = e11_report(1.0);
            r.derived.retain(|k, _| !k.starts_with("size"));
            r.to_json_string()
        };
        let old = RunReport::from_json_str(&old_text).expect("old-format report parses");
        let e = diff_reports(&old, &e11_report(1.0));
        assert_eq!(e.regressions.len(), 0, "{:?}", e.regressions);
        let appeared = e
            .derived
            .iter()
            .filter(|d| d.base.is_none() && d.current.is_some())
            .count();
        assert_eq!(appeared, 12, "4 sizes x (states, states_per_sec, diag_count)");
    }

    /// A report shaped like the E12 live-monitor bench writes it: capture
    /// throughput, overhead, drop rate, and latency percentiles.
    fn e12_report(drop_rate: f64, events_per_sec: f64) -> RunReport {
        let reg = Registry::new();
        reg.counter("runtime.events").add(2_000_000);
        reg.counter("runtime.capture.dropped").add((drop_rate * 20_000.0) as u64);
        let mut r = RunReport::from_registry("e12_live_monitor", ObsLevel::Summary, 3.0, &reg);
        r.set_derived("events_per_sec", events_per_sec);
        r.set_derived("capture_overhead_pct", 2.4);
        r.set_derived("drop_rate_pct", drop_rate);
        r.set_derived("capture_latency_p50_ns", 64.0);
        r.set_derived("capture_latency_p99_ns", 512.0);
        r
    }

    #[test]
    fn e12_report_self_diffs_clean_and_roundtrips() {
        let r = e12_report(0.0, 4_000_000.0);
        let back = RunReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r, "BENCH_e12.json round-trips losslessly");
        let ledger = Ledger::from_reports(&[back, r]);
        assert_eq!(ledger.regression_count(), 0, "a self-diff is clean");
        let derived_names: Vec<&str> = ledger.entries[0]
            .derived
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        for key in ["events_per_sec", "capture_overhead_pct", "drop_rate_pct"] {
            assert!(derived_names.contains(&key), "missing {key} in {derived_names:?}");
        }
    }

    #[test]
    fn drop_rate_rise_fires_a_regression() {
        let base = e12_report(0.0, 4_000_000.0);
        let drift = e12_report(0.3, 4_000_000.0);
        assert_eq!(
            diff_reports(&base, &drift).regressions.len(),
            0,
            "rises within DROP_EPSILON stay quiet"
        );
        let shedding = e12_report(4.2, 4_000_000.0);
        let e = diff_reports(&base, &shedding);
        assert_eq!(e.regressions.len(), 1, "{:?}", e.regressions);
        assert!(e.regressions[0].contains("drop_rate_pct"), "{:?}", e.regressions);
        assert!(e.regressions[0].contains("rose"), "{:?}", e.regressions);
    }

    #[test]
    fn drop_rate_improvement_and_disappearance_stay_quiet() {
        let base = e12_report(4.2, 4_000_000.0);
        let better = e12_report(0.0, 4_000_000.0);
        assert_eq!(diff_reports(&base, &better).regressions.len(), 0);
        // Unlike coverage keys, a drop-rate key vanishing is not a
        // regression — an uninstrumented comparison run just lacks it.
        let mut gone = e12_report(0.0, 4_000_000.0);
        gone.derived.retain(|k, _| k != "drop_rate_pct");
        assert_eq!(diff_reports(&base, &gone).regressions.len(), 0);
    }

    #[test]
    fn drop_rate_appearing_above_epsilon_fires() {
        let mut base = e12_report(0.0, 4_000_000.0);
        base.derived.retain(|k, _| k != "drop_rate_pct");
        let appeared = e12_report(2.0, 4_000_000.0);
        let e = diff_reports(&base, &appeared);
        assert_eq!(e.regressions.len(), 1, "{:?}", e.regressions);
        assert!(e.regressions[0].contains("appeared"), "{:?}", e.regressions);
        let tiny = e12_report(0.2, 4_000_000.0);
        assert_eq!(diff_reports(&base, &tiny).regressions.len(), 0);
    }

    /// A report shaped like the E13 Java-frontend bench writes it:
    /// corpus census keys plus the `java_loc_per_sec` full-pipeline
    /// throughput figure (and the always-present `states_per_sec`, 0 for
    /// a bench that explores nothing).
    fn e13_report(loc_per_sec: f64) -> RunReport {
        let reg = Registry::new();
        reg.counter("analyze.components").add(720);
        reg.counter("analyze.diagnostics").add(630);
        let mut r = RunReport::from_registry("e13_java_frontend", ObsLevel::Summary, 0.02, &reg);
        r.set_derived("java_loc_per_sec", loc_per_sec);
        r.set_derived("java_files", 16.0);
        r.set_derived("java_loc", 305.0);
        r.set_derived("java_findings_total", 14.0);
        r.set_derived("java_high_findings_clean", 0.0);
        r.set_derived("states_per_sec", 0.0);
        r
    }

    #[test]
    fn e13_report_self_diffs_clean_and_roundtrips() {
        let r = e13_report(800_000.0);
        let back = RunReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r, "BENCH_e13.json round-trips losslessly");
        let ledger = Ledger::from_reports(&[back, r]);
        assert_eq!(ledger.regression_count(), 0, "a self-diff is clean");
        let derived_names: Vec<&str> = ledger.entries[0]
            .derived
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        for key in ["java_loc_per_sec", "java_files", "java_loc", "java_findings_total"] {
            assert!(derived_names.contains(&key), "missing {key} in {derived_names:?}");
        }
    }

    #[test]
    fn e13_loc_throughput_drop_fires_the_per_sec_rule() {
        // `java_loc_per_sec` ends in `_per_sec`, so the floor rule covers
        // the Java frontend with no ledger changes.
        let base = e13_report(800_000.0);
        let ok = diff_reports(&base, &e13_report(700_000.0));
        assert_eq!(ok.regressions.len(), 0, "within floor: {:?}", ok.regressions);
        let e = diff_reports(&base, &e13_report(500_000.0));
        assert_eq!(e.regressions.len(), 1, "{:?}", e.regressions);
        assert!(e.regressions[0].contains("java_loc_per_sec"), "{:?}", e.regressions);
        // The census keys are not throughput keys and must stay quiet even
        // when they move.
        let mut fewer = e13_report(800_000.0);
        fewer.derived.insert("java_findings_total".into(), 9.0);
        fewer.derived.insert("java_loc".into(), 250.0);
        assert_eq!(diff_reports(&base, &fewer).regressions.len(), 0);
    }

    /// A report shaped like the E14 live-introspection bench writes it:
    /// exploration throughput with the full live stack on, the
    /// introspection overhead subtraction, and the heartbeat rate.
    fn e14_report(overhead_pct: f64, heartbeats_per_sec: f64) -> RunReport {
        let reg = Registry::new();
        reg.counter("petri.reach.states").add(2187);
        reg.counter("live.heartbeat.count").add(12);
        let mut r =
            RunReport::from_registry("e14_live_introspection", ObsLevel::Summary, 1.5, &reg);
        r.set_derived("states_per_sec", 80_000.0);
        r.set_derived("introspection_overhead_pct", overhead_pct);
        r.set_derived("introspection_noise_floor_pct", 0.1);
        r.set_derived("heartbeats_per_sec", heartbeats_per_sec);
        r
    }

    #[test]
    fn e14_report_self_diffs_clean_and_roundtrips() {
        let r = e14_report(1.8, 8.0);
        let back = RunReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r, "BENCH_e14.json round-trips losslessly");
        let ledger = Ledger::from_reports(&[back, r]);
        assert_eq!(ledger.regression_count(), 0, "a self-diff is clean");
        let derived_names: Vec<&str> = ledger.entries[0]
            .derived
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        for key in ["introspection_overhead_pct", "heartbeats_per_sec"] {
            assert!(
                derived_names.contains(&key),
                "missing {key} in {derived_names:?}"
            );
        }
    }

    #[test]
    fn e14_heartbeat_rate_drop_fires_the_per_sec_rule() {
        // `heartbeats_per_sec` ends in `_per_sec`, so the generic
        // throughput floor covers the live stack's activity rate with no
        // ledger changes.
        let base = e14_report(1.8, 8.0);
        let ok = diff_reports(&base, &e14_report(1.8, 7.0));
        assert_eq!(ok.regressions.len(), 0, "within floor: {:?}", ok.regressions);
        let e = diff_reports(&base, &e14_report(1.8, 2.0));
        assert_eq!(e.regressions.len(), 1, "{:?}", e.regressions);
        assert!(e.regressions[0].contains("heartbeats_per_sec"), "{:?}", e.regressions);
    }

    #[test]
    fn e14_overhead_is_budgeted_by_the_ledger() {
        // `introspection_overhead_pct` is judged against the absolute 5%
        // budget, not against the base figure: a rise from 0.5 to 4.9 is
        // quiet, 5.1 is over budget.
        let base = e14_report(0.5, 8.0);
        let worse = e14_report(4.9, 8.0);
        let e = diff_reports(&base, &worse);
        assert_eq!(e.regressions.len(), 0, "{:?}", e.regressions);
        assert!(e
            .derived
            .iter()
            .any(|d| d.name == "introspection_overhead_pct" && d.current == Some(4.9)));
        let over = diff_reports(&base, &e14_report(5.1, 8.0));
        assert_eq!(over.regressions.len(), 1, "{:?}", over.regressions);
        assert!(over.regressions[0].contains("introspection_overhead_pct"));
    }

    #[test]
    fn older_reports_without_e14_keys_still_diff() {
        // A pre-E14 report (no live-introspection keys) parses leniently
        // and diffs against a new one without phantom regressions: the
        // `_per_sec` rule only fires when both sides carry the key.
        let old_text = {
            let mut r = e14_report(1.8, 8.0);
            r.derived.retain(|k, _| k == "states_per_sec");
            r.to_json_string()
        };
        let old = RunReport::from_json_str(&old_text).expect("old-format report parses");
        let e = diff_reports(&old, &e14_report(1.8, 8.0));
        assert_eq!(e.regressions.len(), 0, "{:?}", e.regressions);
        let appeared = e
            .derived
            .iter()
            .filter(|d| d.base.is_none() && d.current.is_some())
            .count();
        assert_eq!(appeared, 3, "the three live-introspection keys appeared");
    }

    /// A checked-in baseline: no metrics, only the derived keys it gates.
    fn baseline(derived: &[(&str, f64)]) -> RunReport {
        let mut r = RunReport::from_registry("baseline", ObsLevel::Summary, 0.0, &Registry::new());
        for (k, v) in derived {
            r.set_derived(k, *v);
        }
        r
    }

    #[test]
    fn floor_and_budget_rules_gate_what_the_base_carries() {
        type Keys = &'static [(&'static str, f64)];
        let cases: &[(Keys, Keys, usize)] = &[
            // Floor: 0.80x and faster pass, 0.79x fails, a lost figure fails.
            (&[("states_per_sec", 100.0)], &[("states_per_sec", 80.0)], 0),
            (&[("states_per_sec", 100.0)], &[("states_per_sec", 500.0)], 0),
            (&[("states_per_sec", 100.0)], &[("states_per_sec", 79.0)], 1),
            (&[("events_per_sec", 100.0)], &[("packed_events_per_sec", 100.0)], 1),
            // `reduction_factor` is a floor key: deeper passes, shallower fails.
            (&[("reduction_factor", 120.0)], &[("reduction_factor", 200.0)], 0),
            (&[("reduction_factor", 120.0)], &[("reduction_factor", 90.0)], 1),
            // Budget: absolute 5% whatever the base; a lost figure fails.
            (&[("capture_overhead_pct", 5.0)], &[("capture_overhead_pct", 5.0)], 0),
            (&[("capture_overhead_pct", 5.0)], &[("capture_overhead_pct", 5.1)], 1),
            (&[("introspection_overhead_pct", 5.0)], &[], 1),
        ];
        for &(base, current, want) in cases {
            let e = diff_reports(&baseline(base), &baseline(current));
            assert_eq!(e.regressions.len(), want, "{base:?} -> {current:?}: {:?}", e.regressions);
            assert_eq!(e.gated, 1, "{base:?}");
        }
    }

    #[test]
    fn a_baseline_that_gates_nothing_is_detected() {
        let current = e12_report(0.0, 4_000_000.0);
        let empty = Ledger::from_reports(&[baseline(&[]), current.clone()]);
        assert_eq!(empty.gated_count(), 0);
        // Drop rates and census keys are not gated either.
        let ungated = baseline(&[("drop_rate_pct", 0.0), ("java_loc", 305.0)]);
        assert_eq!(Ledger::from_reports(&[ungated, current]).gated_count(), 0);
    }

    #[test]
    fn every_report_key_matches_at_most_one_rule() {
        let shapes = [
            report(1000, 450_000.0, Some(60.0)),
            e11_report(1.0),
            e12_report(0.0, 4_000_000.0),
            e13_report(800_000.0),
            e14_report(1.8, 8.0),
        ];
        for key in shapes.iter().flat_map(|r| r.derived.keys()) {
            let rules: Vec<&str> = RULES
                .iter()
                .filter(|r| (r.matches)(key))
                .map(|r| r.name)
                .collect();
            assert!(rules.len() <= 1, "{key} matches {rules:?}");
        }
    }

    #[test]
    fn ledger_json_is_deterministic_and_tagged() {
        let a = report(1000, 450_000.0, Some(60.0));
        let b = report(1016, 440_000.0, Some(60.0));
        let l1 = Ledger::from_reports(&[a.clone(), b.clone()]);
        let l2 = Ledger::from_reports(&[a, b]);
        assert_eq!(l1.to_json_string(), l2.to_json_string());
        let parsed = Json::parse(&l1.to_json_string()).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(parsed.get("comparisons").unwrap().as_u64(), Some(1));
        let table = l1.render_table();
        assert!(table.contains("vm.explore.states"), "{table}");
        assert!(table.contains("regressions: none"), "{table}");
    }
}
