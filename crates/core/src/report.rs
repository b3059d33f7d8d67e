//! Plain-text report rendering: Table 1 in the paper's layout, CoFG arc
//! listings (Figure 3), coverage summaries and the mutation-study matrix.

use std::fmt::Write as _;

use jcc_analyze::{AnalysisReport, Severity};
use jcc_cofg::Cofg;
use jcc_cofg::coverage::CoverageTracker;
use jcc_detect::classify::Finding;

use crate::hazop::TableRow;
use crate::pipeline::{MutationStudyResult, ScheduleEvidence};

/// Render Table 1 — the concurrency failure classification — in the
/// paper's column layout.
pub fn render_table1(rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1. Concurrency failure classification");
    let _ = writeln!(out, "{}", "=".repeat(78));
    for row in rows {
        let _ = writeln!(
            out,
            "{} — {} of {} ({})",
            row.class.code(),
            row.class.deviation,
            row.class.transition,
            row.class.transition.description()
        );
        if !row.applicable {
            let _ = writeln!(out, "  Cause:        not applicable (JVM assumed correct)");
            let _ = writeln!(out, "{}", "-".repeat(78));
            continue;
        }
        let _ = writeln!(out, "  Cause:        {}", row.cause);
        let _ = writeln!(out, "  Conditions:   {}", row.conditions);
        let _ = writeln!(out, "  Consequences: {}", row.consequences);
        let _ = writeln!(out, "  Testing:      {}", row.testing_notes);
        if let Some(name) = row.class.common_name() {
            let _ = writeln!(out, "  Known as:     {name}");
        }
        let _ = writeln!(out, "{}", "-".repeat(78));
    }
    out
}

/// Render a method's CoFG as the paper's numbered arc list (Figure 3 text).
pub fn render_cofg_arcs(cofg: &Cofg) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CoFG for {}.{} — {} nodes, {} arcs",
        cofg.component,
        cofg.method,
        cofg.nodes.len(),
        cofg.arcs.len()
    );
    for (i, _arc) in cofg.arcs.iter().enumerate() {
        let _ = writeln!(out, "  {}. {}", i + 1, cofg.describe_arc(i));
    }
    out
}

/// Render a coverage summary.
pub fn render_coverage(tracker: &CoverageTracker) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CoFG arc coverage: {}/{} ({:.0}%)",
        tracker.covered_arcs(),
        tracker.total_arcs(),
        tracker.ratio() * 100.0
    );
    for (method, covered, total) in tracker.per_method() {
        let _ = writeln!(out, "  {method}: {covered}/{total}");
    }
    let uncovered = tracker.uncovered();
    if !uncovered.is_empty() {
        let _ = writeln!(out, "uncovered arcs:");
        for (method, arc) in uncovered {
            let _ = writeln!(out, "  {method}: {arc}");
        }
    }
    out
}

/// Render the mutation-study matrix (experiment E5).
pub fn render_study(result: &MutationStudyResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Mutation study — component {}", result.component);
    let _ = writeln!(
        out,
        "directed suite: {} scenario(s), {:.0}% arc coverage",
        result.directed_suite_size,
        result.directed_coverage * 100.0
    );
    let _ = writeln!(
        out,
        "random baseline: {} scenario(s), {:.0}% arc coverage",
        result.random_suite_size,
        result.random_coverage * 100.0
    );
    let _ = writeln!(
        out,
        "{:<44} {:>6} {:>9} {:>7}",
        "mutant", "class", "directed", "random"
    );
    for m in &result.mutants {
        let _ = writeln!(
            out,
            "{:<44} {:>6} {:>9} {:>7}",
            m.mutation.label(),
            m.mutation.kind.seeded_class().code(),
            tick(m.detected_directed),
            tick(m.detected_random)
        );
    }
    let (dd, dt) = result.directed_score();
    let (rd, rt) = result.random_score();
    let _ = writeln!(
        out,
        "behavioural mutants detected: directed {dd}/{dt}, random {rd}/{rt}"
    );
    out
}

/// Render the static analyzer's verdict next to dynamically classified
/// findings: what the analyzer predicted from the source alone, and what
/// the VM actually observed. The two views share Table-1 class codes, so
/// agreement (or a miss on either side) is visible at a glance.
///
/// Pass `evidence` (from [`crate::pipeline::Pipeline::explore_evidence`])
/// to additionally print the failing schedule itself — an ASCII causal
/// timeline of the deterministic witness — and the CoFG arc-heat table
/// showing which arcs the failure traversed versus what the directed
/// suite covers. An exploration that ran out of budget without a witness
/// renders as inconclusive, never as "no findings".
pub fn render_findings_with_evidence(
    analysis: &AnalysisReport,
    dynamic: &[Finding],
    evidence: Option<&ScheduleEvidence>,
) -> String {
    let none = match evidence {
        Some(ev) if ev.inconclusive() && ev.depth_limited_paths > 0 => format!(
            "inconclusive (depth budget, {} path(s) cut off, {} states reached)",
            ev.depth_limited_paths, ev.states
        ),
        Some(ev) if ev.inconclusive() => {
            format!("inconclusive (state budget, {} states reached)", ev.states)
        }
        _ => "no findings".to_string(),
    };
    let mut out = render_comparison(analysis, dynamic, &none);
    let Some(ev) = evidence else { return out };
    if let Some(timeline) = &ev.timeline {
        let _ = writeln!(out, "Failing schedule (deterministic witness):");
        for line in timeline.render_ascii().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    if !ev.arc_heat.is_empty() {
        let _ = writeln!(out, "CoFG arc heat (witness traversals vs directed suite):");
        let _ = writeln!(out, "  {:>5} {:>8}  arc", "hits", "directed");
        for row in &ev.arc_heat {
            let _ = writeln!(
                out,
                "  {:>5} {:>8}  {}: {}",
                row.hits,
                tick(row.directed),
                row.method,
                row.arc
            );
        }
        let gap = ev.hot_uncovered();
        if !gap.is_empty() {
            let _ = writeln!(
                out,
                "  {} arc(s) the failure traversed that the directed suite never covers",
                gap.len()
            );
        }
    }
    out
}

/// Render the static-vs-dynamic comparison without schedule evidence.
/// Shorthand for [`render_findings_with_evidence`] with `None`.
pub fn render_findings(analysis: &AnalysisReport, dynamic: &[Finding]) -> String {
    render_comparison(analysis, dynamic, "no findings")
}

/// The static-vs-dynamic comparison; `none` is what the dynamic section
/// says when it has no finding.
fn render_comparison(analysis: &AnalysisReport, dynamic: &[Finding], none: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Static analysis ({} prediction)", jcc_analyze::SCHEMA);
    if analysis.diagnostics.is_empty() {
        let _ = writeln!(out, "  no diagnostics");
    } else {
        for line in analysis.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(out, "Dynamic classification (observed)");
    if dynamic.is_empty() {
        let _ = writeln!(out, "  {none}");
    } else {
        for f in dynamic {
            let _ = writeln!(out, "  {f}");
        }
    }
    let static_classes = analysis.classes(Severity::Medium);
    let dynamic_classes: std::collections::BTreeSet<&str> =
        dynamic.iter().map(|f| f.class.code()).collect();
    let (confirmed, missed): (Vec<&str>, Vec<&str>) = dynamic_classes
        .iter()
        .partition(|c| static_classes.contains(*c));
    let _ = writeln!(
        out,
        "Agreement: {} class(es) predicted and observed{}{}",
        confirmed.len(),
        if confirmed.is_empty() {
            String::new()
        } else {
            format!(
                " ({})",
                confirmed.join(", ")
            )
        },
        if missed.is_empty() {
            String::new()
        } else {
            format!(
                "; observed but not predicted: {}",
                missed.join(", ")
            )
        }
    );
    out
}

fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazop::generate_table;
    use jcc_cofg::build_component_cofgs;
    use jcc_petri::JavaNet;

    #[test]
    fn table1_rendering_contains_all_rows() {
        let text = render_table1(&generate_table(&JavaNet::new(1)));
        for code in [
            "FF-T1", "EF-T1", "FF-T2", "EF-T2", "FF-T3", "EF-T3", "FF-T4", "EF-T4", "FF-T5",
            "EF-T5",
        ] {
            assert!(text.contains(code), "missing {code}");
        }
        assert!(text.contains("race condition"));
        assert!(text.contains("JVM assumed correct"));
    }

    #[test]
    fn cofg_arcs_render_numbered() {
        let c = jcc_model::examples::producer_consumer();
        let graphs = build_component_cofgs(&c);
        let text = render_cofg_arcs(&graphs[0]);
        assert!(text.contains("CoFG for ProducerConsumer.receive"));
        assert!(text.contains("1. "));
        assert!(text.contains("5. "));
        assert!(!text.contains("6. "));
    }

    #[test]
    fn findings_report_combines_static_and_dynamic() {
        use crate::pipeline::Pipeline;
        use jcc_vm::{CallSpec, ExploreConfig, ThreadSpec};

        let p = Pipeline::new(jcc_model::examples::lock_order_deadlock()).unwrap();
        let scenario = vec![
            ThreadSpec {
                name: "f".into(),
                calls: vec![CallSpec::new("forward", vec![])],
            },
            ThreadSpec {
                name: "b".into(),
                calls: vec![CallSpec::new("backward", vec![])],
            },
        ];
        let evidence = p.explore_evidence(&scenario, &ExploreConfig::default(), None);
        let text = render_findings_with_evidence(&p.analysis, &evidence.findings, Some(&evidence));
        assert!(text.contains("Static analysis"), "{text}");
        assert!(text.contains("lock-order-cycle"), "{text}");
        assert!(text.contains("Dynamic classification"), "{text}");
        assert!(text.contains("FF-T2"), "{text}");
        assert!(text.contains("predicted and observed (FF-T2)"), "{text}");
        // The witness timeline and arc heat ride along.
        assert!(text.contains("Failing schedule (deterministic witness):"), "{text}");
        assert!(text.contains("causal timeline (clock: steps"), "{text}");
        assert!(text.contains("CoFG arc heat"), "{text}");
        // No directed tracker supplied, so every traversed arc is a gap.
        assert!(
            text.contains("the directed suite never covers"),
            "{text}"
        );
    }

    #[test]
    fn findings_report_handles_clean_runs() {
        use crate::pipeline::Pipeline;
        let p = Pipeline::new(jcc_model::examples::producer_consumer()).unwrap();
        let text = render_findings(&p.analysis, &[]);
        assert!(text.contains("no findings"), "{text}");
        assert!(text.contains("Agreement: 0 class(es)"), "{text}");
        // A clean exploration has no witness: the evidence-aware renderer
        // prints neither a timeline nor an arc-heat table.
        use jcc_vm::{CallSpec, ExploreConfig, ThreadSpec, Value};
        let scenario = vec![
            ThreadSpec {
                name: "c".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            },
        ];
        let evidence = p.explore_evidence(&scenario, &ExploreConfig::default(), None);
        assert!(evidence.findings.is_empty());
        assert!(evidence.witness.is_none());
        let text =
            render_findings_with_evidence(&p.analysis, &evidence.findings, Some(&evidence));
        assert!(!text.contains("Failing schedule"), "{text}");
        assert!(!text.contains("arc heat"), "{text}");
        assert!(text.contains("no findings"), "{text}");
        // One state short of the full space: the budget ran out before any
        // witness, so the run is inconclusive, not clean.
        assert!(!evidence.truncated);
        let config = ExploreConfig {
            max_states: evidence.states - 1,
            ..ExploreConfig::default()
        };
        let cut = p.explore_evidence(&scenario, &config, None);
        assert!(cut.findings.is_empty() && cut.inconclusive());
        let text = render_findings_with_evidence(&p.analysis, &cut.findings, Some(&cut));
        assert!(!text.contains("no findings"), "{text}");
        assert!(
            text.contains(&format!(
                "inconclusive (state budget, {} states reached)",
                evidence.states - 1
            )),
            "{text}"
        );
    }

    #[test]
    fn coverage_report_renders() {
        let c = jcc_model::examples::producer_consumer();
        let tracker = jcc_cofg::CoverageTracker::new(build_component_cofgs(&c));
        let text = render_coverage(&tracker);
        assert!(text.contains("0/10"));
        assert!(text.contains("uncovered arcs:"));
    }
}
