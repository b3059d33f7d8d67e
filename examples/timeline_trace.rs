//! Reading a failing schedule: the lost notification (FF-T5), end to end.
//!
//! A deliberately broken "gate" monitor: `pass` waits unconditionally (no
//! predicate loop), `open_gate` notifies. When the opener's notification
//! fires *before* the passer reaches the wait set — place D of the
//! Figure-1 net — it is lost, and the passer then waits forever. The
//! exhaustive explorer finds that schedule deterministically; this example
//! shows how to *read* it: the static prediction, the classified finding,
//! the ASCII causal timeline of the witness, the CoFG arc heat against the
//! directed suite, and the Chrome-trace export for Perfetto.
//!
//! Run with `cargo run --example timeline_trace`.

use jcc_core::obs::timeline::EdgeKind;
use jcc_core::pipeline::Pipeline;
use jcc_core::report::render_findings_with_evidence;
use jcc_core::testgen::scenario::ScenarioSpace;
use jcc_core::testgen::suite::GreedyConfig;
use jcc_core::vm::{CallSpec, ExploreConfig, ThreadSpec};

/// The broken gate: `wait` outside any predicate loop, so a notification
/// that arrives early is lost and never re-checked.
const GATE_SRC: &str = r#"
class Gate {
  boolean open = false;

  synchronized void pass() {
    wait();
  }

  synchronized void open_gate() {
    open = true;
    notify();
  }
}
"#;

fn main() {
    let component = jcc_core::model::parse_component(GATE_SRC).expect("gate source parses");
    println!("== Gate (deliberately broken) ==");
    println!("{}", GATE_SRC.trim());

    let pipeline = Pipeline::new(component).expect("gate validates");

    // The CoFG-directed suite for comparison: which arcs does it cover?
    let space = ScenarioSpace::new(vec![
        CallSpec::new("pass", vec![]),
        CallSpec::new("open_gate", vec![]),
    ]);
    let directed = pipeline.directed_suite(&space, &GreedyConfig::default());

    // One passer, one opener — exhaustively explored. Some schedule loses
    // the notification; the explorer's first witness is deterministic.
    let scenario = vec![
        ThreadSpec {
            name: "passer".into(),
            calls: vec![CallSpec::new("pass", vec![])],
        },
        ThreadSpec {
            name: "opener".into(),
            calls: vec![CallSpec::new("open_gate", vec![])],
        },
    ];
    let evidence = pipeline.explore_evidence(
        &scenario,
        &ExploreConfig::default(),
        Some(&directed.coverage),
    );

    println!("\n== Static prediction vs observed failure, with the schedule ==");
    print!(
        "{}",
        render_findings_with_evidence(&pipeline.analysis, &evidence.findings, Some(&evidence))
    );

    // The witness necessarily contains the lost notification: the only way
    // the passer deadlocks is the opener's notify firing while no thread
    // is in place D (the wait set).
    let timeline = evidence.timeline.as_ref().expect("failure has a witness");
    assert!(
        timeline
            .notes
            .iter()
            .any(|n| n.text.contains("no thread in place D")),
        "the witness must contain the lost notification"
    );
    assert!(
        !timeline.edges.iter().any(|e| e.kind == EdgeKind::NotifyWake),
        "a lost notification wakes nobody"
    );
    assert!(evidence
        .findings
        .iter()
        .any(|f| f.class.code() == "FF-T5"));

    // The same timeline in Chrome Trace Event Format: save it and load the
    // file in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
    let chrome = timeline.to_chrome_string();
    println!("== Chrome-trace export (first 300 bytes) ==");
    println!("{}...", &chrome[..300.min(chrome.len())]);
    let path = std::env::temp_dir().join("gate_timeline.chrome_trace.json");
    std::fs::write(&path, &chrome).expect("temp dir is writable");
    println!("full trace written to {}", path.display());
}
