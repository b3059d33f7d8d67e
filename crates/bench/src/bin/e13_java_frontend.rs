//! E13 — the Java frontend end to end over the checked-in mini-corpus.
//!
//! Runs `jcc check` (parse → lower → analyze → render) over
//! `tests/java_corpus/`:
//!
//! * **clean/** at the default `--deny=high` must exit 0 — the zero-
//!   false-positive gate extended to Java input,
//! * **buggy/** at `--deny=medium` must exit 1, and every file must
//!   produce exactly its seeded per-class diagnostic counts,
//! * **invalid/** must exit 2 while still analyzing the recovered rest
//!   of the file.
//!
//! Determinism is asserted by running the whole sweep twice and
//! comparing rendered text and JSON byte-for-byte. Throughput is
//! published as `java_loc_per_sec` (lines of code through the full
//! pipeline per second, measured over repeated in-memory sweeps) and
//! gated by the ledger's floor rule via
//! `jcc-report ci/bench_baseline_e13.json BENCH_e13.json --gate`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use jcc_core::analyze::Severity;
use jcc_core::javasrc::check::{check_files, check_paths, CheckOptions, Format};
use jcc_core::obs::BenchReporter;

/// Seeded per-class diagnostic counts `(high, medium, low)` — the
/// expected-findings oracle for the corpus.
const EXPECTED: &[(&str, (usize, usize, usize))] = &[
    // clean/
    ("Barrier", (0, 0, 0)),
    ("BoundedBuffer", (0, 0, 0)),
    ("BoundedStack", (0, 0, 0)),
    ("FutureCell", (0, 0, 0)),
    ("Mailbox", (0, 0, 0)),
    ("ProducerConsumer", (0, 0, 0)),
    ("ReadersWriters", (0, 2, 0)), // benign missed-notification heuristics
    ("Semaphore", (0, 1, 0)),      // the documented benign Medium
    // buggy/
    ("LockOrderCycle", (1, 0, 0)),
    ("MissingNotify", (1, 0, 0)),
    ("MonitorNotHeld", (2, 0, 0)), // monitor-not-held + unlocked write
    ("NestedMonitorWait", (1, 1, 0)),
    ("RacyCounter", (1, 1, 0)), // unlocked write (high) + read (medium)
    ("UnconditionalWait", (1, 0, 0)),
    ("WaitInIf", (0, 1, 0)),
    // invalid/ — the recovered remainder still analyzes
    ("SyntaxError", (0, 1, 0)),
];

fn corpus_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/java_corpus")
        .join(sub)
}

fn main() {
    let mut reporter = BenchReporter::init("e13_java_frontend");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } }
    }

    say!("E13 — Java frontend over tests/java_corpus");
    say!();

    let high = CheckOptions::default();
    let medium = CheckOptions {
        deny: Severity::Medium,
        ..CheckOptions::default()
    };

    let clean = check_paths(&[corpus_dir("clean")], &high).expect("read clean corpus");
    let buggy = check_paths(&[corpus_dir("buggy")], &medium).expect("read buggy corpus");
    let invalid = check_paths(&[corpus_dir("invalid")], &high).expect("read invalid corpus");

    assert_eq!(clean.exit_code(), 0, "clean corpus must pass:\n{}", clean.output);
    assert_eq!(buggy.exit_code(), 1, "buggy corpus must be flagged");
    assert_eq!(invalid.exit_code(), 2, "invalid corpus must be a frontend error");
    assert!(
        !invalid.files[0].reports[0].diagnostics.is_empty(),
        "parse recovery must still analyze the rest of the file"
    );

    // Per-class expected counts.
    let mut got: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    for outcome in [&clean, &buggy, &invalid] {
        for f in &outcome.files {
            for r in &f.reports {
                got.insert(
                    r.component.clone(),
                    (
                        r.count(Severity::High),
                        r.count(Severity::Medium),
                        r.count(Severity::Low),
                    ),
                );
            }
        }
    }
    say!(
        "{:<18} {:>5} {:>7} {:>4}   expected",
        "class",
        "high",
        "medium",
        "low"
    );
    let mut mismatches = Vec::new();
    for (name, want) in EXPECTED {
        let have = got.get(*name).copied().unwrap_or((0, 0, 0));
        say!(
            "{name:<18} {:>5} {:>7} {:>4}   ({}, {}, {}){}",
            have.0,
            have.1,
            have.2,
            want.0,
            want.1,
            want.2,
            if have == *want { "" } else { "  <-- MISMATCH" }
        );
        if have != *want {
            mismatches.push(*name);
        }
    }
    assert!(mismatches.is_empty(), "per-class counts drifted: {mismatches:?}");
    assert_eq!(
        got.len(),
        EXPECTED.len(),
        "corpus and oracle out of sync: {:?}",
        got.keys().collect::<Vec<_>>()
    );

    // Byte-identical output across two full sweeps, text and JSON.
    let mut inputs = Vec::new();
    for sub in ["clean", "buggy", "invalid"] {
        let dir = corpus_dir(sub);
        let files = jcc_core::javasrc::check::collect_java_files(&[dir]).expect("list corpus");
        for f in files {
            let src = std::fs::read_to_string(&f).expect("read corpus file");
            inputs.push((f.display().to_string(), src));
        }
    }
    for format in [Format::Text, Format::Json] {
        let opts = CheckOptions {
            format,
            ..CheckOptions::default()
        };
        let a = check_files(&inputs, &opts);
        let b = check_files(&inputs, &opts);
        assert_eq!(a.output, b.output, "output must be byte-identical across runs");
    }
    say!();
    say!("determinism: text and JSON byte-identical across two sweeps");

    // Throughput: repeated in-memory sweeps of the full corpus.
    let total_loc: usize = clean.loc + buggy.loc + invalid.loc;
    let iters = 40;
    let start = Instant::now();
    let mut findings = 0usize;
    for _ in 0..iters {
        let o = check_files(&inputs, &high);
        findings += o.files.iter().flat_map(|f| f.reports.iter()).map(|r| r.diagnostics.len()).sum::<usize>();
    }
    let elapsed = start.elapsed();
    let loc_per_sec = (total_loc * iters) as f64 / elapsed.as_secs_f64().max(1e-9);
    say!(
        "throughput: {iters} sweeps x {total_loc} LOC in {:.1} ms -> {:.0} java_loc_per_sec",
        elapsed.as_secs_f64() * 1e3,
        loc_per_sec
    );

    reporter.set_derived("java_loc_per_sec", loc_per_sec);
    reporter.set_derived("java_files", inputs.len() as f64);
    reporter.set_derived("java_loc", total_loc as f64);
    reporter.set_derived("java_findings_total", (findings / iters) as f64);
    reporter.set_derived("java_high_findings_clean", 0.0);
    reporter.finish();
}
