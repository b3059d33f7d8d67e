//! `jcc-report` — the cross-run regression ledger and the one regression
//! gate.
//!
//! Takes two or more `jcc-obs/v1` run reports in chronological order —
//! `BENCH_*.json` files as written by `BenchReporter` / `JCC_OBS=summary`,
//! or a checked-in `ci/bench_baseline*.json` — diffs each consecutive pair
//! with the `obs::ledger` rule table (throughput floors, coverage, drop
//! rates, overhead budgets), and renders the result as a human table plus,
//! with `--out=PATH`, the stable machine-readable `jcc-ledger/v1` JSON.
//!
//! ```text
//! cargo run -p jcc-bench --bin jcc-report -- ci/bench_baseline.json BENCH_e8.json \
//!     --out=jcc-ledger.json --gate
//! ```
//!
//! Flags:
//!
//! * `--out=PATH` — also write the ledger JSON to `PATH`,
//! * `--gate` — exit 1 when any comparison regressed, and exit 2 when no
//!   base report carries a key a floor, coverage or budget rule gates (a
//!   gate that checks nothing is a configuration error, not a pass) — the
//!   CI wiring,
//! * `--quiet` — suppress the human table (the exit code and `--out` file
//!   still carry the verdict).

use std::process::ExitCode;

use jcc_core::obs::ledger::Ledger;
use jcc_core::obs::RunReport;

fn usage() -> ExitCode {
    eprintln!(
        "usage: jcc-report <BENCH_a.json> <BENCH_b.json> [more.json ...] \
         [--out=PATH] [--gate] [--quiet]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut gate = false;
    let mut quiet = false;
    for arg in std::env::args().skip(1) {
        if let Some(path) = arg.strip_prefix("--out=") {
            out = Some(path.to_string());
        } else if arg == "--gate" {
            gate = true;
        } else if arg == "--quiet" {
            quiet = true;
        } else if arg.starts_with("--") {
            eprintln!("jcc-report: unknown flag {arg}");
            return usage();
        } else {
            files.push(arg);
        }
    }
    if files.len() < 2 {
        return usage();
    }

    let mut reports: Vec<RunReport> = Vec::with_capacity(files.len());
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("jcc-report: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match RunReport::from_json_str(&text) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("jcc-report: {path} is not a run report: {e:?}");
                return ExitCode::from(2);
            }
        }
    }

    let ledger = Ledger::from_reports(&reports);
    if !quiet {
        print!("{}", ledger.render_table());
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, ledger.to_json_string()) {
            eprintln!("jcc-report: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        if !quiet {
            println!("ledger written to {path}");
        }
    }
    if gate && ledger.gated_count() == 0 {
        eprintln!("jcc-report: no base report carries a gated key — the gate would check nothing");
        return ExitCode::from(2);
    }
    let regressions = ledger.regression_count();
    if gate && regressions > 0 {
        eprintln!("jcc-report: {regressions} regression(s) — failing the gate");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
