//! The `jcc check` driver: parse → lower → validate → analyze → render.
//!
//! Shared by the `jcc` CLI binary, the E13 benchmark and the integration
//! tests, so all three see identical behavior. The exit-code contract:
//!
//! * **0** — every file parsed, lowered, and produced no analyzer finding
//!   at or above the `--deny` threshold (default: `high`),
//! * **1** — the frontend understood everything but at least one finding
//!   reached the threshold,
//! * **2** — at least one file did not fully parse or lower (syntax
//!   error, unsupported construct, unresolved name, type error).
//!
//! Output is deterministic: files are processed in the caller-supplied
//! order (the CLI sorts paths), per-file diagnostics are ordered frontend
//! errors first (by span), then analyzer findings in the analyzer's
//! `(file, span, check)` order.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use jcc_analyze::{AnalysisReport, Severity, SrcLoc};
use jcc_model::validate::{validate, ValidationError};
use jcc_obs::json::Json;

use crate::diag::{FrontDiag, Phase};
use crate::lower::{lower_class, LowerMap};
use crate::parser::parse;
use crate::render::{render_analyzer_diag_into, render_front_diag_into};
use crate::span::{SourceMap, Span};

/// Output format for [`check_source`] / [`check_files`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Rustc-style human-readable text.
    #[default]
    Text,
    /// JSON lines: one extended `jcc-analyze/v1` document per class,
    /// plus one `jcc-javasrc/v1` record per frontend error.
    Json,
}

/// Options for a check run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Findings at or above this severity drive exit code 1.
    pub deny: Severity,
    /// Output format.
    pub format: Format,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            deny: Severity::High,
            format: Format::Text,
        }
    }
}

/// The result of checking one file.
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// Display name (path) of the file.
    pub file: String,
    /// Rendered output (text or JSON lines, per the options).
    pub output: String,
    /// Frontend errors (parse + lower + fatal validation).
    pub front_errors: usize,
    /// Analyzer findings at or above the deny threshold.
    pub denied_findings: usize,
    /// All analyzer reports, one per class, with sources attached.
    pub reports: Vec<AnalysisReport>,
    /// Lines of code (non-blank, non-comment) — the E13 denominator.
    pub loc: usize,
}

/// The result of a whole check run.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Per-file outcomes, in input order.
    pub files: Vec<FileOutcome>,
    /// Concatenated output of every file.
    pub output: String,
    /// Total frontend errors.
    pub front_errors: usize,
    /// Total findings at or above the deny threshold.
    pub denied_findings: usize,
    /// Total lines of code checked.
    pub loc: usize,
}

impl CheckOutcome {
    /// The process exit code under the contract above.
    pub fn exit_code(&self) -> i32 {
        if self.front_errors > 0 {
            2
        } else if self.denied_findings > 0 {
            1
        } else {
            0
        }
    }
}

/// Check one in-memory source file. Every diagnostic is rendered into the
/// file's one output buffer.
pub fn check_source(file: &str, src: &str, opts: &CheckOptions) -> FileOutcome {
    let sm = SourceMap::new(file, src);
    let (unit, mut front) = parse(src);

    let mut reports = Vec::new();
    for class in &unit.classes {
        let mut lowered = lower_class(class);
        front.append(&mut lowered.diags);
        front.extend(fatal_validation_errors(&lowered));

        let mut report = jcc_analyze::analyze(&lowered.component);
        let map = &lowered.map;
        report.attach_sources(|d| {
            let span = map.resolve(&d.method, d.path.as_ref().map(|p| p.0.as_slice()));
            let (line, col) = sm.line_col(span.lo);
            Some(SrcLoc {
                file: file.to_string(),
                line,
                col,
                span: (span.lo, span.hi),
            })
        });
        reports.push(report);
    }

    front.sort_by(|a, b| (a.span, a.phase, &a.message).cmp(&(b.span, b.phase, &b.message)));

    let mut out = String::new();
    match opts.format {
        Format::Text => {
            for d in &front {
                render_front_diag_into(&mut out, &sm, d);
            }
            for r in &reports {
                for d in &r.diagnostics {
                    render_analyzer_diag_into(&mut out, &sm, d);
                }
            }
        }
        Format::Json => {
            for d in &front {
                let (line, col) = sm.line_col(d.span.lo);
                let doc = Json::obj([
                    ("schema".to_string(), Json::Str("jcc-javasrc/v1".to_string())),
                    ("phase".to_string(), Json::Str(d.phase.name().to_string())),
                    ("file".to_string(), Json::Str(file.to_string())),
                    ("line".to_string(), Json::Num(line as f64)),
                    ("col".to_string(), Json::Num(col as f64)),
                    (
                        "span".to_string(),
                        Json::Arr(vec![
                            Json::Num(d.span.lo as f64),
                            Json::Num(d.span.hi as f64),
                        ]),
                    ),
                    ("message".to_string(), Json::Str(d.message.clone())),
                ]);
                out.push_str(&doc.to_string_compact());
                out.push('\n');
            }
            for r in &reports {
                out.push_str(&r.to_json().to_string_compact());
                out.push('\n');
            }
        }
    }

    let denied = reports
        .iter()
        .map(|r| r.at_least(opts.deny).count())
        .sum();
    FileOutcome {
        file: file.to_string(),
        output: out,
        front_errors: front.len(),
        denied_findings: denied,
        reports,
        loc: sm.loc(),
    }
}

/// Validation errors the analyzer does not already cover become frontend
/// errors. `MonitorNotHeld` is the exception: the analyzer reports it as
/// a proper High finding with a source span, so the validator's copy is
/// dropped rather than double-reported as a fatal error.
fn fatal_validation_errors(lowered: &crate::lower::Lowered) -> Vec<FrontDiag> {
    validate(&lowered.component)
        .into_iter()
        .filter(|e| !matches!(e, ValidationError::MonitorNotHeld { .. }))
        .map(|e| {
            let method = match &e {
                ValidationError::UnknownName { method, .. }
                | ValidationError::UnknownLock { method, .. }
                | ValidationError::TypeMismatch { method, .. }
                | ValidationError::ArityMismatch { method, .. }
                | ValidationError::ReturnMismatch { method, .. }
                | ValidationError::TooDeep { method } => Some(method.as_str()),
                _ => None,
            };
            let span = anchor_span(&lowered.map, method);
            FrontDiag::new(Phase::Lower, span, e.to_string())
        })
        .collect()
}

fn anchor_span(map: &LowerMap, method: Option<&str>) -> Span {
    match method {
        Some(m) => map.resolve(m, None),
        None => map.class_span,
    }
}

/// Check several files given as `(name, source)` pairs.
pub fn check_files(inputs: &[(String, String)], opts: &CheckOptions) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    for (file, src) in inputs {
        let f = check_source(file, src, opts);
        outcome.output.push_str(&f.output);
        outcome.front_errors += f.front_errors;
        outcome.denied_findings += f.denied_findings;
        outcome.loc += f.loc;
        outcome.files.push(f);
    }
    outcome
}

/// Expand paths: a `.java` file stands for itself, a directory for every
/// `.java` file under it (recursively), sorted for determinism.
pub fn collect_java_files(paths: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            walk(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "java") {
            out.push(path);
        }
    }
    Ok(())
}

/// Read and check files from disk (the CLI and bench entry point).
pub fn check_paths(paths: &[PathBuf], opts: &CheckOptions) -> io::Result<CheckOutcome> {
    let files = collect_java_files(paths)?;
    let mut inputs = Vec::new();
    for f in files {
        let src = fs::read_to_string(&f)?;
        inputs.push((f.display().to_string(), src));
    }
    Ok(check_files(&inputs, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "class Cell {\n  private boolean ready = false;\n\
         \n  public synchronized void put() {\n    ready = true;\n    notifyAll();\n  }\n\
         \n  public synchronized void take() {\n    while (!ready) {\n      wait();\n    }\n    ready = false;\n  }\n}\n";

    const BUGGY: &str = "class Buggy {\n  private boolean ready = false;\n\
         \n  public synchronized void take() {\n    wait();\n    ready = false;\n  }\n}\n";

    #[test]
    fn clean_file_exits_zero() {
        let o = check_files(&[("Cell.java".into(), CLEAN.into())], &CheckOptions::default());
        assert_eq!(o.front_errors, 0, "{}", o.output);
        assert_eq!(o.exit_code(), 0, "{}", o.output);
        assert!(o.loc > 0);
    }

    #[test]
    fn unconditional_wait_is_denied_with_a_span() {
        let o = check_files(
            &[("Buggy.java".into(), BUGGY.into())],
            &CheckOptions::default(),
        );
        assert_eq!(o.exit_code(), 1, "{}", o.output);
        assert!(o.output.contains("error[EF-T3]"), "{}", o.output);
        assert!(o.output.contains("Buggy.java:5:5"), "{}", o.output);
        assert!(o.output.contains("wait();"), "{}", o.output);
    }

    #[test]
    fn parse_error_exits_two_but_still_analyzes_the_rest() {
        let src = "class P {\n  int n = ;\n  public synchronized void m() {\n    n = 1;\n  }\n}\n";
        let o = check_files(&[("P.java".into(), src.into())], &CheckOptions::default());
        assert_eq!(o.exit_code(), 2, "{}", o.output);
        assert!(o.output.contains("error[parse]"), "{}", o.output);
        // The method after the bad field still lowered and analyzed.
        assert_eq!(o.files[0].reports.len(), 1);
    }

    #[test]
    fn json_format_emits_extended_records() {
        let opts = CheckOptions {
            format: Format::Json,
            ..CheckOptions::default()
        };
        let o = check_files(&[("Buggy.java".into(), BUGGY.into())], &opts);
        let first = o.output.lines().next().unwrap();
        let doc = Json::parse(first).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("jcc-analyze/v1"));
        let d = &doc.get("diagnostics").unwrap().as_arr().unwrap()[0];
        assert_eq!(d.get("file").unwrap().as_str(), Some("Buggy.java"));
        assert!(d.get("line").unwrap().as_u64().is_some());
        assert!(d.get("span").unwrap().as_arr().is_some());
    }

    #[test]
    fn output_is_byte_identical_across_runs() {
        for format in [Format::Text, Format::Json] {
            let opts = CheckOptions {
                format,
                ..CheckOptions::default()
            };
            let inputs = [
                ("Cell.java".to_string(), CLEAN.to_string()),
                ("Buggy.java".to_string(), BUGGY.to_string()),
            ];
            let a = check_files(&inputs, &opts);
            let b = check_files(&inputs, &opts);
            assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn deny_threshold_controls_exit_code() {
        // CLEAN has no High findings; Medium findings (if any) only count
        // when the threshold is lowered.
        let medium = CheckOptions {
            deny: Severity::Medium,
            ..CheckOptions::default()
        };
        let o_high = check_files(&[("C.java".into(), CLEAN.into())], &CheckOptions::default());
        let o_med = check_files(&[("C.java".into(), CLEAN.into())], &medium);
        assert_eq!(o_high.exit_code(), 0);
        assert!(o_med.denied_findings >= o_high.denied_findings);
    }
}
