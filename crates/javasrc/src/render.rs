//! Rustc-style rendering of diagnostics against the original source.
//!
//! Both analyzer findings (with an attached [`SrcLoc`]) and frontend
//! errors render in the same shape:
//!
//! ```text
//! error[FF-T5]: `wait` on `this` but no method ever notifies it
//!   --> tests/java_corpus/buggy/MissingNotify.java:9:13
//!    |
//!  9 |             wait();
//!    |             ^^^^^^^
//!    |
//!    = note: no-notifier-for-wait (severity high) in method `take`
//! ```
//!
//! The severity → label mapping is fixed (`high` → `error`, `medium` →
//! `warning`, `low` → `note`) so rendered output is independent of the
//! `--deny` threshold and byte-identical across runs.

use std::fmt::Write as _;

use jcc_analyze::{Diagnostic, Severity};

use crate::diag::FrontDiag;
use crate::span::{SourceMap, Span};

/// The rustc-style label for a severity tier.
pub fn severity_label(sev: Severity) -> &'static str {
    match sev {
        Severity::High => "error",
        Severity::Medium => "warning",
        Severity::Low => "note",
    }
}

/// Append `n` spaces.
fn pad(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n(' ', n));
}

/// Append the `--> file:line:col` arrow plus the gutter-framed source
/// line with a caret underline for `span`.
fn snippet_block(out: &mut String, sm: &SourceMap<'_>, span: Span) {
    let (line, col) = sm.line_col(span.lo);
    let _ = writeln!(out, "  --> {}:{}:{}", sm.name(), line, col);
    let text = sm.line_text(line);
    let digits = line.checked_ilog10().map_or(1, |d| d as usize + 1);
    let gutter = digits.max(2);
    pad(out, gutter);
    out.push_str(" |\n");
    let _ = writeln!(out, "{line:gutter$} | {text}");
    // Underline from the start column to the span end, one caret per
    // character, clamped to this line (multi-line spans underline their
    // first line only).
    let first_line = sm.snippet(span).split('\n').next().unwrap_or("");
    let width = first_line.trim_end_matches('\r').chars().count().max(1);
    pad(out, gutter);
    out.push_str(" | ");
    pad(out, col as usize - 1);
    out.extend(std::iter::repeat_n('^', width));
    out.push('\n');
    pad(out, gutter);
    out.push_str(" |\n");
}

/// Append one analyzer finding to `out`. The caller guarantees `d.src` is
/// the location inside `sm` (attached via `AnalysisReport::attach_sources`);
/// without one the note-only form is used.
pub fn render_analyzer_diag_into(out: &mut String, sm: &SourceMap<'_>, d: &Diagnostic) {
    let _ = writeln!(
        out,
        "{}[{}]: {}",
        severity_label(d.severity),
        d.class.code(),
        d.message
    );
    if let Some(src) = &d.src {
        snippet_block(
            out,
            sm,
            Span {
                lo: src.span.0,
                hi: src.span.1,
            },
        );
    }
    let _ = writeln!(
        out,
        "   = note: {} (severity {}) in method `{}`",
        d.check,
        d.severity,
        d.method
    );
}

/// Render one analyzer finding (see [`render_analyzer_diag_into`]).
pub fn render_analyzer_diag(sm: &SourceMap<'_>, d: &Diagnostic) -> String {
    let mut out = String::new();
    render_analyzer_diag_into(&mut out, sm, d);
    out
}

/// Append one frontend (parse/lower) error to `out`.
pub fn render_front_diag_into(out: &mut String, sm: &SourceMap<'_>, d: &FrontDiag) {
    let _ = writeln!(out, "error[{}]: {}", d.phase.name(), d.message);
    snippet_block(out, sm, d.span);
    if let Some(help) = &d.help {
        let _ = writeln!(out, "   = help: {help}");
    }
}

/// Render one frontend (parse/lower) error (see [`render_front_diag_into`]).
pub fn render_front_diag(sm: &SourceMap<'_>, d: &FrontDiag) -> String {
    let mut out = String::new();
    render_front_diag_into(&mut out, sm, d);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Phase;
    use jcc_analyze::{CheckId, SrcLoc};
    use jcc_model::ast::StmtPath;
    use jcc_petri::{Deviation, Transition};

    fn sample_map() -> SourceMap<'static> {
        SourceMap::new(
            "T.java",
            "class T {\n  void m() {\n    wait();\n  }\n}\n",
        )
    }

    #[test]
    fn front_diag_renders_arrow_and_caret() {
        let sm = sample_map();
        // Span of `wait();` — bytes 27..34 in the sample.
        let span = Span::new(27, 34);
        assert_eq!(sm.snippet(span), "wait();");
        let d = FrontDiag::new(Phase::Parse, span, "boom").with_help("fix it");
        let text = render_front_diag(&sm, &d);
        assert!(text.starts_with("error[parse]: boom\n"), "{text}");
        assert!(text.contains("--> T.java:3:5"), "{text}");
        assert!(text.contains("3 |     wait();"), "{text}");
        assert!(text.contains("^^^^^^^"), "{text}");
        assert!(text.contains("= help: fix it"), "{text}");
    }

    #[test]
    fn analyzer_diag_renders_class_code_and_note() {
        let sm = sample_map();
        let d = Diagnostic {
            check: CheckId::MonitorNotHeld,
            class: jcc_petri::FailureClass::new(Deviation::FailureToFire, Transition::T1),
            severity: Severity::High,
            method: "m".into(),
            path: Some(StmtPath(vec![0])),
            src: Some(SrcLoc {
                file: "T.java".into(),
                line: 3,
                col: 5,
                span: (27, 34),
            }),
            message: "wait outside monitor".into(),
        };
        let text = render_analyzer_diag(&sm, &d);
        assert!(text.starts_with("error[FF-T1]: wait outside monitor\n"), "{text}");
        assert!(text.contains("--> T.java:3:5"), "{text}");
        assert!(
            text.contains("= note: monitor-not-held (severity high) in method `m`"),
            "{text}"
        );
    }

    #[test]
    fn non_ascii_sources_get_character_columns_and_one_caret_per_character() {
        // `é` is two bytes and `€` three; the `€` is the 24th character.
        let src = "class Café { int x = 0 € 1; }";
        let out = crate::check::check_source("Café.java", src, &Default::default());
        assert_eq!(out.front_errors, 2, "{}", out.output);
        let expected = format!(
            "error[parse]: unexpected character `€`\n\
             \x20 --> Café.java:1:24\n\
             \x20  |\n\
             \x201 | {src}\n\
             \x20  | {}^\n\
             \x20  |\n",
            " ".repeat(23)
        );
        assert!(out.output.starts_with(&expected), "{}", out.output);
        // A span over several non-ASCII characters gets one caret each.
        let sm = SourceMap::new("C.java", "int é€x;");
        let d = FrontDiag::new(Phase::Parse, Span::new(4, 9), "boom");
        assert!(render_front_diag(&sm, &d).contains("1 | int é€x;\n   |     ^^\n"));
    }

    #[test]
    fn severity_labels_are_fixed() {
        assert_eq!(severity_label(Severity::High), "error");
        assert_eq!(severity_label(Severity::Medium), "warning");
        assert_eq!(severity_label(Severity::Low), "note");
    }
}
