//! `lint`: the `jcc check` path. Generated monitors of many sizes, each
//! clean or with one seeded defect, plus the 16-file Java corpus, checked
//! one file per `check_files` call. Lexing, parsing, lowering, validation,
//! analysis and rendering do all the work; the VM and petri layers none.

use std::collections::BTreeSet;

use jcc_core::analyze::{analyze, CheckId, Diagnostic, Severity, SrcLoc};
use jcc_core::components::gen::GenConfig;
use jcc_core::javasrc::check::{check_files, CheckOptions};
use jcc_core::javasrc::lexer::lex;
use jcc_core::javasrc::render::{render_analyzer_diag, render_front_diag};
use jcc_core::javasrc::{lower_class, parse, FrontDiag, Phase, SourceMap};
use jcc_core::model::validate::{validate, ValidationError};

use crate::javagen::{generate_java, Defect};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Checked, Workload};

/// Guard counts of the generated monitors; every size appears once per
/// defect kind in a round, so each seed's round costs the same.
const GUARDS: [usize; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// The checked-in corpus and the answer each file must give: the table
/// the frontend integration tests pin (seeded check at its documented
/// line), zero High findings for clean files, a frontend error for the
/// invalid one.
const CORPUS: [(&str, &str, Expect); 16] = [
    (
        "buggy/WaitInIf.java",
        include_str!("../corpus/buggy/WaitInIf.java"),
        Expect::Contains(CheckId::WaitNotInLoop, 23),
    ),
    (
        "buggy/UnconditionalWait.java",
        include_str!("../corpus/buggy/UnconditionalWait.java"),
        Expect::Contains(CheckId::UnconditionalWait, 19),
    ),
    (
        "buggy/MissingNotify.java",
        include_str!("../corpus/buggy/MissingNotify.java"),
        Expect::Contains(CheckId::NoNotifierForWait, 19),
    ),
    (
        "buggy/LockOrderCycle.java",
        include_str!("../corpus/buggy/LockOrderCycle.java"),
        Expect::Contains(CheckId::LockOrderCycle, 8),
    ),
    (
        "buggy/RacyCounter.java",
        include_str!("../corpus/buggy/RacyCounter.java"),
        Expect::Contains(CheckId::UnlockedFieldAccess, 12),
    ),
    (
        "buggy/NestedMonitorWait.java",
        include_str!("../corpus/buggy/NestedMonitorWait.java"),
        Expect::Contains(CheckId::NestedMonitorWait, 17),
    ),
    (
        "buggy/MonitorNotHeld.java",
        include_str!("../corpus/buggy/MonitorNotHeld.java"),
        Expect::Contains(CheckId::MonitorNotHeld, 14),
    ),
    (
        "clean/Barrier.java",
        include_str!("../corpus/clean/Barrier.java"),
        Expect::NoHigh,
    ),
    (
        "clean/BoundedBuffer.java",
        include_str!("../corpus/clean/BoundedBuffer.java"),
        Expect::NoHigh,
    ),
    (
        "clean/BoundedStack.java",
        include_str!("../corpus/clean/BoundedStack.java"),
        Expect::NoHigh,
    ),
    (
        "clean/FutureCell.java",
        include_str!("../corpus/clean/FutureCell.java"),
        Expect::NoHigh,
    ),
    (
        "clean/Mailbox.java",
        include_str!("../corpus/clean/Mailbox.java"),
        Expect::NoHigh,
    ),
    (
        "clean/ProducerConsumer.java",
        include_str!("../corpus/clean/ProducerConsumer.java"),
        Expect::NoHigh,
    ),
    (
        "clean/ReadersWriters.java",
        include_str!("../corpus/clean/ReadersWriters.java"),
        Expect::NoHigh,
    ),
    (
        "clean/Semaphore.java",
        include_str!("../corpus/clean/Semaphore.java"),
        Expect::NoHigh,
    ),
    (
        "invalid/SyntaxError.java",
        include_str!("../corpus/invalid/SyntaxError.java"),
        Expect::FrontError,
    ),
];

#[derive(Debug, Clone)]
enum Expect {
    /// Exactly these `(check, line)` findings at Medium or above.
    Exact(BTreeSet<(CheckId, u32)>),
    /// This finding among others, no frontend error.
    Contains(CheckId, u32),
    /// No High finding, no frontend error.
    NoHigh,
    /// At least one frontend error, and the rest still analyzed.
    FrontError,
}

pub struct Lint {
    files: Vec<((String, String), Expect)>,
}

pub fn setup(seed: u64) -> Lint {
    let mut rng = Rng::new(seed);
    let mut files = Vec::new();
    for &guards in &GUARDS {
        for defect in Defect::ALL {
            let cfg = GenConfig {
                guards,
                wait_sites: 2 * guards,
                locks: guards.min(8),
                padding: 2 * guards,
                threads: 3,
                seed: rng.next_u64(),
            };
            let input = generate_java(&cfg, defect, &mut rng);
            files.push(((input.file, input.text), Expect::Exact(input.expect)));
        }
    }
    for (name, text, expect) in CORPUS {
        files.push(((name.to_string(), text.to_string()), expect));
    }
    rng.shuffle(&mut files);
    Lint { files }
}

impl Workload for Lint {
    fn inputs(&self) -> usize {
        self.files.len()
    }

    fn tail_percentile(&self) -> f64 {
        95.0
    }

    fn warm_up(&self) -> Vec<usize> {
        (0..self.files.len()).collect()
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Checked {
        let (input, expect) = &self.files[i];
        let (front_errors, diags) = if tr.on() {
            check_traced(&input.0, &input.1, tr)
        } else {
            let out = check_files(std::slice::from_ref(input), &CheckOptions::default());
            let file = out.files.into_iter().next().expect("one file in, one out");
            let diags = file
                .reports
                .into_iter()
                .flat_map(|r| r.diagnostics)
                .collect();
            (file.front_errors, diags)
        };
        Checked::one(verdict_ok(expect, front_errors, &diags))
    }
}

fn verdict_ok(expect: &Expect, front_errors: usize, diags: &[Diagnostic]) -> bool {
    let line = |d: &Diagnostic| d.src.as_ref().map_or(0, |s| s.line);
    match expect {
        Expect::Exact(want) => {
            let got: BTreeSet<(CheckId, u32)> = diags
                .iter()
                .filter(|d| d.severity >= Severity::Medium)
                .map(|d| (d.check, line(d)))
                .collect();
            front_errors == 0 && &got == want
        }
        Expect::Contains(check, at) => {
            front_errors == 0 && diags.iter().any(|d| d.check == *check && line(d) == *at)
        }
        Expect::NoHigh => front_errors == 0 && !diags.iter().any(|d| d.severity == Severity::High),
        Expect::FrontError => front_errors > 0 && !diags.is_empty(),
    }
}

/// `check_source` replayed one layer call at a time, rendering to text.
/// Returns the frontend error count and the analyzer diagnostics with
/// their source lines attached.
fn check_traced(file: &str, src: &str, tr: &mut Tracer) -> (usize, Vec<Diagnostic>) {
    let tokens = tr.probe("javasrc.lex", || lex(src).0.len());
    tr.count("javasrc.tokens", tokens as f64);
    let (unit, mut front) = tr.leaf("javasrc.parse", || parse(src));
    let mut lowered_all = Vec::new();
    for class in &unit.classes {
        let mut lowered = tr.leaf("javasrc.lower", || lower_class(class));
        front.append(&mut lowered.diags);
        let errors = tr.leaf("model.validate", || validate(&lowered.component));
        for e in errors {
            if !matches!(e, ValidationError::MonitorNotHeld { .. }) {
                let span = lowered
                    .map
                    .resolve(validation_method(&e).unwrap_or(""), None);
                front.push(FrontDiag::new(Phase::Lower, span, e.to_string()));
            }
        }
        let report = tr.leaf("analyze.analyze", || analyze(&lowered.component));
        tr.count("analyze.diagnostics", report.diagnostics.len() as f64);
        lowered_all.push((report, lowered.map));
    }
    tr.begin("javasrc.render");
    let sm = SourceMap::new(file, src);
    front.sort_by_key(|d| (d.span, d.phase, d.message.clone()));
    let mut out = String::new();
    for d in &front {
        out.push_str(&render_front_diag(&sm, d));
    }
    let mut diags = Vec::new();
    for (mut report, map) in lowered_all {
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
        for d in &report.diagnostics {
            out.push_str(&render_analyzer_diag(&sm, d));
        }
        diags.extend(report.diagnostics);
    }
    let loc = sm.loc();
    tr.end();
    std::hint::black_box(out);
    tr.count("javasrc.loc", loc as f64);
    (front.len(), diags)
}

fn validation_method(e: &ValidationError) -> Option<&str> {
    match e {
        ValidationError::UnknownName { method, .. }
        | ValidationError::UnknownLock { method, .. }
        | ValidationError::TypeMismatch { method, .. }
        | ValidationError::ArityMismatch { method, .. }
        | ValidationError::ReturnMismatch { method, .. } => Some(method),
        _ => None,
    }
}
