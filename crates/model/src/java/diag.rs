//! Frontend diagnostics: parse and lowering errors with spans.
//!
//! These are distinct from the analyzer's `Diagnostic`s (`jcc-analyze`): a
//! [`FrontDiag`] means the *frontend* could not fully understand the
//! source (syntax error, unsupported construct, unresolved name), while
//! analyzer diagnostics report concurrency defects in code the frontend
//! understood. The `jcc check` exit-code contract keeps them apart:
//! frontend errors exit 2, findings exit 1.

use std::fmt;

use super::span::Span;

/// Which frontend phase produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Lexing or parsing: the source is not syntactically in the subset.
    Parse,
    /// Lowering: syntactically fine but not expressible in the Monitor IR
    /// (unknown name, unsupported type, ill-typed operation).
    Lower,
}

impl Phase {
    /// Stable lower-case name, used in rendering and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Lower => "lower",
        }
    }
}

/// One recoverable frontend error, anchored to a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontDiag {
    /// The phase that failed.
    pub phase: Phase,
    /// Where in the file.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
    /// Optional `help:` line with a suggested fix.
    pub help: Option<String>,
}

impl FrontDiag {
    /// A diagnostic with no help text.
    pub fn new(phase: Phase, span: Span, message: impl Into<String>) -> FrontDiag {
        FrontDiag {
            phase,
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a `help:` suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> FrontDiag {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for FrontDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} error at {}: {}",
            self.phase.name(),
            self.span,
            self.message
        )
    }
}

impl std::error::Error for FrontDiag {}
