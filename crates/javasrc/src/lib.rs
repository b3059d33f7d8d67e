//! # jcc-javasrc — `jcc check`: the Java linter over the Monitor IR
//!
//! Components are Java classes; the frontend that parses and lowers them
//! (span, lexer, parser, lowering, diagnostics) lives in
//! [`jcc_model::java`] and is re-exported here at its old paths. This
//! crate adds what a linter needs on top of it:
//!
//! * [`render`] — rustc-style `error[EF-T3]: ...` diagnostics with
//!   caret-underlined snippets,
//! * [`check`] — the `jcc check` driver with the 0/1/2 exit contract
//!   (clean / findings at threshold / frontend error).
//!
//! ```
//! use jcc_javasrc::check::{check_files, CheckOptions};
//! let src = "class C { int n = 0; public synchronized void inc() { n++; } }";
//! let out = check_files(&[("C.java".into(), src.into())], &CheckOptions::default());
//! assert_eq!(out.exit_code(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod render;

pub use check::{check_files, check_paths, check_source, CheckOptions, CheckOutcome, Format};
pub use jcc_model::java::{ast, diag, lexer, lower, parser, span};
pub use jcc_model::java::{lower_class, parse, FrontDiag, LowerMap, Lowered, Phase, SourceMap, Span};
