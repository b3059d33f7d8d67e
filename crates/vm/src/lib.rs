//! # jcc-vm — a virtual machine for Monitor IR components
//!
//! The paper tests components "under the assumption of multiple thread
//! access", which requires *controlling* the interleaving of threads. The
//! JVM gives no such control; this VM does. It interprets `jcc-model`
//! components with logical threads under a pluggable scheduler:
//!
//! * [`machine::Scheduler::RoundRobin`] — deterministic rotation,
//! * [`machine::Scheduler::Random`] — seeded pseudo-random interleaving
//!   (reproducible noise, the paper's "non-deterministic" baseline),
//! * [`machine::Scheduler::Fixed`] — an explicit schedule (deterministic
//!   testing in the Brinch Hansen / ConAn sense),
//! * [`explore`] — exhaustive bounded DFS over *all* schedules, with exact
//!   interned-state dedup (a small model checker, used to prove a mutant
//!   deadlocks or to union coverage over every interleaving).
//!
//! Monitor semantics follow the paper's Figure-1 model exactly: `enter`
//! fires T1 then T2, `wait` fires T3 (and the wake-up path fires T5 then
//! T2), leaving a synchronized region fires T4. Locks are reentrant; each
//! lock has one FIFO wait set; `notify` wakes the longest-waiting thread
//! (the JVM may pick arbitrarily — FIFO keeps runs reproducible).
//!
//! Every run yields a [`machine::RunOutcome`]: a full trace of
//! [`jcc_petri::event::Event`]s (convertible to CoFG coverage markers), per-call results and completion steps, and a
//! verdict (completed / deadlocked / step-limit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod explore;
pub mod machine;
pub mod timeline;
pub mod trace;
pub mod value;

pub use compile::{compile, CompileError, CompiledComponent};
pub use explore::{explore, explore_observed, ExploreConfig, ExploreResult, PathEnd, PathObserver};
pub use jcc_petri::Parallelism;
pub use machine::{
    CallResult, CallSpec, RunConfig, RunOutcome, Scheduler, ThreadSpec, Verdict, Vm,
};
pub use timeline::{timeline_of_outcome, timeline_with_coverage};
pub use value::Value;
