//! # jcc-core — the paper's contribution, end to end
//!
//! Everything the paper itself adds on top of its substrates lives here:
//!
//! * [`hazop`] — the HAZOP-style deviation analysis of Section 5: every
//!   Figure-1 transition is analyzed for *failure to fire* and *erroneous
//!   firing*, **generating** Table 1 from structural facts about the net
//!   (which transitions need another thread, which move the lock token,
//!   which are fired by the runtime) rather than transcribing it,
//! * [`pipeline`] — the end-to-end method: component model → CoFGs →
//!   arc-coverage test sequences → (deterministic) execution → coverage
//!   measurement and Table-1 classification of anything that went wrong,
//!   plus the mutation study of experiment E5,
//! * [`report`] — plain-text rendering of Table 1 (the paper's layout),
//!   coverage reports, CoFG arc listings and mutation-study matrices, used
//!   by the regeneration binaries in `jcc-bench`.
//!
//! # Example
//!
//! ```
//! use jcc_core::pipeline::Pipeline;
//! use jcc_core::vm::{CallSpec, Scheduler, Value};
//!
//! // The paper's Figure-2 component, through the whole method.
//! let component = jcc_core::model::examples::producer_consumer();
//! let pipeline = Pipeline::new(component).expect("valid component");
//! assert_eq!(pipeline.total_arcs(), 10); // Figure 3: five arcs per method
//!
//! // One controlled run: a consumer that blocks until the producer sends.
//! let scenario = vec![
//!     jcc_core::vm::ThreadSpec {
//!         name: "consumer".into(),
//!         calls: vec![CallSpec::new("receive", vec![])],
//!     },
//!     jcc_core::vm::ThreadSpec {
//!         name: "producer".into(),
//!         calls: vec![CallSpec::new("send", vec![Value::Str("x".into())])],
//!     },
//! ];
//! let (outcome, findings) = pipeline.run_and_classify(&scenario, Scheduler::RoundRobin);
//! assert!(findings.is_empty(), "nothing to classify on the correct component");
//! assert_eq!(
//!     outcome.results[0][0].returned,
//!     Some(Value::Str("x".into())),
//! );
//!
//! // Table 1, generated from the Figure-1 net.
//! let table = jcc_core::hazop::generate_table(&jcc_core::petri::JavaNet::new(1));
//! assert_eq!(table.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hazop;
pub mod pipeline;
pub mod report;

pub use hazop::{generate_table, DetectionTechnique, TableRow};
pub use pipeline::{
    mutation_study, ArcHeat, MutationStudyConfig, MutationStudyResult, Pipeline, ScheduleEvidence,
};

// The whole workspace, re-exported for downstream users: `jcc_core::vm`,
// `jcc_core::cofg`, … give one-stop access to the substrates.
pub use jcc_analyze as analyze;
pub use jcc_cofg as cofg;
pub use jcc_components as components;
pub use jcc_detect as detect;
pub use jcc_javasrc as javasrc;
pub use jcc_model as model;
pub use jcc_obs as obs;
pub use jcc_petri as petri;
pub use jcc_runtime as runtime;
pub use jcc_testgen as testgen;
pub use jcc_vm as vm;
