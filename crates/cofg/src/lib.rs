//! # jcc-cofg — Concurrency Flow Graphs
//!
//! A Concurrency Flow Graph (CoFG, the paper's Section 6) is built per
//! method of a concurrent component. Its nodes are the *concurrency
//! statements* — method `start`, `wait`, `notify`, `notifyAll`, explicit
//! `synchronized` block boundaries, and method `end` — and its arcs are the
//! code regions between all pairs of concurrency statements that control
//! flow can connect without crossing a third one. Each arc carries
//!
//! * the loop/branch conditions (with required polarity) a test must
//!   establish to traverse it, and
//! * the sequence of Figure-1 model transitions (T1–T5) its traversal fires.
//!
//! Covering all arcs of a CoFG therefore exercises every concurrency
//! primitive of the component — the paper's test-selection criterion.
//!
//! Modules:
//! * [`graph`] — the CoFG data structure,
//! * [`build`] — CoFG construction from `jcc-model` IR,
//! * [`coverage`] — arc-coverage tracking from event streams,
//! * [`timeline`] — causal timelines folded from event streams, intervals
//!   stamped with the CoFG arcs they traverse,
//! * [`dot`] — Graphviz export,
//! * [`requirements`] — per-arc test requirements (Brinch Hansen step 1),
//! * [`paper`] — the published Figure-3 reference data for regression
//!   comparison (including the paper's arc-3 transition-list anomaly).

//! # Example
//!
//! ```
//! use jcc_cofg::{build_cofg, NodeKind};
//!
//! let component = jcc_model::examples::producer_consumer();
//! let cofg = build_cofg(&component, component.method("receive").unwrap());
//! // Figure 3: start, wait, notifyAll, end — and five arcs.
//! assert_eq!(cofg.nodes.len(), 4);
//! assert_eq!(cofg.arcs.len(), 5);
//! assert_eq!(cofg.node(cofg.start()).kind, NodeKind::Start);
//! println!("{}", cofg.describe_arc(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod coverage;
pub mod dot;
pub mod graph;
pub mod paper;
pub mod requirements;
pub mod timeline;

pub use build::{build_cofg, build_component_cofgs};
pub use coverage::{CoverageTracker, Marker, SiteId};
pub use graph::{Arc, Cofg, Condition, Node, NodeId, NodeKind};
pub use timeline::TimelineFold;
