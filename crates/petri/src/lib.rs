//! # jcc-petri — Petri-net engine and the Figure-1 model of Java concurrency
//!
//! This crate provides the substrate for the Long & Strooper (IPPS 2003)
//! reproduction:
//!
//! * a general place/transition [`Net`] with firing semantics,
//! * reachability analysis ([`reach`]) with deadlock and boundedness checks,
//! * place-invariant (P-semiflow) verification and discovery ([`invariant`]),
//! * DOT export ([`dot`]),
//! * strongly connected components on an explicit stack ([`scc`]), shared
//!   by the static and the dynamic lock-order graphs,
//! * the paper's Figure-1 net — a single thread interacting with an object
//!   lock — and its N-thread composition ([`java_model`]),
//! * the shared vocabulary of the classification: [`Transition`] (T1–T5),
//!   [`Deviation`] (failure-to-fire / erroneous-firing) and the ten
//!   [`FailureClass`] values of Table 1 ([`transition`]),
//! * the one observable-event type, [`Event`]: T1–T5 firings, notifications,
//!   data accesses and CoFG markers, emitted by the VM and the native
//!   runtime alike ([`event`]).
//!
//! The petri net is *descriptive*: the paper uses it to model the possible
//! states of a thread at any point in time, and every other crate in this
//! workspace speaks in terms of the transitions it defines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod event;
pub mod invariant;
pub mod java_model;
pub mod net;
pub mod parallel;
pub mod reach;
pub mod reduce;
pub mod scc;
pub mod state;
pub mod transition;

pub use event::{Event, EventKind};
pub use java_model::{JavaNet, ThreadPlace};
pub use net::{Marking, Net, NetBuilder, NetError, PlaceId, TransId};
pub use parallel::{parallel_map, Parallelism};
pub use reach::{ReachGraph, ReachLimits, ReachStats};
pub use reduce::{Reduction, StubbornSets, SymmetrySpec};
pub use state::{SliceStore, StateId, StateStore};
pub use transition::{Deviation, FailureClass, Transition, ALL_FAILURE_CLASSES};
