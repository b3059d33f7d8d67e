//! # jcc-detect — failure detectors and Table-1 classification
//!
//! Section 5 of the paper annotates every failure class with a detection
//! technique: static/dynamic race analysis for FF-T1, lock analysis for
//! FF-T2, and *check call completion time* for nearly everything else.
//! This crate implements those detectors over the traces the rest of the
//! workspace produces:
//!
//! * [`lockset`] — the Eraser algorithm (Savage et al., cited by the paper
//!   as the dynamic detector for interference / FF-T1),
//! * [`lockorder`] — lock-order-graph cycle detection (the LockTree idea the
//!   paper cites from JPF's runtime analysis; FF-T2/FF-T4),
//! * [`completion`] — the completion-time oracle of the ConAn method
//!   (FF-T3, EF-T3, EF-T4, FF-T5, EF-T5),
//! * [`online`] — the three dynamic detectors (lockset, lock order, lost
//!   notifications) composed into one gap-aware streaming monitor,
//! * [`classify`] — mapping detector output and VM verdicts onto the ten
//!   [`FailureClass`](jcc_petri::FailureClass)es of Table 1.
//!
//! Every detector consumes the one event type, [`jcc_petri::event::Event`],
//! which both the VM trace and the native runtime's capture log emit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod completion;
pub mod lockorder;
pub mod lockset;
pub mod online;

pub use classify::{classify_explore, classify_outcome, classify_runtime_events, Finding};
pub use completion::{check_completions, CompletionExpectation, Expectation, Violation};
pub use lockorder::{LockOrderCycle, LockOrderGraph};
pub use lockset::{LocksetAnalyzer, RaceReport};
pub use online::{LostNotifications, OnlineAlert, OnlineMonitor};
