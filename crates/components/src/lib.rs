//! # jcc-components — the concurrent component corpus
//!
//! The paper's future work calls for applying the method to "a range of
//! concurrent components". This crate provides that range, each component
//! in two forms:
//!
//! * a **native** implementation on [`jcc_runtime::JavaMonitor`] with real
//!   threads — instrumented with the same coverage markers as its model, so
//!   the CoFGs built from the model measure the native runs too, and
//! * a **model** (Monitor IR) form re-exported from
//!   [`jcc_model::examples`], used by the VM, the CoFG builder and the
//!   mutation study.
//!
//! Components: the paper's Figure-2 producer–consumer ([`producer_consumer`]),
//! a one-slot bounded buffer ([`bounded_buffer`]), a counting semaphore
//! ([`semaphore`]), a readers–writers monitor ([`readers_writers`]), a
//! cyclic barrier ([`barrier`]), and — as a library extension with no model
//! twin — a generic ring buffer ([`ring_buffer`]).
//!
//! Beyond the native/model pairs, two corpus extensions double the
//! evaluation surface:
//!
//! * [`zoo`] — seven `java.util.concurrent`-shaped monitor families
//!   (thread pool, future cell, cyclic barrier with generations, fair and
//!   barging semaphores, read–write lock with upgrade/downgrade,
//!   exchanger, bounded stack), each model-only, validated, analyzer-clean
//!   and mutation-ready; [`zoo::full_corpus`] is the seed corpus plus the
//!   zoo.
//! * [`gen`] — a seeded, fully deterministic component generator whose
//!   output is valid by construction, parameterised over guard / wait-site
//!   / lock / padding counts; the E11 scaling sweep is built on it.
//!
//! Native components take fault-injection configs mirroring the model-level
//! mutation operators, so the completion-time experiments (E6) can seed the
//! same Table-1 failure classes in real threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod bounded_buffer;
pub mod coverage;
pub mod gen;
pub mod producer_consumer;
pub mod readers_writers;
pub mod ring_buffer;
pub mod semaphore;
pub mod zoo;

/// The Monitor IR twins of the native components.
pub mod model {
    pub use jcc_model::examples::{
        barrier, bounded_buffer, corpus, lock_order_deadlock, producer_consumer, racy_counter,
        readers_writers, semaphore,
    };
}

pub use producer_consumer::{PcFaults, ProducerConsumer};
