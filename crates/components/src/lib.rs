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

#[cfg(test)]
mod tests {
    use jcc_model::examples;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Every built-in component, and the generator at E11's four sizes,
    /// lowers to the MIR that pinned every tally in the experiments: the
    /// values are FNV-1a hashes of each component's `Debug` text.
    #[test]
    fn builtin_and_generated_mir_is_pinned() {
        let mut all = vec![
            ("ProducerConsumer", examples::producer_consumer()),
            ("BoundedBuffer", examples::bounded_buffer()),
            ("Semaphore", examples::semaphore()),
            ("ReadersWriters", examples::readers_writers()),
            ("Barrier", examples::barrier()),
            ("LockOrder", examples::lock_order_deadlock()),
            ("DiningDeadlock", examples::dining_deadlock()),
            ("DiningOrdered", examples::dining_ordered()),
            ("RacyCounter", examples::racy_counter()),
        ];
        all.extend(crate::zoo::zoo());
        let names = ["gen1", "gen2", "gen3", "gen4"];
        for (n, name) in (1..=4).zip(names) {
            all.push((name, crate::gen::generate(&crate::gen::GenConfig::sized(n, 2024))));
        }
        let expected: [(&str, u64); 21] = [
            ("ProducerConsumer", 0x744e5632cec97997),
            ("BoundedBuffer", 0xfbb6417a5bdf7453),
            ("Semaphore", 0x400b6b08b532bf0c),
            ("ReadersWriters", 0xe140a5b4310b3e7d),
            ("Barrier", 0x3051a026a981ad6e),
            ("LockOrder", 0x2b91e52aa1f784ce),
            ("DiningDeadlock", 0xe40a54b469f4b50a),
            ("DiningOrdered", 0x44bb6b9222126128),
            ("RacyCounter", 0x3c37bc5b5e6ad374),
            ("ThreadPool", 0x73b2b6af7e91bbde),
            ("FutureCell", 0x3296a37e4be84a7a),
            ("CyclicBarrier", 0x8dc0fa98850a2dba),
            ("FairSemaphore", 0x65ca4ffe0ce8fee0),
            ("BargingSemaphore", 0x94348319c94f692e),
            ("ReadWriteLock", 0xe88bd8ff4b85d43b),
            ("Exchanger", 0x5fceb73085b8f65b),
            ("BoundedStack", 0x8199200026e64451),
            ("gen1", 0x7af6418bda1f03ea),
            ("gen2", 0x1f9f143837a0c9b4),
            ("gen3", 0x6a6a2c6076b45a67),
            ("gen4", 0x5f7eafcf5227d50f),
        ];
        let actual: Vec<(&str, u64)> = all
            .iter()
            .map(|(name, c)| (*name, fnv1a(format!("{c:?}").as_bytes())))
            .collect();
        assert_eq!(actual, expected);
    }
}
