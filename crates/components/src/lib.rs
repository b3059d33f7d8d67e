//! # jcc-components — the concurrent component corpus
//!
//! The paper's future work calls for applying the method to "a range of
//! concurrent components". This crate provides that range as Monitor IR:
//! each component has one definition, which the VM explores, the CoFG
//! builder and the mutation study read, and `jcc_runtime::NativeComponent`
//! runs on real threads.
//!
//! * [`model`] — the seed components of [`jcc_model::examples`]: the
//!   paper's Figure-2 producer–consumer, a one-slot bounded buffer, a
//!   counting semaphore, a readers–writers monitor, a cyclic barrier and
//!   the lock-order and race specimens.
//! * [`zoo`] — seven `java.util.concurrent`-shaped monitor families
//!   (thread pool, future cell, cyclic barrier with generations, fair and
//!   barging semaphores, read–write lock with upgrade/downgrade,
//!   exchanger, bounded stack), each validated, analyzer-clean and
//!   mutation-ready; [`zoo::full_corpus`] is the seed corpus plus the
//!   zoo.
//! * [`gen`] — a seeded, fully deterministic component generator whose
//!   output is valid by construction, parameterised over guard / wait-site
//!   / lock / padding counts; the E11 scaling sweep is built on it.
//!
//! Faults are seeded with `jcc_model::mutate`, on the VM and natively
//! alike, so the completion-time experiment (E6) seeds the same Table-1
//! failure classes in real threads as the mutation study does in the VM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod zoo;

/// The seed components.
pub mod model {
    pub use jcc_model::examples::{
        barrier, bounded_buffer, corpus, lock_order_deadlock, producer_consumer, racy_counter,
        readers_writers, semaphore,
    };
}

// The seed components on real threads, one test module per component:
// each runs the component's MIR through `jcc_runtime::NativeComponent`.
#[cfg(test)]
mod barrier {
    mod tests;
}
#[cfg(test)]
mod bounded_buffer {
    mod tests;
}
#[cfg(test)]
mod coverage {
    mod tests;
}
#[cfg(test)]
mod producer_consumer {
    mod tests;
}
#[cfg(test)]
mod readers_writers {
    mod tests;
}
#[cfg(test)]
mod semaphore {
    mod tests;
}

/// Test support for the native test modules.
#[cfg(test)]
mod native {
    use std::sync::{Arc, Mutex};

    use jcc_clock::{CallRecord, Schedule, TestDriver};
    use jcc_model::ast::Component;
    use jcc_model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
    use jcc_runtime::{EventLog, NativeComponent};
    use jcc_vm::Value;

    /// `component` compiled and instantiated natively on a fresh log.
    pub fn native(component: &Component) -> Arc<NativeComponent> {
        let compiled = jcc_vm::compile(component).expect("a seed component compiles");
        Arc::new(NativeComponent::new(compiled, &EventLog::new()))
    }

    /// The first `kind` mutation of `method` applied to `component`.
    pub fn mutant(component: &Component, kind: MutationKind, method: &str) -> Component {
        let m = enumerate_mutations(component)
            .into_iter()
            .find(|m| m.kind == kind && m.method == method)
            .expect("the mutation applies");
        apply_mutation(component, &m).expect("a valid mutant")
    }

    /// Call `method`, which must not fault; what it returned.
    pub fn call(c: &NativeComponent, method: &str, args: &[Value]) -> Option<Value> {
        c.call(method, args).unwrap_or_else(|e| panic!("{method} faulted: {e}"))
    }

    /// `calls` — `(method, release time, args)` — against `c` under the
    /// ConAn abstract clock: each call's completion record (labelled by
    /// its method) and what each completed call returned.
    pub fn clocked(
        c: &Arc<NativeComponent>,
        calls: &[(&str, u64, &[Value])],
    ) -> (Vec<CallRecord>, Vec<Option<Value>>) {
        let returned = Arc::new(Mutex::new(vec![None; calls.len()]));
        let mut schedule = Schedule::new();
        for (i, &(method, at, args)) in calls.iter().enumerate() {
            let (c, returned) = (Arc::clone(c), Arc::clone(&returned));
            let (method, args) = (method.to_string(), args.to_vec());
            schedule = schedule.call(method.clone(), at, move |_| {
                let value = c.call(&method, &args).ok().flatten();
                returned.lock().unwrap()[i] = value;
            });
        }
        let (records, _) = TestDriver::new().run(schedule);
        let returned = returned.lock().unwrap().clone();
        (records, returned)
    }
}

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
