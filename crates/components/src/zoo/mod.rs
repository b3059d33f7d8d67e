//! The `java.util.concurrent`-shaped component zoo.
//!
//! Seven additional monitor families modelled on the jpf-concurrent target
//! set (the real `java.util.concurrent` classes the JPF extension verifies
//! against): a thread pool with a bounded work queue, a one-shot future /
//! completion latch, a cyclic barrier with generations and breakage, fair
//! and barging counting-semaphore variants, a read–write lock with
//! upgrade/downgrade, a two-party exchanger, and a bounded stack.
//!
//! Every zoo entry is a Monitor IR component written in Java, like
//! [`jcc_model::examples`]: it parses, validates, earns **zero High**
//! diagnostics from the static analyzer (the clean-corpus gate), compiles
//! for the VM, and contributes its mutant family to the E5/E10 evaluation
//! surface via [`full_corpus`].
//!
//! The zoo deliberately does **not** extend [`jcc_model::examples::corpus`]
//! — that set is frozen at the five seed monitors several tests and
//! baselines depend on. Harnesses that want the doubled surface opt in
//! through [`full_corpus`].

pub mod bounded_stack;
pub mod cyclic_barrier;
pub mod exchanger;
pub mod future;
pub mod rw_lock;
pub mod semaphores;
pub mod thread_pool;

use jcc_model::ast::Component;
use jcc_model::{examples, parse_component, validate};

/// Parse a zoo source, asserting it is well-formed Monitor IR.
pub(crate) fn parse_checked(src: &str) -> Component {
    let c = parse_component(src).expect("zoo source parses");
    let errors = validate::validate(&c);
    assert!(errors.is_empty(), "zoo source invalid: {errors:?}");
    c
}

/// The zoo components (name, component), in registration order.
pub fn zoo() -> Vec<(&'static str, Component)> {
    vec![
        ("ThreadPool", thread_pool::thread_pool()),
        ("FutureCell", future::future_cell()),
        ("CyclicBarrier", cyclic_barrier::cyclic_barrier()),
        ("FairSemaphore", semaphores::fair_semaphore()),
        ("BargingSemaphore", semaphores::barging_semaphore()),
        ("ReadWriteLock", rw_lock::read_write_lock()),
        ("Exchanger", exchanger::exchanger()),
        ("BoundedStack", bounded_stack::bounded_stack()),
    ]
}

/// The full evaluation corpus: the five seed monitors from
/// [`jcc_model::examples::corpus`] followed by the zoo — the surface the
/// E5/E10 harnesses score.
pub fn full_corpus() -> Vec<(&'static str, Component)> {
    let mut all = examples::corpus();
    all.extend(zoo());
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_analyze::{analyze, Severity};
    use jcc_model::ast::{visit_stmts, Stmt};
    use jcc_model::mutate::all_mutants;

    #[test]
    fn zoo_has_eight_components_and_full_corpus_thirteen() {
        assert_eq!(zoo().len(), 8);
        assert_eq!(full_corpus().len(), 13);
        let names: std::collections::BTreeSet<_> =
            full_corpus().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 13, "corpus names must be unique");
    }

    #[test]
    fn every_zoo_component_uses_guarded_waits() {
        for (name, c) in zoo() {
            let mut waits = 0;
            for m in &c.methods {
                visit_stmts(&m.body, &mut |s| {
                    if matches!(s, Stmt::Wait { .. }) {
                        waits += 1;
                    }
                });
            }
            assert!(waits > 0, "{name} should use wait");
        }
    }

    #[test]
    fn clean_zoo_earns_zero_high_severity_diagnostics() {
        for (name, c) in zoo() {
            let report = analyze(&c);
            assert_eq!(
                report.count(Severity::High),
                0,
                "{name} (correct) got High diagnostics:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn full_corpus_enumerates_at_least_two_hundred_mutants() {
        let total: usize = full_corpus()
            .iter()
            .map(|(_, c)| all_mutants(c).len())
            .sum();
        assert!(total >= 200, "only {total} mutants across the full corpus");
    }

    #[test]
    fn every_zoo_component_builds_cofgs_with_wait_arcs() {
        for (name, c) in zoo() {
            let cofgs = jcc_cofg::build_component_cofgs(&c);
            assert_eq!(cofgs.len(), c.methods.len(), "{name}: missing method CoFGs");
            let arcs: usize = cofgs.iter().map(|g| g.arcs.len()).sum();
            assert!(arcs > 0, "{name}: empty CoFG");
            let wait_nodes: usize = cofgs
                .iter()
                .flat_map(|g| g.nodes.iter())
                .filter(|n| matches!(n.kind, jcc_cofg::NodeKind::Wait))
                .count();
            assert!(wait_nodes > 0, "{name}: CoFGs carry no wait nodes");
        }
    }

    #[test]
    fn every_zoo_component_compiles_for_the_vm() {
        for (name, c) in zoo() {
            jcc_vm::compile(&c).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }
}
