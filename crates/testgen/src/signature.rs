//! Behavioural signatures: the observable outcome of a run, used as the
//! oracle for mutation detection (Brinch Hansen's step 4 — "the output is
//! compared with the predicted output" — with completion information folded
//! in, per the paper's completion-time technique).

use std::collections::BTreeSet;

use jcc_vm::{
    explore_observed, CallResult, ExploreConfig, PathEnd, PathObserver, RunOutcome, Value, Verdict,
    Vm,
};

/// How a run ended, abstracted for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EndState {
    /// All calls completed.
    Completed,
    /// Deadlock (threads waiting and/or blocked forever).
    Deadlock,
    /// A runtime fault.
    Faulted,
    /// Step budget exhausted / livelock.
    NoProgress,
}

/// The observable signature of one run: how it ended, and per thread per
/// call whether the call completed and what it returned. Completion *order*
/// is deliberately excluded (it is schedule noise); completion *fact* and
/// values are the oracle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    /// Abstract end state.
    pub end: EndState,
    /// `results[thread][call] = (completed, returned)`.
    pub results: Vec<Vec<(bool, Option<Value>)>>,
}

/// Extract the signature of a run outcome.
pub fn run_signature(outcome: &RunOutcome) -> Signature {
    let end = match &outcome.verdict {
        Verdict::Completed => EndState::Completed,
        Verdict::Deadlock { .. } => EndState::Deadlock,
        Verdict::Faulted { .. } => EndState::Faulted,
        Verdict::StepLimit => EndState::NoProgress,
    };
    signature(end, &outcome.results)
}

/// The signature of a run that ended as `end` with these call results.
fn signature(end: EndState, results: &[Vec<CallResult>]) -> Signature {
    let results = results
        .iter()
        .map(|calls| {
            calls
                .iter()
                .map(|c| (!c.suspended(), c.returned.clone()))
                .collect()
        })
        .collect();
    Signature { end, results }
}

/// Limits for signature enumeration.
#[derive(Debug, Clone, Copy)]
pub struct EnumLimits {
    /// Maximum distinct states.
    pub max_states: usize,
    /// Maximum depth of one path.
    pub max_depth: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits {
            max_states: 100_000,
            max_depth: 1_500,
        }
    }
}

/// Enumerate the set of signatures reachable under *any* schedule: a fold
/// over the VM explorer's path ends ([`explore_observed`], no reduction).
/// A terminal path contributes its verdict's signature; a path that
/// closes a cycle on itself contributes a [`EndState::NoProgress`]
/// signature (the system can loop forever there). The explorer's limits
/// apply as they do to [`jcc_vm::explore`]: at most `max_states` distinct
/// states, so a space of exactly `max_states` states is not truncated.
///
/// Returns `(signatures, truncated)`.
pub fn enumerate_signatures(vm: Vm, limits: EnumLimits) -> (BTreeSet<Signature>, bool) {
    let config = ExploreConfig {
        max_states: limits.max_states,
        max_depth: limits.max_depth,
        ..ExploreConfig::default()
    };
    let mut signatures = Signatures::default();
    let result = explore_observed(vm, &config, &mut signatures);
    (signatures.0, result.truncated)
}

/// The signature set a search's path ends reach. It reads only the
/// machine at each terminal or cycle end (a join adds no signature), so
/// the search builds no events for it.
#[derive(Default)]
struct Signatures(BTreeSet<Signature>);

impl PathObserver for Signatures {
    const READS_EVENTS: bool = false;

    fn path_end(&mut self, vm: &Vm, end: PathEnd<'_>) {
        let end = match end {
            PathEnd::Terminal(Verdict::Completed) => EndState::Completed,
            PathEnd::Terminal(Verdict::Deadlock { .. }) => EndState::Deadlock,
            PathEnd::Terminal(Verdict::Faulted { .. }) => EndState::Faulted,
            PathEnd::Terminal(Verdict::StepLimit) | PathEnd::Cycle => EndState::NoProgress,
        };
        self.0.insert(signature(end, &vm.results()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples;
    use jcc_model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
    use jcc_vm::{compile, CallSpec, RunConfig, ThreadSpec, Vm};

    fn pc_scenario() -> Vec<ThreadSpec> {
        vec![
            ThreadSpec {
                name: "c".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            },
        ]
    }

    #[test]
    fn correct_component_single_signature() {
        let c = examples::producer_consumer();
        let vm = Vm::new(compile(&c).unwrap(), pc_scenario());
        let (sigs, truncated) = enumerate_signatures(vm, EnumLimits::default());
        assert!(!truncated);
        // Every schedule completes with the same values: one signature.
        assert_eq!(sigs.len(), 1, "{sigs:?}");
        let sig = sigs.iter().next().unwrap();
        assert_eq!(sig.end, EndState::Completed);
        assert_eq!(sig.results[0][0], (true, Some(Value::Str("a".into()))));
    }

    #[test]
    fn drop_notify_mutant_changes_signature_set() {
        let c = examples::producer_consumer();
        let correct_vm = Vm::new(compile(&c).unwrap(), pc_scenario());
        let (correct_sigs, _) = enumerate_signatures(correct_vm, EnumLimits::default());

        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::DropNotify && m.method == "send")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let mutant_vm = Vm::new(compile(&mutant).unwrap(), pc_scenario());
        let (mutant_sigs, _) = enumerate_signatures(mutant_vm, EnumLimits::default());
        assert_ne!(correct_sigs, mutant_sigs);
        assert!(mutant_sigs.iter().any(|s| s.end == EndState::Deadlock));
    }

    #[test]
    fn run_signature_shape() {
        let c = examples::producer_consumer();
        let mut vm = Vm::new(compile(&c).unwrap(), pc_scenario());
        let out = vm.run(&RunConfig::default());
        let sig = run_signature(&out);
        assert_eq!(sig.end, EndState::Completed);
        assert_eq!(sig.results.len(), 2);
        assert_eq!(sig.results[1][0], (true, None)); // send is void
    }

    #[test]
    fn signatures_ignore_completion_order() {
        // Two different schedules of the same scenario produce the same
        // signature even though step counts differ.
        let c = examples::producer_consumer();
        let cc = compile(&c).unwrap();
        let mut vm1 = Vm::new(cc.clone(), pc_scenario());
        let out1 = vm1.run(&RunConfig::default());
        let mut vm2 = Vm::new(cc, pc_scenario());
        let out2 = vm2.run(&RunConfig {
            scheduler: jcc_vm::Scheduler::Random(99),
            max_steps: 20_000,
        });
        assert_eq!(run_signature(&out1), run_signature(&out2));
    }

    #[test]
    fn a_space_of_exactly_max_states_is_not_truncated() {
        let c = examples::producer_consumer();
        let make = || Vm::new(compile(&c).unwrap(), pc_scenario());
        let census = jcc_vm::explore(make(), &jcc_vm::ExploreConfig::default(), None);
        assert!(!census.truncated);
        let k = census.states;
        let (all, truncated) = enumerate_signatures(make(), EnumLimits::default());
        assert!(!truncated);
        let limits = |max_states| EnumLimits {
            max_states,
            max_depth: 1_500,
        };
        assert_eq!(enumerate_signatures(make(), limits(k)), (all, false));
        assert!(enumerate_signatures(make(), limits(k - 1)).1);
    }

    #[test]
    fn truncation_flag_set_on_tiny_limits() {
        let c = examples::producer_consumer();
        let vm = Vm::new(compile(&c).unwrap(), pc_scenario());
        let (_, truncated) = enumerate_signatures(
            vm,
            EnumLimits {
                max_states: 100_000,
                max_depth: 2,
            },
        );
        assert!(truncated);
    }
}
