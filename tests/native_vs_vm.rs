//! Integration: the native executor and the VM run one component
//! definition and agree on it — the same CoFG coverage semantics, the same
//! transition vocabulary, the same completion behaviour.
//!
//! The differential tests run every registered component's two-thread
//! scenarios, and a seeded sample of mutants on three-thread scenarios,
//! natively once each: the native run's signature must be one the VM
//! reaches under some schedule, and the arcs it covers must be arcs the
//! exhaustive exploration covers, with no stray.

use jcc_core::cofg::{build_component_cofgs, CoverageTracker};
use jcc_core::components::zoo::full_corpus;
use jcc_core::model::ast::Component;
use jcc_core::model::examples;
use jcc_core::model::mutate::{apply_mutation, enumerate_mutations, MutationKind};
use jcc_core::petri::{Event, EventKind, Transition};
use jcc_core::runtime::exec::{run, run_clocked, Release};
use jcc_core::runtime::{EventLog, NativeComponent};
use jcc_core::testgen::corpus::{registered, space_for};
use jcc_core::testgen::scenario::{describe, single_session_scenarios, Scenario};
use jcc_core::testgen::signature::{enumerate_signatures, run_signature, EnumLimits};
use jcc_core::vm::trace::apply_trace;
use jcc_core::vm::{
    compile, explore, CallSpec, ExploreConfig, RunConfig, Scheduler, ThreadSpec, Value, Vm,
};

/// Run `scenario` natively once and check it against the VM's exhaustive
/// view. Returns how many of the run's threads it left blocked or parked.
fn agrees(label: &str, component: &Component, scenario: &Scenario) -> usize {
    let label = format!("{label} [{}]", describe(scenario));
    let compiled = compile(component).expect("compiles");
    let vm = Vm::new(compiled.clone(), scenario.clone());
    let (signatures, truncated) = enumerate_signatures(vm.clone(), EnumLimits::default());
    assert!(!truncated, "{label}: signature enumeration truncated");
    let mut vm_cov = CoverageTracker::new(build_component_cofgs(component));
    let explored = explore(vm, &ExploreConfig::default(), Some(&mut vm_cov));
    assert!(!explored.truncated, "{label}: exploration truncated");

    let out = run(&compiled, scenario).expect("a small scenario");
    let signature = run_signature(&out);
    assert!(
        signatures.contains(&signature),
        "{label}: native {signature:?} is not among the VM's {signatures:?}"
    );
    let mut native_cov = CoverageTracker::new(build_component_cofgs(component));
    apply_trace(&out.trace, &mut native_cov);
    assert_eq!(native_cov.strays, 0, "{label}: stray markers natively");
    for method in native_cov.methods() {
        let hits = native_cov.arc_hits(method).expect("a tracked method");
        for (arc, _) in hits.iter().enumerate().filter(|(_, &h)| h > 0) {
            assert!(
                vm_cov.arc_covered(method, arc),
                "{label}: {method} arc {arc} covered natively, never on the VM"
            );
        }
    }
    (0..out.results.len())
        .filter(|&t| out.results[t].iter().any(|c| c.suspended()))
        .filter(|&t| {
            let last = out.trace.iter().rev().find(|e| e.thread == t as u64);
            !matches!(last.map(|e| &e.kind), Some(EventKind::Fault { .. }))
        })
        .count()
}

fn corpus_component(name: &str) -> Component {
    full_corpus()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("a registered component")
        .1
}

/// Every registered component's two-thread scenarios, natively against the
/// VM.
#[test]
fn every_registered_component_agrees_natively() {
    let mut scenarios = 0;
    let mut left_blocked = 0;
    for name in registered() {
        let component = corpus_component(name);
        let space = space_for(name).expect("registered");
        for scenario in single_session_scenarios(&space, 2) {
            left_blocked += agrees(name, &component, &scenario);
            scenarios += 1;
        }
    }
    println!("{scenarios} scenarios; {left_blocked} native threads left blocked");
    assert!(left_blocked < 100, "{left_blocked} threads left blocked");
}

/// A seeded sample of mutants of the registered components, three per
/// operator that compiles, each on a three-thread scenario that calls the
/// mutated method.
#[test]
fn sampled_mutants_agree_natively() {
    // A SplitMix64 draw from the seed and a salt, in 0..n.
    let pick = |n: usize, salt: u64| {
        let mut z = 0x5eed_2003_u64 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    // Every mutant that compiles, of a method some scenario calls.
    let mut mutants = Vec::new();
    for name in registered() {
        let component = corpus_component(name);
        let space = space_for(name).expect("registered");
        let called = |method: &str| space.templates.iter().flatten().any(|c| c.method == method);
        for m in enumerate_mutations(&component) {
            let mutant = apply_mutation(&component, &m).expect("a valid mutant");
            if called(&m.method) && compile(&mutant).is_ok() {
                mutants.push((name, m, mutant));
            }
        }
    }
    let (mut runs, mut left_blocked) = (0, 0);
    for (k, kind) in MutationKind::ALL.into_iter().enumerate() {
        let of_kind: Vec<_> = mutants.iter().filter(|(_, m, _)| m.kind == kind).collect();
        assert!(!of_kind.is_empty(), "{kind:?}: no mutant compiles");
        for draw in 0..3 {
            let (name, m, mutant) = of_kind[pick(of_kind.len(), (k * 3 + draw) as u64)];
            let space = space_for(name).expect("registered");
            let calling: Vec<Scenario> = single_session_scenarios(&space, 3)
                .into_iter()
                .filter(|s| {
                    s.iter()
                        .any(|t| t.calls.iter().any(|c| c.method == m.method))
                })
                .collect();
            let scenario = &calling[pick(calling.len(), runs as u64)];
            left_blocked += agrees(&format!("{name} {}", m.label()), mutant, scenario);
            runs += 1;
        }
    }
    println!("{runs} mutant runs; {left_blocked} native threads left blocked");
    assert!(left_blocked < 100, "{left_blocked} threads left blocked");
}

/// A redundant `synchronized (this)` around a waiting body makes the
/// `wait` reentrant: natively it releases both holds, as Java and the VM
/// do, and completes.
#[test]
fn reentrant_wait_in_a_redundant_sync_mutant_agrees_with_the_vm() {
    let component = examples::producer_consumer();
    let m = enumerate_mutations(&component)
        .into_iter()
        .find(|m| m.kind == MutationKind::AddRedundantSync && m.method == "receive")
        .expect("receive is synchronized");
    let mutant = apply_mutation(&component, &m).unwrap();
    let scenario = pc_threads(("receive", vec![]), ("send", vec![Value::Str("x".into())]));
    assert_eq!(agrees("receive redundant sync", &mutant, &scenario), 0);
    // Forced: the consumer waits, holding `this` twice, before the send.
    assert_eq!(fired(&forced_figure_2(&mutant), Transition::T3), 1);
}

/// How many times `trace` fires `t`.
fn fired(trace: &[Event], t: Transition) -> usize {
    let is_t = |e: &&Event| matches!(e.kind, EventKind::Transition { t: f, .. } if f == t);
    trace.iter().filter(is_t).count()
}

/// One `notify` wakes one waiter, natively under the clock as on the VM:
/// waiters released at ticks 1 and 2, one `notify` at tick 3. Signatures
/// and arcs cannot tell `notify` from `notifyAll` here; the T5 count can.
#[test]
fn one_notify_wakes_one_clocked_waiter_as_on_the_vm() {
    let gate = compile(
        &jcc_core::model::parse_component(
            "class Gate { int n = 0;
                          synchronized void pass() { wait(); n = n + 1; }
                          synchronized void one() { notify(); } }",
        )
        .expect("parses"),
    )
    .expect("compiles");
    let call = |method: &str| CallSpec::new(method, vec![]);
    let schedule = [
        Release::new("pass#1", 1, call("pass")),
        Release::new("pass#2", 2, call("pass")),
        Release::new("one", 3, call("one")),
    ];
    let native = run_clocked(&gate, &schedule).expect("a small schedule");
    assert_eq!(fired(&native.outcome.trace, Transition::T5), 1);
    let completed: Vec<_> = native.records.iter().map(|r| r.completed_at).collect();
    assert_eq!(completed, [Some(3), None, Some(3)], "{:?}", native.records);

    // The VM, each thread run to its block in release order.
    let threads = schedule
        .iter()
        .map(|r| ThreadSpec {
            name: r.label.clone(),
            calls: vec![r.call.clone()],
        })
        .collect();
    let fixed = RunConfig {
        scheduler: Scheduler::Fixed(vec![]),
        ..RunConfig::default()
    };
    let vm = Vm::new(gate, threads).run(&fixed);
    assert_eq!(fired(&vm.trace, Transition::T5), 1);
    assert_eq!(fired(&vm.trace, Transition::T3), 2);
    assert_eq!(run_signature(&vm), run_signature(&native.outcome));
}

fn pc_threads(first: (&str, Vec<Value>), second: (&str, Vec<Value>)) -> Scenario {
    [first, second]
        .into_iter()
        .enumerate()
        .map(|(i, (method, args))| ThreadSpec {
            name: format!("t{i}"),
            calls: vec![CallSpec::new(method, args)],
        })
        .collect()
}

/// Figure 2 (or a mutant) natively under the abstract clock: a consumer
/// released at t=1, a producer sending `x` at t=2; both complete at t=2.
/// The run's trace.
fn forced_figure_2(component: &Component) -> Vec<Event> {
    let x = Value::Str("x".into());
    let schedule = [
        Release::new("receive", 1, CallSpec::new("receive", vec![])),
        Release::new("send", 2, CallSpec::new("send", vec![x.clone()])),
    ];
    let run = run_clocked(&compile(component).unwrap(), &schedule).expect("a small schedule");
    let completed: Vec<_> = run.records.iter().map(|r| r.completed_at).collect();
    assert_eq!(completed, [Some(2), Some(2)], "{:?}", run.records);
    assert_eq!(run.outcome.results[0][0].returned, Some(x));
    run.outcome.trace
}

/// Run the same logical test natively and on the VM; both must cover the
/// same CoFG arcs.
#[test]
fn coverage_agrees_between_native_and_vm() {
    let component = examples::producer_consumer();
    let scenario = pc_threads(("receive", vec![]), ("send", vec![Value::Str("x".into())]));
    let out = Vm::new(compile(&component).unwrap(), scenario).run(&RunConfig::default());
    let mut vm_cov = CoverageTracker::new(build_component_cofgs(&component));
    apply_trace(&out.trace, &mut vm_cov);

    let mut native_cov = CoverageTracker::new(build_component_cofgs(&component));
    apply_trace(&forced_figure_2(&component), &mut native_cov);

    assert_eq!(native_cov.strays, 0);
    assert_eq!(
        vm_cov.covered_arcs(),
        native_cov.covered_arcs(),
        "vm uncovered: {:?}, native uncovered: {:?}",
        vm_cov.uncovered(),
        native_cov.uncovered()
    );
    assert_eq!(vm_cov.uncovered(), native_cov.uncovered());
}

/// The native transition stream tells the same story as the model: a
/// blocked consumer fires T1,T2 (entry), T3 (wait), T5,T2 (wake +
/// re-acquire), T4 (release).
#[test]
fn native_transition_sequence_matches_model() {
    let events = forced_figure_2(&examples::producer_consumer());
    let waiter = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Transition {
                t: Transition::T3, ..
            } => Some(e.thread),
            _ => None,
        })
        .expect("someone waited");
    let seq: Vec<Transition> = events
        .iter()
        .filter(|e| e.thread == waiter)
        .filter_map(|e| match e.kind {
            EventKind::Transition { t, .. } => Some(t),
            _ => None,
        })
        .collect();
    use Transition::*;
    assert_eq!(
        seq,
        vec![T1, T2, T3, T5, T2, T4],
        "the consumer's life cycle must walk the Figure-1 model"
    );
}

/// The native run and the VM return the same characters.
#[test]
fn native_and_vm_return_same_values() {
    let component = examples::producer_consumer();
    let compiled = compile(&component).unwrap();
    let mut scenario = pc_threads(("send", vec![Value::Str("ab".into())]), ("receive", vec![]));
    scenario[1].calls.push(CallSpec::new("receive", vec![]));
    let out = Vm::new(compiled.clone(), scenario).run(&RunConfig::default());
    let vm_chars: Vec<Option<Value>> = out.results[1].iter().map(|r| r.returned.clone()).collect();

    let pc = NativeComponent::new(compiled, &EventLog::new());
    pc.call("send", &[Value::Str("ab".into())]).unwrap();
    let native_chars = vec![
        pc.call("receive", &[]).unwrap(),
        pc.call("receive", &[]).unwrap(),
    ];
    assert_eq!(vm_chars, native_chars);
    assert_eq!(
        native_chars,
        [Some(Value::Str("a".into())), Some(Value::Str("b".into()))]
    );
}
