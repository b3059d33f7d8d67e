//! Cross-crate property-based tests (proptest).

use proptest::prelude::*;

use jcc_core::detect::lockset::LocksetAnalyzer;
use jcc_core::model::ast::{BinOp, Expr, UnOp};
use jcc_core::model::mutate::all_mutants;
use jcc_core::model::pretty::{print_component, print_expr};
use jcc_core::model::{examples, parse_component};
use jcc_core::petri::{invariant, JavaNet};
use jcc_core::vm::{compile, CallSpec, RunConfig, Scheduler, ThreadSpec, Value, Vm};

// ---------- petri: invariants hold along random firing sequences ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn petri_invariants_hold_under_random_firing(
        threads in 1usize..4,
        choices in proptest::collection::vec(0usize..64, 1..60),
    ) {
        let j = JavaNet::new(threads);
        let net = j.net();
        let basis = invariant::invariant_basis(net);
        let mut marking = net.initial_marking();
        let initial: Vec<i64> = basis
            .iter()
            .map(|b| invariant::weighted_sum(&marking, b))
            .collect();
        for c in choices {
            let enabled = net.enabled_transitions(&marking);
            if enabled.is_empty() {
                break;
            }
            let t = enabled[c % enabled.len()];
            marking = net.fire(&marking, t).unwrap();
            let sums: Vec<i64> = basis
                .iter()
                .map(|b| invariant::weighted_sum(&marking, b))
                .collect();
            prop_assert_eq!(&sums, &initial);
            // Safety: 1-bounded along the way.
            prop_assert!(marking.0.iter().all(|&t| t <= 1));
        }
    }
}

// ---------- model: pretty-printer round-trips ----------

/// Typed random expressions: integer-valued.
fn arb_int_expr(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        (0i64..1000).prop_map(Expr::Int).boxed()
    } else {
        let sub = arb_int_expr(depth - 1);
        prop_oneof![
            (0i64..1000).prop_map(Expr::Int),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::Add,
                Box::new(a),
                Box::new(b)
            )),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::Mul,
                Box::new(a),
                Box::new(b)
            )),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::Sub,
                Box::new(a),
                Box::new(b)
            )),
            sub.clone().prop_map(|a| Expr::Unary(UnOp::Neg, Box::new(a))),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn printed_expressions_reparse_identically(expr in arb_int_expr(3)) {
        let src = format!(
            "class P {{ fn m() -> int {{ return {}; }} }}",
            print_expr(&expr)
        );
        let component = parse_component(&src).unwrap();
        match &component.methods[0].body[0] {
            jcc_core::model::Stmt::Return(Some(parsed)) => {
                prop_assert_eq!(parsed, &expr);
            }
            other => prop_assert!(false, "unexpected statement {:?}", other),
        }
    }
}

#[test]
fn every_corpus_mutant_roundtrips_through_the_printer() {
    for (name, component) in examples::corpus() {
        let printed = print_component(&component);
        let reparsed = parse_component(&printed)
            .unwrap_or_else(|e| panic!("{name} failed reparse: {e}\n{printed}"));
        assert_eq!(component, reparsed, "{name}");
        for (mutation, mutant) in all_mutants(&component) {
            // DropSynchronized mutants are printable but place wait/notify
            // outside synchronized context — still must round-trip.
            let printed = print_component(&mutant);
            let reparsed = parse_component(&printed).unwrap_or_else(|e| {
                panic!("{name}/{} failed reparse: {e}\n{printed}", mutation.label())
            });
            assert_eq!(mutant, reparsed, "{name}/{}", mutation.label());
        }
    }
}

// ---------- components: the generator is valid by construction ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any sized generator config yields a component that validates,
    /// compiles, survives the printer round-trip, and explores to the
    /// *same* census on every run — with a deadlock-free call plan, for
    /// any seed.
    #[test]
    fn generated_components_roundtrip_and_explore_deterministically(
        n in 1usize..=2,
        seed in 0u64..1000,
    ) {
        use jcc_core::components::gen::{call_plan, generate, generate_source, GenConfig};
        use jcc_core::vm::{explore, ExploreConfig};

        let cfg = GenConfig::sized(n, seed);
        prop_assert_eq!(generate_source(&cfg), generate_source(&cfg));
        let component = generate(&cfg); // panics unless it parses + validates
        let printed = print_component(&component);
        let reparsed = parse_component(&printed).unwrap();
        prop_assert_eq!(&component, &reparsed);

        let compiled = compile(&component).unwrap();
        let make_vm = || {
            Vm::new(
                compiled.clone(),
                call_plan(&cfg)
                    .into_iter()
                    .enumerate()
                    .map(|(i, calls)| ThreadSpec {
                        name: format!("t{i}"),
                        calls: calls.into_iter().map(|m| CallSpec::new(m, vec![])).collect(),
                    })
                    .collect(),
            )
        };
        let reference = explore(make_vm(), &ExploreConfig::default(), None);
        prop_assert!(!reference.truncated);
        prop_assert!(reference.completed_paths > 0);
        prop_assert_eq!(reference.deadlock_paths, 0, "call plan must be deadlock-free");
        let again = explore(make_vm(), &ExploreConfig::default(), None);
        prop_assert_eq!(again.tally(), reference.tally());
    }
}

// ---------- vm: determinism and coverage monotonicity ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vm_runs_are_deterministic_per_seed(seed in 0u64..1000) {
        let component = examples::producer_consumer();
        let compiled = compile(&component).unwrap();
        let threads = vec![
            ThreadSpec {
                name: "c".into(),
                calls: vec![
                    CallSpec::new("receive", vec![]),
                    CallSpec::new("receive", vec![]),
                ],
            },
            ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("xy".into())])],
            },
        ];
        let cfg = RunConfig {
            scheduler: Scheduler::Random(seed),
            max_steps: 20_000,
        };
        let out1 = Vm::new(compiled.clone(), threads.clone()).run(&cfg);
        let out2 = Vm::new(compiled, threads).run(&cfg);
        prop_assert_eq!(out1.trace, out2.trace);
        prop_assert_eq!(out1.verdict, out2.verdict);
    }

    #[test]
    fn coverage_is_monotone_in_trace_prefix(seed in 0u64..200) {
        use jcc_core::cofg::{build_component_cofgs, CoverageTracker};
        use jcc_core::vm::trace::apply_trace;
        let component = examples::producer_consumer();
        let compiled = compile(&component).unwrap();
        let mut vm = Vm::new(
            compiled,
            vec![
                ThreadSpec {
                    name: "c".into(),
                    calls: vec![CallSpec::new("receive", vec![])],
                },
                ThreadSpec {
                    name: "p".into(),
                    calls: vec![CallSpec::new("send", vec![Value::Str("q".into())])],
                },
            ],
        );
        let out = vm.run(&RunConfig {
            scheduler: Scheduler::Random(seed),
            max_steps: 20_000,
        });
        let mut last = 0;
        for cut in 0..=out.trace.len() {
            let mut tracker = CoverageTracker::new(build_component_cofgs(&component));
            apply_trace(&out.trace[..cut], &mut tracker);
            let covered = tracker.covered_arcs();
            prop_assert!(covered >= last, "coverage regressed at prefix {}", cut);
            last = covered;
        }
    }
}

// ---------- detect: lockset never flags consistent locking ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lockset_is_quiet_for_consistently_locked_traces(
        ops in proptest::collection::vec((1u64..5, 0usize..4, proptest::bool::ANY), 1..80),
    ) {
        // Every access to variable v_i is protected by lock i.
        use jcc_core::petri::{Event, EventKind, Transition};
        let ev = |thread, kind| Event { seq: 0, thread, kind };
        let mut events = Vec::new();
        for (thread, var, is_write) in ops {
            let lock = var as u64 + 10;
            events.push(ev(thread, EventKind::Transition { t: Transition::T2, lock }));
            let var = format!("v{var}");
            events.push(ev(
                thread,
                if is_write {
                    EventKind::Write { var }
                } else {
                    EventKind::Read { var }
                },
            ));
            events.push(ev(thread, EventKind::Transition { t: Transition::T4, lock }));
        }
        prop_assert!(LocksetAnalyzer::analyze(&events).is_empty());
    }
}
