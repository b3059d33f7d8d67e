//! `mutants`: the paper's own evaluation (E5). The study of corpus
//! components with registered scenario spaces, one input per mutant: each
//! mutant's directed verdict is checked against a checked-in table. Many
//! small signature enumerations, plus per-mutant `compile`, `Vm::new` and
//! suite building.
//!
//! `mutation_study` delivers a component's verdicts all at once after
//! 0.1–0.6 s, and a sample that long rarely falls wholly inside one of the
//! host's fast spells. So the study is run through its layer functions in
//! the order `mutation_study` calls them, split into inputs of a few to a
//! few tens of ms: per component one *suites* input (`Pipeline::new`, the
//! directed and random suites, `all_mutants`), one *reference* input per
//! suite scenario (the correct component's signature set), then one input
//! per mutant (the mutant's row of the matrix: compile, enumerate against
//! the directed suite, replay the random baseline). Suites and reference
//! inputs decide no verdict; their time counts towards `verdicts_per_s`.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use jcc_core::analyze::analyze;
use jcc_core::cofg::build_component_cofgs;
use jcc_core::components::zoo::full_corpus;
use jcc_core::model::mutate::all_mutants;
use jcc_core::model::validate::validate;
use jcc_core::model::{Component, Mutation};
use jcc_core::pipeline::MutationStudyConfig;
use jcc_core::testgen::corpus::space_for;
use jcc_core::testgen::suite::{greedy_cover_suite, random_suite};
use jcc_core::testgen::{
    enumerate_signatures, run_signature, CoverageSuite, Scenario, ScenarioSpace, Signature,
};
use jcc_core::vm::{compile, CompiledComponent, Parallelism, RunConfig, Scheduler, Vm};

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Checked, Workload};

/// Per-mutant directed verdicts of the registered corpus under the
/// default study configuration: `component<TAB>label<TAB>detected|missed`.
const TABLE: &str = include_str!("../data/mutants_directed.tsv");

/// The components a round studies: the two whose studies take under half
/// a second each (39 mutants), so that a run holds some sixty rounds.
/// FairSemaphore's study (0.6 s) would add a single 0.22 s reference
/// enumeration, and a sample that long rarely falls wholly inside one of
/// the host's fast spells. The set is fixed so that every seed's round
/// costs the same; the seed orders the components and the mutants within
/// each. (Seeding the random baseline would change which scenarios it
/// enumerates, and with them the cost.)
const STUDIED: [&str; 2] = ["Semaphore", "BargingSemaphore"];

struct Study {
    name: String,
    component: Component,
    space: ScenarioSpace,
    /// Scenarios of the directed and the random suite together.
    scenarios: usize,
    /// Table rows for this component that `all_mutants` does not produce.
    missing: usize,
}

/// What a component's suites and reference inputs leave for its mutants.
struct Prepared {
    compiled: CompiledComponent,
    directed: CoverageSuite,
    random: CoverageSuite,
    /// The correct component's signature set and truncation flag for each
    /// directed scenario, then each random one; filled by the reference
    /// inputs.
    references: Vec<Option<(BTreeSet<Signature>, bool)>>,
    mutants: Vec<(Mutation, Component)>,
}

#[derive(Clone, Copy)]
enum Step {
    Suites(usize),
    /// Study, index into its directed-then-random scenarios.
    Reference(usize, usize),
    /// Study, index into its `all_mutants`.
    Mutant(usize, usize),
}

impl Step {
    fn study(self) -> usize {
        match self {
            Step::Suites(s) | Step::Reference(s, _) | Step::Mutant(s, _) => s,
        }
    }
}

pub struct Mutants {
    studies: Vec<Study>,
    steps: Vec<Step>,
    prepared: RefCell<Vec<Option<Prepared>>>,
    config: MutationStudyConfig,
    table: BTreeMap<(String, String), bool>,
}

pub fn setup(seed: u64) -> Mutants {
    let mut rng = Rng::new(seed);
    let table = parse_table();
    let config = MutationStudyConfig {
        parallelism: Parallelism::sequential(),
        ..MutationStudyConfig::default()
    };
    let mut off = Tracer::new(false);
    let mut studies: Vec<Study> = full_corpus()
        .into_iter()
        .filter(|(name, _)| STUDIED.contains(name))
        .map(|(name, c)| {
            let space = space_for(name).expect("studied components are registered");
            let (directed, random) = suites(&c, &space, &config, &mut off);
            let labels: BTreeSet<String> =
                all_mutants(&c).iter().map(|(m, _)| m.label()).collect();
            let missing = table
                .range((name.to_string(), String::new())..)
                .take_while(|((n, _), _)| n == name)
                .filter(|((_, label), _)| !labels.contains(label))
                .count();
            Study {
                name: name.to_string(),
                scenarios: directed.scenarios.len() + random.scenarios.len(),
                space,
                component: c,
                missing,
            }
        })
        .collect();
    rng.shuffle(&mut studies);
    let mut steps = Vec::new();
    for (s, study) in studies.iter().enumerate() {
        steps.push(Step::Suites(s));
        steps.extend((0..study.scenarios).map(|k| Step::Reference(s, k)));
        let mut order: Vec<usize> = (0..all_mutants(&study.component).len()).collect();
        rng.shuffle(&mut order);
        steps.extend(order.into_iter().map(|m| Step::Mutant(s, m)));
    }
    Mutants {
        prepared: RefCell::new(studies.iter().map(|_| None).collect()),
        studies,
        steps,
        config,
        table,
    }
}

/// Parse the table and check it against EXPERIMENTS E5's published
/// directed totals for the four seed monitors (68 of 77 behavioural
/// mutants; EF-T1 redundant-sync mutants are excluded as neutral).
fn parse_table() -> BTreeMap<(String, String), bool> {
    let mut table = BTreeMap::new();
    let (mut detected, mut behavioural) = (0, 0);
    for line in TABLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 3, "malformed table row: {line}");
        let hit = match cols[2] {
            "detected" => true,
            "missed" => false,
            other => panic!("malformed verdict {other:?}"),
        };
        if [
            "ProducerConsumer",
            "BoundedBuffer",
            "Semaphore",
            "ReadersWriters",
        ]
        .contains(&cols[0])
            && !cols[1].contains("add_redundant_sync")
        {
            behavioural += 1;
            detected += hit as usize;
        }
        let fresh = table.insert((cols[0].to_string(), cols[1].to_string()), hit);
        assert!(fresh.is_none(), "duplicate table row: {line}");
    }
    assert_eq!((detected, behavioural), (68, 77), "table disagrees with E5");
    table
}

impl Workload for Mutants {
    fn inputs(&self) -> usize {
        self.steps.len()
    }

    fn tail_percentile(&self) -> f64 {
        90.0
    }

    fn warm_up(&self) -> Vec<usize> {
        let cheapest = self.studies.iter().position(|s| s.name == "Semaphore");
        (0..self.steps.len())
            .filter(|&i| Some(self.steps[i].study()) == cheapest)
            .collect()
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Checked {
        let step = self.steps[i];
        let study = &self.studies[step.study()];
        let mut prepared = self.prepared.borrow_mut();
        let slot = &mut prepared[step.study()];
        match step {
            Step::Suites(_) => {
                *slot = Some(pipeline(study, &self.config, tr));
                // A mutant the table lists and `all_mutants` no longer
                // produces is a wrong verdict.
                Checked {
                    verdicts: study.missing,
                    wrong: study.missing,
                }
            }
            Step::Reference(_, k) => {
                if let Some(p) = slot {
                    let scenario = match p.directed.scenarios.get(k) {
                        Some(s) => s,
                        None => &p.random.scenarios[k - p.directed.scenarios.len()],
                    };
                    p.references[k] = Some(enumerate(tr, &p.compiled, scenario, &self.config));
                }
                Checked {
                    verdicts: 0,
                    wrong: 0,
                }
            }
            Step::Mutant(_, m) => {
                let ok = slot.as_ref().is_some_and(|p| {
                    let (mutation, mutant) = &p.mutants[m];
                    let want = self.table.get(&(study.name.clone(), mutation.label()));
                    mutant_row(mutant, p, &self.config, tr).is_some_and(|hit| want == Some(&hit))
                });
                Checked::one(ok)
            }
        }
    }
}

/// The directed and random suites, as `mutation_study` sizes them.
fn suites(
    component: &Component,
    space: &ScenarioSpace,
    config: &MutationStudyConfig,
    tr: &mut Tracer,
) -> (CoverageSuite, CoverageSuite) {
    let (directed, random) = tr.leaf("testgen.suite", || {
        let directed = greedy_cover_suite(component, space, &config.greedy);
        let count = config
            .random_count
            .unwrap_or(directed.scenarios.len().max(1));
        let random = random_suite(component, space, config.random_seed, count);
        (directed, random)
    });
    tr.count(
        "testgen.scenarios",
        (directed.scenarios.len() + random.scenarios.len()) as f64,
    );
    (directed, random)
}

/// `Pipeline::new` (validate, compile, CoFGs, analysis), both suites and
/// the mutants, one layer call at a time; the reference signature sets
/// are left to the reference inputs.
fn pipeline(study: &Study, config: &MutationStudyConfig, tr: &mut Tracer) -> Prepared {
    let component = &study.component;
    assert!(tr.leaf("model.validate", || validate(component)).is_empty());
    let compiled = tr
        .leaf("vm.compile", || compile(component))
        .expect("corpus compiles");
    let cofgs = tr.leaf("cofg.build", || build_component_cofgs(component));
    tr.count(
        "cofg.arcs",
        cofgs.iter().map(|g| g.arcs.len()).sum::<usize>() as f64,
    );
    let report = tr.leaf("analyze.analyze", || analyze(component));
    tr.count("analyze.diagnostics", report.diagnostics.len() as f64);
    let (directed, random) = suites(component, &study.space, config, tr);
    let mutants = tr.leaf("model.mutate", || all_mutants(component));
    Prepared {
        compiled,
        references: vec![None; directed.scenarios.len() + random.scenarios.len()],
        directed,
        random,
        mutants,
    }
}

fn enumerate(
    tr: &mut Tracer,
    compiled: &CompiledComponent,
    scenario: &Scenario,
    config: &MutationStudyConfig,
) -> (BTreeSet<Signature>, bool) {
    let (sigs, truncated) = tr.leaf("testgen.enumerate", || {
        enumerate_signatures(Vm::new(compiled.clone(), scenario.clone()), config.limits)
    });
    tr.count("testgen.signatures", sigs.len() as f64);
    tr.count("testgen.truncated", truncated as u8 as f64);
    (sigs, truncated)
}

/// One row of the mutant matrix, as `mutation_study` runs it: the directed
/// verdict (some directed scenario's signature set differs from the
/// correct component's), then the random baseline's replayed schedules.
/// `None` when a reference input left no signature set.
fn mutant_row(
    mutant: &Component,
    p: &Prepared,
    config: &MutationStudyConfig,
    tr: &mut Tracer,
) -> Option<bool> {
    let references: Vec<&(BTreeSet<Signature>, bool)> =
        p.references.iter().map(Option::as_ref).collect::<Option<_>>()?;
    let (correct, correct_random) = references.split_at(p.directed.scenarios.len());
    let Ok(compiled) = tr.leaf("vm.compile", || compile(mutant)) else {
        // A mutant that fails to compile is trivially detected.
        return Some(true);
    };
    let mut detected = false;
    for (scenario, (want, _)) in p.directed.scenarios.iter().zip(correct) {
        if enumerate(tr, &compiled, scenario, config).0 != *want {
            detected = true;
            break;
        }
    }
    let random_hit = tr.leaf("vm.run", || {
        p.random
            .scenarios
            .iter()
            .zip(correct_random)
            .enumerate()
            .any(|(i, (scenario, (set, truncated)))| {
                if *truncated {
                    return false;
                }
                let mut vm = Vm::new(compiled.clone(), scenario.clone());
                let out = vm.run(&RunConfig {
                    scheduler: Scheduler::Random(config.random_seed.wrapping_add(i as u64)),
                    max_steps: 20_000,
                });
                !set.contains(&run_signature(&out))
            })
    });
    std::hint::black_box(random_hit);
    Some(detected)
}
