//! The end-to-end method: component → CoFGs → test sequences →
//! (deterministic) execution → coverage + classified failures; and the
//! mutation study (experiment E5).

use std::collections::BTreeSet;

use jcc_analyze::AnalysisReport;
use jcc_cofg::{build_component_cofgs, Cofg, CoverageTracker};
use jcc_detect::classify::{classify_explore, classify_outcome, Finding};
use jcc_model::mutate::{all_mutants, Mutation};
use jcc_model::validate::{validate, ValidationError};
use jcc_model::Component;
use jcc_petri::{parallel_map, Parallelism};
use jcc_testgen::scenario::{Scenario, ScenarioSpace};
use jcc_testgen::signature::{enumerate_signatures, run_signature, EnumLimits, Signature};
use jcc_testgen::suite::{greedy_cover_suite, random_suite, CoverageSuite, GreedyConfig};
use jcc_vm::{
    compile, explore, timeline_with_coverage, CompiledComponent, ExploreConfig, RunConfig,
    RunOutcome, Scheduler, Vm,
};

/// A prepared component: validated, compiled, with CoFGs built.
#[derive(Debug)]
pub struct Pipeline {
    /// The source model.
    pub component: Component,
    /// The compiled form the VM executes.
    pub compiled: CompiledComponent,
    /// One CoFG per method.
    pub cofgs: Vec<Cofg>,
    /// Static Table-1 analysis of the source model (`jcc-analyze`):
    /// diagnostics the component earns before a single test runs.
    pub analysis: AnalysisReport,
}

impl Pipeline {
    /// Validate, compile and build CoFGs. Returns the validation errors if
    /// the component is not statically well-formed.
    pub fn new(component: Component) -> Result<Self, Vec<ValidationError>> {
        let errors = {
            let _span = jcc_obs::span!("pipeline.validate");
            validate(&component)
        };
        if !errors.is_empty() {
            return Err(errors);
        }
        let compiled = {
            let _span = jcc_obs::span!("pipeline.compile");
            compile(&component).expect("validated components compile")
        };
        let cofgs = {
            let _span = jcc_obs::span!("pipeline.cofg");
            build_component_cofgs(&component)
        };
        let analysis = {
            let _span = jcc_obs::span!("pipeline.analyze");
            jcc_analyze::analyze(&component)
        };
        Ok(Pipeline {
            component,
            compiled,
            cofgs,
            analysis,
        })
    }

    /// Total CoFG arcs across all methods.
    pub fn total_arcs(&self) -> usize {
        self.cofgs.iter().map(|g| g.arcs.len()).sum()
    }

    /// Build the CoFG-directed suite.
    pub fn directed_suite(&self, space: &ScenarioSpace, config: &GreedyConfig) -> CoverageSuite {
        greedy_cover_suite(&self.component, space, config)
    }

    /// Build the undirected random baseline suite.
    pub fn random_suite(&self, space: &ScenarioSpace, seed: u64, count: usize) -> CoverageSuite {
        random_suite(&self.component, space, seed, count)
    }

    /// Run one scenario under a scheduler.
    pub fn run(&self, scenario: &Scenario, scheduler: Scheduler) -> RunOutcome {
        let mut vm = Vm::new(self.compiled.clone(), scenario.clone());
        vm.run(&RunConfig {
            scheduler,
            max_steps: 20_000,
        })
    }

    /// Run one scenario and classify whatever went wrong.
    pub fn run_and_classify(
        &self,
        scenario: &Scenario,
        scheduler: Scheduler,
    ) -> (RunOutcome, Vec<Finding>) {
        let outcome = self.run(scenario, scheduler);
        let findings = classify_outcome(&outcome);
        (outcome, findings)
    }

    /// Exhaustively explore one scenario and classify.
    pub fn explore_and_classify(
        &self,
        scenario: &Scenario,
        config: &ExploreConfig,
    ) -> Vec<Finding> {
        self.explore_evidence(scenario, config, None).findings
    }

    /// Exhaustively explore one scenario and keep the *evidence*, not just
    /// the verdict: the deterministic witness schedule, its causal
    /// timeline (with CoFG arcs stamped on each interval), and per-arc
    /// heat — how often the failing schedule traversed each arc, next to
    /// whether the `directed` suite covered it at all.
    pub fn explore_evidence(
        &self,
        scenario: &Scenario,
        config: &ExploreConfig,
        directed: Option<&CoverageTracker>,
    ) -> ScheduleEvidence {
        let vm = Vm::new(self.compiled.clone(), scenario.clone());
        let result = explore(vm, config, None);
        let findings = classify_explore(&result);
        let witness = result.first_witness().cloned();
        let mut timeline = None;
        let mut arc_heat = Vec::new();
        if let Some(w) = &witness {
            let (t, tracker) = timeline_with_coverage(w, &self.cofgs);
            timeline = Some(t);
            for method in tracker.methods() {
                let (hits, cofg) = match (tracker.arc_hits(method), tracker.cofg(method)) {
                    (Some(h), Some(g)) => (h, g),
                    _ => continue,
                };
                for (idx, &count) in hits.iter().enumerate() {
                    arc_heat.push(ArcHeat {
                        method: method.to_string(),
                        arc: cofg.describe_arc(idx),
                        hits: count,
                        directed: directed.is_some_and(|d| d.arc_covered(method, idx)),
                    });
                }
            }
        }
        ScheduleEvidence {
            findings,
            witness,
            timeline,
            arc_heat,
            states: result.states,
            truncated: result.truncated,
            depth_limited_paths: result.depth_limited_paths,
        }
    }
}

/// One CoFG arc's heat in a failing schedule: traversal count in the
/// witness versus coverage by the directed suite. The interesting rows are
/// the hot-but-undirected ones — arcs the failure needs that the suite
/// never exercises.
#[derive(Debug, Clone)]
pub struct ArcHeat {
    /// Method owning the arc.
    pub method: String,
    /// Human-readable arc description (`Cofg::describe_arc`).
    pub arc: String,
    /// How many times the witness schedule traversed the arc.
    pub hits: u64,
    /// Whether the directed suite covered the arc (always `false` when no
    /// suite tracker was supplied).
    pub directed: bool,
}

/// Everything [`Pipeline::explore_evidence`] learns from exploring one
/// scenario: the classified findings plus — when any schedule failed — the
/// deterministic witness, its causal timeline and per-arc heat, and how
/// far the exploration got.
#[derive(Debug)]
pub struct ScheduleEvidence {
    /// Classified Table-1 findings (same as [`Pipeline::explore_and_classify`]).
    pub findings: Vec<Finding>,
    /// The deterministic first witness (deadlock, then fault, then cycle),
    /// or `None` when every schedule completed cleanly.
    pub witness: Option<RunOutcome>,
    /// Causal timeline of the witness schedule, arcs stamped.
    pub timeline: Option<jcc_obs::Timeline>,
    /// Per-arc heat of the witness, one row per CoFG arc.
    pub arc_heat: Vec<ArcHeat>,
    /// Distinct states the exploration visited.
    pub states: usize,
    /// True when the state or depth budget cut the exploration short: with
    /// no witness, the scenario is then inconclusive, not clean.
    pub truncated: bool,
    /// Paths cut off by the depth budget.
    pub depth_limited_paths: usize,
}

impl ScheduleEvidence {
    /// True when no schedule failed but a budget ran out first, so the
    /// exploration cannot call the scenario clean.
    pub fn inconclusive(&self) -> bool {
        self.truncated && self.witness.is_none()
    }

    /// Arcs the failing schedule traversed that the directed suite never
    /// covered — the coverage gap the failure exposes.
    pub fn hot_uncovered(&self) -> Vec<&ArcHeat> {
        self.arc_heat
            .iter()
            .filter(|h| h.hits > 0 && !h.directed)
            .collect()
    }
}

/// Configuration of the mutation study.
#[derive(Debug, Clone)]
pub struct MutationStudyConfig {
    /// Greedy-suite construction parameters.
    pub greedy: GreedyConfig,
    /// Size of the random baseline suite (defaults to matching the directed
    /// suite's size when `None`).
    pub random_count: Option<usize>,
    /// Seed for the random baseline.
    pub random_seed: u64,
    /// Limits for exhaustive signature enumeration.
    pub limits: EnumLimits,
    /// Worker threads fanning out the (mutant × scenario) matrix. Each
    /// cell is independent, so results are identical for any thread count;
    /// `threads = 1` runs everything on the calling thread.
    pub parallelism: Parallelism,
}

impl Default for MutationStudyConfig {
    fn default() -> Self {
        MutationStudyConfig {
            greedy: GreedyConfig::default(),
            random_count: None,
            random_seed: 2003,
            limits: EnumLimits {
                max_states: 40_000,
                max_depth: 1_000,
            },
            parallelism: Parallelism::default(),
        }
    }
}

/// Per-mutant result of the study.
#[derive(Debug, Clone)]
pub struct MutantResult {
    /// The mutation applied.
    pub mutation: Mutation,
    /// Detected by the CoFG-directed suite (exhaustive signature-set
    /// comparison against the correct component)?
    pub detected_directed: bool,
    /// Detected by the random baseline (single random schedule per
    /// scenario, same schedule replayed on the correct component)?
    pub detected_random: bool,
}

/// The study's aggregate result.
#[derive(Debug)]
pub struct MutationStudyResult {
    /// Component name.
    pub component: String,
    /// Directed suite size (scenarios).
    pub directed_suite_size: usize,
    /// Directed suite CoFG coverage ratio.
    pub directed_coverage: f64,
    /// Random suite size.
    pub random_suite_size: usize,
    /// Random suite CoFG coverage ratio.
    pub random_coverage: f64,
    /// Per-mutant outcomes.
    pub mutants: Vec<MutantResult>,
}

impl MutationStudyResult {
    /// (detected, total) for the directed suite, over behavioural mutants
    /// only (EF-T1 mutants are behaviourally neutral by design).
    pub fn directed_score(&self) -> (usize, usize) {
        score(&self.mutants, |m| m.detected_directed)
    }

    /// (detected, total) for the random baseline.
    pub fn random_score(&self) -> (usize, usize) {
        score(&self.mutants, |m| m.detected_random)
    }
}

fn score(mutants: &[MutantResult], f: impl Fn(&MutantResult) -> bool) -> (usize, usize) {
    let behavioural: Vec<&MutantResult> = mutants
        .iter()
        .filter(|m| m.mutation.kind.is_behavioural_failure())
        .collect();
    let detected = behavioural.iter().filter(|m| f(m)).count();
    (detected, behavioural.len())
}

/// Run the mutation study on `component` over `space`.
pub fn mutation_study(
    component: &Component,
    space: &ScenarioSpace,
    config: &MutationStudyConfig,
) -> MutationStudyResult {
    let pipeline = Pipeline::new(component.clone()).expect("study needs a valid component");
    let suites_span = jcc_obs::span!("study.suites");
    let directed = pipeline.directed_suite(space, &config.greedy);
    let random_count = config.random_count.unwrap_or(directed.scenarios.len().max(1));
    let random = pipeline.random_suite(space, config.random_seed, random_count);
    drop(suites_span);

    // Reference signatures of the correct component: the full set of
    // behaviours any schedule can produce. A mutant is detected only when
    // it exhibits a behaviour the correct component *never* can — the sound
    // version of "compare with the predicted output" (comparing two single
    // runs would flag legal schedule differences as failures).
    let reference_span = jcc_obs::span!("study.reference");
    let correct_sig_sets: Vec<_> = parallel_map(config.parallelism, &directed.scenarios, |s| {
        enumerate_signatures(Vm::new(pipeline.compiled.clone(), s.clone()), config.limits).0
    });
    // For the random baseline keep the truncation flag: a truncated
    // enumeration is an *incomplete* prediction, and claiming detection
    // against it would count legal-but-unenumerated behaviours as failures.
    let correct_random_sets: Vec<_> = parallel_map(config.parallelism, &random.scenarios, |s| {
        enumerate_signatures(Vm::new(pipeline.compiled.clone(), s.clone()), config.limits)
    });
    drop(reference_span);

    // Fan the mutant matrix across workers: each mutant's row (exhaustive
    // signature enumeration per directed scenario + one replayed random
    // schedule per baseline scenario) is independent of every other row,
    // and `parallel_map` reassembles rows positionally, so the result is
    // identical to the sequential loop for any thread count.
    let all: Vec<_> = all_mutants(component);
    let matrix_span = jcc_obs::span!("study.matrix");
    let mutants: Vec<MutantResult> = parallel_map(config.parallelism, &all, |(mutation, mutant)| {
        let started = jcc_obs::enabled().then(std::time::Instant::now);
        let result = mutant_row(
            mutation,
            mutant,
            config,
            &directed,
            &random,
            &correct_sig_sets,
            &correct_random_sets,
        );
        if let Some(t0) = started {
            jcc_obs::global()
                .histogram("study.mutant_nanos")
                .record(t0.elapsed().as_nanos() as u64);
        }
        result
    });
    drop(matrix_span);
    if jcc_obs::enabled() {
        let reg = jcc_obs::global();
        reg.counter("study.mutants").add(mutants.len() as u64);
        reg.counter("study.detected_directed")
            .add(mutants.iter().filter(|m| m.detected_directed).count() as u64);
        reg.counter("study.detected_random")
            .add(mutants.iter().filter(|m| m.detected_random).count() as u64);
    }

    MutationStudyResult {
        component: component.name.clone(),
        directed_suite_size: directed.scenarios.len(),
        directed_coverage: directed.coverage_ratio(),
        random_suite_size: random.scenarios.len(),
        random_coverage: random.coverage_ratio(),
        mutants,
    }
}

/// One row of the mutation matrix: run `mutant` against the directed suite
/// (exhaustive signature-set comparison) and the random baseline (one
/// replayed schedule per scenario).
fn mutant_row(
    mutation: &Mutation,
    mutant: &Component,
    config: &MutationStudyConfig,
    directed: &CoverageSuite,
    random: &CoverageSuite,
    correct_sig_sets: &[BTreeSet<Signature>],
    correct_random_sets: &[(BTreeSet<Signature>, bool)],
) -> MutantResult {
    let Ok(mutant_compiled) = compile(mutant) else {
        // A mutant that fails to compile is trivially detected.
        return MutantResult {
            mutation: mutation.clone(),
            detected_directed: true,
            detected_random: true,
        };
    };

    let detected_directed = directed.scenarios.iter().zip(correct_sig_sets).any(
        |(scenario, correct)| {
            let (sigs, _) = enumerate_signatures(
                Vm::new(mutant_compiled.clone(), scenario.clone()),
                config.limits,
            );
            sigs != *correct
        },
    );

    let detected_random =
        random
            .scenarios
            .iter()
            .zip(correct_random_sets)
            .enumerate()
            .any(|(i, (scenario, (correct_set, truncated)))| {
                if *truncated {
                    return false; // incomplete prediction: no verdict
                }
                let mut vm = Vm::new(mutant_compiled.clone(), scenario.clone());
                let out = vm.run(&RunConfig {
                    scheduler: Scheduler::Random(
                        config.random_seed.wrapping_add(i as u64),
                    ),
                    max_steps: 20_000,
                });
                !correct_set.contains(&run_signature(&out))
            });

    MutantResult {
        mutation: mutation.clone(),
        detected_directed,
        detected_random,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_components::zoo::full_corpus;
    use jcc_model::examples;
    use jcc_testgen::corpus::space_for;
    use jcc_testgen::scenario::sample_scenarios;
    use jcc_vm::trace::apply_trace;
    use jcc_vm::{CallSpec, Value};

    fn pc_space() -> ScenarioSpace {
        ScenarioSpace::new(vec![
            CallSpec::new("receive", vec![]),
            CallSpec::new("send", vec![Value::Str("a".into())]),
            CallSpec::new("send", vec![Value::Str("ab".into())]),
        ])
    }

    #[test]
    fn pipeline_builds_for_corpus() {
        for (name, c) in examples::corpus() {
            let p = Pipeline::new(c).unwrap();
            assert!(p.total_arcs() >= 5);
            // The static pass runs as part of preparation and must stay
            // silent at High severity on the correct corpus.
            assert_eq!(
                p.analysis.count(jcc_analyze::Severity::High),
                0,
                "{name}: {}",
                p.analysis.render()
            );
        }
    }

    #[test]
    fn witness_arc_heat_matches_a_fresh_coverage_walk() {
        let mut failing = 0;
        for (name, component) in full_corpus() {
            let Some(space) = space_for(name) else {
                continue;
            };
            let p = Pipeline::new(component).unwrap();
            for scenario in sample_scenarios(&space, 7, 4) {
                let ev = p.explore_evidence(&scenario, &ExploreConfig::default(), None);
                let Some(w) = &ev.witness else {
                    continue;
                };
                failing += 1;
                let mut fresh = CoverageTracker::new(p.cofgs.clone());
                apply_trace(&w.trace, &mut fresh);
                let mut want = Vec::new();
                for method in fresh.methods() {
                    let g = fresh.cofg(method).unwrap();
                    for (idx, &hits) in fresh.arc_hits(method).unwrap().iter().enumerate() {
                        want.push((method.to_string(), g.describe_arc(idx), hits));
                    }
                }
                let got: Vec<(String, String, u64)> = ev
                    .arc_heat
                    .iter()
                    .map(|h| (h.method.clone(), h.arc.clone(), h.hits))
                    .collect();
                assert_eq!(got, want, "{name}: {scenario:?}");
            }
        }
        assert!(failing > 0, "the sampled corpus scenarios include failures");
    }

    #[test]
    fn pipeline_rejects_invalid_component() {
        let c = jcc_model::parse_component("class X { void m() { wait(); } }").unwrap();
        assert!(Pipeline::new(c).is_err());
    }

    #[test]
    fn run_and_classify_clean_component() {
        let p = Pipeline::new(examples::producer_consumer()).unwrap();
        let scenario = vec![
            jcc_vm::ThreadSpec {
                name: "c".into(),
                calls: vec![CallSpec::new("receive", vec![])],
            },
            jcc_vm::ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("a".into())])],
            },
        ];
        let (outcome, findings) = p.run_and_classify(&scenario, Scheduler::RoundRobin);
        assert!(!outcome.verdict.is_failure());
        assert!(findings.is_empty());
    }

    #[test]
    fn mutation_study_directed_dominates_random() {
        let c = examples::producer_consumer();
        let result = mutation_study(&c, &pc_space(), &MutationStudyConfig::default());
        let (dir_detected, total) = result.directed_score();
        let (rand_detected, _) = result.random_score();
        assert!(total >= 15, "expected many behavioural mutants, got {total}");
        // The directed suite detects every behavioural mutant EXCEPT the
        // notify-for-notifyAll ones, which are *equivalent mutants* in
        // Figure 2's monitor: every method ends by notifying after every
        // state change and waiters re-check their predicate in a loop, so a
        // single FIFO wake-up chain reproduces exactly the behaviours of
        // notifyAll. (In components whose waiters wait on different
        // predicates — e.g. readers–writers — the same mutation IS fatal and
        // detected; see the E5 experiment binary.)
        let undetected: Vec<String> = result
            .mutants
            .iter()
            .filter(|m| m.mutation.kind.is_behavioural_failure() && !m.detected_directed)
            .map(|m| m.mutation.label())
            .collect();
        assert!(
            undetected
                .iter()
                .all(|l| l.contains("notify_instead_of_notify_all")),
            "unexpected undetected mutants: {undetected:?}"
        );
        assert!(dir_detected >= total - 2, "{dir_detected}/{total}");
        // And the directed suite dominates the random baseline.
        assert!(dir_detected >= rand_detected);
        assert!(result.directed_coverage >= result.random_coverage);
    }

    #[test]
    fn directed_suite_detects_if_instead_of_while() {
        // The EF-T5-exposure mutant needs the post-wake-observation goal:
        // arc coverage alone missed it; the strengthened suite must not.
        let c = examples::producer_consumer();
        let result = mutation_study(&c, &pc_space(), &MutationStudyConfig::default());
        for m in &result.mutants {
            if m.mutation.kind == jcc_model::mutate::MutationKind::WaitIfInsteadOfWhile {
                assert!(
                    m.detected_directed,
                    "undetected: {}",
                    m.mutation.label()
                );
            }
        }
    }
}
