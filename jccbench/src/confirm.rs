//! `confirm`: the static→dynamic path on Java source. Each input is a
//! generated monitor, clean or with one injected defect, taken through
//! `parse` → `lower_class` → `Pipeline::new` → `explore_evidence` on its
//! call plan, whose findings and witness timeline are the verdict.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use jcc_core::analyze::analyze;
use jcc_core::cofg::{build_component_cofgs, CoverageTracker};
use jcc_core::components::gen::GenConfig;
use jcc_core::detect::classify_explore;
use jcc_core::javasrc::lexer::lex;
use jcc_core::javasrc::{lower_class, parse};
use jcc_core::model::validate::validate;
use jcc_core::pipeline::Pipeline;
use jcc_core::vm::trace::apply_trace;
use jcc_core::vm::{compile, explore, timeline_of_outcome, ExploreConfig, Parallelism, Vm};

use crate::javagen::{generate_java, Defect, JavaInput};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{median, Checked, Workload};

/// Defects whose planted failure the explorer can (or provably cannot)
/// reach under the call plan. An unsynchronized `notifyAll` is rejected by
/// validation before exploration, so it is a `lint` input only.
const DEFECTS: [Defect; 4] = [
    Defect::Clean,
    Defect::LockInversion,
    Defect::UnconditionalWait,
    Defect::WaitInIf,
];

/// One round: `(GenConfig::sized(n), defect, copies)`. Size 1 comes in six
/// seeded copies of every defect kind. The deep explorations are one size-2
/// monitor of every kind but lock inversion, whose contents are the same
/// for every seed: siblings at one size differ in cost by a third, which
/// three inputs that carry most of a round would not average out. Inputs
/// stay under about 0.2 s, because a longer sample rarely falls wholly
/// inside one of the host's fast spells: a size-2 lock inversion takes
/// 0.3–0.4 s and a size-3 exploration 1.6 s.
fn round_plan() -> Vec<(usize, Defect, usize)> {
    let mut plan = Vec::new();
    for d in DEFECTS {
        plan.push((1, d, 6));
        if d != Defect::LockInversion {
            plan.push((2, d, 1));
        }
    }
    plan
}

/// Seed of the fixed-content size-2 inputs.
const DEEP_SEED: u64 = 0x6465_6570;

pub struct Confirm {
    inputs: Vec<(usize, JavaInput)>,
    explore: ExploreConfig,
}

pub fn setup(seed: u64) -> Confirm {
    let mut rng = Rng::new(seed);
    let mut deep = Rng::new(DEEP_SEED);
    let mut inputs = Vec::new();
    for (size, defect, copies) in round_plan() {
        let rng = if size == 1 { &mut rng } else { &mut deep };
        for _ in 0..copies {
            let cfg = GenConfig::sized(size, rng.next_u64());
            inputs.push((size, generate_java(&cfg, defect, rng)));
        }
    }
    rng.shuffle(&mut inputs);
    Confirm {
        inputs,
        explore: ExploreConfig {
            // Far above the largest input's states: a truncated
            // exploration would be inconclusive, never clean.
            max_states: 2_000_000,
            parallelism: Parallelism::sequential(),
            ..ExploreConfig::default()
        },
    }
}

impl Workload for Confirm {
    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn tail_percentile(&self) -> f64 {
        90.0
    }

    fn warm_up(&self) -> Vec<usize> {
        (0..self.inputs.len())
            .filter(|&i| self.inputs[i].0 == 1)
            .collect()
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Checked {
        let input = &self.inputs[i].1;
        let want: BTreeSet<&str> = input.defect.dynamic_classes().iter().copied().collect();
        let failing = !want.is_empty();
        let ok = if tr.on() {
            confirm_traced(input, &self.explore, tr).is_some_and(|(classes, witness, truncated)| {
                classes.iter().map(String::as_str).collect::<BTreeSet<_>>() == want
                    && witness == failing
                    && !truncated
            })
        } else {
            let (unit, diags) = parse(&input.text);
            diags.is_empty()
                && unit.classes.len() == 1
                && match Pipeline::new(lower_class(&unit.classes[0]).component) {
                    Err(_) => false,
                    Ok(p) => {
                        let ev = p.explore_evidence(&input.threads, &self.explore, None);
                        let classes: BTreeSet<String> = ev
                            .findings
                            .iter()
                            .map(|f| f.class.code().to_string())
                            .collect();
                        classes.iter().map(String::as_str).collect::<BTreeSet<_>>() == want
                            && ev.witness.is_some() == failing
                            && ev.timeline.is_some() == failing
                    }
                }
        };
        Checked::one(ok)
    }

    fn probes(&self, seed: u64, out: &mut BTreeMap<&'static str, f64>) {
        walk_probe(&self.inputs, seed, out);
    }
}

/// The confirm path replayed one layer call at a time. Returns the
/// finding classes, whether a witness timeline was built, and whether the
/// exploration was truncated; `None` when the input did not compile.
fn confirm_traced(
    input: &JavaInput,
    config: &ExploreConfig,
    tr: &mut Tracer,
) -> Option<(BTreeSet<String>, bool, bool)> {
    let tokens = tr.probe("javasrc.lex", || lex(&input.text).0.len());
    tr.count("javasrc.tokens", tokens as f64);
    let (unit, diags) = tr.leaf("javasrc.parse", || parse(&input.text));
    if !diags.is_empty() || unit.classes.len() != 1 {
        return None;
    }
    let lowered = tr.leaf("javasrc.lower", || lower_class(&unit.classes[0]));
    let component = lowered.component;
    // Pipeline::new: validate, compile, CoFGs, static analysis.
    if !tr
        .leaf("model.validate", || validate(&component))
        .is_empty()
    {
        return None;
    }
    let compiled = tr.leaf("vm.compile", || compile(&component)).ok()?;
    let cofgs = tr.leaf("cofg.build", || build_component_cofgs(&component));
    tr.count(
        "cofg.arcs",
        cofgs.iter().map(|g| g.arcs.len()).sum::<usize>() as f64,
    );
    let report = tr.leaf("analyze.analyze", || analyze(&component));
    tr.count("analyze.diagnostics", report.diagnostics.len() as f64);
    // explore_evidence: explore, classify, witness timeline, arc heat.
    let result = tr.leaf("vm.explore", || {
        explore(
            Vm::new(compiled.clone(), input.threads.clone()),
            config,
            None,
        )
    });
    tr.count("vm.explore_calls", 1.0);
    tr.count("vm.states", result.states as f64);
    tr.count("vm.transitions", result.transitions as f64);
    let findings = tr.leaf("detect.classify", || classify_explore(&result));
    tr.count("detect.findings", findings.len() as f64);
    let mut witness = false;
    if let Some(w) = result.first_witness() {
        let timeline = tr.leaf("vm.timeline", || timeline_of_outcome(w, Some(&cofgs)));
        std::hint::black_box(timeline);
        witness = true;
        let heat = tr.leaf("cofg.arc_heat", || {
            let mut tracker = CoverageTracker::new(cofgs.clone());
            apply_trace(&w.trace, &mut tracker);
            let mut rows = Vec::new();
            for method in tracker.methods() {
                if let (Some(hits), Some(g)) = (tracker.arc_hits(method), tracker.cofg(method)) {
                    for (idx, &count) in hits.iter().enumerate() {
                        rows.push((method.to_string(), g.describe_arc(idx), count));
                    }
                }
            }
            rows
        });
        std::hint::black_box(heat);
    }
    let classes = findings
        .iter()
        .map(|f| f.class.code().to_string())
        .collect();
    Some((classes, witness, result.truncated))
}

/// States sampled at each end of a walk for the clone-cost comparison.
const WALK_ENDS: usize = 8;
/// Walks per input.
const WALKS: usize = 4;
/// Repetitions per timed clone or state-key call.
const REPS: u32 = 16;

/// Seeded random walks over every input's scenario through the public
/// `Vm::runnable`/`step`/`clone`/`state_key`, timing each operation. Clone
/// cost is reported separately for the first and the last states of a
/// walk, where the carried trace is short and long.
fn walk_probe(inputs: &[(usize, JavaInput)], seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let mut rng = Rng::new(seed ^ 0x5741_4c4b);
    let (mut step, mut key, mut shallow, mut deep, mut depth) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (_, input) in inputs {
        let (unit, _) = parse(&input.text);
        let component = lower_class(&unit.classes[0]).component;
        let Ok(compiled) = compile(&component) else {
            continue;
        };
        for _ in 0..WALKS {
            let mut vm = Vm::new(compiled.clone(), input.threads.clone());
            let mut clones = Vec::new();
            loop {
                let t = Instant::now();
                for _ in 0..REPS {
                    std::hint::black_box(vm.clone());
                }
                clones.push(t.elapsed().as_nanos() as f64 / REPS as f64);
                let t = Instant::now();
                for _ in 0..REPS {
                    std::hint::black_box(vm.state_key());
                }
                key.push(t.elapsed().as_nanos() as f64 / REPS as f64);
                let runnable = vm.runnable();
                if runnable.is_empty() || clones.len() > 20_000 {
                    break;
                }
                let thread = runnable[rng.below(runnable.len())];
                let t = Instant::now();
                vm.step(thread);
                step.push(t.elapsed().as_nanos() as f64);
            }
            depth.push(clones.len() as f64 - 1.0);
            let ends = WALK_ENDS.min(clones.len() / 2);
            shallow.extend_from_slice(&clones[..ends]);
            deep.extend_from_slice(&clones[clones.len() - ends..]);
        }
    }
    out.insert("vm.step_ns", median(&mut step));
    out.insert("vm.state_key_ns", median(&mut key));
    out.insert("vm.clone_ns_shallow", median(&mut shallow));
    out.insert("vm.clone_ns_deep", median(&mut deep));
    out.insert("vm.walk_depth", median(&mut depth));
}
