//! The jcc benchmark: seeded Java-source-to-verdict workloads, end to end
//! with tracing off, or split by layer with tracing on.
//!
//! ```text
//! jccbench --workload <lint|confirm|mutants|net_reach> --seed <n>
//!          --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Every workload is a single-client closed loop: the next input is handed
//! over only after the previous verdict. A workload's inputs form a round
//! of fixed composition (the seed draws their contents and order). After
//! set-up and one untimed warm round, the loop runs whole rounds until
//! `--seconds` of wall clock have passed, and checks every verdict against
//! the input's known answer. Latencies, set-up and span times are the
//! process's CPU time; the end-to-end metrics are scaled to a fixed host
//! speed by the yardstick timed between inputs (see `clock`), and the
//! unscaled figures are printed beside them. The last line of standard
//! output is one JSON object with the metrics; the exit code is nonzero
//! when any verdict was wrong.
//!
//! `--trace 1` alternates untraced and traced rounds. The traced rounds
//! replay every composite entry point through its layer functions inside
//! spans and yield per-layer metrics per round, plus
//! `bench.trace_coverage_frac` (layer time over untraced round time) and
//! `bench.trace_overhead_frac` (1 − traced/untraced verdicts per second).
//! The Chrome trace and the self-time table go to `--out`.

mod clock;
mod confirm;
mod javagen;
mod lint;
mod mutants;
mod net_reach;
mod rng;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use trace::{RoundLayers, Tracer};

/// Set-ups per run; `setup_s` is their median. A set-up takes 0.05–0.25 s,
/// short enough for one slow moment of the host to move it by half.
const SETUP_REPS: usize = 11;

/// The outcome of one input: verdicts decided and how many were wrong.
pub struct Checked {
    pub verdicts: usize,
    pub wrong: usize,
}

impl Checked {
    fn one(ok: bool) -> Checked {
        Checked {
            verdicts: 1,
            wrong: usize::from(!ok),
        }
    }
}

pub trait Workload {
    /// Inputs per round.
    fn inputs(&self) -> usize;
    /// Decide input `i` and check the verdict. Untraced, this calls the
    /// composite entry point (`mutants` calls the layer functions in both
    /// modes, see there); traced, it replays it layer by layer.
    fn run(&self, i: usize, tr: &mut Tracer) -> Checked;
    /// Inputs run once, untraced, as part of set-up.
    fn warm_up(&self) -> Vec<usize>;
    /// The latency percentile reported as `verdict_ms_tail`: the highest
    /// that keeps at least ten verdicts beyond it in a run, placed inside
    /// one cluster of the round's latency distribution.
    fn tail_percentile(&self) -> f64;
    /// Traced-only measurements reported as per-layer metrics.
    fn probes(&self, _seed: u64, _out: &mut BTreeMap<&'static str, f64>) {}
}

fn setup(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "lint" => Box::new(lint::setup(seed)),
        "confirm" => Box::new(confirm::setup(seed)),
        "mutants" => Box::new(mutants::setup(seed)),
        "net_reach" => Box::new(net_reach::setup(seed)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k}"))?;
        let v = it.next().ok_or(format!("missing value for {k}"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: get("trace")? == "1",
        out: kv
            .get("out")
            .map_or(PathBuf::from("jccbench/out"), PathBuf::from),
    })
}

/// One round's outcome.
struct Round {
    /// CPU time of the whole round.
    time: f64,
    verdicts: usize,
    wrong: usize,
    /// `(latency_ms, verdicts)` per input.
    latencies: Vec<(f64, usize)>,
    layers: RoundLayers,
}

/// Run one round: every input once, in order.
fn run_round(w: &dyn Workload, tr: &mut Tracer, yardstick: &mut clock::Yardstick) -> Round {
    let start = clock::now();
    let mut aside = 0.0;
    let mut round = Round {
        time: 0.0,
        verdicts: 0,
        wrong: 0,
        latencies: Vec::with_capacity(w.inputs()),
        layers: RoundLayers::default(),
    };
    for i in 0..w.inputs() {
        aside += yardstick.tick();
        let t = clock::now();
        tr.begin("bench.input");
        let checked = catch_unwind(AssertUnwindSafe(|| w.run(i, tr))).unwrap_or_else(|_| {
            tr.unwind();
            tr.begin("bench.input");
            Checked::one(false)
        });
        tr.end();
        round
            .latencies
            .push((clock::since(t) * 1e3, checked.verdicts));
        round.verdicts += checked.verdicts;
        round.wrong += checked.wrong;
    }
    round.time = clock::since(start) - aside;
    round.layers = tr.take_round();
    round
}

pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Each input's best latency across rounds, in ms, with the verdicts it
/// decides. The host's speed drifts from second to second (identical lint
/// rounds ran at 1150 to 2200 verdicts/s, and CPU time drifts with it), so
/// a slow pass says more about the neighbours than about jcc; the best
/// pass of each input is what repeats from run to run. It repeats better
/// the shorter the input, which is why no timed input takes much over
/// 0.2 s. Rounds have a fixed composition, so these are the samples of one
/// round.
fn input_best(rounds: &[Round]) -> Vec<(f64, usize)> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    (0..first.latencies.len())
        .map(|i| {
            let best = rounds
                .iter()
                .map(|r| r.latencies[i].0)
                .fold(f64::INFINITY, f64::min);
            (best, first.latencies[i].1)
        })
        .collect()
}

/// Nearest-rank percentile over verdict-weighted samples.
fn percentile(samples: &mut [(f64, usize)], p: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n: usize = samples.iter().map(|s| s.1).sum();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let mut seen = 0;
    for &(ms, k) in samples.iter() {
        seen += k;
        if seen >= rank {
            return ms;
        }
    }
    samples.last().map_or(0.0, |s| s.0)
}

/// A round's verdicts over the sum of its inputs' best latencies: the
/// closed loop's throughput.
fn verdicts_per_s(rounds: &[Round]) -> f64 {
    let best = input_best(rounds);
    let verdicts: usize = best.iter().map(|m| m.1).sum();
    let time: f64 = best.iter().map(|m| m.0).sum::<f64>() / 1e3;
    if time > 0.0 {
        verdicts as f64 / time
    } else {
        0.0
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How a per-layer metric is read off the traced rounds.
enum Source {
    /// Self time of spans with this name, per round.
    Span(&'static str),
    /// `javasrc.parse` self time less the `javasrc.lex` probe: parsing
    /// excluding the lexing it does inside.
    ParseSelf,
    /// A counter, per round.
    Count(&'static str),
    /// Counter over span time, per round.
    Rate(&'static str, &'static str),
    /// Counter over counter, per round.
    Ratio(&'static str, &'static str),
    /// A traced-only probe's figure.
    Probe(&'static str),
    Coverage,
    Overhead,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Time and count
/// metrics are per round of the workload's inputs.
const LAYERS: &[(&str, &str, Source)] = &[
    ("javasrc.lex_s", "s", Source::Span("javasrc.lex")),
    ("javasrc.parse_s", "s", Source::ParseSelf),
    ("javasrc.lower_s", "s", Source::Span("javasrc.lower")),
    ("javasrc.render_s", "s", Source::Span("javasrc.render")),
    ("javasrc.tokens", "count", Source::Count("javasrc.tokens")),
    ("javasrc.loc", "count", Source::Count("javasrc.loc")),
    ("model.validate_s", "s", Source::Span("model.validate")),
    ("analyze.analyze_s", "s", Source::Span("analyze.analyze")),
    (
        "analyze.diagnostics",
        "count",
        Source::Count("analyze.diagnostics"),
    ),
    ("vm.explore_s", "s", Source::Span("vm.explore")),
    (
        "vm.explore_calls",
        "count",
        Source::Count("vm.explore_calls"),
    ),
    ("vm.states", "count", Source::Count("vm.states")),
    ("vm.transitions", "count", Source::Count("vm.transitions")),
    (
        "vm.states_per_s",
        "1/s",
        Source::Rate("vm.states", "vm.explore"),
    ),
    (
        "vm.new_state_ratio",
        "ratio",
        Source::Ratio("vm.states", "vm.transitions"),
    ),
    ("vm.step_ns", "ns", Source::Probe("vm.step_ns")),
    (
        "vm.clone_ns_shallow",
        "ns",
        Source::Probe("vm.clone_ns_shallow"),
    ),
    ("vm.clone_ns_deep", "ns", Source::Probe("vm.clone_ns_deep")),
    ("vm.state_key_ns", "ns", Source::Probe("vm.state_key_ns")),
    ("vm.walk_depth", "count", Source::Probe("vm.walk_depth")),
    ("vm.compile_s", "s", Source::Span("vm.compile")),
    ("vm.run_s", "s", Source::Span("vm.run")),
    ("cofg.build_s", "s", Source::Span("cofg.build")),
    ("cofg.arcs", "count", Source::Count("cofg.arcs")),
    ("model.mutate_s", "s", Source::Span("model.mutate")),
    ("testgen.suite_s", "s", Source::Span("testgen.suite")),
    (
        "testgen.scenarios",
        "count",
        Source::Count("testgen.scenarios"),
    ),
    (
        "testgen.enumerate_s",
        "s",
        Source::Span("testgen.enumerate"),
    ),
    (
        "testgen.signatures",
        "count",
        Source::Count("testgen.signatures"),
    ),
    (
        "testgen.truncated",
        "count",
        Source::Count("testgen.truncated"),
    ),
    ("detect.classify_s", "s", Source::Span("detect.classify")),
    ("detect.findings", "count", Source::Count("detect.findings")),
    ("vm.timeline_s", "s", Source::Span("vm.timeline")),
    ("petri.reach_s", "s", Source::Span("petri.reach")),
    ("petri.states", "count", Source::Count("petri.states")),
    ("petri.edges", "count", Source::Count("petri.edges")),
    (
        "petri.states_per_s",
        "1/s",
        Source::Rate("petri.states", "petri.reach"),
    ),
    ("petri.reduced_s", "s", Source::Span("petri.reduced")),
    (
        "petri.reduced_states",
        "count",
        Source::Count("petri.reduced_states"),
    ),
    (
        "petri.reach_2w_speedup",
        "x",
        Source::Probe("petri.reach_2w_speedup"),
    ),
    ("bench.trace_coverage_frac", "ratio", Source::Coverage),
    ("bench.trace_overhead_frac", "ratio", Source::Overhead),
];

fn layer_metrics(
    untraced: &[Round],
    traced: &[Round],
    probes: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let per_round = |f: &dyn Fn(&RoundLayers) -> f64| {
        let mut v: Vec<f64> = traced.iter().map(|r| f(&r.layers)).collect();
        median(&mut v)
    };
    let span = |l: &RoundLayers, name: &str| l.spans.get(name).map_or(0.0, |a| a.self_time);
    let count = |l: &RoundLayers, name: &str| l.counts.get(name).copied().unwrap_or(0.0);
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut untraced_time: Vec<f64> = untraced.iter().map(|r| r.time).collect();
    let untraced_time = median(&mut untraced_time);
    LAYERS
        .iter()
        .map(|(name, unit, source)| {
            let value = match source {
                Source::Span(s) => per_round(&|l| span(l, s)),
                Source::ParseSelf => {
                    per_round(&|l| (span(l, "javasrc.parse") - span(l, "javasrc.lex")).max(0.0))
                }
                Source::Count(c) => per_round(&|l| count(l, c)),
                Source::Rate(c, s) => per_round(&|l| div(count(l, c), span(l, s))),
                Source::Ratio(a, b) => per_round(&|l| div(count(l, a), count(l, b))),
                Source::Probe(p) => probes.get(p).copied().unwrap_or(0.0),
                Source::Coverage => div(per_round(&|l| l.covered), untraced_time),
                Source::Overhead => 1.0 - div(verdicts_per_s(traced), verdicts_per_s(untraced)),
            };
            (*name, *unit, value)
        })
        .collect()
}

fn json_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jccbench: {e}");
            std::process::exit(2);
        }
    };
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t = clock::now();
        let Some(w) = setup(&args.workload, args.seed) else {
            eprintln!("jccbench: unknown workload {:?}", args.workload);
            std::process::exit(2);
        };
        for i in w.warm_up() {
            w.run(i, &mut off);
        }
        setups.push(clock::since(t));
        workload = Some(w);
    }
    let w = workload.expect("at least one set-up");
    let setup_s = median(&mut setups);
    // One whole round before the clock starts: the first pass over the
    // largest inputs runs measurably slower (heap growth, cold caches).
    let mut yardstick = clock::Yardstick::new();
    let warm = run_round(w.as_ref(), &mut off, &mut yardstick);
    let start = Instant::now();
    let more = || start.elapsed().as_secs_f64() < args.seconds;

    let (rounds, metrics) = if !args.trace {
        let mut rounds = vec![run_round(w.as_ref(), &mut off, &mut yardstick)];
        while more() {
            rounds.push(run_round(w.as_ref(), &mut off, &mut yardstick));
        }
        let mut samples = input_best(&rounds);
        let tail = w.tail_percentile();
        let per_round: usize = samples.iter().map(|s| s.1).sum();
        let raw = [
            verdicts_per_s(&rounds),
            percentile(&mut samples, 50.0),
            percentile(&mut samples, tail),
            setup_s,
        ];
        let scale = yardstick.scale();
        let metrics = vec![
            ("verdicts_per_s", "1/s", raw[0] / scale),
            ("verdict_ms_p50", "ms", raw[1] * scale),
            ("verdict_ms_tail", "ms", raw[2] * scale),
            ("setup_s", "s", raw[3] * scale),
            ("peak_rss_mb", "MiB", peak_rss_mib()),
        ];
        println!(
            "yardstick: best {:.2} us over {} samples, times scaled by {scale:.6}; \
             unscaled: {} verdicts/s, p50 {} ms, tail {} ms, setup {} s",
            yardstick.best() * 1e6,
            yardstick.samples(),
            raw[0],
            raw[1],
            raw[2],
            raw[3],
        );
        let beyond = per_round - ((tail / 100.0) * per_round as f64).ceil() as usize;
        println!(
            "{}: {} verdicts per round, {} timed rounds; latencies are each input's best \
             round; verdict_ms_tail is p{tail} ({} verdicts beyond it)",
            args.workload,
            per_round,
            rounds.len(),
            beyond * rounds.len(),
        );
        (rounds, metrics)
    } else {
        // Untraced and traced rounds alternate, so a drift in speed over
        // the run (the heap settling, a busy neighbour) hits both alike.
        let mut tr = Tracer::new(true);
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        while untraced.is_empty() || more() {
            untraced.push(run_round(w.as_ref(), &mut off, &mut yardstick));
            traced.push(run_round(w.as_ref(), &mut tr, &mut yardstick));
        }
        let mut probes = BTreeMap::new();
        w.probes(args.seed, &mut probes);
        let metrics = layer_metrics(&untraced, &traced, &probes);
        let stem = format!("{}-{}", args.workload, args.seed);
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|_| std::fs::write(args.out.join(format!("{stem}.layers.txt")), tr.table()))
            .and_then(|_| {
                std::fs::write(
                    args.out.join(format!("{stem}.trace.json")),
                    tr.chrome_trace(),
                )
            });
        if let Err(e) = written {
            eprintln!("jccbench: writing trace output: {e}");
        }
        print!("{}", tr.table());
        println!(
            "{}: {} untraced + {} traced rounds; trace written to {}",
            args.workload,
            untraced.len(),
            traced.len(),
            args.out.join(format!("{stem}.trace.json")).display()
        );
        (
            untraced.into_iter().chain(traced).collect::<Vec<_>>(),
            metrics,
        )
    };

    let attempted: usize = rounds.iter().chain([&warm]).map(|r| r.verdicts).sum();
    let failed: usize = rounds.iter().chain([&warm]).map(|r| r.wrong).sum();
    for (name, unit, v) in &metrics {
        println!("{:<28} {v:>16.6} {unit}", name);
    }
    println!(
        "{:<28} {:>16.6} ratio ({failed} of {attempted} verdicts wrong)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", json_result(failed == 0, attempted, failed, &metrics));
    if failed > 0 {
        std::process::exit(1);
    }
}
