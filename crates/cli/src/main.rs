//! `jcc` — the command-line linter and live profiler.
//!
//! ```text
//! jcc check   [--deny=high|medium|low] [--format=text|json] [--obs-out=DIR] <paths...>
//! jcc profile [--interval-ms=MS] [--expose=PORT] [--obs-out=DIR] <scenario>
//! ```
//!
//! `check` lints real Java sources; paths may be `.java` files or
//! directories (searched recursively, sorted). Exit codes: 0 = clean at
//! the deny threshold, 1 = findings at or above the threshold, 2 =
//! parse/lower error (or bad usage). With `--obs-out=DIR` the run records
//! at `summary` level with the span tree on and writes a `RunReport` plus
//! the span tree as a Chrome trace into the directory.
//!
//! `profile` runs a named exploration scenario with the full live
//! introspection stack on — hierarchical span tree, progress heartbeats
//! (a `top`-style one-line refresh on stderr), and optionally the
//! Prometheus metrics endpoint — then prints the span tree: exact total
//! and self time per stack of spans. With `--obs-out=DIR` it also writes
//! the tree as a Chrome-trace flame chart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jcc_analyze::Severity;
use jcc_core::obs;
use jcc_javasrc::check::{check_paths, CheckOptions, Format};

const USAGE: &str = "\
usage: jcc check [--deny=high|medium|low] [--format=text|json] [--obs-out=DIR] <paths...>
       jcc profile [--interval-ms=MS] [--expose=PORT] [--obs-out=DIR] <scenario>

check: lint Java sources with the jcc static concurrency analyzer.
Paths may be .java files or directories (searched recursively).
--obs-out=DIR records the run's metrics and span tree and writes a
RunReport (check_report.json) and the span tree as a Chrome trace
(check_trace.json) into DIR.

exit codes:
  0  every file parsed and no finding reached the --deny threshold
  1  at least one finding at or above the threshold (default: high)
  2  a file failed to parse or lower, or the command line was invalid

profile: run a scenario with live introspection (span tree, progress
heartbeats, optional metrics endpoint) and print the span tree.

scenarios:
  javanet[:N]            petri reachability of the N-thread Figure-1 net (default N=6)
  producer-consumer[:C]  VM schedule exploration with C consumers (default C=3)

  --interval-ms=MS  heartbeat refresh interval (default 200)
  --expose=PORT     serve Prometheus metrics on 127.0.0.1:PORT during the run
  --obs-out=DIR     write profile_report.json, the span tree
                    (profile_flame.txt) and its Chrome-trace flame chart
                    (profile_flame_trace.json) into DIR
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<u8, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => cmd_check(it),
        Some("profile") => cmd_profile(it),
        Some("--help") | Some("-h") => {
            print!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".to_string()),
    }
}

fn cmd_check<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<u8, String> {
    let mut opts = CheckOptions::default();
    let mut paths = Vec::new();
    let mut obs_out: Option<PathBuf> = None;
    for arg in it {
        if let Some(v) = arg.strip_prefix("--deny=") {
            opts.deny = match v {
                "high" => Severity::High,
                "medium" => Severity::Medium,
                "low" => Severity::Low,
                _ => return Err(format!("invalid --deny level `{v}`")),
            };
        } else if let Some(v) = arg.strip_prefix("--format=") {
            opts.format = match v {
                "text" => Format::Text,
                "json" => Format::Json,
                _ => return Err(format!("invalid --format `{v}`")),
            };
        } else if let Some(v) = arg.strip_prefix("--obs-out=") {
            obs_out = Some(PathBuf::from(v));
        } else if arg == "--help" || arg == "-h" {
            print!("{USAGE}");
            return Ok(0);
        } else if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        } else {
            paths.push(PathBuf::from(arg));
        }
    }
    if paths.is_empty() {
        return Err("no input paths".to_string());
    }

    if let Some(dir) = &obs_out {
        std::fs::create_dir_all(dir).map_err(|e| format!("--obs-out: {e}"))?;
        record_span_tree();
    }
    let t0 = Instant::now();
    let outcome = {
        let _span = obs::span!("jcc.check");
        check_paths(&paths, &opts).map_err(|e| e.to_string())?
    };
    print!("{}", outcome.output);
    let findings: usize = outcome
        .files
        .iter()
        .flat_map(|f| f.reports.iter())
        .map(|r| r.diagnostics.len())
        .sum();
    if opts.format == Format::Text {
        println!(
            "checked {} file(s), {} LOC: {findings} finding(s), {} at or above --deny={}, {} frontend error(s)",
            outcome.files.len(),
            outcome.loc,
            outcome.denied_findings,
            opts.deny.name(),
            outcome.front_errors,
        );
    }
    if let Some(dir) = obs_out {
        let wall = t0.elapsed().as_secs_f64();
        let reg = obs::global();
        reg.counter("check.files").add(outcome.files.len() as u64);
        reg.counter("check.loc").add(outcome.loc as u64);
        reg.counter("check.findings").add(findings as u64);
        reg.counter("check.front_errors")
            .add(outcome.front_errors as u64);
        obs::set_span_tree(false);
        let trace = obs::SpanTree::snapshot().to_chrome_string();
        write_obs_out(&dir, "check", wall, &[("check_trace.json", trace)])?;
        obs::set_level(obs::ObsLevel::Off);
        eprintln!(
            "obs: report written to {}, chrome trace to {}",
            dir.join("check_report.json").display(),
            dir.join("check_trace.json").display()
        );
    }
    Ok(outcome.exit_code() as u8)
}

/// Start recording at `summary` level into a fresh registry and span tree.
fn record_span_tree() {
    obs::set_level(obs::ObsLevel::Summary);
    obs::global().reset();
    obs::SpanTree::reset();
    obs::set_span_tree(true);
}

/// The `--obs-out` writer `check` and `profile` share: the run's
/// `RunReport` as `<cmd>_report.json`, then each `(file, text)` rendering.
fn write_obs_out(dir: &Path, cmd: &str, wall: f64, files: &[(&str, String)]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("--obs-out: {e}");
    obs::RunReport::from_registry(
        &format!("jcc_{cmd}"),
        obs::ObsLevel::Summary,
        wall,
        obs::global(),
    )
    .write_to(&dir.join(format!("{cmd}_report.json")))
    .map_err(err)?;
    for (file, text) in files {
        std::fs::write(dir.join(file), text).map_err(err)?;
    }
    Ok(())
}

/// What `jcc profile` ran and found, for the closing summary.
struct ScenarioOutcome {
    what: String,
    states: u64,
}

/// A `jcc profile` scenario, parsed and validated before any thread starts.
#[derive(Debug, PartialEq, Eq)]
enum Scenario {
    /// Petri reachability of the N-thread Figure-1 net.
    JavaNet(usize),
    /// VM schedule exploration of the producer-consumer with C consumers.
    ProducerConsumer(usize),
}

fn parse_scenario(scenario: &str) -> Result<Scenario, String> {
    let (name, param) = match scenario.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (scenario, None),
    };
    match name {
        "javanet" => match param {
            // The Figure-1 composition needs at least one thread.
            Some(p) => match p.parse() {
                Ok(n) if n > 0 => Ok(Scenario::JavaNet(n)),
                _ => Err(format!("invalid thread count `{p}` in `{scenario}`")),
            },
            None => Ok(Scenario::JavaNet(6)),
        },
        "producer-consumer" | "pc" => match param {
            Some(p) => p
                .parse()
                .map(Scenario::ProducerConsumer)
                .map_err(|_| format!("invalid consumer count `{p}` in `{scenario}`")),
            None => Ok(Scenario::ProducerConsumer(3)),
        },
        other => Err(format!(
            "unknown scenario `{other}` (try `javanet:6` or `producer-consumer:3`)"
        )),
    }
}

fn run_scenario(scenario: Scenario) -> Result<ScenarioOutcome, String> {
    use jcc_core::petri::{JavaNet, ReachGraph, ReachLimits};
    use jcc_core::vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Value, Vm};

    match scenario {
        Scenario::JavaNet(n) => {
            let j = JavaNet::new(n);
            let g = ReachGraph::explore(j.net(), ReachLimits::default());
            let truncated = match g.stats().truncated {
                Some(t) => format!(
                    ", truncated ({t:?}) after expanding {} states",
                    g.stats().expanded
                ),
                None => String::new(),
            };
            Ok(ScenarioOutcome {
                what: format!(
                    "petri reachability, JavaNet({n}): {} states, {} edges, {} dead{truncated}",
                    g.stats().states,
                    g.stats().edges,
                    g.dead_states().len()
                ),
                states: g.stats().states as u64,
            })
        }
        Scenario::ProducerConsumer(consumers) => {
            let component = jcc_core::model::examples::producer_consumer();
            let compiled = compile(&component).map_err(|e| format!("compile: {e:?}"))?;
            let mut specs = vec![ThreadSpec {
                name: "p".into(),
                calls: vec![CallSpec::new(
                    "send",
                    vec![Value::Str("x".repeat(consumers).into())],
                )],
            }];
            for i in 0..consumers {
                specs.push(ThreadSpec {
                    name: format!("c{i}"),
                    calls: vec![CallSpec::new("receive", vec![])],
                });
            }
            let vm = Vm::new(compiled, specs);
            let r = explore(vm, &ExploreConfig::default(), None);
            Ok(ScenarioOutcome {
                what: format!(
                    "VM exploration, producer-consumer x{consumers}: {} states, {} transitions, \
                     {} completed, {} deadlocked{}",
                    r.states,
                    r.transitions,
                    r.completed_paths,
                    r.deadlock_paths,
                    if r.truncated { ", truncated" } else { "" }
                ),
                states: r.states as u64,
            })
        }
    }
}

fn cmd_profile<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<u8, String> {
    let mut interval_ms = 200u64;
    let mut expose: Option<u16> = None;
    let mut obs_out: Option<PathBuf> = None;
    let mut scenario: Option<String> = None;
    for arg in it {
        if let Some(v) = arg.strip_prefix("--interval-ms=") {
            interval_ms = v
                .parse()
                .map_err(|_| format!("invalid --interval-ms `{v}`"))?;
        } else if let Some(v) = arg.strip_prefix("--expose=") {
            expose = Some(v.parse().map_err(|_| format!("invalid --expose port `{v}`"))?);
        } else if let Some(v) = arg.strip_prefix("--obs-out=") {
            obs_out = Some(PathBuf::from(v));
        } else if arg == "--help" || arg == "-h" {
            print!("{USAGE}");
            return Ok(0);
        } else if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        } else if scenario.is_none() {
            scenario = Some(arg.clone());
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    let scenario = parse_scenario(&scenario.ok_or_else(|| "missing scenario".to_string())?)?;
    if let Some(dir) = &obs_out {
        std::fs::create_dir_all(dir).map_err(|e| format!("--obs-out: {e}"))?;
    }

    // The full live stack: summary metrics, span tree, progress cells,
    // heartbeat watcher, optional exposition.
    record_span_tree();
    obs::set_progress(true);
    let server = match expose {
        Some(port) => {
            let s = obs::ExposeServer::start(port).map_err(|e| format!("--expose: {e}"))?;
            println!("metrics: http://{}/metrics", s.local_addr());
            Some(s)
        }
        None => None,
    };
    let heartbeat = obs::Heartbeat::start(Duration::from_millis(interval_ms.max(10)), |stats| {
        // `top`-style single-line refresh; padded so a shorter line fully
        // overwrites a longer one.
        eprint!("\r{:<100}", stats.render_line());
        let _ = std::io::stderr().flush();
    });

    let t0 = Instant::now();
    let outcome = run_scenario(scenario)?;
    let wall = t0.elapsed().as_secs_f64();

    heartbeat.stop();
    eprintln!();
    obs::set_span_tree(false);
    obs::set_progress(false);
    let tree = obs::SpanTree::snapshot();

    println!("{}", outcome.what);
    println!(
        "wall {wall:.3}s, {:.0} states/s",
        outcome.states as f64 / wall.max(1e-9)
    );
    print!("{}", tree.render_ascii());

    if let Some(s) = &server {
        let body = obs::fetch_metrics(s.local_addr()).map_err(|e| format!("--expose: {e}"))?;
        let samples = body
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count();
        println!("metrics endpoint served {samples} samples at shutdown");
    }
    if let Some(dir) = obs_out {
        write_obs_out(
            &dir,
            "profile",
            wall,
            &[
                ("profile_flame.txt", tree.render_ascii()),
                ("profile_flame_trace.json", tree.to_chrome_string()),
            ],
        )?;
        println!("obs: profile artifacts written to {}", dir.display());
    }
    drop(server);
    obs::set_level(obs::ObsLevel::Off);
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that record: they flip the process-global obs
    /// level and span tree.
    fn obs_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The span names of a Chrome trace document.
    fn trace_names(trace: &str) -> Vec<String> {
        let doc = obs::json::Json::parse(trace).expect("the trace is JSON");
        doc.get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array")
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn scenarios_parse_with_defaults_and_reject_bad_counts() {
        assert_eq!(parse_scenario("javanet"), Ok(Scenario::JavaNet(6)));
        assert_eq!(parse_scenario("javanet:2"), Ok(Scenario::JavaNet(2)));
        assert_eq!(parse_scenario("pc"), Ok(Scenario::ProducerConsumer(3)));
        // A zero-thread net does not exist: a usage error (exit 2), not a
        // panic in the worker thread.
        let err = parse_scenario("javanet:0").unwrap_err();
        assert!(err.contains("invalid thread count `0`"), "{err}");
        assert_eq!(run(&["profile".into(), "javanet:0".into()]), Err(err));
        assert!(parse_scenario("javanet:x").is_err());
        assert!(parse_scenario("nope").is_err());
    }

    #[test]
    fn profile_writes_the_span_tree_artifacts() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir().join(format!("jcc-profile-test-{}", std::process::id()));
        let out = format!("--obs-out={}", dir.display());
        let args: Vec<String> = vec!["profile".into(), "javanet:3".into(), out];
        assert_eq!(run(&args), Ok(0));
        for file in ["profile_report.json", "profile_flame.txt"] {
            assert!(dir.join(file).is_file(), "{file} written");
        }
        let trace = std::fs::read_to_string(dir.join("profile_flame_trace.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let names = trace_names(&trace);
        assert!(
            names.iter().any(|n| n == "petri.reach.sequential"),
            "{names:?}"
        );
    }

    #[test]
    fn check_writes_the_span_tree_artifacts() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir().join(format!("jcc-check-test-{}", std::process::id()));
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/java_corpus/clean");
        let out = format!("--obs-out={}", dir.display());
        let args: Vec<String> = vec!["check".into(), corpus.into(), out];
        assert_eq!(run(&args), Ok(0));
        let report = std::fs::read_to_string(dir.join("check_report.json")).unwrap();
        let trace = std::fs::read_to_string(dir.join("check_trace.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let report = obs::RunReport::from_json_str(&report).expect("a run report");
        assert_eq!(report.level, "summary");
        let names = trace_names(&trace);
        for span in ["jcc.check", "analyze.component"] {
            assert!(names.iter().any(|n| n == span), "{span} missing: {names:?}");
        }
    }
}
