//! [`BenchReporter`] — the front door for the `jcc-bench` binaries.
//!
//! Every binary starts with `BenchReporter::init("e8_statespace")` and ends
//! with `reporter.finish()`. `init` resolves the shared knob — the
//! `JCC_OBS=off|summary` environment variable (default `summary`) and
//! the `--quiet` flag (suppress human output; the JSON report is still
//! written) — resets the global registry so the report covers exactly this
//! run, and starts the wall clock. `finish` snapshots everything into a
//! [`RunReport`], derives `states_per_sec`, writes `BENCH_<prefix>.json`
//! (prefix = bin name up to the first `_`, e.g. `BENCH_e8.json`), and
//! prints the summary unless quiet.
//!
//! [`ab_best_of_blocks`] is the one A/B timing harness the overhead
//! budgets share.

use std::path::PathBuf;
use std::time::Instant;

use crate::level::{set_level, ObsLevel};
use crate::metrics::global;
use crate::report::RunReport;

/// Per-binary run reporter; see the module docs.
#[derive(Debug)]
pub struct BenchReporter {
    bin: String,
    level: ObsLevel,
    quiet: bool,
    start: Instant,
    derived: Vec<(String, f64)>,
}

/// Resolve the level and quiet flag from an explicit argument list
/// (`--quiet`/`-q`, `--obs=LEVEL`) and the `JCC_OBS` variable. Flags win
/// over the environment; the default level is `summary`.
pub fn parse_knobs(args: impl IntoIterator<Item = String>) -> (ObsLevel, bool) {
    let mut level = crate::level::level_from_env();
    let mut quiet = false;
    for arg in args {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            other => {
                if let Some(v) = other.strip_prefix("--obs=") {
                    level = ObsLevel::parse(v);
                }
            }
        }
    }
    (level, quiet)
}

impl BenchReporter {
    /// Initialize reporting for `bin`: parse the process's knobs, set the
    /// global level, zero the global registry, and start the wall clock.
    pub fn init(bin: &str) -> BenchReporter {
        let (level, quiet) = parse_knobs(std::env::args().skip(1));
        Self::init_with(bin, level, quiet)
    }

    /// [`BenchReporter::init`] with explicit knobs (used by tests and by
    /// binaries that re-run themselves at a different level).
    pub fn init_with(bin: &str, level: ObsLevel, quiet: bool) -> BenchReporter {
        set_level(level);
        global().reset();
        BenchReporter {
            bin: bin.to_string(),
            level,
            quiet,
            start: Instant::now(),
            derived: Vec::new(),
        }
    }

    /// True when `--quiet` was given: the binary should print nothing
    /// except hard errors.
    pub fn quiet(&self) -> bool {
        self.quiet
    }

    /// The level this run records at.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Add a derived value to the final report.
    pub fn set_derived(&mut self, name: &str, value: f64) {
        self.derived.push((name.to_string(), value));
    }

    /// Where the report will be written: `$JCC_OBS_DIR` (or the working
    /// directory) + `BENCH_<prefix>.json`.
    pub fn report_path(&self) -> PathBuf {
        let prefix = self.bin.split('_').next().unwrap_or(&self.bin);
        let dir = std::env::var("JCC_OBS_DIR").unwrap_or_else(|_| ".".to_string());
        PathBuf::from(dir).join(format!("BENCH_{prefix}.json"))
    }

    /// Write a schedule timeline next to the run report as a Chrome Trace
    /// Event Format file (`BENCH_<prefix>.chrome_trace.json`), gated by
    /// the same knobs as everything else: a no-op returning `None` when
    /// the level is `off`. Returns the path written.
    pub fn write_chrome_trace(&self, timeline: &crate::timeline::Timeline) -> Option<PathBuf> {
        if self.level < ObsLevel::Summary {
            return None;
        }
        let path = self.report_path().with_extension("chrome_trace.json");
        match std::fs::write(&path, timeline.to_chrome_string()) {
            Ok(()) => {
                if !self.quiet {
                    println!("obs: chrome trace written to {}", path.display());
                }
                Some(path)
            }
            Err(e) => {
                eprintln!("obs: cannot write {}: {e}", path.display());
                None
            }
        }
    }

    /// Build the report, write the JSON file, print the summary unless
    /// quiet, and return the report.
    pub fn finish(self) -> RunReport {
        let wall = self.start.elapsed().as_secs_f64();
        let reg = global();
        let mut report = RunReport::from_registry(&self.bin, self.level, wall, reg);
        // The canonical throughput figure: states discovered anywhere in
        // the run (petri reachability + VM exploration) per wall second.
        let states =
            report.counter("petri.reach.states") + report.counter("vm.explore.states");
        report.set_derived("states_per_sec", states as f64 / wall.max(1e-9));
        for (k, v) in &self.derived {
            report.set_derived(k, *v);
        }

        let path = self.report_path();
        if let Err(e) = report.write_to(&path) {
            eprintln!("obs: cannot write {}: {e}", path.display());
        }
        if !self.quiet {
            println!("{}", report.render_summary());
            println!("obs: report written to {}", path.display());
        }
        set_level(ObsLevel::Off);
        report
    }
}

/// The best block time of each arm of an [`ab_best_of_blocks`] comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbTiming {
    /// Best seconds of the reference ("off") arm.
    pub best_off: f64,
    /// Best seconds of the measured ("on") arm.
    pub best_on: f64,
    /// Runs of each arm in one block: a best time covers this many runs.
    pub runs_per_block: usize,
}

impl AbTiming {
    /// The on arm's cost over the off arm, percent of the off time.
    fn raw_pct(&self) -> f64 {
        (self.best_on - self.best_off) / self.best_off.max(1e-9) * 100.0
    }

    /// The on arm's overhead, percent, clamped at zero: a negative residue
    /// is measurement noise, never a speedup from instrumenting.
    pub fn overhead_pct(&self) -> f64 {
        self.raw_pct().max(0.0)
    }

    /// How far the on arm came out *faster*, percent — the noise the
    /// clamp hid, reported so a noisy host is visible.
    pub fn noise_floor_pct(&self) -> f64 {
        (-self.raw_pct()).max(0.0)
    }
}

/// Each arm runs at least this long in one block, in seconds.
pub const AB_BLOCK_SECS: f64 = 0.025;

/// Blocks timed after the warm-up block; each arm keeps its best.
pub const AB_BLOCKS: usize = 9;

/// Timed runs of the off arm that size a block.
const AB_CALIBRATION_RUNS: usize = 10;

/// Time two arms, each a closure that does one run and returns the seconds
/// it measured. A shared host runs the same work at speeds a third apart
/// for tens of milliseconds at a time, so a best-of-3 of single runs, or
/// of back-to-back blocks of one arm, measures the host. Instead:
///
/// 1. the off arm runs once untimed, then [`AB_CALIBRATION_RUNS`] times;
///    a block holds as many runs of each arm as the fastest of those fits
///    in [`AB_BLOCK_SECS`] (at least one);
/// 2. within a block the arms alternate run by run (off, on, off, on, …),
///    so both see the same host, and a block's time per arm is the sum of
///    its runs;
/// 3. one warm-up block is discarded, then each arm keeps its best of
///    [`AB_BLOCKS`] blocks.
pub fn ab_best_of_blocks(mut off: impl FnMut() -> f64, mut on: impl FnMut() -> f64) -> AbTiming {
    off();
    let fastest = (0..AB_CALIBRATION_RUNS)
        .map(|_| off())
        .fold(f64::INFINITY, f64::min);
    let reps = (AB_BLOCK_SECS / fastest.max(1e-9)).ceil().max(1.0) as usize;
    let mut block = || {
        let (mut off_secs, mut on_secs) = (0.0, 0.0);
        for _ in 0..reps {
            off_secs += off();
            on_secs += on();
        }
        (off_secs, on_secs)
    };
    block();
    let mut best = AbTiming {
        best_off: f64::INFINITY,
        best_on: f64::INFINITY,
        runs_per_block: reps,
    };
    for _ in 0..AB_BLOCKS {
        let (off_secs, on_secs) = block();
        best.best_off = best.best_off.min(off_secs);
        best.best_on = best.best_on.min(on_secs);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Flags win regardless of env (env default covered in level.rs).
        let (level, quiet) = parse_knobs(args(&["--quiet", "--obs=off"]));
        assert_eq!(level, ObsLevel::Off);
        assert!(quiet);
        let (level, quiet) = parse_knobs(args(&["-q", "--obs=summary"]));
        assert_eq!(level, ObsLevel::Summary);
        assert!(quiet);
        let (_, quiet) = parse_knobs(args(&["positional"]));
        assert!(!quiet);
    }

    #[test]
    fn report_path_uses_bin_prefix() {
        let r = BenchReporter {
            bin: "e8_statespace".into(),
            level: ObsLevel::Off,
            quiet: true,
            start: Instant::now(),
            derived: Vec::new(),
        };
        assert!(r
            .report_path()
            .to_string_lossy()
            .ends_with("BENCH_e8.json"));
    }

    #[test]
    fn ab_calibrates_warms_up_and_alternates_the_arms_in_blocks() {
        // The off arm's runs take 10 ms: blocks of 3 runs fill 25 ms. The
        // untimed run and the calibration runs are the fastest here, and
        // must still not count.
        let mut off_times = [
            0.001, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01,
        ]
        .into_iter()
        .chain(std::iter::repeat(0.02));
        let mut on_runs = 0;
        let order = std::cell::RefCell::new(Vec::new());
        let t = ab_best_of_blocks(
            || {
                order.borrow_mut().push('o');
                off_times.next().unwrap()
            },
            || {
                order.borrow_mut().push('n');
                on_runs += 1;
                // The warm-up block is the fastest on run, and discarded.
                if on_runs <= 3 {
                    0.001
                } else {
                    0.03
                }
            },
        );
        let order: String = order.into_inner().into_iter().collect();
        let calibration = "o".repeat(1 + AB_CALIBRATION_RUNS);
        let blocks = "on".repeat(3 * (1 + AB_BLOCKS));
        assert_eq!(order, calibration + &blocks);
        assert!((t.best_off - 0.06).abs() < 1e-9, "{t:?}");
        assert!((t.best_on - 0.09).abs() < 1e-9, "{t:?}");
        assert_eq!(t.runs_per_block, 3);
    }

    #[test]
    fn overhead_is_clamped_and_the_residue_is_the_noise_floor() {
        let slower = AbTiming {
            best_off: 2.0,
            best_on: 2.1,
            runs_per_block: 1,
        };
        assert!((slower.overhead_pct() - 5.0).abs() < 1e-9);
        assert_eq!(slower.noise_floor_pct(), 0.0);
        let faster = AbTiming {
            best_off: 2.0,
            best_on: 1.9,
            runs_per_block: 1,
        };
        assert_eq!(faster.overhead_pct(), 0.0);
        assert!((faster.noise_floor_pct() - 5.0).abs() < 1e-9);
        // A zero off time is guarded, not a division by zero.
        let instant = AbTiming {
            best_off: 0.0,
            best_on: 1e-9,
            runs_per_block: 1,
        };
        assert!((instant.overhead_pct() - 100.0).abs() < 1e-6);
        assert!(instant.overhead_pct().is_finite());
    }
}
