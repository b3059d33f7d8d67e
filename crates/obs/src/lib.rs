//! # jcc-obs — structured tracing, metrics and machine-readable run reports
//!
//! A dependency-free observability layer for the exploration pipeline:
//!
//! * [`level`] — the global recording level ([`ObsLevel`]): `off` (the
//!   default; every hook is a near-free atomic load) or `summary` (metrics
//!   and span timings),
//! * [`metrics`] — a registry of named [`Counter`]s, [`Gauge`]s and
//!   log2-bucketed [`Histogram`]s; the [`global`] registry is what the
//!   engines write to, but registries are plain values and can be local,
//! * [`span`] — timed, nested spans ([`span_enter`] / the [`span!`] macro):
//!   each span records its wall-clock into the `span.<name>` histogram and,
//!   when the live span tree is on, into its stack's node of the tree,
//! * [`json`] — a minimal JSON value type with writer and parser (the crate
//!   registry is unreachable, so no serde),
//! * [`report`] — the stable [`RunReport`] schema (`jcc-obs/v1`): a
//!   snapshot of every metric plus per-phase wall-clock (with p50/p90/p99
//!   estimates) and derived rates, renderable as a human summary or a JSON
//!   file,
//! * [`timeline`] — causal schedule timelines: one lane per thread, typed
//!   intervals stamped with Table-1 transitions and CoFG arcs, cross-lane
//!   causality edges (notify→wake, release→acquire), an ASCII renderer and
//!   a Chrome Trace Event Format (Perfetto-loadable) exporter,
//! * [`ledger`] — the cross-run regression ledger (`jcc-ledger/v1`):
//!   pairwise diffs of [`RunReport`]s judged by one rule table (throughput
//!   floors, coverage, drop rates, overhead budgets) — the only regression
//!   gate,
//! * [`live`] — live introspection: the hierarchical [`SpanTree`] (exact
//!   per-stack time, with ASCII and Chrome-trace renderings), and the
//!   [`ProgressCell`]/[`Heartbeat`] pair that turns engine progress into
//!   EWMA rates, ETAs and heartbeat gauges while a run is in flight,
//! * [`expose`] — Prometheus text exposition of a registry
//!   ([`render_prometheus`]) plus the minimal [`ExposeServer`] TCP
//!   listener behind `--expose=PORT`,
//! * [`bench`] — [`BenchReporter`], the front door for the `jcc-bench`
//!   binaries: parses the shared `--quiet` / `JCC_OBS=off|summary`
//!   knob, times the run, and writes `BENCH_<bin>.json`; and
//!   [`ab_best_of_3`], the warmed, interleaved A/B timing harness behind
//!   every overhead figure.
//!
//! Determinism contract: observation never feeds back into exploration.
//! Enabling any level changes no engine result — only what is recorded
//! about it (asserted by `tests/obs_determinism.rs`).
//!
//! # Example
//!
//! ```
//! use jcc_obs::{ObsLevel, Registry};
//!
//! // Engines use the global registry; tests can use a local one.
//! let reg = Registry::new();
//! let states = reg.counter("demo.states");
//! for _ in 0..128 {
//!     states.inc();
//! }
//! reg.histogram("demo.latency_ns").record(4_096);
//! let report = jcc_obs::report::RunReport::from_registry("demo", ObsLevel::Summary, 0.5, &reg);
//! assert_eq!(report.counters["demo.states"], 128);
//! let json = report.to_json_string();
//! let back = jcc_obs::report::RunReport::from_json_str(&json).unwrap();
//! assert_eq!(back.counters["demo.states"], 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod expose;
pub mod json;
pub mod ledger;
pub mod level;
pub mod live;
pub mod metrics;
pub mod report;
pub mod span;
pub mod timeline;

pub use bench::{ab_best_of_3, parse_knobs, AbTiming, BenchReporter};
pub use expose::{fetch_metrics, render_prometheus, ExposeServer};
pub use ledger::Ledger;
pub use level::{enabled, level, set_level, ObsLevel};
pub use live::{
    explore_progress, progress_enabled, reach_progress, set_progress, set_span_tree, Heartbeat,
    HeartbeatStats, ProgressCell, ProgressSnapshot, SpanTree, SpanTreeSnapshot,
};
pub use metrics::{global, Counter, Gauge, Histogram, Registry};
pub use report::{PhaseReport, RunReport};
pub use span::{span_enter, SpanGuard};
pub use timeline::{Timeline, TimelineBuilder};

/// Open a timed span: `let _g = jcc_obs::span!("petri.reach");`.
///
/// The guard records the span's wall-clock into the `span.<name>` histogram
/// of the global registry when it drops, and into the live span tree when
/// that is on. When the level is `off` the macro costs one relaxed atomic
/// load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}
