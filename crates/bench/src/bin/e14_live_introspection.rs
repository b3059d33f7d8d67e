//! E14 — live-introspection overhead: the full live stack (hierarchical
//! span tree, progress heartbeats, Prometheus exposition) on the e8
//! exploration workload, against the same workload with the stack off.
//!
//! The claim under test: watching a run live is free enough to leave on.
//! Both arms go through the shared calibrated, alternating harness
//! (`obs::ab_best_of_blocks`, as in e8 and e12). The off arm still records at
//! `summary` level — the subtraction isolates what the *live* additions
//! (tree + heartbeat + progress publication) cost on
//! top of ordinary metrics. Acceptance: every arm's graph, warm-ups
//! included, is identical to a reference exploration, and
//! `introspection_overhead_pct` stays under the ledger's 5% overhead
//! budget, which `jcc-report --gate` applies against the e14 baseline.

use std::time::{Duration, Instant};

use jcc_core::obs;
use jcc_core::obs::bench::AB_BLOCKS;
use jcc_core::petri::{JavaNet, ReachGraph, ReachLimits};

fn main() {
    let mut reporter = obs::BenchReporter::init("e14_live_introspection");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }
    say!("=== E14: live-introspection overhead ===\n");

    let saved_level = reporter.level();
    // Both arms record at summary; only the live features differ.
    obs::set_level(obs::ObsLevel::Summary);
    obs::SpanTree::reset();

    // Each timed arm explores the net REPS times: on a single-core host a
    // ~10ms window is one scheduler decision wide, and a lone watcher
    // wake-up mid-window swings the subtraction by double digits. A
    // ~50ms batch amortizes the wake-ups into the steady-state figure the
    // budget is about.
    const REPS: usize = 5;
    let n = 7;
    let j = JavaNet::new(n);
    let seq_limits = ReachLimits::default();

    // The graph both arms must reproduce: same states, edges, frontier
    // peak — and the same dead states.
    let reference = ReachGraph::explore(j.net(), seq_limits);
    let agrees = |g: &ReachGraph| {
        assert_eq!(g.stats(), reference.stats(), "arms must agree");
        assert_eq!(
            g.dead_states(),
            reference.dead_states(),
            "dead-state sets must agree"
        );
    };
    let explore_batch = || {
        let t0 = Instant::now();
        let mut g = ReachGraph::explore(j.net(), seq_limits);
        for _ in 1..REPS {
            g = ReachGraph::explore(j.net(), seq_limits);
        }
        (t0.elapsed().as_secs_f64(), g)
    };

    let mut on_wall = 0.0f64;
    let ab = obs::ab_best_of_blocks(
        // OFF arm: live features disabled, no watcher threads.
        || {
            obs::set_span_tree(false);
            obs::set_progress(false);
            let (secs, g) = explore_batch();
            agrees(&g);
            secs
        },
        // ON arm: the whole stack. The heartbeat starts and stops outside
        // the timed region — its *running* cost is the claim, not its
        // spawn cost — and one untimed exploration runs after the spawn
        // so the watcher thread's lazy setup (stack, TLS, first sleep)
        // finishes before the clock starts; on a single-core host that
        // setup otherwise lands inside the timed window.
        || {
            obs::set_span_tree(true);
            obs::set_progress(true);
            let seg0 = Instant::now();
            let heartbeat = obs::Heartbeat::start(Duration::from_millis(10), |_| {});
            let _settle = ReachGraph::explore(j.net(), seq_limits);
            let (secs, g) = explore_batch();
            heartbeat.stop();
            on_wall += seg0.elapsed().as_secs_f64();
            agrees(&g);
            secs
        },
    );
    obs::set_span_tree(false);
    obs::set_progress(false);

    let states = reference.stats().states;
    let (best_off, best_on) = (ab.best_off, ab.best_on);
    let (overhead_pct, noise_floor_pct) = (ab.overhead_pct(), ab.noise_floor_pct());
    say!(
        "--- introspection overhead (petri reach N={n}, {states} states, arms alternating in \
         calibrated blocks, warmed, best of {AB_BLOCKS}) ---\n\
         off: {best_off:.4}s, live: {best_on:.4}s -> overhead {overhead_pct:.2}% \
         (noise floor {noise_floor_pct:.2}%, budget: < 5%)"
    );
    reporter.set_derived("introspection_overhead_pct", overhead_pct);
    reporter.set_derived("introspection_noise_floor_pct", noise_floor_pct);
    // The throughput figure the gate wants: with the live stack ON.
    reporter.set_derived(
        "states_per_sec",
        (states * REPS) as f64 / best_on.max(1e-9),
    );

    // Heartbeat activity while the live arm ran.
    let reg = obs::global();
    let beats = reg.counter("live.heartbeat.count").get();
    let heartbeats_per_sec = beats as f64 / on_wall.max(1e-9);
    say!(
        "live activity over {on_wall:.3}s on-time: {beats} heartbeats \
         ({heartbeats_per_sec:.1}/s)"
    );
    reporter.set_derived("heartbeats_per_sec", heartbeats_per_sec);

    // --- exposition self-check -------------------------------------------
    // Serve the populated registry on an ephemeral port and fetch it back
    // curl-style: every registered counter, gauge and histogram must
    // appear in the Prometheus text (the acceptance criterion for
    // `--expose`).
    {
        let server = obs::ExposeServer::start(0).expect("bind ephemeral metrics port");
        let body = obs::fetch_metrics(server.local_addr()).expect("fetch metrics");
        let mut covered = 0usize;
        for (name, _) in reg.counter_values() {
            let n = obs::expose::sanitize_metric_name(&name);
            assert!(body.contains(&n), "counter {name} missing from exposition");
            covered += 1;
        }
        for (name, _) in reg.gauge_values() {
            let n = obs::expose::sanitize_metric_name(&name);
            assert!(body.contains(&n), "gauge {name} missing from exposition");
            covered += 1;
        }
        for (name, _) in reg.histogram_values() {
            let n = obs::expose::sanitize_metric_name(&name);
            assert!(
                body.contains(&format!("{n}_count")),
                "histogram {name} missing from exposition"
            );
            covered += 1;
        }
        server.stop();
        say!("exposition self-check: {covered} registered metrics all present in scrape");
        reporter.set_derived("exposed_metrics", covered as f64);
    }

    // --- span-tree artifact ----------------------------------------------
    // The live arm's span tree next to the report (honoring $JCC_OBS_DIR
    // like every bench artifact).
    {
        let text = obs::SpanTree::snapshot().render_ascii();
        let dir = std::env::var("JCC_OBS_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::PathBuf::from(dir).join("BENCH_e14_flame.txt");
        match std::fs::write(&path, &text) {
            Ok(()) => say!("span tree written to {}", path.display()),
            Err(e) => eprintln!("obs: cannot write {}: {e}", path.display()),
        }
        if !reporter.quiet() {
            print!("\n{text}");
        }
    }

    obs::set_level(saved_level);
    reporter.finish();
}
