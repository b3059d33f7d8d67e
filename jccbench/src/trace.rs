//! The traced run's span recorder.
//!
//! Spans are opened by the benchmark around each call into a layer's
//! public functions (no span lives inside the program under test). Each
//! span has a name, start, end and parent (process CPU time, like every
//! other time the benchmark reports); spans are kept in memory and
//! written at exit as a Chrome trace (the first [`KEEP_EVENTS`] of them)
//! and as a per-layer self-time table (all of them).
//!
//! A *probe* span times a call the composite path does not make on its
//! own (the separate `lex` before `parse`, which lexes again inside): it
//! is kept out of the coverage sum so coverage compares like with like.
//!
//! When tracing is off every method is a plain call, so the untraced path
//! pays one branch per layer call.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock;

/// Spans kept for the Chrome trace; later spans are only aggregated.
const KEEP_EVENTS: usize = 50_000;

#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total: f64,
    pub self_time: f64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: f64,
    children: f64,
    probe: bool,
}

struct Event {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    probe: bool,
}

/// Per-round layer totals: self time per span name and counts.
#[derive(Debug, Clone, Default)]
pub struct RoundLayers {
    pub spans: BTreeMap<&'static str, Agg>,
    pub counts: BTreeMap<&'static str, f64>,
    /// Time of non-probe spans directly under an input's root span.
    pub covered: f64,
}

pub struct Tracer {
    on: bool,
    origin: f64,
    next_id: u64,
    stack: Vec<Open>,
    events: Vec<Event>,
    round: RoundLayers,
    whole: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: clock::now(),
            next_id: 0,
            stack: Vec::new(),
            events: Vec::new(),
            round: RoundLayers::default(),
            whole: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        self.open(name, false);
    }

    fn open(&mut self, name: &'static str, probe: bool) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            name,
            start: clock::now(),
            children: 0.0,
            probe,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = clock::now();
        let open = self.stack.pop().expect("end without begin");
        let dur = end - open.start;
        if let Some(parent) = self.stack.last_mut() {
            parent.children += dur;
        }
        let agg = self.round.spans.entry(open.name).or_default();
        agg.calls += 1;
        agg.total += dur;
        agg.self_time += (dur - open.children).max(0.0);
        if self.stack.len() == 1 && !open.probe {
            self.round.covered += dur;
        }
        if self.events.len() < KEEP_EVENTS {
            self.events.push(Event {
                id: open.id,
                parent: self.stack.last().map(|p| p.id),
                name: open.name,
                start_us: (open.start - self.origin) * 1e6,
                dur_us: dur * 1e6,
                probe: open.probe,
            });
        }
    }

    /// Time `f` as a leaf span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name, false);
        let out = f();
        self.end();
        out
    }

    /// Time `f` as a probe span (excluded from coverage).
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name, true);
        let out = f();
        self.end();
        out
    }

    /// Add `n` to the round's counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.round.counts.entry(name).or_default() += n;
        }
    }

    /// Drop spans a panic left open.
    pub fn unwind(&mut self) {
        self.stack.clear();
    }

    /// Close the round: return its totals and fold them into the
    /// whole-run table.
    pub fn take_round(&mut self) -> RoundLayers {
        let round = std::mem::take(&mut self.round);
        for (name, a) in &round.spans {
            let w = self.whole.entry(name).or_default();
            w.calls += a.calls;
            w.total += a.total;
            w.self_time += a.self_time;
        }
        round
    }

    /// The per-layer self-time table over every traced round.
    pub fn table(&self) -> String {
        let mut rows: Vec<(&&str, &Agg)> = self.whole.iter().collect();
        rows.sort_by(|a, b| b.1.self_time.total_cmp(&a.1.self_time));
        let all: f64 = rows.iter().map(|(_, a)| a.self_time).sum();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<20} {:>10} {:>12} {:>12} {:>7}",
            "span", "calls", "total_s", "self_s", "self%"
        );
        for (name, a) in rows {
            let _ = writeln!(
                s,
                "{:<20} {:>10} {:>12.6} {:>12.6} {:>6.1}%",
                name,
                a.calls,
                a.total,
                a.self_time,
                100.0 * a.self_time / all.max(1e-12)
            );
        }
        s
    }

    /// Chrome Trace Event JSON of the kept spans.
    pub fn chrome_trace(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            let parent = e.parent.map_or("null".to_string(), |p| p.to_string());
            let cat = if e.probe { "probe" } else { "layer" };
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                e.name,
                e.start_us,
                e.dur_us,
                e.id,
            );
        }
        s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        s
    }
}
