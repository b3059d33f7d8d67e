//! Benchmarks for the detectors (E7): lockset analysis and lock-order graph
//! construction over synthetic event streams of varying length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use jcc_core::detect::lockorder::LockOrderGraph;
use jcc_core::detect::lockset::LocksetAnalyzer;
use jcc_core::petri::{Event, EventKind, Transition};

fn ev(thread: u64, kind: EventKind) -> Event {
    Event {
        seq: 0,
        thread,
        kind,
    }
}

fn fire(thread: u64, t: Transition, lock: u64) -> Event {
    ev(thread, EventKind::Transition { t, lock })
}

/// A well-locked workload: `threads` threads each do `ops` lock-protected
/// increments over `vars` variables.
fn locked_stream(threads: u64, ops: usize, vars: usize) -> Vec<Event> {
    let mut out = Vec::with_capacity(threads as usize * ops * 4);
    for t in 1..=threads {
        for i in 0..ops {
            let var = format!("v{}", i % vars);
            out.push(fire(t, Transition::T2, 1));
            out.push(ev(t, EventKind::Read { var: var.clone() }));
            out.push(ev(t, EventKind::Write { var }));
            out.push(fire(t, Transition::T4, 1));
        }
    }
    out
}

/// A nested-lock workload building a deep lock-order graph.
fn nested_stream(threads: u64, depth: u64) -> Vec<Event> {
    let mut out = Vec::new();
    for t in 1..=threads {
        for start in 0..depth {
            for l in start..depth {
                out.push(fire(t, Transition::T2, l));
            }
            for l in (start..depth).rev() {
                out.push(fire(t, Transition::T4, l));
            }
        }
    }
    out
}

fn bench_lockset(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect/lockset");
    for ops in [100usize, 1_000, 10_000] {
        let stream = locked_stream(4, ops, 8);
        group.throughput(criterion::Throughput::Elements(stream.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ops), &stream, |b, stream| {
            b.iter(|| black_box(LocksetAnalyzer::analyze(stream).len()))
        });
    }
    group.finish();
}

fn bench_lockorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect/lockorder");
    for depth in [4u64, 16, 64] {
        let stream = nested_stream(4, depth);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &stream, |b, stream| {
            b.iter(|| {
                let g = LockOrderGraph::build(stream);
                black_box(g.cycles().len())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lockset, bench_lockorder
}
criterion_main!(benches);
