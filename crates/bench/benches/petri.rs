//! Benchmarks for the petri-net engine: firing throughput, reachability
//! exploration (E1/E8 substrate) and invariant discovery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use jcc_core::petri::{invariant, JavaNet, ReachGraph, ReachLimits, Transition};

fn bench_fire_cycle(c: &mut Criterion) {
    let j = JavaNet::new(1);
    let net = j.net();
    let seq = [
        j.transition(0, Transition::T1),
        j.transition(0, Transition::T2),
        j.transition(0, Transition::T3),
        j.transition(0, Transition::T5),
        j.transition(0, Transition::T2),
        j.transition(0, Transition::T4),
    ];
    c.bench_function("petri/fire_full_cycle", |b| {
        b.iter(|| {
            let mut m = net.initial_marking();
            for &t in &seq {
                m = net.fire(&m, t).unwrap();
            }
            black_box(m)
        })
    });
}

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("petri/reachability");
    for threads in [1usize, 2, 3, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let j = JavaNet::new(threads);
                b.iter(|| {
                    let g = ReachGraph::explore(j.net(), ReachLimits::default());
                    black_box(g.stats().states)
                })
            },
        );
    }
    group.finish();
}

fn bench_invariants(c: &mut Criterion) {
    let mut group = c.benchmark_group("petri/invariant_basis");
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let j = JavaNet::new(threads);
                b.iter(|| black_box(invariant::invariant_basis(j.net()).len()))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fire_cycle, bench_reachability, bench_invariants
}
criterion_main!(benches);
