//! Benchmarks for test-sequence generation (E5 substrate): greedy suite
//! construction, signature enumeration and the abstract clock.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use jcc_core::clock::AbstractClock;
use jcc_core::model::examples;
use jcc_core::testgen::scenario::ScenarioSpace;
use jcc_core::testgen::signature::{enumerate_signatures, EnumLimits};
use jcc_core::testgen::suite::{greedy_cover_suite, GreedyConfig};
use jcc_core::vm::{compile, CallSpec, ThreadSpec, Value, Vm};

fn bench_greedy_suite(c: &mut Criterion) {
    let component = examples::bounded_buffer();
    let space = ScenarioSpace::new(vec![
        CallSpec::new("put", vec![Value::Int(1)]),
        CallSpec::new("put", vec![Value::Int(2)]),
        CallSpec::new("take", vec![]),
    ]);
    let mut group = c.benchmark_group("testgen/greedy_suite");
    group.sample_size(10);
    group.bench_function("bounded_buffer", |b| {
        b.iter(|| {
            black_box(
                greedy_cover_suite(&component, &space, &GreedyConfig::default())
                    .scenarios
                    .len(),
            )
        })
    });
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let component = examples::producer_consumer();
    let compiled = compile(&component).unwrap();
    let threads = vec![
        ThreadSpec {
            name: "c".into(),
            calls: vec![CallSpec::new("receive", vec![])],
        },
        ThreadSpec {
            name: "p".into(),
            calls: vec![CallSpec::new("send", vec![Value::Str("ab".into())])],
        },
    ];
    let mut group = c.benchmark_group("testgen/enumerate_signatures");
    group.sample_size(10);
    group.bench_function("producer_consumer_2threads", |b| {
        b.iter(|| {
            let vm = Vm::new(compiled.clone(), threads.clone());
            black_box(enumerate_signatures(vm, EnumLimits::default()).0.len())
        })
    });
    group.finish();
}

fn bench_clock(c: &mut Criterion) {
    c.bench_function("clock/tick", |b| {
        let clock = AbstractClock::new();
        b.iter(|| black_box(clock.tick()))
    });
    c.bench_function("clock/await_satisfied", |b| {
        let clock = AbstractClock::new();
        clock.tick_to(1_000_000_000);
        b.iter(|| {
            clock.await_time(5);
            black_box(clock.time())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_greedy_suite, bench_signatures, bench_clock
}
criterion_main!(benches);
