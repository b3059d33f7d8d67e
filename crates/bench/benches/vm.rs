//! Benchmarks for the VM: scheduled runs (E3) and exhaustive exploration
//! (E8), plus the native monitor under contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use jcc_core::model::examples;
use jcc_core::vm::{
    compile, explore, CallSpec, ExploreConfig, RunConfig, Scheduler, ThreadSpec, Value, Vm,
};

fn pc_threads(chars: usize) -> Vec<ThreadSpec> {
    vec![
        ThreadSpec {
            name: "c".into(),
            calls: (0..chars).map(|_| CallSpec::new("receive", vec![])).collect(),
        },
        ThreadSpec {
            name: "p".into(),
            calls: vec![CallSpec::new("send", vec![Value::Str("x".repeat(chars).into())])],
        },
    ]
}

fn bench_scheduled_run(c: &mut Criterion) {
    let component = examples::producer_consumer();
    let compiled = compile(&component).unwrap();
    let mut group = c.benchmark_group("vm/run_round_robin");
    for chars in [1usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(chars), &chars, |b, &chars| {
            b.iter(|| {
                let mut vm = Vm::new(compiled.clone(), pc_threads(chars));
                black_box(vm.run(&RunConfig::default()).steps)
            })
        });
    }
    group.finish();
}

fn bench_random_run(c: &mut Criterion) {
    let component = examples::producer_consumer();
    let compiled = compile(&component).unwrap();
    c.bench_function("vm/run_random_seeded", |b| {
        b.iter(|| {
            let mut vm = Vm::new(compiled.clone(), pc_threads(8));
            black_box(
                vm.run(&RunConfig {
                    scheduler: Scheduler::Random(7),
                    max_steps: 50_000,
                })
                .steps,
            )
        })
    });
}

fn bench_explore(c: &mut Criterion) {
    let component = examples::producer_consumer();
    let compiled = compile(&component).unwrap();
    let mut group = c.benchmark_group("vm/explore_all_schedules");
    group.sample_size(10);
    for consumers in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(consumers),
            &consumers,
            |b, &consumers| {
                b.iter(|| {
                    let mut threads = vec![ThreadSpec {
                        name: "p".into(),
                        calls: vec![CallSpec::new(
                            "send",
                            vec![Value::Str("x".repeat(consumers).into())],
                        )],
                    }];
                    for i in 0..consumers {
                        threads.push(ThreadSpec {
                            name: format!("c{i}"),
                            calls: vec![CallSpec::new("receive", vec![])],
                        });
                    }
                    let vm = Vm::new(compiled.clone(), threads);
                    black_box(explore(vm, &ExploreConfig::default(), None).states)
                })
            },
        );
    }
    group.finish();
}

fn bench_native_monitor(c: &mut Criterion) {
    use jcc_core::runtime::{EventLog, JavaMonitor};
    c.bench_function("runtime/enter_exit_uncontended", |b| {
        let log = EventLog::new();
        let m = JavaMonitor::new("bench", &log, 0u64);
        b.iter(|| {
            let g = m.enter();
            g.with(|d| *d += 1);
            drop(g);
            log.clear();
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scheduled_run, bench_random_run, bench_explore, bench_native_monitor
}
criterion_main!(benches);
