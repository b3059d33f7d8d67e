//! E3 — regenerate Figure 2: the producer–consumer monitor, one MIR
//! definition exercised both on the VM (deterministic schedules) and
//! natively (real threads, abstract clock).

use jcc_core::model::examples;
use jcc_core::model::pretty::print_component;
use jcc_core::petri::{EventKind, Transition};
use jcc_core::runtime::exec::{run_clocked, Release};
use jcc_core::vm::{compile, CallSpec, RunConfig, ThreadSpec, Value, Vm};

fn main() {
    let reporter = jcc_core::obs::BenchReporter::init("fig2_monitor");
    macro_rules! say {
        ($($arg:tt)*) => { if !reporter.quiet() { println!($($arg)*); } };
    }
    say!("=== Figure 2: the producer-consumer monitor ===\n");
    let component = examples::producer_consumer();
    say!("--- Figure 2 in Java (the Monitor IR, printed) ---");
    say!("{}", print_component(&component));

    say!("--- VM run: producer sends \"abc\", consumer receives 3 chars ---");
    let mut vm = Vm::new(
        compile(&component).expect("compiles"),
        vec![
            ThreadSpec {
                name: "consumer".into(),
                calls: vec![
                    CallSpec::new("receive", vec![]),
                    CallSpec::new("receive", vec![]),
                    CallSpec::new("receive", vec![]),
                ],
            },
            ThreadSpec {
                name: "producer".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("abc".into())])],
            },
        ],
    );
    let out = vm.run(&RunConfig::default());
    say!("verdict: {:?} in {} steps", out.verdict, out.steps);
    for (thread, result) in out.all_calls() {
        say!(
            "  {}: {}(..) -> {:?} (started step {}, completed {:?})",
            vm.thread_name(thread),
            result.method,
            result.returned,
            result.started_step,
            result.completed_step
        );
    }

    say!("\n--- Native run under the abstract clock ---");
    let receive = || CallSpec::new("receive", vec![]);
    let schedule = [
        Release::new("receive#1", 1, receive()),
        Release::new(
            "send(hi)",
            2,
            CallSpec::new("send", vec![Value::Str("hi".into())]),
        ),
        Release::new("receive#2", 3, receive()),
    ];
    let run = run_clocked(&compile(&component).expect("compiles"), &schedule)
        .expect("a small schedule");
    say!("final clock time: {}", run.time);
    for r in &run.records {
        say!(
            "  {} released at t={} completed at {:?}",
            r.label, r.released_at, r.completed_at
        );
    }
    let tally = [
        Transition::T1,
        Transition::T2,
        Transition::T3,
        Transition::T4,
        Transition::T5,
    ]
    .map(|t| {
        let fired = |e: &&_| matches!(e, EventKind::Transition { t: f, .. } if *f == t);
        let kinds = run.outcome.trace.iter().map(|e| &e.kind);
        kinds.filter(fired).count()
    });
    say!(
        "\nmonitor transitions logged natively: T1={} T2={} T3={} T4={} T5={}",
        tally[0],
        tally[1],
        tally[2],
        tally[3],
        tally[4]
    );
    // What EXPERIMENTS E3 states: receive#1 waits until the send at tick 2,
    // receive#2 takes the second character at tick 3, and the clock stops
    // at the last release.
    let completed: Vec<_> = run.records.iter().map(|r| r.completed_at).collect();
    assert_eq!(completed, [Some(2), Some(2), Some(3)], "{:?}", run.records);
    let results = run.outcome.results.iter();
    let returned: Vec<_> = results.map(|c| c[0].returned.clone()).collect();
    let ch = |s: &str| Some(Value::Str(s.into()));
    assert_eq!(returned, [ch("h"), None, ch("i")]);
    assert_eq!(run.time, 3, "the clock ends at the last release");
    assert_eq!(tally, [3, 4, 1, 3, 1], "T1..T5");
    reporter.finish();
}
