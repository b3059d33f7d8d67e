//! E3 — regenerate Figure 2: the producer–consumer monitor, one MIR
//! definition exercised both on the VM (deterministic schedules) and
//! natively (real threads, abstract clock).

use std::sync::Arc;

use jcc_core::clock::{Schedule, TestDriver};
use jcc_core::model::examples;
use jcc_core::model::pretty::print_component;
use jcc_core::runtime::{EventLog, NativeComponent};
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
    let log = EventLog::new();
    let pc = Arc::new(NativeComponent::new(compile(&component).expect("compiles"), &log));
    let receive = |expected: &'static str| {
        let pc = Arc::clone(&pc);
        move |_: &_| {
            let got = pc.call("receive", &[]).expect("guarded receive");
            assert_eq!(got, Some(Value::Str(expected.into())));
        }
    };
    let p = Arc::clone(&pc);
    let schedule = Schedule::new()
        .call("receive#1", 1, receive("h"))
        .call("send(hi)", 2, move |_| {
            p.call("send", &[Value::Str("hi".into())]).expect("guarded send");
        })
        .call("receive#2", 3, receive("i"));
    let (records, clock) = TestDriver::new().run(schedule);
    say!("final clock time: {}", clock.time());
    for r in &records {
        say!(
            "  {} released at t={} completed at {:?}",
            r.label, r.released_at, r.completed_at
        );
    }
    say!(
        "\nmonitor transitions logged natively: T1={} T2={} T3={} T4={} T5={}",
        log.count_transition(jcc_core::petri::Transition::T1),
        log.count_transition(jcc_core::petri::Transition::T2),
        log.count_transition(jcc_core::petri::Transition::T3),
        log.count_transition(jcc_core::petri::Transition::T4),
        log.count_transition(jcc_core::petri::Transition::T5),
    );
    reporter.finish();
}
