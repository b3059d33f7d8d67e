//! Quickstart: the whole method on one page.
//!
//! 1. Write a concurrent component as a Java class.
//! 2. Build its Concurrency Flow Graphs (CoFGs).
//! 3. Run it on the VM under a controlled schedule.
//! 4. Measure CoFG arc coverage and see what is left to test.
//!
//! Run with `cargo run --example quickstart`.

use jcc_core::cofg::{build_component_cofgs, CoverageTracker};
use jcc_core::model::parse_component;
use jcc_core::report::{render_cofg_arcs, render_coverage};
use jcc_core::vm::trace::apply_trace;
use jcc_core::vm::{compile, CallSpec, RunConfig, ThreadSpec, Value, Vm};

fn main() {
    // 1. A component: a one-slot mailbox.
    let source = r#"
        class Mailbox {
          String message = "";
          boolean present = false;

          synchronized void post(String m) {
            while (present) { wait(); }
            message = m;
            present = true;
            notifyAll();
          }

          synchronized String fetch() {
            while (!present) { wait(); }
            present = false;
            notifyAll();
            return message;
          }
        }
    "#;
    let component = parse_component(source).expect("parses");
    assert!(jcc_core::model::validate(&component).is_empty());

    // 2. CoFGs: the test obligations.
    let cofgs = build_component_cofgs(&component);
    for g in &cofgs {
        println!("{}", render_cofg_arcs(g));
    }

    // 3. One controlled run: a fetcher that must block, then a poster.
    let mut vm = Vm::new(
        compile(&component).expect("compiles"),
        vec![
            ThreadSpec {
                name: "fetcher".into(),
                calls: vec![CallSpec::new("fetch", vec![])],
            },
            ThreadSpec {
                name: "poster".into(),
                calls: vec![CallSpec::new("post", vec![Value::Str("hello".into())])],
            },
        ],
    );
    let outcome = vm.run(&RunConfig::default());
    println!("run verdict: {:?} in {} steps", outcome.verdict, outcome.steps);
    for (thread, call) in outcome.all_calls() {
        println!(
            "  {}: {} -> {:?}",
            vm.thread_name(thread),
            call.method,
            call.returned
        );
    }

    // 4. Coverage: what did this one test exercise?
    let mut tracker = CoverageTracker::new(cofgs);
    apply_trace(&outcome.trace, &mut tracker);
    println!();
    println!("{}", render_coverage(&tracker));
    println!("Every uncovered arc above is a missing test case.");
}
