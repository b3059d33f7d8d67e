//! Export of a scenario as a ConAn-style test script.
//!
//! The ConAn tool (Long, Hoffman & Strooper 2001) drives monitor tests from
//! a script of time-stamped calls over the abstract clock. This module
//! renders a scenario in that style — one `#thread` block per logical
//! thread, each call released at its own tick. [`release_tick`] gives a
//! call's tick, which is the `at` of its `jcc_runtime::exec::Release` when
//! the scenario runs natively under the clock.

use std::fmt::Write as _;

use crate::scenario::Scenario;

/// Render a scenario as a ConAn-style script. Threads release their calls
/// one tick apart, in thread order (thread 0 at tick 1, thread 1 at tick 2,
/// …), giving a deterministic textual schedule a tester can edit.
pub fn to_conan_script(component: &str, scenario: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// ConAn-style script for component {component}");
    let _ = writeln!(out, "#monitor {component}");
    for (i, thread) in scenario.iter().enumerate() {
        let _ = writeln!(out, "#thread {}", thread.name);
        let mut tick = i as u64 + 1;
        for call in &thread.calls {
            let args = call
                .args
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "  await({tick}); {}({args});", call.method);
            tick += scenario.len() as u64;
        }
        let _ = writeln!(out, "#end");
    }
    out
}

/// The release tick `to_conan_script` assigns to call `call_idx` of thread
/// `thread_idx` in a scenario with `n_threads` threads.
pub fn release_tick(thread_idx: usize, call_idx: usize, n_threads: usize) -> u64 {
    (thread_idx + 1) as u64 + (call_idx as u64) * n_threads as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_vm::{CallSpec, ThreadSpec, Value};

    fn scenario() -> Scenario {
        vec![
            ThreadSpec {
                name: "consumer".into(),
                calls: vec![
                    CallSpec::new("receive", vec![]),
                    CallSpec::new("receive", vec![]),
                ],
            },
            ThreadSpec {
                name: "producer".into(),
                calls: vec![CallSpec::new("send", vec![Value::Str("ab".into())])],
            },
        ]
    }

    #[test]
    fn script_structure() {
        let script = to_conan_script("ProducerConsumer", &scenario());
        assert!(script.contains("#monitor ProducerConsumer"));
        assert!(script.contains("#thread consumer"));
        assert!(script.contains("#thread producer"));
        assert!(script.contains("await(1); receive();"));
        assert!(script.contains("await(3); receive();"));
        assert!(script.contains("await(2); send(\"ab\");"));
        assert_eq!(script.matches("#end").count(), 2);
    }

    #[test]
    fn release_ticks_interleave_threads() {
        assert_eq!(release_tick(0, 0, 2), 1);
        assert_eq!(release_tick(1, 0, 2), 2);
        assert_eq!(release_tick(0, 1, 2), 3);
        assert_eq!(release_tick(1, 1, 2), 4);
    }
}
