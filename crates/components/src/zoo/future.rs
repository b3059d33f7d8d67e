//! A one-shot future / completion latch, as a monitor.
//!
//! The monitor core of `java.util.concurrent.FutureTask` (equally, a
//! single-count `CountDownLatch` carrying a value): `complete` publishes a
//! value exactly once and wakes every getter; `get` blocks until the value
//! is published; `isDone` polls. Completion is idempotent — a second
//! `complete` keeps the first value but still broadcasts, which is what
//! makes the single `notifyAll` the component's FF-T5 pressure point:
//! dropping it strands every getter forever.

use jcc_model::ast::Component;

use super::parse_checked;

/// Java source for the future cell.
pub const FUTURE_CELL_SRC: &str = r#"
class FutureCell {
  private boolean done = false;
  private int value = 0;

  // publish the result exactly once and wake all getters
  public synchronized void complete(int v) {
    if (!done) {
      value = v;
      done = true;
    }
    notifyAll();
  }

  // block until the result is published
  public synchronized int get() {
    while (!done) {
      wait();
    }
    return value;
  }

  public synchronized boolean isDone() {
    return done;
  }
}
"#;

/// Parse the future-cell monitor.
pub fn future_cell() -> Component {
    parse_checked(FUTURE_CELL_SRC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Value, Vm};

    #[test]
    fn shape() {
        let c = future_cell();
        assert_eq!(c.methods.len(), 3);
        assert!(c.methods.iter().all(|m| m.synchronized));
    }

    #[test]
    fn get_blocks_until_complete_on_every_interleaving() {
        let c = future_cell();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "getter".into(),
                    calls: vec![CallSpec::new("get", vec![])],
                },
                ThreadSpec {
                    name: "setter".into(),
                    calls: vec![CallSpec::new("complete", vec![Value::Int(42)])],
                },
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "completed future must release getters");
    }

    #[test]
    fn double_complete_is_idempotent_and_still_wakes() {
        let c = future_cell();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "g".into(),
                    calls: vec![CallSpec::new("get", vec![])],
                },
                ThreadSpec {
                    name: "s1".into(),
                    calls: vec![CallSpec::new("complete", vec![Value::Int(1)])],
                },
                ThreadSpec {
                    name: "s2".into(),
                    calls: vec![CallSpec::new("complete", vec![Value::Int(2)])],
                },
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure());
    }
}
