//! A bounded blocking stack, as a monitor.
//!
//! The LIFO sibling of the seed corpus `BoundedBuffer`: `push` blocks
//! while the stack is at capacity, `pop` blocks while it is empty, and
//! both broadcast after changing `top` because pushers and poppers wait on
//! *opposite* predicates — the textbook heterogeneous-waiter monitor. A
//! `notify`-for-`notifyAll` mutation here can wake a same-kind waiter and
//! strand the opposite kind (FF-T5), which is precisely the scenario the
//! analyzer's `notify-single-heterogeneous` heuristic describes.

use jcc_model::ast::Component;

use super::parse_checked;

/// Java source for the bounded stack.
pub const BOUNDED_STACK_SRC: &str = r#"
class BoundedStack {
  private int top = 0;
  private int capacity = 3;
  private int last = 0;

  // push v; blocks while the stack is full
  public synchronized void push(int v) {
    while (top == capacity) {
      wait();
    }
    last = v;
    top = top + 1;
    notifyAll();
  }

  // pop; blocks while the stack is empty, returns the new depth
  public synchronized int pop() {
    while (top == 0) {
      wait();
    }
    top = top - 1;
    notifyAll();
    return top;
  }
}
"#;

/// Parse the bounded-stack monitor.
pub fn bounded_stack() -> Component {
    parse_checked(BOUNDED_STACK_SRC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Value, Vm};

    #[test]
    fn shape() {
        let c = bounded_stack();
        assert_eq!(c.methods.len(), 2);
        assert!(c.methods.iter().all(|m| m.synchronized));
    }

    #[test]
    fn balanced_pushes_and_pops_complete() {
        let c = bounded_stack();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "producer".into(),
                    calls: vec![
                        CallSpec::new("push", vec![Value::Int(1)]),
                        CallSpec::new("push", vec![Value::Int(2)]),
                    ],
                },
                ThreadSpec {
                    name: "consumer".into(),
                    calls: vec![
                        CallSpec::new("pop", vec![]),
                        CallSpec::new("pop", vec![]),
                    ],
                },
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "balanced traffic must drain cleanly");
    }

    #[test]
    fn pop_on_empty_blocks_until_a_push() {
        let c = bounded_stack();
        let compiled = compile(&c).unwrap();
        let starved = Vm::new(
            compiled.clone(),
            vec![ThreadSpec {
                name: "consumer".into(),
                calls: vec![CallSpec::new("pop", vec![])],
            }],
        );
        let r = explore(starved, &ExploreConfig::default(), None);
        assert!(r.deadlock_paths > 0, "empty pop must block forever");
        let fed = Vm::new(
            compiled,
            vec![
                ThreadSpec {
                    name: "consumer".into(),
                    calls: vec![CallSpec::new("pop", vec![])],
                },
                ThreadSpec {
                    name: "producer".into(),
                    calls: vec![CallSpec::new("push", vec![Value::Int(7)])],
                },
            ],
        );
        let r = explore(fed, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure());
    }
}
