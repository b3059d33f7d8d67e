//! A cyclic barrier with generations and breakage, as a monitor.
//!
//! `java.util.concurrent.CyclicBarrier` for a fixed party count of two:
//! `await` stamps the current generation, and the last arrival rolls the
//! generation and broadcasts; earlier arrivals wait until either the
//! generation advances or the barrier is broken. `reset` breaks the
//! current generation (waking its waiters) and `repair` re-arms the
//! barrier. The generation counter is what distinguishes this from the
//! seed corpus `Barrier`: waking into the *same* generation re-checks and
//! re-waits, so an `if`-for-`while` mutant (EF-T5) is observably wrong.

use jcc_model::ast::Component;

use super::parse_checked;

/// Java source for the cyclic barrier.
pub const CYCLIC_BARRIER_SRC: &str = r#"
class CyclicBarrier {
  private int parties = 2;
  private int arrived = 0;
  private int generation = 0;
  private boolean broken = false;

  // block until all parties arrive; returns the generation entered
  public synchronized int await() {
    int gen = generation;
    arrived = arrived + 1;
    if (arrived == parties) {
      arrived = 0;
      generation = generation + 1;
      notifyAll();
      return gen;
    }
    while (generation == gen && !broken) {
      wait();
    }
    return gen;
  }

  // break the current generation, waking and failing its waiters
  public synchronized void reset() {
    broken = true;
    arrived = 0;
    generation = generation + 1;
    notifyAll();
  }

  // re-arm a broken barrier
  public synchronized void repair() {
    broken = false;
    notifyAll();
  }
}
"#;

/// Parse the cyclic-barrier monitor.
pub fn cyclic_barrier() -> Component {
    parse_checked(CYCLIC_BARRIER_SRC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Vm};

    #[test]
    fn shape() {
        let c = cyclic_barrier();
        assert_eq!(c.methods.len(), 3);
        assert!(c.methods.iter().all(|m| m.synchronized));
        assert_eq!(c.fields.len(), 4);
    }

    #[test]
    fn two_parties_meet_on_every_interleaving() {
        let c = cyclic_barrier();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "a".into(),
                    calls: vec![CallSpec::new("await", vec![])],
                },
                ThreadSpec {
                    name: "b".into(),
                    calls: vec![CallSpec::new("await", vec![])],
                },
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "a full generation must release");
    }

    #[test]
    fn reset_releases_a_lone_waiter() {
        let c = cyclic_barrier();
        let compiled = compile(&c).unwrap();
        let stuck = Vm::new(
            compiled.clone(),
            vec![ThreadSpec {
                name: "a".into(),
                calls: vec![CallSpec::new("await", vec![])],
            }],
        );
        let r = explore(stuck, &ExploreConfig::default(), None);
        assert!(r.deadlock_paths > 0, "a lone party must wait forever");
        let released = Vm::new(
            compiled,
            vec![
                ThreadSpec {
                    name: "a".into(),
                    calls: vec![CallSpec::new("await", vec![])],
                },
                ThreadSpec {
                    name: "breaker".into(),
                    calls: vec![CallSpec::new("reset", vec![])],
                },
            ],
        );
        let r = explore(released, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "reset must wake the waiter");
    }
}
