//! Fair and barging counting-semaphore variants, as monitors.
//!
//! `java.util.concurrent.Semaphore` exposes the same policy split: the
//! fair variant hands permits out in arrival order, the nonfair variant
//! lets a late `tryAcquire` barge past parked waiters.
//!
//! * [`fair_semaphore`] implements FIFO handoff with a ticket dispenser:
//!   every waiter re-checks both its turn (`ticket != nowServing`) and
//!   availability, so each release must broadcast — a single `notify`
//!   (FF-T5 mutant) can wake the wrong ticket holder and strand the right
//!   one, which is exactly the heterogeneous-waiter hazard the analyzer's
//!   notify checks describe.
//! * [`barging_semaphore`] adds `tryAcquire`, which never waits and can
//!   steal a permit between a release and the woken waiter's re-check —
//!   legal here, and the behavioural contrast with the fair variant.

use jcc_model::ast::Component;

use super::parse_checked;

/// Java source for the ticket-FIFO fair semaphore.
pub const FAIR_SEMAPHORE_SRC: &str = r#"
class FairSemaphore {
  private int permits = 1;
  private int nextTicket = 0;
  private int nowServing = 0;

  // take a ticket, then wait for both turn and permit
  public synchronized void acquire() {
    int ticket = nextTicket;
    nextTicket = nextTicket + 1;
    while (ticket != nowServing || permits == 0) {
      wait();
    }
    nowServing = nowServing + 1;
    permits = permits - 1;
    notifyAll();
  }

  public synchronized void release() {
    permits = permits + 1;
    notifyAll();
  }
}
"#;

/// Java source for the barging (nonfair) semaphore.
pub const BARGING_SEMAPHORE_SRC: &str = r#"
class BargingSemaphore {
  private int permits = 1;

  public synchronized void acquire() {
    while (permits == 0) {
      wait();
    }
    permits = permits - 1;
  }

  // barge: never waits, may steal ahead of parked acquirers
  public synchronized boolean tryAcquire() {
    if (permits > 0) {
      permits = permits - 1;
      return true;
    }
    return false;
  }

  public synchronized void release() {
    permits = permits + 1;
    notifyAll();
  }
}
"#;

/// Parse the fair (ticket-FIFO) semaphore monitor.
pub fn fair_semaphore() -> Component {
    parse_checked(FAIR_SEMAPHORE_SRC)
}

/// Parse the barging (nonfair) semaphore monitor.
pub fn barging_semaphore() -> Component {
    parse_checked(BARGING_SEMAPHORE_SRC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Vm};

    fn session(name: &str, calls: Vec<CallSpec>) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            calls,
        }
    }

    #[test]
    fn fair_semaphore_two_contenders_complete() {
        let c = fair_semaphore();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                session(
                    "a",
                    vec![
                        CallSpec::new("acquire", vec![]),
                        CallSpec::new("release", vec![]),
                    ],
                ),
                session(
                    "b",
                    vec![
                        CallSpec::new("acquire", vec![]),
                        CallSpec::new("release", vec![]),
                    ],
                ),
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "FIFO handoff must serve both tickets");
    }

    #[test]
    fn barging_semaphore_try_acquire_never_blocks() {
        let c = barging_semaphore();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                session(
                    "holder",
                    vec![
                        CallSpec::new("acquire", vec![]),
                        CallSpec::new("release", vec![]),
                    ],
                ),
                // tryAcquire itself never blocks: it either barges the
                // permit or reports false. (The paired release keeps the
                // schedule deadlock-free when the barge wins.)
                session(
                    "barger",
                    vec![
                        CallSpec::new("tryAcquire", vec![]),
                        CallSpec::new("release", vec![]),
                    ],
                ),
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure());
    }

    #[test]
    fn variants_share_the_release_contract() {
        for c in [fair_semaphore(), barging_semaphore()] {
            let release = c.method("release").unwrap();
            assert!(release.synchronized, "{}", c.name);
        }
    }
}
