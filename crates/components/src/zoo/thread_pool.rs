//! A thread pool with a bounded work queue, as a monitor.
//!
//! `java.util.concurrent.ThreadPoolExecutor` reduced to its monitor core:
//! producers `submit` work into a bounded queue (blocking while it is
//! full), workers `runTask` (blocking while it is empty), and
//! `shutdownNow` wakes everybody so blocked submitters bail out with
//! `false` and drained workers exit their loop.
//!
//! Failure-class surface (Table 1): the wait loops in `submit`/`runTask`
//! are FF-T5/EF-T5 territory (lost or spurious wake-ups), the shared
//! `queued` counter is FF-T1 under a dropped `synchronized`, and the
//! shutdown broadcast is the classic missed-notification FF-T5 seed.

use jcc_model::ast::Component;

use super::parse_checked;

/// Java source for the thread pool.
pub const THREAD_POOL_SRC: &str = r#"
class ThreadPool {
  private int queued = 0;
  private int capacity = 2;
  private boolean shutdown = false;
  private int executed = 0;

  // enqueue one task; false once the pool is shut down
  public synchronized boolean submit() {
    while (queued == capacity && !shutdown) {
      wait();
    }
    if (shutdown) {
      return false;
    }
    queued = queued + 1;
    notifyAll();
    return true;
  }

  // take and execute one task; false once drained after shutdown
  public synchronized boolean runTask() {
    while (queued == 0 && !shutdown) {
      wait();
    }
    if (queued == 0) {
      return false;
    }
    queued = queued - 1;
    executed = executed + 1;
    notifyAll();
    return true;
  }

  // wake every blocked submitter and worker
  public synchronized void shutdownNow() {
    shutdown = true;
    notifyAll();
  }
}
"#;

/// Parse the thread-pool monitor.
pub fn thread_pool() -> Component {
    parse_checked(THREAD_POOL_SRC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Vm};

    #[test]
    fn shape() {
        let c = thread_pool();
        assert_eq!(c.methods.len(), 3);
        assert!(c.methods.iter().all(|m| m.synchronized));
        assert_eq!(c.fields.len(), 4);
    }

    #[test]
    fn submit_then_run_completes_on_every_interleaving() {
        let c = thread_pool();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                ThreadSpec {
                    name: "producer".into(),
                    calls: vec![CallSpec::new("submit", vec![])],
                },
                ThreadSpec {
                    name: "worker".into(),
                    calls: vec![CallSpec::new("runTask", vec![])],
                },
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "clean pool must not fail");
    }

    #[test]
    fn shutdown_unblocks_a_starved_worker() {
        // A lone worker with no producer deadlocks; adding shutdownNow
        // removes every stuck path.
        let c = thread_pool();
        let compiled = compile(&c).unwrap();
        let starved = Vm::new(
            compiled.clone(),
            vec![ThreadSpec {
                name: "worker".into(),
                calls: vec![CallSpec::new("runTask", vec![])],
            }],
        );
        let r = explore(starved, &ExploreConfig::default(), None);
        assert!(r.deadlock_paths > 0, "worker without work must hang");
        let rescued = Vm::new(
            compiled,
            vec![
                ThreadSpec {
                    name: "worker".into(),
                    calls: vec![CallSpec::new("runTask", vec![])],
                },
                ThreadSpec {
                    name: "boss".into(),
                    calls: vec![CallSpec::new("shutdownNow", vec![])],
                },
            ],
        );
        let r = explore(rescued, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "shutdown must wake the worker");
    }
}
