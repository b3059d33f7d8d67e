//! A read–write lock with upgrade/downgrade, as a monitor.
//!
//! `java.util.concurrent.locks.ReentrantReadWriteLock` reduced to its
//! monitor core, plus the upgrade path the Java class deliberately omits:
//! `upgrade` turns a held read lock into the write lock by announcing
//! intent (`upgrading`, which blocks new readers and writers) and waiting
//! for the *other* readers to drain; `downgrade` converts the write lock
//! back without releasing the monitor's exclusion.
//!
//! Two upgraders deadlock each other by design (each waits for the other
//! to drop its read lock) — the directed scenarios therefore use at most
//! one upgrader, and that two-upgrader schedule is left as a true FF-T2
//! behaviour rather than a bug in the component.

use jcc_model::ast::Component;

use super::parse_checked;

/// Java source for the read–write lock.
pub const READ_WRITE_LOCK_SRC: &str = r#"
class ReadWriteLock {
  private int readers = 0;
  private boolean writing = false;
  private int upgrading = 0;

  public synchronized void lockRead() {
    while (writing || upgrading > 0) {
      wait();
    }
    readers = readers + 1;
  }

  public synchronized void unlockRead() {
    readers = readers - 1;
    notifyAll();
  }

  public synchronized void lockWrite() {
    while (writing || readers > 0 || upgrading > 0) {
      wait();
    }
    writing = true;
  }

  public synchronized void unlockWrite() {
    writing = false;
    notifyAll();
  }

  // turn a held read lock into the write lock
  public synchronized void upgrade() {
    upgrading = upgrading + 1;
    while (writing || readers > 1) {
      wait();
    }
    upgrading = upgrading - 1;
    readers = readers - 1;
    writing = true;
  }

  // turn the held write lock back into a read lock
  public synchronized void downgrade() {
    writing = false;
    readers = readers + 1;
    notifyAll();
  }
}
"#;

/// Parse the read–write-lock monitor.
pub fn read_write_lock() -> Component {
    parse_checked(READ_WRITE_LOCK_SRC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Vm};

    fn session(name: &str, methods: &[&str]) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            calls: methods.iter().map(|m| CallSpec::new(*m, vec![])).collect(),
        }
    }

    #[test]
    fn shape() {
        let c = read_write_lock();
        assert_eq!(c.methods.len(), 6);
        assert!(c.methods.iter().all(|m| m.synchronized));
    }

    #[test]
    fn reader_and_writer_sessions_complete() {
        let c = read_write_lock();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                session("r", &["lockRead", "unlockRead"]),
                session("w", &["lockWrite", "unlockWrite"]),
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure());
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_completes() {
        let c = read_write_lock();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                session("u", &["lockRead", "upgrade", "unlockWrite"]),
                session("r", &["lockRead", "unlockRead"]),
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "single upgrader must drain and win");
    }

    #[test]
    fn downgrade_readmits_readers_without_a_gap() {
        let c = read_write_lock();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                session("w", &["lockWrite", "downgrade", "unlockRead"]),
                session("r", &["lockRead", "unlockRead"]),
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure());
    }

    #[test]
    fn two_upgraders_deadlock_by_design() {
        let c = read_write_lock();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![
                session("u1", &["lockRead", "upgrade", "unlockWrite"]),
                session("u2", &["lockRead", "upgrade", "unlockWrite"]),
            ],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(
            r.deadlock_paths > 0,
            "both readers upgrading must be able to cross-block"
        );
    }
}
