//! Reference component sources in Java, shared across the workspace.
//!
//! `PRODUCER_CONSUMER_SRC` is the paper's Figure 2 — the asymmetric
//! producer–consumer monitor (the Java equivalent of Brinch Hansen's
//! Concurrent Pascal program): `send` stores a whole string, `receive`
//! drains it one character at a time.

use crate::ast::Component;
use crate::java::parse_component;

/// The paper's Figure 2: the asymmetric producer–consumer monitor.
pub const PRODUCER_CONSUMER_SRC: &str = r#"
class ProducerConsumer {
  private String contents = "";
  private int totalLength = 0;
  private int curPos = 0;

  // receive a single character
  public synchronized String receive() {
    // wait if no character is available
    while (curPos == 0) {
      wait();
    }
    // retrieve character
    String y = contents.charAt(totalLength - curPos);
    curPos = curPos - 1;
    // notify blocked send/receive calls
    notifyAll();
    return y;
  }

  // send a string of characters
  public synchronized void send(String x) {
    // wait if there are more characters
    while (curPos > 0) {
      wait();
    }
    // store string
    contents = x;
    totalLength = x.length();
    curPos = totalLength;
    // notify blocked send/receive calls
    notifyAll();
  }
}
"#;

/// A one-slot bounded buffer of integers (symmetric producer–consumer).
pub const BOUNDED_BUFFER_SRC: &str = r#"
class BoundedBuffer {
  private int value = 0;
  private boolean full = false;

  public synchronized void put(int v) {
    while (full) {
      wait();
    }
    value = v;
    full = true;
    notifyAll();
  }

  public synchronized int take() {
    while (!full) {
      wait();
    }
    full = false;
    notifyAll();
    return value;
  }
}
"#;

/// A counting semaphore.
pub const SEMAPHORE_SRC: &str = r#"
class Semaphore {
  private int permits = 0;

  public synchronized void init(int n) {
    permits = n;
    notifyAll();
  }

  public synchronized void acquire() {
    while (permits == 0) {
      wait();
    }
    permits = permits - 1;
  }

  public synchronized void release() {
    permits = permits + 1;
    notifyAll();
  }
}
"#;

/// Readers–writers with writer preference, as a monitor.
pub const READERS_WRITERS_SRC: &str = r#"
class ReadersWriters {
  private int readers = 0;
  private boolean writing = false;
  private int writersWaiting = 0;

  public synchronized void startRead() {
    while (writing || writersWaiting > 0) {
      wait();
    }
    readers = readers + 1;
  }

  public synchronized void endRead() {
    readers = readers - 1;
    if (readers == 0) {
      notifyAll();
    }
  }

  public synchronized void startWrite() {
    writersWaiting = writersWaiting + 1;
    while (writing || readers > 0) {
      wait();
    }
    writersWaiting = writersWaiting - 1;
    writing = true;
  }

  public synchronized void endWrite() {
    writing = false;
    notifyAll();
  }
}
"#;

/// A cyclic barrier for a fixed party count (set by `init`).
pub const BARRIER_SRC: &str = r#"
class Barrier {
  private int parties = 2;
  private int arrived = 0;
  private int generation = 0;

  public synchronized void init(int n) {
    parties = n;
  }

  public synchronized int await() {
    int gen = generation;
    arrived = arrived + 1;
    if (arrived == parties) {
      arrived = 0;
      generation = generation + 1;
      notifyAll();
      return gen;
    }
    while (generation == gen) {
      wait();
    }
    return gen;
  }
}
"#;

/// A two-lock component whose methods acquire the locks in opposite orders —
/// the canonical lock-order deadlock (FF-T2 / FF-T4 territory).
pub const LOCK_ORDER_DEADLOCK_SRC: &str = r#"
class LockOrder {
  private final Object a = new Object();
  private final Object b = new Object();
  private int n = 0;

  public void forward() {
    synchronized (a) {
      synchronized (b) {
        n = n + 1;
      }
    }
  }

  public void backward() {
    synchronized (b) {
      synchronized (a) {
        n = n - 1;
      }
    }
  }
}
"#;

/// Three dining philosophers, all picking up their left fork first — the
/// classic circular-wait FF-T2 specimen (cycle f0 → f1 → f2 → f0).
pub const DINING_DEADLOCK_SRC: &str = r#"
class DiningDeadlock {
  private final Object f0 = new Object();
  private final Object f1 = new Object();
  private final Object f2 = new Object();
  private int meals = 0;

  public void eat0() {
    synchronized (f0) {
      synchronized (f1) {
        meals = meals + 1;
      }
    }
  }

  public void eat1() {
    synchronized (f1) {
      synchronized (f2) {
        meals = meals + 1;
      }
    }
  }

  public void eat2() {
    synchronized (f2) {
      synchronized (f0) {
        meals = meals + 1;
      }
    }
  }
}
"#;

/// Three dining philosophers with a resource hierarchy: the last
/// philosopher picks up the lower-numbered fork first, breaking the cycle
/// (the textbook fix).
pub const DINING_ORDERED_SRC: &str = r#"
class DiningOrdered {
  private final Object f0 = new Object();
  private final Object f1 = new Object();
  private final Object f2 = new Object();
  private int meals = 0;

  public void eat0() {
    synchronized (f0) {
      synchronized (f1) {
        meals = meals + 1;
      }
    }
  }

  public void eat1() {
    synchronized (f1) {
      synchronized (f2) {
        meals = meals + 1;
      }
    }
  }

  public void eat2() {
    synchronized (f0) {
      synchronized (f2) {
        meals = meals + 1;
      }
    }
  }
}
"#;

/// An *unsynchronized* counter: two racy methods updating shared state with
/// no mutual exclusion — a pure FF-T1 (interference) specimen.
pub const RACY_COUNTER_SRC: &str = r#"
class RacyCounter {
  private int count = 0;

  public void increment() {
    int t = count;
    count = t + 1;
  }

  public synchronized int get() {
    return count;
  }
}
"#;

fn parse_named(src: &str) -> Component {
    let c = parse_component(src).expect("reference source parses");
    let errors = crate::validate::validate(&c);
    assert!(errors.is_empty(), "reference source invalid: {errors:?}");
    c
}

/// Parse Figure 2's producer–consumer monitor.
pub fn producer_consumer() -> Component {
    parse_named(PRODUCER_CONSUMER_SRC)
}

/// Parse the one-slot bounded buffer.
pub fn bounded_buffer() -> Component {
    parse_named(BOUNDED_BUFFER_SRC)
}

/// Parse the counting semaphore.
pub fn semaphore() -> Component {
    parse_named(SEMAPHORE_SRC)
}

/// Parse the readers–writers monitor.
pub fn readers_writers() -> Component {
    parse_named(READERS_WRITERS_SRC)
}

/// Parse the cyclic barrier.
pub fn barrier() -> Component {
    parse_named(BARRIER_SRC)
}

/// Parse the lock-order deadlock specimen.
pub fn lock_order_deadlock() -> Component {
    parse_named(LOCK_ORDER_DEADLOCK_SRC)
}

/// Parse the circular-wait dining philosophers.
pub fn dining_deadlock() -> Component {
    parse_named(DINING_DEADLOCK_SRC)
}

/// Parse the hierarchy-ordered dining philosophers.
pub fn dining_ordered() -> Component {
    parse_named(DINING_ORDERED_SRC)
}

/// Parse the racy counter specimen.
pub fn racy_counter() -> Component {
    parse_named(RACY_COUNTER_SRC)
}

/// All well-formed corpus components (name, component) — the "range of
/// concurrent components" the paper's future work calls for.
pub fn corpus() -> Vec<(&'static str, Component)> {
    vec![
        ("ProducerConsumer", producer_consumer()),
        ("BoundedBuffer", bounded_buffer()),
        ("Semaphore", semaphore()),
        ("ReadersWriters", readers_writers()),
        ("Barrier", barrier()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_examples_parse_and_validate() {
        let _ = producer_consumer();
        let _ = bounded_buffer();
        let _ = semaphore();
        let _ = readers_writers();
        let _ = barrier();
        let _ = lock_order_deadlock();
        let _ = racy_counter();
        let _ = dining_deadlock();
        let _ = dining_ordered();
    }

    #[test]
    fn dining_specimens_differ_only_in_fork_order() {
        let d = dining_deadlock();
        let o = dining_ordered();
        assert_eq!(d.locks, o.locks);
        assert_eq!(d.methods.len(), o.methods.len());
        assert_ne!(
            d.method("eat2").unwrap().body,
            o.method("eat2").unwrap().body
        );
    }

    #[test]
    fn corpus_has_five_components() {
        let corpus = corpus();
        assert_eq!(corpus.len(), 5);
        // All corpus components use wait/notify (the deadlock and race
        // specimens are deliberately excluded).
        for (name, c) in &corpus {
            let mut has_wait = false;
            for m in &c.methods {
                crate::ast::visit_stmts(&m.body, &mut |s| {
                    if matches!(s, crate::ast::Stmt::Wait { .. }) {
                        has_wait = true;
                    }
                });
            }
            assert!(has_wait, "{name} should use wait");
        }
    }

    #[test]
    fn figure_2_shape() {
        let c = producer_consumer();
        assert_eq!(c.methods.len(), 2);
        assert!(c.method("receive").unwrap().synchronized);
        assert!(c.method("send").unwrap().synchronized);
        assert_eq!(c.fields.len(), 3);
    }
}
