//! A two-party exchanger, as a monitor.
//!
//! `java.util.concurrent.Exchanger` for integer items: the first arrival
//! deposits its item and waits; the second pairs with it, hands over its
//! own item and takes the first one; the first arrival wakes, takes the
//! partner's item and reopens the slot. A three-phase state machine
//! (`phase` 0 = empty, 1 = one party waiting, 2 = pair complete, first
//! party not yet woken) keeps a third thread from barging into a
//! half-finished exchange.
//!
//! With its two distinct wait sites inside one method, the exchanger is
//! the zoo's densest wait/notify surface: every mutation of either loop
//! (skip, if-for-while, negate) breaks the pairing protocol observably.

use jcc_model::ast::Component;

use super::parse_checked;

/// Java source for the exchanger.
pub const EXCHANGER_SRC: &str = r#"
class Exchanger {
  private int phase = 0;
  private int itemA = 0;
  private int itemB = 0;

  // swap v with the partner's item; blocks until a partner arrives
  public synchronized int exchange(int v) {
    while (phase == 2) {
      wait();
    }
    if (phase == 0) {
      itemA = v;
      phase = 1;
      notifyAll();
      while (phase == 1) {
        wait();
      }
      int got = itemB;
      phase = 0;
      notifyAll();
      return got;
    }
    itemB = v;
    phase = 2;
    notifyAll();
    return itemA;
  }
}
"#;

/// Parse the exchanger monitor.
pub fn exchanger() -> Component {
    parse_checked(EXCHANGER_SRC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_vm::{compile, explore, CallSpec, ExploreConfig, ThreadSpec, Value, Vm};

    fn party(name: &str, item: i64) -> ThreadSpec {
        ThreadSpec {
            name: name.into(),
            calls: vec![CallSpec::new("exchange", vec![Value::Int(item)])],
        }
    }

    #[test]
    fn shape() {
        let c = exchanger();
        assert_eq!(c.methods.len(), 1);
        let m = &c.methods[0];
        assert!(m.synchronized);
        let mut waits = 0;
        jcc_model::ast::visit_stmts(&m.body, &mut |s| {
            if matches!(s, jcc_model::ast::Stmt::Wait { .. }) {
                waits += 1;
            }
        });
        assert_eq!(waits, 2, "exchange carries two distinct wait sites");
    }

    #[test]
    fn a_pair_always_swaps() {
        let c = exchanger();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![party("a", 1), party("b", 2)],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "a pair must always complete the swap");
    }

    #[test]
    fn an_odd_party_waits_forever() {
        let c = exchanger();
        let vm = Vm::new(compile(&c).unwrap(), vec![party("a", 1)]);
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.deadlock_paths > 0, "an unpaired party must block");
        assert_eq!(r.completed_paths, 0);
    }

    #[test]
    fn two_pairs_complete_back_to_back() {
        let c = exchanger();
        let vm = Vm::new(
            compile(&c).unwrap(),
            vec![party("a", 1), party("b", 2), party("c", 3), party("d", 4)],
        );
        let r = explore(vm, &ExploreConfig::default(), None);
        assert!(r.completed_paths > 0);
        assert!(!r.found_failure(), "four parties must form two full pairs");
    }
}
