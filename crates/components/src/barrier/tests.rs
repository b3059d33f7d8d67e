use std::sync::Arc;

use jcc_model::examples::barrier;
use jcc_runtime::NativeComponent;
use jcc_vm::Value;

use crate::native::{call, native};

/// `parties` threads arriving `rounds` times at a barrier for `parties`:
/// the barrier, and each thread's generations in arrival order.
fn arrivals(parties: i64, rounds: i64) -> (Arc<NativeComponent>, Vec<Vec<Option<Value>>>) {
    let b = native(&barrier());
    call(&b, "init", &[Value::Int(parties)]);
    let handles: Vec<_> = (0..parties)
        .map(|_| {
            let b = Arc::clone(&b);
            std::thread::spawn(move || (0..rounds).map(|_| call(&b, "await", &[])).collect())
        })
        .collect();
    let gens = handles.into_iter().map(|h| h.join().unwrap()).collect();
    (b, gens)
}

fn generations(n: i64) -> Vec<Option<Value>> {
    (0..n).map(|g| Some(Value::Int(g))).collect()
}

#[test]
fn all_parties_released_together() {
    let (b, gens) = arrivals(4, 1);
    assert!(gens.iter().all(|g| *g == generations(1)));
    assert_eq!(b.field("generation"), Some(Value::Int(1)));
}

#[test]
fn barrier_is_cyclic() {
    let (b, gens) = arrivals(2, 2);
    assert!(gens.iter().all(|g| *g == generations(2)));
    assert_eq!(b.field("generation"), Some(Value::Int(2)));
}

#[test]
fn single_party_barrier_never_blocks() {
    let (b, gens) = arrivals(1, 2);
    assert_eq!(gens, [generations(2)]);
    assert_eq!(b.field("generation"), Some(Value::Int(2)));
}

#[test]
fn stress_many_generations() {
    let (_, gens) = arrivals(3, 25);
    assert!(gens.iter().all(|g| *g == generations(25)));
}
