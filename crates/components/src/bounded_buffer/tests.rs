use std::sync::Arc;

use jcc_model::examples::bounded_buffer;
use jcc_vm::Value;

use crate::native::{call, clocked, native};

#[test]
fn put_take_roundtrip() {
    let b = native(&bounded_buffer());
    call(&b, "put", &[Value::Int(42)]);
    assert_eq!(b.field("full"), Some(Value::Bool(true)));
    assert_eq!(call(&b, "take", &[]), Some(Value::Int(42)));
    assert_eq!(b.field("full"), Some(Value::Bool(false)));
}

#[test]
fn take_blocks_until_put() {
    let (records, got) = clocked(
        &bounded_buffer(),
        &[("take", 1, &[]), ("put", 2, &[Value::Int(7)])],
    );
    assert_eq!(records[0].completed_at, Some(2), "{records:?}");
    assert_eq!(got[0], Some(Value::Int(7)));
}

#[test]
fn second_put_blocks_until_take() {
    let calls: [(&str, u64, &[Value]); 3] = [
        ("put", 0, &[Value::Int(1)]),
        ("put", 1, &[Value::Int(2)]),
        ("take", 2, &[]),
    ];
    let (records, got) = clocked(&bounded_buffer(), &calls);
    assert_eq!(records[1].completed_at, Some(2), "{records:?}");
    assert_eq!(got[2], Some(Value::Int(1)));
}

#[test]
fn many_items_flow_through_in_order() {
    let b = native(&bounded_buffer());
    let p = Arc::clone(&b);
    let producer =
        std::thread::spawn(move || (0..50).for_each(|i| drop(call(&p, "put", &[Value::Int(i)]))));
    let got: Vec<_> = (0..50).map(|_| call(&b, "take", &[])).collect();
    producer.join().unwrap();
    assert_eq!(
        got,
        (0..50).map(|i| Some(Value::Int(i))).collect::<Vec<_>>()
    );
}
