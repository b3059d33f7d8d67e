use jcc_model::examples::producer_consumer;
use jcc_model::mutate::MutationKind;
use jcc_vm::Value;

use crate::native::{call, clocked, mutant, native};

fn s(x: &str) -> Value {
    Value::Str(x.into())
}

#[test]
fn single_threaded_roundtrip() {
    let pc = native(&producer_consumer());
    call(&pc, "send", &[s("abc")]);
    assert_eq!(pc.field("curPos"), Some(Value::Int(3)));
    let got: Vec<_> = (0..3).map(|_| call(&pc, "receive", &[])).collect();
    assert_eq!(got, [Some(s("a")), Some(s("b")), Some(s("c"))]);
    assert_eq!(pc.field("curPos"), Some(Value::Int(0)));
}

#[test]
fn consumer_blocks_until_producer_arrives() {
    let pc = native(&producer_consumer());
    let (records, got) = clocked(&pc, &[("receive", 1, &[]), ("send", 2, &[s("x")])]);
    // The receive completes only after the send released it: >= 2.
    assert!(records[0].completed_at.unwrap() >= 2, "{records:?}");
    assert!(records[1].completed_by(3));
    assert_eq!(got[0], Some(s("x")));
}

#[test]
fn producer_blocks_while_buffer_nonempty() {
    let pc = native(&producer_consumer());
    call(&pc, "send", &[s("ab")]);
    let calls: [(&str, u64, &[Value]); 3] = [
        ("send", 1, &[s("cd")]),
        ("receive", 2, &[]),
        ("receive", 3, &[]),
    ];
    let (records, got) = clocked(&pc, &calls);
    // The second send can only complete after both receives drained the buffer.
    assert!(records[0].completed_at.unwrap() >= 3, "{records:?}");
    assert_eq!(got[1..], [Some(s("a")), Some(s("b"))]);
}

#[test]
fn drop_notify_fault_leaves_consumer_suspended() {
    let pc = native(&mutant(
        &producer_consumer(),
        MutationKind::DropNotify,
        "send",
    ));
    let (records, _) = clocked(&pc, &[("receive", 1, &[]), ("send", 2, &[s("x")])]);
    assert!(records[0].suspended(), "consumer must never be woken");
    assert!(!records[1].suspended());
}

#[test]
fn notify_not_all_loses_distinct_waiters() {
    // Two consumers wait; a one-character send with `notify` wakes at most
    // one of them, and only one character is there to take.
    let kind = MutationKind::NotifyInsteadOfNotifyAll;
    let pc = native(&mutant(&producer_consumer(), kind, "send"));
    let calls: [(&str, u64, &[Value]); 3] = [
        ("receive", 1, &[]),
        ("receive", 1, &[]),
        ("send", 3, &[s("x")]),
    ];
    let (records, _) = clocked(&pc, &calls);
    let suspended = records.iter().filter(|r| r.suspended()).count();
    assert_eq!(suspended, 1, "{records:?}");
}

#[test]
fn pending_reports_remaining() {
    let pc = native(&producer_consumer());
    call(&pc, "send", &[s("hello")]);
    call(&pc, "receive", &[]);
    assert_eq!(pc.field("curPos"), Some(Value::Int(4)));
}

#[test]
fn unicode_contents_handled() {
    let pc = native(&producer_consumer());
    call(&pc, "send", &[s("éü")]);
    assert_eq!(call(&pc, "receive", &[]), Some(s("é")));
    assert_eq!(call(&pc, "receive", &[]), Some(s("ü")));
}
