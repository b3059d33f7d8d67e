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
    let calls: [(&str, u64, &[Value]); 2] = [("receive", 1, &[]), ("send", 2, &[s("x")])];
    let (records, got) = clocked(&producer_consumer(), &calls);
    // The receive completes when the send releases it, at 2.
    assert_eq!(records[0].completed_at, Some(2), "{records:?}");
    assert_eq!(records[1].completed_at, Some(2), "{records:?}");
    assert_eq!(got[0], Some(s("x")));
}

#[test]
fn producer_blocks_while_buffer_nonempty() {
    let calls: [(&str, u64, &[Value]); 4] = [
        ("send", 0, &[s("ab")]),
        ("send", 1, &[s("cd")]),
        ("receive", 2, &[]),
        ("receive", 3, &[]),
    ];
    let (records, got) = clocked(&producer_consumer(), &calls);
    // The second send completes once both receives drained the buffer, at 3.
    assert_eq!(records[1].completed_at, Some(3), "{records:?}");
    assert_eq!(got[2..], [Some(s("a")), Some(s("b"))]);
}

#[test]
fn drop_notify_fault_leaves_consumer_suspended() {
    let pc = mutant(&producer_consumer(), MutationKind::DropNotify, "send");
    let (records, _) = clocked(&pc, &[("receive", 1, &[]), ("send", 2, &[s("x")])]);
    assert!(records[0].suspended(), "consumer must never be woken");
    assert_eq!(records[1].completed_at, Some(2), "{records:?}");
}

#[test]
fn notify_not_all_loses_distinct_waiters() {
    // Two consumers wait; a one-character send with `notify` wakes at most
    // one of them, and only one character is there to take.
    let kind = MutationKind::NotifyInsteadOfNotifyAll;
    let pc = mutant(&producer_consumer(), kind, "send");
    let calls: [(&str, u64, &[Value]); 3] = [
        ("receive", 1, &[]),
        ("receive", 1, &[]),
        ("send", 3, &[s("x")]),
    ];
    let (records, _) = clocked(&pc, &calls);
    let mut completed: Vec<_> = records.iter().map(|r| r.completed_at).collect();
    completed.sort_unstable();
    assert_eq!(completed, [None, Some(3), Some(3)], "{records:?}");
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
