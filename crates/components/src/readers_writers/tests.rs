use std::sync::atomic::{AtomicI64, Ordering::SeqCst};
use std::sync::Arc;

use jcc_model::examples::readers_writers;
use jcc_runtime::NativeComponent;
use jcc_vm::Value;

use crate::native::{call, clocked, native};

/// (active readers, writing?, writers waiting).
fn snapshot(rw: &NativeComponent) -> [Option<Value>; 3] {
    ["readers", "writing", "writersWaiting"].map(|f| rw.field(f))
}

fn state(readers: i64, writing: bool, waiting: i64) -> [Option<Value>; 3] {
    [
        Value::Int(readers),
        Value::Bool(writing),
        Value::Int(waiting),
    ]
    .map(Some)
}

#[test]
fn readers_share_writers_exclude() {
    let rw = native(&readers_writers());
    call(&rw, "startRead", &[]);
    call(&rw, "startRead", &[]);
    assert_eq!(snapshot(&rw), state(2, false, 0));
    call(&rw, "endRead", &[]);
    call(&rw, "endRead", &[]);
    call(&rw, "startWrite", &[]);
    assert_eq!(snapshot(&rw), state(0, true, 0));
}

#[test]
fn writer_waits_for_readers() {
    let calls: [(&str, u64, &[Value]); 3] = [
        ("startRead", 0, &[]),
        ("startWrite", 1, &[]),
        ("endRead", 3, &[]),
    ];
    let (records, _) = clocked(&readers_writers(), &calls);
    assert_eq!(records[1].completed_at, Some(3), "{records:?}");
}

#[test]
fn waiting_writer_blocks_new_readers() {
    let calls: [(&str, u64, &[Value]); 4] = [
        ("startRead", 0, &[]),
        ("startWrite", 1, &[]),
        ("startRead", 2, &[]),
        ("endRead", 4, &[]),
    ];
    let (records, _) = clocked(&readers_writers(), &calls);
    // The second reader must not slip in before the waiting writer: the
    // writer gets in at 4, and holds off the reader from then on.
    assert_eq!(records[1].completed_at, Some(4), "{records:?}");
    assert!(records[2].suspended(), "{records:?}");
}

#[test]
fn no_reader_writer_overlap_under_stress() {
    let rw = native(&readers_writers());
    let active = Arc::new([AtomicI64::new(0), AtomicI64::new(0)]); // readers, writers
    let violations = Arc::new(AtomicI64::new(0));
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let (rw, active, viol) = (
                Arc::clone(&rw),
                Arc::clone(&active),
                Arc::clone(&violations),
            );
            std::thread::spawn(move || {
                let (me, start, end) =
                    [(0, "startRead", "endRead"), (1, "startWrite", "endWrite")][i % 2];
                for _ in 0..30 {
                    call(&rw, start, &[]);
                    let mine = active[me].fetch_add(1, SeqCst) + 1;
                    if active[1 - me].load(SeqCst) > 0 || (me == 1 && mine > 1) {
                        viol.fetch_add(1, SeqCst);
                    }
                    active[me].fetch_sub(1, SeqCst);
                    call(&rw, end, &[]);
                }
            })
        })
        .collect();
    handles.into_iter().for_each(|h| h.join().unwrap());
    assert_eq!(violations.load(SeqCst), 0);
    assert_eq!(snapshot(&rw), state(0, false, 0));
}
