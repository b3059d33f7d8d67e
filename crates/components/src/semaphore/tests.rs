use std::sync::atomic::{AtomicI64, Ordering::SeqCst};
use std::sync::Arc;

use jcc_model::examples::semaphore;
use jcc_runtime::NativeComponent;
use jcc_vm::Value;

use crate::native::{call, clocked, native};

/// A semaphore with `permits` permits.
fn with_permits(permits: i64) -> Arc<NativeComponent> {
    let s = native(&semaphore());
    call(&s, "init", &[Value::Int(permits)]);
    s
}

#[test]
fn acquire_release_counts() {
    let s = with_permits(2);
    call(&s, "acquire", &[]);
    call(&s, "acquire", &[]);
    assert_eq!(s.field("permits"), Some(Value::Int(0)));
    call(&s, "release", &[]);
    assert_eq!(s.field("permits"), Some(Value::Int(1)));
}

#[test]
fn acquire_blocks_at_zero() {
    let calls: [(&str, u64, &[Value]); 3] = [
        ("init", 0, &[Value::Int(0)]),
        ("acquire", 1, &[]),
        ("release", 3, &[]),
    ];
    let (records, _) = clocked(&semaphore(), &calls);
    assert_eq!(records[1].completed_at, Some(3), "{records:?}");
}

#[test]
fn semaphore_bounds_concurrent_holders() {
    let s = with_permits(3);
    let (inside, peak) = (Arc::new(AtomicI64::new(0)), Arc::new(AtomicI64::new(0)));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let (s, inside, peak) = (Arc::clone(&s), Arc::clone(&inside), Arc::clone(&peak));
            std::thread::spawn(move || {
                for _ in 0..20 {
                    call(&s, "acquire", &[]);
                    peak.fetch_max(inside.fetch_add(1, SeqCst) + 1, SeqCst);
                    inside.fetch_sub(1, SeqCst);
                    call(&s, "release", &[]);
                }
            })
        })
        .collect();
    handles.into_iter().for_each(|h| h.join().unwrap());
    assert!(peak.load(SeqCst) <= 3);
    assert_eq!(s.field("permits"), Some(Value::Int(3)));
}
