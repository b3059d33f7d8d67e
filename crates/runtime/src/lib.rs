//! # jcc-runtime — Java-style monitors and Monitor IR on native threads
//!
//! Rust's `Mutex`/`Condvar` differ from the Java monitor model in three ways
//! that matter to the paper: Java object locks are *reentrant*, every object
//! has exactly *one* wait set, and `wait`/`notify`/`notifyAll` are methods
//! of the locked object itself. [`JavaMonitor`] restores those semantics on
//! top of `std::sync` (owner/hold-count bookkeeping, a single logical wait
//! set, monitor-method API) and emits a [`jcc_petri::event::Event`] for
//! every T1–T5 firing of the paper's Figure-1 model, into a shared
//! [`EventLog`] that the detectors (`jcc-detect`) and coverage tracking
//! (`jcc-cofg`) consume — the same event type the VM's traces use.
//!
//! [`NativeComponent`] (module [`exec`]) runs a compiled Monitor IR
//! component on real threads with one `JavaMonitor` per lock, so every
//! component the VM explores also runs natively, from the same definition.
//! Its log also carries *data-access* events (for the Eraser-style lockset
//! race detector) and *method/statement markers* (for CoFG arc coverage).
//!
//! # Example
//!
//! ```
//! use jcc_runtime::{EventLog, JavaMonitor};
//! use std::sync::Arc;
//!
//! let log = EventLog::new();
//! let slot = Arc::new(JavaMonitor::new("slot", &log, None::<i32>));
//!
//! let consumer = {
//!     let slot = Arc::clone(&slot);
//!     std::thread::spawn(move || {
//!         let guard = slot.enter();
//!         while guard.with(|v| v.is_none()) {
//!             guard.wait(); // the Figure-2 idiom
//!         }
//!         guard.with(|v| v.take().unwrap())
//!     })
//! };
//! {
//!     let guard = slot.enter();
//!     guard.with(|v| *v = Some(7));
//!     guard.notify_all();
//! }
//! assert_eq!(consumer.join().unwrap(), 7);
//! // Every T1–T5 firing was logged for the detectors:
//! assert!(log.count_transition(jcc_petri::Transition::T3) <= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod exec;
pub mod live;
pub mod monitor;
pub mod ring;

pub use events::{current_thread_id, EventLog, MonitorId};
pub use exec::NativeComponent;
pub use live::LiveTimeline;
pub use monitor::{JavaMonitor, MonitorGuard};
pub use ring::SpscRing;

/// Lock `m`, recovering the guard when a thread panicked while holding
/// it: a monitor outlives a panic inside its critical section, as a Java
/// monitor outlives an exception, so the crate never poisons.
pub(crate) fn lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
