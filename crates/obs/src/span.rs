//! Timed, nested spans.
//!
//! A span brackets a phase of work on one thread. Opening is a relaxed
//! atomic load when the level is `off`; when recording, the guard notes the
//! start instant and a thread-local depth, and on drop folds the span's
//! wall-clock into the global `span.<name>` histogram (nanoseconds) and the
//! `span.<name>.count` counter. At `trace` level it also emits
//! `span_enter` / `span_exit` records.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::level::{enabled, trace_enabled};
use crate::live;
use crate::metrics::global;
use crate::trace::push_record;

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The stack of open span names on this thread, outermost first. Fed
    /// to the live span tree.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn current_depth() -> u32 {
    DEPTH.with(|d| d.get())
}

/// The guard returned by [`span_enter`]; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: &'static str,
    start: Instant,
    depth: u32,
}

/// Open a span named `name`. Prefer the [`crate::span!`] macro.
pub fn span_enter(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    STACK.with(|s| s.borrow_mut().push(name));
    if trace_enabled() {
        push_record("span_enter", depth, vec![("span".into(), name.into())]);
    }
    SpanGuard {
        inner: Some(SpanInner {
            name,
            start: Instant::now(),
            depth,
        }),
    }
}

impl SpanGuard {
    /// The span's elapsed time so far (zero when recording is off).
    pub fn elapsed_nanos(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|s| s.start.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let nanos = inner.start.elapsed().as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // A level flip between enter and drop can desync the stack;
            // only pop our own frame.
            if stack.last().copied() == Some(inner.name) {
                if live::span_tree_enabled() {
                    live::record_tree(&stack, nanos);
                }
                stack.pop();
            }
        });
        let reg = global();
        reg.histogram(&format!("span.{}", inner.name)).record(nanos);
        if trace_enabled() {
            push_record(
                "span_exit",
                inner.depth,
                vec![
                    ("span".into(), inner.name.into()),
                    ("nanos".into(), nanos.to_string()),
                ],
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::level::{set_level, ObsLevel};
    use std::sync::{Mutex, OnceLock};

    /// Tests in this binary share the global level; serialize the ones that
    /// flip it.
    pub(crate) fn level_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = level_lock().lock().unwrap();
        set_level(ObsLevel::Off);
        let before = global().histogram("span.off_test").snapshot().count;
        {
            let _s = span_enter("off_test");
        }
        assert_eq!(global().histogram("span.off_test").snapshot().count, before);
    }

    #[test]
    fn nested_spans_time_monotonically() {
        let _guard = level_lock().lock().unwrap();
        set_level(ObsLevel::Summary);
        {
            let _outer = span_enter("mono_outer");
            {
                let _inner = span_enter("mono_inner");
                assert_eq!(current_depth(), 2);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
        set_level(ObsLevel::Off);
        let outer = global().histogram("span.mono_outer").snapshot();
        let inner = global().histogram("span.mono_inner").snapshot();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.sum > 0, "inner span saw the sleep");
        assert!(
            outer.sum >= inner.sum,
            "outer wall-clock ({}) contains inner ({})",
            outer.sum,
            inner.sum
        );
    }

    #[test]
    fn trace_level_emits_enter_exit_pairs() {
        let _guard = level_lock().lock().unwrap();
        set_level(ObsLevel::Trace);
        crate::trace::drain_trace();
        {
            let _s = span_enter("traced");
            crate::trace_event("inside", vec![("k".into(), "v".into())]);
        }
        set_level(ObsLevel::Off);
        let (records, dropped) = crate::trace::drain_trace();
        assert_eq!(dropped, 0);
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["span_enter", "inside", "span_exit"]);
        assert_eq!(records[1].depth, 1, "event sees the enclosing span");
        // Timestamps never go backwards within one thread's stream.
        assert!(records.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }
}
