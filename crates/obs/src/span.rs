//! Timed, nested spans.
//!
//! A span brackets a phase of work on one thread. Opening is a relaxed
//! atomic load when the level is `off`; when recording, the guard notes the
//! start instant and pushes the span onto a thread-local stack, and on drop
//! folds the span's wall-clock into the global `span.<name>` histogram
//! (nanoseconds) and, when the live span tree is on, into that stack's
//! node of the tree.

use std::cell::RefCell;
use std::time::Instant;

use crate::level::enabled;
use crate::live;
use crate::metrics::global;

thread_local! {
    /// The stack of open span names on this thread, outermost first. Fed
    /// to the live span tree.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
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
}

/// Open a span named `name`. Prefer the [`crate::span!`] macro.
pub fn span_enter(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        inner: Some(SpanInner {
            name,
            start: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let nanos = inner.start.elapsed().as_nanos() as u64;
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

    fn current_depth() -> usize {
        STACK.with(|s| s.borrow().len())
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
}
