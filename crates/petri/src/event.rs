//! The one event vocabulary every layer speaks.
//!
//! The paper's Figure 1 makes every observable monitor operation a firing
//! of T1–T5. An [`Event`] is exactly that firing (or a notification), plus
//! the two things the detectors and coverage need besides: shared-field
//! accesses and CoFG markers. The VM's trace and the native runtime's
//! capture rings both emit this type, and the detectors, timelines and
//! coverage folds all consume it, so what is observed is what is analysed.

use crate::Transition;

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A Figure-1 transition fired on `lock`.
    Transition {
        /// Which transition.
        t: Transition,
        /// The lock: a VM lock index (0 = `this`) or a runtime monitor id.
        lock: u64,
    },
    /// The thread issued a notification on `lock`. The woken threads each
    /// fire their own T5.
    Notify {
        /// The lock notified.
        lock: u64,
        /// `notifyAll`?
        all: bool,
        /// Waiters present at the instant of notification.
        waiters: usize,
    },
    /// A shared variable was read.
    Read {
        /// Variable name.
        var: String,
    },
    /// A shared variable was written.
    Write {
        /// Variable name.
        var: String,
    },
    /// A component method call began.
    MethodStart {
        /// Method name.
        method: String,
    },
    /// A component method call returned.
    MethodEnd {
        /// Method name.
        method: String,
    },
    /// A concurrency statement was executed (a CoFG coverage site). For
    /// explicit `synchronized` blocks, `exit` distinguishes leaving from
    /// entering.
    Site {
        /// Method name.
        method: String,
        /// Statement path in `jcc-model` convention.
        path: Vec<usize>,
        /// True for the exit side of an explicit `synchronized` block.
        exit: bool,
    },
    /// The thread faulted.
    Fault {
        /// Description.
        message: String,
    },
    /// Capture degradation: `dropped` events *from this thread* were lost
    /// before this point (a full capture ring). Online detectors treat the
    /// thread as degraded from here on.
    CaptureGap {
        /// How many events from this thread were lost.
        dropped: u64,
    },
}

/// One event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The clock: the VM's global step counter when the event fired, or
    /// the runtime log's dense sequence number.
    pub seq: u64,
    /// The logical thread: a VM thread index or a runtime per-log id.
    pub thread: u64,
    /// What happened.
    pub kind: EventKind,
}

impl EventKind {
    /// The lock a T2 makes the thread hold, if this is one.
    pub fn acquired(&self) -> Option<u64> {
        match *self {
            EventKind::Transition {
                t: Transition::T2,
                lock,
            } => Some(lock),
            _ => None,
        }
    }

    /// The lock a T3 (wait) or T4 makes the thread release, if this is one.
    pub fn released(&self) -> Option<u64> {
        match *self {
            EventKind::Transition {
                t: Transition::T3 | Transition::T4,
                lock,
            } => Some(lock),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_and_release_follow_figure_1() {
        let fire = |t| EventKind::Transition { t, lock: 3 };
        assert_eq!(fire(Transition::T2).acquired(), Some(3));
        assert_eq!(fire(Transition::T3).released(), Some(3));
        assert_eq!(fire(Transition::T4).released(), Some(3));
        for t in [Transition::T1, Transition::T5] {
            assert_eq!(fire(t).acquired(), None);
            assert_eq!(fire(t).released(), None);
        }
    }
}
