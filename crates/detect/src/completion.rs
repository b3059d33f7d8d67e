//! The completion-time oracle — "check completion time of call", the
//! detection technique Table 1 lists for T3, T4 and T5 failures.
//!
//! The tester states, per scheduled call, when it should complete on the
//! abstract clock (`jcc_runtime::exec::run_clocked` records the tick);
//! deviations are classified:
//!
//! * completed **too early** — the thread did not wait when it should have
//!   (FF-T3), or re-entered the critical section prematurely (EF-T5),
//! * completed **too late** — erroneous suspension (EF-T3),
//! * **never completed** — permanently suspended: never notified (FF-T5),
//!   blocked on a retained lock (FF-T2, caused by another thread's FF-T4),
//!   or erroneously waiting with nobody to wake it (EF-T3),
//! * completed although it should have stayed suspended — FF-T3 again (the
//!   call barged through its guard).

use jcc_petri::{Deviation, FailureClass, Transition};

/// The outcome of one call of a clocked schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRecord {
    /// The schedule label.
    pub label: String,
    /// The tick at which the call was released.
    pub released_at: u64,
    /// The tick at which the call returned or faulted, or `None` if it was
    /// still blocked when the schedule ended (permanently suspended).
    pub completed_at: Option<u64>,
}

impl CallRecord {
    /// True if the call never completed.
    pub fn suspended(&self) -> bool {
        self.completed_at.is_none()
    }
}

/// When a call is expected to complete (in abstract clock units).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionExpectation {
    /// Exactly at clock time `t`.
    At(u64),
    /// At any time up to and including `t`.
    By(u64),
    /// Between the two times inclusive.
    Between(u64, u64),
    /// Never (the call must stay suspended for the whole schedule).
    Never,
}

/// An expectation for one labelled call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// The schedule label the expectation applies to.
    pub label: String,
    /// The expected completion.
    pub expect: CompletionExpectation,
}

impl Expectation {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, expect: CompletionExpectation) -> Self {
        Expectation {
            label: label.into(),
            expect,
        }
    }
}

/// How a call deviated from its expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionDeviation {
    /// Completed before the earliest allowed time.
    TooEarly {
        /// Observed completion time.
        at: u64,
        /// Earliest allowed.
        earliest: u64,
    },
    /// Completed after the latest allowed time.
    TooLate {
        /// Observed completion time.
        at: u64,
        /// Latest allowed.
        latest: u64,
    },
    /// Never completed although completion was expected.
    NeverCompleted,
    /// Completed although it was expected to stay suspended.
    UnexpectedCompletion {
        /// Observed completion time.
        at: u64,
    },
    /// The schedule has no record for this expectation's label.
    MissingRecord,
}

/// A violated expectation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The call's label.
    pub label: String,
    /// What was expected.
    pub expected: CompletionExpectation,
    /// How it deviated.
    pub deviation: CompletionDeviation,
}

impl Violation {
    /// The Table-1 failure classes this deviation points at, most likely
    /// first. The completion-time technique narrows the failure down to a
    /// small candidate set; pinning it exactly needs the arc context
    /// (which CoFG arc the call was exercising).
    pub fn candidate_classes(&self) -> Vec<FailureClass> {
        use Deviation::*;
        use Transition::*;
        match &self.deviation {
            CompletionDeviation::TooEarly { .. } | CompletionDeviation::UnexpectedCompletion { .. } => vec![
                FailureClass::new(FailureToFire, T3),
                FailureClass::new(ErroneousFiring, T5),
                FailureClass::new(ErroneousFiring, T4),
            ],
            CompletionDeviation::TooLate { .. } => vec![
                FailureClass::new(ErroneousFiring, T3),
                FailureClass::new(FailureToFire, T5),
            ],
            CompletionDeviation::NeverCompleted => vec![
                FailureClass::new(FailureToFire, T5),
                FailureClass::new(FailureToFire, T2),
                FailureClass::new(ErroneousFiring, T3),
                FailureClass::new(FailureToFire, T4),
            ],
            CompletionDeviation::MissingRecord => vec![],
        }
    }
}

/// Check a set of call records against expectations. Records without an
/// expectation are ignored; expectations without a record produce a
/// [`CompletionDeviation::MissingRecord`] violation.
pub fn check_completions(
    records: &[CallRecord],
    expectations: &[Expectation],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for exp in expectations {
        let Some(record) = records.iter().find(|r| r.label == exp.label) else {
            out.push(Violation {
                label: exp.label.clone(),
                expected: exp.expect,
                deviation: CompletionDeviation::MissingRecord,
            });
            continue;
        };
        let (earliest, latest) = match exp.expect {
            CompletionExpectation::At(t) => (t, Some(t)),
            CompletionExpectation::By(t) => (0, Some(t)),
            CompletionExpectation::Between(a, b) => (a, Some(b)),
            CompletionExpectation::Never => (u64::MAX, None),
        };
        match record.completed_at {
            None => {
                if !matches!(exp.expect, CompletionExpectation::Never) {
                    out.push(Violation {
                        label: exp.label.clone(),
                        expected: exp.expect,
                        deviation: CompletionDeviation::NeverCompleted,
                    });
                }
            }
            Some(at) => {
                if matches!(exp.expect, CompletionExpectation::Never) {
                    out.push(Violation {
                        label: exp.label.clone(),
                        expected: exp.expect,
                        deviation: CompletionDeviation::UnexpectedCompletion { at },
                    });
                } else if at < earliest {
                    out.push(Violation {
                        label: exp.label.clone(),
                        expected: exp.expect,
                        deviation: CompletionDeviation::TooEarly { at, earliest },
                    });
                } else if let Some(l) = latest {
                    if at > l {
                        out.push(Violation {
                            label: exp.label.clone(),
                            expected: exp.expect,
                            deviation: CompletionDeviation::TooLate { at, latest: l },
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, completed_at: Option<u64>) -> CallRecord {
        CallRecord {
            label: label.to_string(),
            released_at: 1,
            completed_at,
        }
    }

    #[test]
    fn exact_time_match_passes() {
        let v = check_completions(
            &[record("a", Some(3))],
            &[Expectation::new("a", CompletionExpectation::At(3))],
        );
        assert!(v.is_empty());
    }

    #[test]
    fn too_early_detected() {
        let v = check_completions(
            &[record("a", Some(1))],
            &[Expectation::new("a", CompletionExpectation::At(3))],
        );
        assert_eq!(v.len(), 1);
        assert_eq!(
            v[0].deviation,
            CompletionDeviation::TooEarly { at: 1, earliest: 3 }
        );
        let classes = v[0].candidate_classes();
        assert_eq!(classes[0].code(), "FF-T3");
    }

    #[test]
    fn too_late_detected() {
        let v = check_completions(
            &[record("a", Some(9))],
            &[Expectation::new("a", CompletionExpectation::Between(2, 4))],
        );
        assert_eq!(
            v[0].deviation,
            CompletionDeviation::TooLate { at: 9, latest: 4 }
        );
        assert_eq!(v[0].candidate_classes()[0].code(), "EF-T3");
    }

    #[test]
    fn never_completed_detected() {
        let v = check_completions(
            &[record("a", None)],
            &[Expectation::new("a", CompletionExpectation::By(5))],
        );
        assert_eq!(v[0].deviation, CompletionDeviation::NeverCompleted);
        let codes: Vec<&str> = v[0]
            .candidate_classes()
            .iter()
            .map(|c| c.code())
            .collect();
        assert!(codes.contains(&"FF-T5"));
        assert!(codes.contains(&"FF-T2"));
    }

    #[test]
    fn expected_suspension_ok_and_violated() {
        let ok = check_completions(
            &[record("a", None)],
            &[Expectation::new("a", CompletionExpectation::Never)],
        );
        assert!(ok.is_empty());
        let bad = check_completions(
            &[record("a", Some(2))],
            &[Expectation::new("a", CompletionExpectation::Never)],
        );
        assert_eq!(
            bad[0].deviation,
            CompletionDeviation::UnexpectedCompletion { at: 2 }
        );
    }

    #[test]
    fn by_and_between_bounds() {
        let v = check_completions(
            &[record("a", Some(5)), record("b", Some(2))],
            &[
                Expectation::new("a", CompletionExpectation::By(5)),
                Expectation::new("b", CompletionExpectation::Between(2, 3)),
            ],
        );
        assert!(v.is_empty());
    }

    #[test]
    fn missing_record_reported() {
        let v = check_completions(
            &[],
            &[Expectation::new("ghost", CompletionExpectation::At(1))],
        );
        assert_eq!(v[0].deviation, CompletionDeviation::MissingRecord);
        assert!(v[0].candidate_classes().is_empty());
    }

    #[test]
    fn record_helpers() {
        assert!(!record("x", Some(3)).suspended());
        assert!(record("y", None).suspended());
    }

    #[test]
    fn unexpected_records_ignored() {
        let v = check_completions(
            &[record("extra", Some(1))],
            &[],
        );
        assert!(v.is_empty());
    }
}
