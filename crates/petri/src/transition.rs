//! The shared vocabulary of the classification: the five model transitions
//! T1–T5 of the paper's Figure 1, the two HAZOP deviations, and the ten
//! failure classes of Table 1.

use std::fmt;

/// The five transitions of the Figure-1 petri-net model of a thread
/// interacting with an object lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transition {
    /// T1 — requesting an object lock: the thread reaches a
    /// `synchronized` block (place A → place B).
    T1,
    /// T2 — locking an object: the JVM grants the lock to a requesting
    /// thread (B + E → C).
    T2,
    /// T3 — waiting on an object: the thread calls `wait`, releasing the
    /// lock (C → D + E).
    T3,
    /// T4 — releasing an object lock: the thread leaves the synchronized
    /// block (C → A + E).
    T4,
    /// T5 — thread notification: a waiting thread is woken by another
    /// thread's `notify`/`notifyAll` and re-requests the lock (D → B).
    T5,
}

impl Transition {
    /// All five transitions in model order.
    pub const ALL: [Transition; 5] = [
        Transition::T1,
        Transition::T2,
        Transition::T3,
        Transition::T4,
        Transition::T5,
    ];

    /// The paper's caption for this transition.
    pub fn description(self) -> &'static str {
        match self {
            Transition::T1 => "requesting an object lock",
            Transition::T2 => "locking an object",
            Transition::T3 => "waiting on an object",
            Transition::T4 => "releasing an object lock",
            Transition::T5 => "thread notification",
        }
    }

    /// Whether the firing of this transition is caused by another thread
    /// rather than the thread whose state it changes. In Figure 1 this is the
    /// dashed arc into T5: a waiting thread cannot wake itself. T2 is fired
    /// by the JVM but on behalf of the requesting thread.
    pub fn requires_other_thread(self) -> bool {
        matches!(self, Transition::T5)
    }

    /// Whether this transition is fired by the runtime (JVM) rather than by
    /// a statement in the component under test.
    pub fn fired_by_runtime(self) -> bool {
        matches!(self, Transition::T2)
    }

    /// Whether firing this transition makes the object lock available
    /// (produces a token on place E).
    pub fn releases_lock(self) -> bool {
        matches!(self, Transition::T3 | Transition::T4)
    }

    /// Whether firing this transition consumes the object lock
    /// (takes the token from place E).
    pub fn acquires_lock(self) -> bool {
        matches!(self, Transition::T2)
    }

    /// Dense index 0..5 (T1 → 0).
    pub fn index(self) -> usize {
        match self {
            Transition::T1 => 0,
            Transition::T2 => 1,
            Transition::T3 => 2,
            Transition::T4 => 3,
            Transition::T5 => 4,
        }
    }

    /// Inverse of [`Transition::index`]; panics if out of range.
    pub fn from_index(i: usize) -> Transition {
        Transition::ALL[i]
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.index() + 1)
    }
}

/// The two HAZOP-style deviations applied to each transition in Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Deviation {
    /// The transition should have fired but did not.
    FailureToFire,
    /// The transition fired when it should not have.
    ErroneousFiring,
}

impl Deviation {
    /// Both deviations, in the order Table 1 lists them.
    pub const ALL: [Deviation; 2] = [Deviation::FailureToFire, Deviation::ErroneousFiring];

    /// Short code used in the paper's section headings ("FF"/"EF").
    pub fn code(self) -> &'static str {
        match self {
            Deviation::FailureToFire => "FF",
            Deviation::ErroneousFiring => "EF",
        }
    }
}

impl fmt::Display for Deviation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Deviation::FailureToFire => "failure to fire",
            Deviation::ErroneousFiring => "erroneous firing",
        })
    }
}

/// One of the ten failure classes of Table 1: a deviation applied to a
/// transition, e.g. FF-T5 "thread is not notified".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FailureClass {
    /// The transition under analysis.
    pub transition: Transition,
    /// Which deviation of the transition occurred.
    pub deviation: Deviation,
}

impl FailureClass {
    /// Construct a failure class.
    pub fn new(deviation: Deviation, transition: Transition) -> Self {
        FailureClass {
            transition,
            deviation,
        }
    }

    /// The paper's short code, e.g. `"FF-T1"`.
    pub fn code(self) -> &'static str {
        const CODES: [&str; 10] = [
            "FF-T1", "EF-T1", "FF-T2", "EF-T2", "FF-T3", "EF-T3", "FF-T4", "EF-T4", "FF-T5",
            "EF-T5",
        ];
        CODES[self.index()]
    }

    /// Dense index 0..10 ordered (T1..T5) × (FF, EF), matching Table 1's
    /// row order.
    pub fn index(self) -> usize {
        self.transition.index() * 2
            + match self.deviation {
                Deviation::FailureToFire => 0,
                Deviation::ErroneousFiring => 1,
            }
    }

    /// The common name for this failure, where the literature has one.
    pub fn common_name(self) -> Option<&'static str> {
        use Deviation::*;
        use Transition::*;
        match (self.deviation, self.transition) {
            (FailureToFire, T1) => Some("interference (race condition / data race)"),
            (ErroneousFiring, T1) => Some("unnecessary synchronization"),
            (FailureToFire, T2) => Some("permanent suspension (starvation / deadlock)"),
            (FailureToFire, T3) => Some("missed wait"),
            (ErroneousFiring, T3) => Some("spurious wait"),
            (FailureToFire, T4) => Some("retained lock"),
            (ErroneousFiring, T4) => Some("premature lock release"),
            (FailureToFire, T5) => Some("lost notification"),
            (ErroneousFiring, T5) => Some("premature wake-up"),
            _ => None,
        }
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// All ten failure classes in Table 1 order:
/// FF-T1, EF-T1, FF-T2, EF-T2, …, FF-T5, EF-T5.
pub const ALL_FAILURE_CLASSES: [FailureClass; 10] = {
    let mut out = [FailureClass {
        transition: Transition::T1,
        deviation: Deviation::FailureToFire,
    }; 10];
    let transitions = Transition::ALL;
    let mut ti = 0;
    while ti < 5 {
        out[ti * 2] = FailureClass {
            transition: transitions[ti],
            deviation: Deviation::FailureToFire,
        };
        out[ti * 2 + 1] = FailureClass {
            transition: transitions[ti],
            deviation: Deviation::ErroneousFiring,
        };
        ti += 1;
    }
    out
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_display_and_index_roundtrip() {
        for (i, t) in Transition::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(Transition::from_index(i), *t);
            assert_eq!(t.to_string(), format!("T{}", i + 1));
        }
    }

    #[test]
    fn only_t5_requires_other_thread() {
        let who: Vec<_> = Transition::ALL
            .iter()
            .filter(|t| t.requires_other_thread())
            .collect();
        assert_eq!(who, vec![&Transition::T5]);
    }

    #[test]
    fn lock_effects_match_figure_1() {
        // T2 consumes the E token; T3 and T4 both produce one.
        assert!(Transition::T2.acquires_lock());
        assert!(Transition::T3.releases_lock());
        assert!(Transition::T4.releases_lock());
        assert!(!Transition::T1.acquires_lock());
        assert!(!Transition::T1.releases_lock());
        assert!(!Transition::T5.acquires_lock());
        assert!(!Transition::T5.releases_lock());
    }

    #[test]
    fn failure_class_codes() {
        let ff_t1 = FailureClass::new(Deviation::FailureToFire, Transition::T1);
        assert_eq!(ff_t1.code(), "FF-T1");
        let ef_t5 = FailureClass::new(Deviation::ErroneousFiring, Transition::T5);
        assert_eq!(ef_t5.code(), "EF-T5");
        assert_eq!(ef_t5.to_string(), "EF-T5");
        for fc in ALL_FAILURE_CLASSES {
            let spelled = format!("{}-{}", fc.deviation.code(), fc.transition);
            assert_eq!(fc.code(), spelled);
        }
    }

    #[test]
    fn all_failure_classes_are_distinct_and_ordered() {
        let all = ALL_FAILURE_CLASSES;
        assert_eq!(all.len(), 10);
        for (i, fc) in all.iter().enumerate() {
            assert_eq!(fc.index(), i, "index mismatch for {fc}");
        }
        let mut codes: Vec<_> = all.iter().map(|fc| fc.code()).collect();
        codes.dedup();
        assert_eq!(codes.len(), 10);
        assert_eq!(codes[0], "FF-T1");
        assert_eq!(codes[9], "EF-T5");
    }

    #[test]
    fn common_names_cover_the_interesting_rows() {
        // EF-T2 is the row the paper declines to analyze (JVM assumed
        // correct) — it has no common name; all FF rows do.
        use Deviation::*;
        for t in Transition::ALL {
            assert!(FailureClass::new(FailureToFire, t).common_name().is_some());
        }
        assert!(FailureClass::new(ErroneousFiring, Transition::T2)
            .common_name()
            .is_none());
    }
}
