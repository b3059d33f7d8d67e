//! Diagnostics: what the analyzer reports and how it is rendered.
//!
//! Every finding is a [`Diagnostic`]: a check identifier, the Table-1
//! [`FailureClass`] it predicts, a [`Severity`], and a location (method plus
//! optional statement path). A whole-component run is an
//! [`AnalysisReport`], which renders as human-readable text or as the
//! stable machine-readable `jcc-analyze/v1` JSON document.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use jcc_model::ast::StmtPath;
use jcc_petri::FailureClass;
use jcc_obs::json::Json;

/// The schema identifier written into every JSON report.
pub const SCHEMA: &str = "jcc-analyze/v1";

/// How confident the analyzer is that a diagnostic is a genuine defect.
///
/// The contract the CI gate relies on: **`High` diagnostics never fire on
/// correct code** — every `High` check is structural (an unconditional
/// `wait`, a lock-order cycle, a monitor operation outside its monitor,
/// dead code hiding a notification). `Medium` checks are heuristics that
/// may flag conservative-but-correct code; `Low` is advisory style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: worth a look, often fine.
    Low,
    /// Heuristic: likely defect, false positives possible.
    Medium,
    /// Structural: should never fire on correct code.
    High,
}

impl Severity {
    /// Stable lower-case name used in JSON and rendering.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Low => "low",
            Severity::Medium => "medium",
            Severity::High => "high",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The individual checks the analyzer runs. Each has a stable kebab-case
/// identifier (part of the `jcc-analyze/v1` schema) and a default severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckId {
    /// `wait`/`notify`/`notifyAll` reached without holding the target
    /// monitor — Java's `IllegalMonitorStateException`, the runtime face of
    /// FF-T1 (the guarding synchronization never fired).
    MonitorNotHeld,
    /// A `wait` that suspends while holding a *second* monitor: the classic
    /// nested-monitor lockout — the outer lock is never released, so the
    /// notifier can never get in (FF-T2).
    NestedMonitorWait,
    /// A shared field accessed with no lock held although the component
    /// protects the same field with a lock elsewhere (FF-T1 interference).
    UnlockedFieldAccess,
    /// Two locks acquired in inconsistent orders across the component — a
    /// static deadlock candidate (FF-T2).
    LockOrderCycle,
    /// `synchronized` on a monitor already held: reentrancy makes it a
    /// no-op, i.e. unnecessary synchronization (EF-T1).
    RedundantSync,
    /// A synchronized method that neither waits, notifies nor touches
    /// shared state (EF-T1 candidate; migrated from
    /// `jcc_model::validate::lints`).
    PossiblyUnnecessarySync,
    /// A `wait` whose predicate is never re-checked: the enclosing
    /// statement is not a `while` loop, so a premature wake-up re-enters
    /// the critical section unchecked (EF-T5; migrated from
    /// `jcc_model::validate::lints`).
    WaitNotInLoop,
    /// A `wait` under no conditional at all — the thread suspends no matter
    /// what the component's state is (EF-T3, erroneous call to wait).
    UnconditionalWait,
    /// A `wait` on a lock that nothing in the component ever notifies
    /// (FF-T5; migrated from `jcc_model::validate::lints`, now resolving
    /// locks through the declared-lock table).
    NoNotifierForWait,
    /// A method assigns fields some waiter's guard reads, but never
    /// notifies that waiter's monitor — a lost/missed notification
    /// candidate (FF-T5).
    MissedNotification,
    /// A single `notify` on a monitor whose waiters guard on *different*
    /// predicates: the wake-up can be consumed by a waiter that cannot use
    /// it (FF-T5).
    NotifySingleHeterogeneous,
    /// A single `notify` where `notifyAll` would be safer (uniform waiters;
    /// advisory only).
    NotifyInsteadOfNotifyAllStyle,
    /// A guard loop without a `wait` in its body: the thread spins on a
    /// predicate instead of suspending (FF-T3, missed wait).
    GuardLoopWithoutWait,
    /// A loop that can never terminate while the monitor is held: no other
    /// thread can make progress or change the guard (FF-T4, retained lock).
    LoopHoldsLockForever,
    /// Statements after an unconditional `return` in the same block; when
    /// the dead code contains a notification, the lock is released before
    /// the waiters are woken (EF-T4 / plain dead code otherwise).
    UnreachableAfterReturn,
}

impl CheckId {
    /// Every check, in report order.
    pub const ALL: [CheckId; 15] = [
        CheckId::MonitorNotHeld,
        CheckId::NestedMonitorWait,
        CheckId::UnlockedFieldAccess,
        CheckId::LockOrderCycle,
        CheckId::RedundantSync,
        CheckId::PossiblyUnnecessarySync,
        CheckId::WaitNotInLoop,
        CheckId::UnconditionalWait,
        CheckId::NoNotifierForWait,
        CheckId::MissedNotification,
        CheckId::NotifySingleHeterogeneous,
        CheckId::NotifyInsteadOfNotifyAllStyle,
        CheckId::GuardLoopWithoutWait,
        CheckId::LoopHoldsLockForever,
        CheckId::UnreachableAfterReturn,
    ];

    /// The stable kebab-case identifier (part of the JSON schema).
    pub fn code(self) -> &'static str {
        match self {
            CheckId::MonitorNotHeld => "monitor-not-held",
            CheckId::NestedMonitorWait => "nested-monitor-wait",
            CheckId::UnlockedFieldAccess => "unlocked-field-access",
            CheckId::LockOrderCycle => "lock-order-cycle",
            CheckId::RedundantSync => "redundant-sync",
            CheckId::PossiblyUnnecessarySync => "possibly-unnecessary-sync",
            CheckId::WaitNotInLoop => "wait-not-in-loop",
            CheckId::UnconditionalWait => "unconditional-wait",
            CheckId::NoNotifierForWait => "no-notifier-for-wait",
            CheckId::MissedNotification => "missed-notification",
            CheckId::NotifySingleHeterogeneous => "notify-single-heterogeneous",
            CheckId::NotifyInsteadOfNotifyAllStyle => "notify-instead-of-notify-all",
            CheckId::GuardLoopWithoutWait => "guard-loop-without-wait",
            CheckId::LoopHoldsLockForever => "loop-holds-lock-forever",
            CheckId::UnreachableAfterReturn => "unreachable-after-return",
        }
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A machine-usable source location for a diagnostic, attached by source
/// frontends (the Java frontend maps MIR method/statement ids back through
/// its `LowerMap`). Components analyzed without one (the built-ins and
/// their mutants) leave it `None`, which keeps every pre-existing rendering
/// and JSON document byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SrcLoc {
    /// Source file the diagnostic points into.
    pub file: String,
    /// 1-based line of the span start.
    pub line: u32,
    /// 1-based column of the span start.
    pub col: u32,
    /// Byte range `[lo, hi)` in the file.
    pub span: (u32, u32),
}

/// One static finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub check: CheckId,
    /// The Table-1 failure class this diagnostic predicts.
    pub class: FailureClass,
    /// Confidence tier (see [`Severity`]).
    pub severity: Severity,
    /// The method the diagnostic is anchored in (`<component>` for
    /// component-level findings such as lock-order cycles).
    pub method: String,
    /// Statement path of the offending statement, where one exists.
    pub path: Option<StmtPath>,
    /// Source location, when a source frontend can supply one. The
    /// analyzer itself always emits `None`; frontends attach locations via
    /// [`AnalysisReport::attach_sources`].
    pub src: Option<SrcLoc>,
    /// Human-readable explanation with the concrete evidence.
    pub message: String,
}

impl Diagnostic {
    /// Location string: `method@[1.0]` or just `method`.
    pub fn location(&self) -> String {
        match &self.path {
            Some(p) => {
                let steps: Vec<String> = p.0.iter().map(|s| s.to_string()).collect();
                format!("{}@[{}]", self.method, steps.join("."))
            }
            None => self.method.clone(),
        }
    }

    /// The source-aware sort prefix: `(file, span, check)`. Diagnostics
    /// without a source location (no `LowerMap`) all share the minimal key,
    /// so their relative order is still decided by the declaration-order
    /// key — the pre-existing byte-identical ordering.
    fn src_key(&self) -> (&str, (u32, u32), CheckId) {
        match &self.src {
            Some(s) => (&s.file, s.span, self.check),
            None => ("", (0, 0), CheckId::ALL[0]),
        }
    }

    /// The declaration-order sort/dedup key after the method's rank:
    /// deterministic, independent of discovery order.
    fn sort_key(&self) -> (&str, &[usize], CheckId, &str) {
        (
            &self.method,
            self.path.as_ref().map_or(&[][..], |p| &p.0),
            self.check,
            &self.message,
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} at {}: {}",
            self.severity,
            self.class.code(),
            self.check,
            self.location(),
            self.message
        )
    }
}

/// The result of analyzing one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Component name.
    pub component: String,
    /// All diagnostics, in deterministic order (method declaration order,
    /// then statement path, then check).
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Build a report: sorts into the deterministic order and drops exact
    /// duplicates. `method_order` is the component's method declaration
    /// order, so rendering follows the source.
    pub fn new(
        component: &str,
        diagnostics: Vec<Diagnostic>,
        method_order: &[String],
    ) -> AnalysisReport {
        AnalysisReport::sorted(
            component,
            diagnostics,
            method_order.iter().map(String::as_str),
        )
    }

    /// [`AnalysisReport::new`] over borrowed method names. Each
    /// diagnostic's method rank (the first declaration of its name, or
    /// after every method when it names none) is looked up once, and the
    /// sort compares borrowed keys.
    pub(crate) fn sorted<'m>(
        component: &str,
        diagnostics: Vec<Diagnostic>,
        method_order: impl IntoIterator<Item = &'m str>,
    ) -> AnalysisReport {
        let mut ranks: HashMap<&str, usize> = HashMap::new();
        let mut methods = 0;
        for (i, m) in method_order.into_iter().enumerate() {
            ranks.entry(m).or_insert(i);
            methods = i + 1;
        }
        let mut ranked: Vec<(usize, Diagnostic)> = diagnostics
            .into_iter()
            .map(|d| (ranks.get(d.method.as_str()).copied().unwrap_or(methods), d))
            .collect();
        ranked.sort_by(|(ra, a), (rb, b)| {
            (a.src_key(), ra, a.sort_key()).cmp(&(b.src_key(), rb, b.sort_key()))
        });
        ranked.dedup_by(|(_, a), (_, b)| a == b);
        AnalysisReport {
            component: component.to_string(),
            diagnostics: ranked.into_iter().map(|(_, d)| d).collect(),
        }
    }

    /// Attach source locations resolved by a frontend, then re-sort into
    /// the deterministic `(file, span, check)` rendering order. Stable:
    /// diagnostics `resolve` leaves without a location keep their existing
    /// declaration-order position relative to each other.
    pub fn attach_sources(&mut self, resolve: impl Fn(&Diagnostic) -> Option<SrcLoc>) {
        for d in &mut self.diagnostics {
            d.src = resolve(d);
        }
        // Stable sort on the source key alone: diagnostics left without a
        // location (all ties) keep their declaration-order positions.
        self.diagnostics
            .sort_by(|a, b| a.src_key().cmp(&b.src_key()));
    }

    /// Diagnostics at or above `min` severity.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity >= min)
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The distinct failure-class codes predicted at or above `min`
    /// severity.
    pub fn classes(&self, min: Severity) -> BTreeSet<&'static str> {
        self.at_least(min).map(|d| d.class.code()).collect()
    }

    /// Stable identities of every diagnostic at or above `min` severity:
    /// `(check code, class code, method)`. Statement paths are deliberately
    /// excluded so a mutation that shifts statements does not change the
    /// identity of an unrelated pre-existing diagnostic.
    pub fn identities(&self, min: Severity) -> BTreeSet<(String, String, String)> {
        self.at_least(min)
            .map(|d| (d.check.code().to_string(), d.class.code().to_string(), d.method.clone()))
            .collect()
    }

    /// Render the report as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Static analysis — {}: {} diagnostic(s) ({} high, {} medium, {} low)",
            self.component,
            self.diagnostics.len(),
            self.count(Severity::High),
            self.count(Severity::Medium),
            self.count(Severity::Low),
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "  (clean)");
        }
        out
    }

    /// The `jcc-analyze/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let diags: Vec<Json> = self
            .diagnostics
            .iter()
            .map(|d| {
                let mut pairs = vec![
                    ("check".to_string(), Json::Str(d.check.code().to_string())),
                    ("class".to_string(), Json::Str(d.class.code().to_string())),
                    (
                        "severity".to_string(),
                        Json::Str(d.severity.name().to_string()),
                    ),
                    ("method".to_string(), Json::Str(d.method.clone())),
                    ("message".to_string(), Json::Str(d.message.clone())),
                ];
                if let Some(p) = &d.path {
                    pairs.push((
                        "path".to_string(),
                        Json::Arr(p.0.iter().map(|&s| Json::Num(s as f64)).collect()),
                    ));
                }
                // Frontend-attached source locations extend the record;
                // without a `LowerMap` there are none, keeping the
                // documents unchanged.
                if let Some(s) = &d.src {
                    pairs.push(("file".to_string(), Json::Str(s.file.clone())));
                    pairs.push(("line".to_string(), Json::Num(s.line as f64)));
                    pairs.push(("col".to_string(), Json::Num(s.col as f64)));
                    pairs.push((
                        "span".to_string(),
                        Json::Arr(vec![
                            Json::Num(s.span.0 as f64),
                            Json::Num(s.span.1 as f64),
                        ]),
                    ));
                }
                Json::obj(pairs)
            })
            .collect();
        Json::obj([
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("component".to_string(), Json::Str(self.component.clone())),
            (
                "counts".to_string(),
                Json::obj([
                    ("high".to_string(), Json::Num(self.count(Severity::High) as f64)),
                    (
                        "medium".to_string(),
                        Json::Num(self.count(Severity::Medium) as f64),
                    ),
                    ("low".to_string(), Json::Num(self.count(Severity::Low) as f64)),
                ]),
            ),
            ("diagnostics".to_string(), Json::Arr(diags)),
        ])
    }

    /// The JSON document as a pretty-printed string (byte-identical across
    /// runs for the same component — asserted by the determinism tests).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_petri::{Deviation, Transition};

    fn diag(method: &str, path: Option<Vec<usize>>, check: CheckId) -> Diagnostic {
        Diagnostic {
            check,
            class: FailureClass::new(Deviation::FailureToFire, Transition::T5),
            severity: Severity::High,
            src: None,
            method: method.to_string(),
            path: path.map(StmtPath),
            message: "m".into(),
        }
    }

    #[test]
    fn severities_order() {
        assert!(Severity::High > Severity::Medium);
        assert!(Severity::Medium > Severity::Low);
    }

    #[test]
    fn check_codes_are_unique() {
        let codes: BTreeSet<_> = CheckId::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), CheckId::ALL.len());
    }

    #[test]
    fn report_orders_by_method_declaration_then_path() {
        let order = vec!["b".to_string(), "a".to_string()];
        let r = AnalysisReport::new(
            "C",
            vec![
                diag("a", Some(vec![0]), CheckId::WaitNotInLoop),
                diag("b", Some(vec![2]), CheckId::WaitNotInLoop),
                diag("b", Some(vec![0]), CheckId::WaitNotInLoop),
                diag("b", Some(vec![0]), CheckId::WaitNotInLoop), // duplicate
            ],
            &order,
        );
        assert_eq!(r.diagnostics.len(), 3);
        assert_eq!(r.diagnostics[0].method, "b");
        assert_eq!(r.diagnostics[0].path, Some(StmtPath(vec![0])));
        assert_eq!(r.diagnostics[2].method, "a");
    }

    #[test]
    fn json_has_schema_and_counts() {
        let r = AnalysisReport::new("C", vec![diag("m", None, CheckId::NoNotifierForWait)], &[]);
        let j = r.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            j.get("counts").unwrap().get("high").unwrap().as_u64(),
            Some(1)
        );
        let d = &j.get("diagnostics").unwrap().as_arr().unwrap()[0];
        assert_eq!(d.get("check").unwrap().as_str(), Some("no-notifier-for-wait"));
        assert_eq!(d.get("class").unwrap().as_str(), Some("FF-T5"));
    }

    #[test]
    fn attach_sources_resorts_by_file_span_check() {
        let order = vec!["a".to_string(), "b".to_string()];
        let mut r = AnalysisReport::new(
            "C",
            vec![
                diag("a", Some(vec![0]), CheckId::WaitNotInLoop),
                diag("b", Some(vec![1]), CheckId::UnconditionalWait),
                diag("b", Some(vec![2]), CheckId::NoNotifierForWait),
            ],
            &order,
        );
        // Give method `b`'s diagnostics earlier spans than `a`'s: the
        // source order must win over declaration order after attachment.
        r.attach_sources(|d| {
            let lo = match (d.method.as_str(), d.check) {
                ("b", CheckId::UnconditionalWait) => 10,
                ("b", CheckId::NoNotifierForWait) => 10, // same span: check breaks the tie
                _ => 90,
            };
            Some(SrcLoc {
                file: "Foo.java".into(),
                line: 1 + lo / 10,
                col: 1,
                span: (lo, lo + 4),
            })
        });
        let got: Vec<(&str, CheckId)> = r
            .diagnostics
            .iter()
            .map(|d| (d.method.as_str(), d.check))
            .collect();
        assert_eq!(
            got,
            vec![
                ("b", CheckId::UnconditionalWait),
                ("b", CheckId::NoNotifierForWait),
                ("a", CheckId::WaitNotInLoop),
            ]
        );
        let j = r.to_json();
        let d0 = &j.get("diagnostics").unwrap().as_arr().unwrap()[0];
        assert_eq!(d0.get("file").unwrap().as_str(), Some("Foo.java"));
        assert_eq!(d0.get("line").unwrap().as_u64(), Some(2));
        assert_eq!(d0.get("col").unwrap().as_u64(), Some(1));
        let span = d0.get("span").unwrap().as_arr().unwrap();
        assert_eq!(span[0].as_u64(), Some(10));
        assert_eq!(span[1].as_u64(), Some(14));
    }

    #[test]
    fn sourceless_reports_render_and_serialize_exactly_as_before() {
        let order = vec!["b".to_string(), "a".to_string()];
        let diags = vec![
            diag("a", Some(vec![0]), CheckId::WaitNotInLoop),
            diag("b", Some(vec![2]), CheckId::WaitNotInLoop),
        ];
        let r = AnalysisReport::new("C", diags.clone(), &order);
        // All-None src keys tie, so declaration order still decides; and
        // the JSON document carries no file/line/col/span keys.
        assert_eq!(r.diagnostics[0].method, "b");
        assert!(!r.to_json_string().contains("\"file\""));
        let mut attached = r.clone();
        attached.attach_sources(|_| None);
        assert_eq!(attached.render(), r.render());
        assert_eq!(attached.to_json_string(), r.to_json_string());
    }

    #[test]
    fn display_mentions_location_and_class() {
        let d = diag("m", Some(vec![1, 0]), CheckId::MissedNotification);
        let s = d.to_string();
        assert!(s.contains("m@[1.0]"), "{s}");
        assert!(s.contains("FF-T5"), "{s}");
        assert!(s.contains("missed-notification"), "{s}");
    }
}
