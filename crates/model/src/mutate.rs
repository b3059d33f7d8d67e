//! Mutation operators that seed exactly the concurrency failures classified
//! in the paper's Table 1.
//!
//! Each [`MutationKind`] maps to the [`FailureClass`] it is designed to
//! provoke; the mutation study (experiment E5) measures which test-selection
//! strategy detects which class. Mutants are generated from a valid
//! component and remain *parseable and type-correct* — only their
//! concurrency behaviour changes.

use std::fmt;

use jcc_petri::{Deviation, FailureClass, Transition};

use crate::ast::{
    remove_stmt_at, stmt_at, stmt_at_mut, walk_paths, Component, Expr, LockRef, Stmt, StmtPath,
    Type,
};

/// The ten mutation operators, one (or two) per Table-1 failure class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// Remove `synchronized` from a method — threads interfere on shared
    /// state. Seeds **FF-T1** (interference / data race).
    DropSynchronized,
    /// Wrap an already-synchronized method body in a redundant
    /// `synchronized (this)` block. Seeds **EF-T1** (unnecessary
    /// synchronization — an inefficiency, not a failure; reentrancy makes
    /// it behaviourally neutral).
    AddRedundantSync,
    /// Replace a `wait` with `skip` — the thread barges through its guard.
    /// Seeds **FF-T3** (missed wait).
    SkipWait,
    /// Turn a wait-loop `while (cond) { … wait … }` into `if` — the thread
    /// re-enters the critical section without re-checking its predicate
    /// after waking. Exposes **EF-T5** (premature re-entry).
    WaitIfInsteadOfWhile,
    /// Insert an unconditional `wait` at the start of a synchronized method.
    /// Seeds **EF-T3** (erroneous call to wait).
    SpuriousWait,
    /// Replace a `notifyAll` with `notify` — with several distinguishable
    /// waiters, some are never woken. Seeds **FF-T5** (lost notification).
    NotifyInsteadOfNotifyAll,
    /// Remove a `notify`/`notifyAll` entirely. Seeds **FF-T5**.
    DropNotify,
    /// Negate the condition of a wait-loop — the thread waits exactly when
    /// it should not and vice versa. Seeds **FF-T3** and **EF-T3** at once.
    NegateWaitCondition,
    /// Insert an early `return` immediately before a top-level
    /// `notify`/`notifyAll` — the lock is released prematurely and the
    /// notification never happens. Seeds **EF-T4** (premature release).
    EarlyReturn,
    /// Insert `while (true) { Thread.yield(); }` at the start of a synchronized
    /// method — the thread never releases the lock. Seeds **FF-T4**
    /// (retained lock; permanently blocks all other threads → their FF-T2).
    HoldLockForever,
}

impl MutationKind {
    /// All operators.
    pub const ALL: [MutationKind; 10] = [
        MutationKind::DropSynchronized,
        MutationKind::AddRedundantSync,
        MutationKind::SkipWait,
        MutationKind::WaitIfInsteadOfWhile,
        MutationKind::SpuriousWait,
        MutationKind::NotifyInsteadOfNotifyAll,
        MutationKind::DropNotify,
        MutationKind::NegateWaitCondition,
        MutationKind::EarlyReturn,
        MutationKind::HoldLockForever,
    ];

    /// The primary Table-1 failure class this operator seeds.
    pub fn seeded_class(self) -> FailureClass {
        use Deviation::*;
        use Transition::*;
        let (d, t) = match self {
            MutationKind::DropSynchronized => (FailureToFire, T1),
            MutationKind::AddRedundantSync => (ErroneousFiring, T1),
            MutationKind::SkipWait => (FailureToFire, T3),
            MutationKind::WaitIfInsteadOfWhile => (ErroneousFiring, T5),
            MutationKind::SpuriousWait => (ErroneousFiring, T3),
            MutationKind::NotifyInsteadOfNotifyAll => (FailureToFire, T5),
            MutationKind::DropNotify => (FailureToFire, T5),
            MutationKind::NegateWaitCondition => (FailureToFire, T3),
            MutationKind::EarlyReturn => (ErroneousFiring, T4),
            MutationKind::HoldLockForever => (FailureToFire, T4),
        };
        FailureClass::new(d, t)
    }

    /// Whether the paper classifies the seeded deviation as a genuine
    /// failure (EF-T1 is "not necessarily a serious problem, … simply
    /// introduces inefficiency").
    pub fn is_behavioural_failure(self) -> bool {
        !matches!(self, MutationKind::AddRedundantSync)
    }

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::DropSynchronized => "drop_synchronized",
            MutationKind::AddRedundantSync => "add_redundant_sync",
            MutationKind::SkipWait => "skip_wait",
            MutationKind::WaitIfInsteadOfWhile => "wait_if_instead_of_while",
            MutationKind::SpuriousWait => "spurious_wait",
            MutationKind::NotifyInsteadOfNotifyAll => "notify_instead_of_notify_all",
            MutationKind::DropNotify => "drop_notify",
            MutationKind::NegateWaitCondition => "negate_wait_condition",
            MutationKind::EarlyReturn => "early_return",
            MutationKind::HoldLockForever => "hold_lock_forever",
        }
    }
}

impl fmt::Display for MutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete mutation site: operator, method and (where applicable) the
/// statement path the operator rewrites.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mutation {
    /// The operator.
    pub kind: MutationKind,
    /// Name of the mutated method.
    pub method: String,
    /// Statement path within the method body, for statement-level operators.
    pub path: Option<StmtPath>,
}

impl Mutation {
    /// A stable human-readable label, e.g. `receive::skip_wait@[0.0]`.
    pub fn label(&self) -> String {
        match &self.path {
            Some(p) => {
                let steps: Vec<String> = p.0.iter().map(|s| s.to_string()).collect();
                format!("{}::{}@[{}]", self.method, self.kind, steps.join("."))
            }
            None => format!("{}::{}", self.method, self.kind),
        }
    }
}

/// Errors applying a mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// The named method does not exist.
    NoSuchMethod(String),
    /// The path did not resolve to the statement shape the operator needs.
    BadSite(String),
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::NoSuchMethod(m) => write!(f, "no such method `{m}`"),
            MutateError::BadSite(d) => write!(f, "bad mutation site: {d}"),
        }
    }
}

impl std::error::Error for MutateError {}

/// Enumerate every applicable mutation of `component`, in a deterministic
/// order (methods in declaration order, statement paths in pre-order).
pub fn enumerate_mutations(component: &Component) -> Vec<Mutation> {
    let mut out = Vec::new();
    for method in &component.methods {
        // Method-level operators.
        if method.synchronized {
            out.push(Mutation {
                kind: MutationKind::DropSynchronized,
                method: method.name.clone(),
                path: None,
            });
            out.push(Mutation {
                kind: MutationKind::AddRedundantSync,
                method: method.name.clone(),
                path: None,
            });
            out.push(Mutation {
                kind: MutationKind::SpuriousWait,
                method: method.name.clone(),
                path: None,
            });
            out.push(Mutation {
                kind: MutationKind::HoldLockForever,
                method: method.name.clone(),
                path: None,
            });
            // EarlyReturn needs a top-level notify to return before.
            if method
                .body
                .iter()
                .any(|s| matches!(s, Stmt::Notify { .. } | Stmt::NotifyAll { .. }))
            {
                out.push(Mutation {
                    kind: MutationKind::EarlyReturn,
                    method: method.name.clone(),
                    path: None,
                });
            }
        }
        // Statement-level operators.
        walk_paths(&method.body, &mut |stmt, path| match stmt {
            Stmt::Wait { .. } => out.push(Mutation {
                kind: MutationKind::SkipWait,
                method: method.name.clone(),
                path: Some(StmtPath(path.to_vec())),
            }),
            Stmt::While { body, .. } => {
                let has_wait = body.iter().any(|s| matches!(s, Stmt::Wait { .. }));
                if has_wait {
                    out.push(Mutation {
                        kind: MutationKind::WaitIfInsteadOfWhile,
                        method: method.name.clone(),
                        path: Some(StmtPath(path.to_vec())),
                    });
                    out.push(Mutation {
                        kind: MutationKind::NegateWaitCondition,
                        method: method.name.clone(),
                        path: Some(StmtPath(path.to_vec())),
                    });
                }
            }
            Stmt::NotifyAll { .. } => {
                out.push(Mutation {
                    kind: MutationKind::NotifyInsteadOfNotifyAll,
                    method: method.name.clone(),
                    path: Some(StmtPath(path.to_vec())),
                });
                out.push(Mutation {
                    kind: MutationKind::DropNotify,
                    method: method.name.clone(),
                    path: Some(StmtPath(path.to_vec())),
                });
            }
            Stmt::Notify { .. } => out.push(Mutation {
                kind: MutationKind::DropNotify,
                method: method.name.clone(),
                path: Some(StmtPath(path.to_vec())),
            }),
            _ => {}
        });
    }
    out
}

/// Apply `mutation` to a copy of `component`.
pub fn apply_mutation(component: &Component, mutation: &Mutation) -> Result<Component, MutateError> {
    let mut mutated = component.clone();
    let method = mutated
        .methods
        .iter_mut()
        .find(|m| m.name == mutation.method)
        .ok_or_else(|| MutateError::NoSuchMethod(mutation.method.clone()))?;

    match mutation.kind {
        MutationKind::DropSynchronized => {
            if !method.synchronized {
                return Err(MutateError::BadSite("method not synchronized".into()));
            }
            method.synchronized = false;
        }
        MutationKind::AddRedundantSync => {
            let body = std::mem::take(&mut method.body);
            method.body = vec![Stmt::Synchronized {
                lock: LockRef::This,
                body,
            }];
        }
        MutationKind::SpuriousWait => {
            method.body.insert(0, Stmt::Wait { lock: LockRef::This });
        }
        MutationKind::HoldLockForever => {
            method.body.insert(
                0,
                Stmt::While {
                    cond: Expr::Bool(true),
                    body: vec![Stmt::Skip],
                },
            );
        }
        MutationKind::EarlyReturn => {
            let notify_pos = method
                .body
                .iter()
                .position(|s| matches!(s, Stmt::Notify { .. } | Stmt::NotifyAll { .. }))
                .ok_or_else(|| MutateError::BadSite("no top-level notify".into()))?;
            let ret = match method.ret {
                None => Stmt::Return(None),
                Some(Type::Int) => Stmt::Return(Some(Expr::Int(0))),
                Some(Type::Bool) => Stmt::Return(Some(Expr::Bool(false))),
                Some(Type::Str) => Stmt::Return(Some(Expr::Str(String::new()))),
            };
            method.body.insert(notify_pos, ret);
        }
        MutationKind::SkipWait => {
            let path = require_path(mutation)?;
            let stmt = stmt_at_mut(&mut method.body, path)
                .ok_or_else(|| MutateError::BadSite("path does not resolve".into()))?;
            if !matches!(stmt, Stmt::Wait { .. }) {
                return Err(MutateError::BadSite("expected a wait".into()));
            }
            *stmt = Stmt::Skip;
        }
        MutationKind::WaitIfInsteadOfWhile => {
            let path = require_path(mutation)?;
            let stmt = stmt_at_mut(&mut method.body, path)
                .ok_or_else(|| MutateError::BadSite("path does not resolve".into()))?;
            match stmt {
                Stmt::While { cond, body } => {
                    *stmt = Stmt::If {
                        cond: cond.clone(),
                        then_branch: body.clone(),
                        else_branch: Vec::new(),
                    };
                }
                _ => return Err(MutateError::BadSite("expected a while".into())),
            }
        }
        MutationKind::NegateWaitCondition => {
            let path = require_path(mutation)?;
            let stmt = stmt_at_mut(&mut method.body, path)
                .ok_or_else(|| MutateError::BadSite("path does not resolve".into()))?;
            match stmt {
                Stmt::While { cond, .. } => {
                    let old = cond.clone();
                    *cond = Expr::Unary(crate::ast::UnOp::Not, Box::new(old));
                }
                _ => return Err(MutateError::BadSite("expected a while".into())),
            }
        }
        MutationKind::NotifyInsteadOfNotifyAll => {
            let path = require_path(mutation)?;
            let stmt = stmt_at_mut(&mut method.body, path)
                .ok_or_else(|| MutateError::BadSite("path does not resolve".into()))?;
            match stmt {
                Stmt::NotifyAll { lock } => {
                    *stmt = Stmt::Notify { lock: lock.clone() };
                }
                _ => return Err(MutateError::BadSite("expected a notifyAll".into())),
            }
        }
        MutationKind::DropNotify => {
            let path = require_path(mutation)?;
            match stmt_at(&method.body, path) {
                Some(Stmt::Notify { .. }) | Some(Stmt::NotifyAll { .. }) => {}
                _ => return Err(MutateError::BadSite("expected a notify".into())),
            }
            remove_stmt_at(&mut method.body, path)
                .ok_or_else(|| MutateError::BadSite("path does not resolve".into()))?;
        }
    }
    Ok(mutated)
}

fn require_path(mutation: &Mutation) -> Result<&StmtPath, MutateError> {
    mutation
        .path
        .as_ref()
        .ok_or_else(|| MutateError::BadSite("operator requires a statement path".into()))
}

/// Generate every mutant of `component` with its mutation descriptor.
pub fn all_mutants(component: &Component) -> Vec<(Mutation, Component)> {
    enumerate_mutations(component)
        .into_iter()
        .map(|m| {
            let mutant = apply_mutation(component, &m)
                .expect("enumerated mutations are applicable");
            (m, mutant)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::validate::validate;

    #[test]
    fn enumerate_producer_consumer() {
        let c = examples::producer_consumer();
        let muts = enumerate_mutations(&c);
        // Per method (receive, send): 5 method-level (incl. EarlyReturn since
        // both have top-level notifyAll) + SkipWait + While(2 ops) + NotifyAll(2 ops)
        // = 5 + 1 + 2 + 2 = 10 → 20 total.
        assert_eq!(muts.len(), 20);
        // Deterministic order.
        let again = enumerate_mutations(&c);
        assert_eq!(muts, again);
    }

    #[test]
    fn all_mutants_apply_and_stay_valid() {
        for (name, c) in examples::corpus() {
            for (m, mutant) in all_mutants(&c) {
                let errs = validate(&mutant);
                // DropSynchronized makes wait/notify statically illegal —
                // exactly Java's IllegalMonitorStateException exposure. All
                // other mutants must stay statically valid.
                if m.kind == MutationKind::DropSynchronized {
                    continue;
                }
                assert!(
                    errs.is_empty(),
                    "{name} mutant {} invalid: {errs:?}",
                    m.label()
                );
            }
        }
    }

    #[test]
    fn skip_wait_replaces_wait() {
        let c = examples::producer_consumer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::SkipWait && m.method == "receive")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let receive = mutant.method("receive").unwrap();
        let mut wait_count = 0;
        crate::ast::visit_stmts(&receive.body, &mut |s| {
            if matches!(s, Stmt::Wait { .. }) {
                wait_count += 1;
            }
        });
        assert_eq!(wait_count, 0);
    }

    #[test]
    fn wait_if_instead_of_while() {
        let c = examples::producer_consumer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::WaitIfInsteadOfWhile && m.method == "send")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let send = mutant.method("send").unwrap();
        assert!(matches!(send.body[0], Stmt::If { .. }));
    }

    #[test]
    fn early_return_lands_before_notify() {
        let c = examples::producer_consumer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::EarlyReturn && m.method == "receive")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        let body = &mutant.method("receive").unwrap().body;
        let ret_pos = body
            .iter()
            .position(|s| matches!(s, Stmt::Return(_)))
            .unwrap();
        let notify_pos = body
            .iter()
            .position(|s| matches!(s, Stmt::NotifyAll { .. }))
            .unwrap();
        assert!(ret_pos < notify_pos);
    }

    #[test]
    fn drop_notify_removes_statement() {
        let c = examples::bounded_buffer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::DropNotify && m.method == "put")
            .unwrap();
        let before = crate::ast::count_stmts(&c.method("put").unwrap().body);
        let mutant = apply_mutation(&c, &m).unwrap();
        let after = crate::ast::count_stmts(&mutant.method("put").unwrap().body);
        assert_eq!(after, before - 1);
    }

    #[test]
    fn negate_wait_condition_wraps_not() {
        let c = examples::bounded_buffer();
        let m = enumerate_mutations(&c)
            .into_iter()
            .find(|m| m.kind == MutationKind::NegateWaitCondition && m.method == "take")
            .unwrap();
        let mutant = apply_mutation(&c, &m).unwrap();
        match &mutant.method("take").unwrap().body[0] {
            Stmt::While { cond, .. } => {
                assert!(matches!(cond, Expr::Unary(crate::ast::UnOp::Not, _)));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn seeded_classes_cover_eight_distinct_classes() {
        use std::collections::HashSet;
        let classes: HashSet<_> = MutationKind::ALL
            .iter()
            .map(|k| k.seeded_class().code())
            .collect();
        // FF-T1, EF-T1, FF-T3, EF-T3, FF-T4, EF-T4, FF-T5, EF-T5 — FF-T2 is
        // induced indirectly (by HoldLockForever victims) and EF-T2 is the
        // JVM-correctness row the paper excludes.
        assert_eq!(classes.len(), 8);
        assert!(!classes.contains("FF-T2"));
        assert!(!classes.contains("EF-T2"));
    }

    #[test]
    fn mutant_labels_are_unique() {
        use std::collections::HashSet;
        let c = examples::readers_writers();
        let labels: HashSet<_> = enumerate_mutations(&c)
            .iter()
            .map(Mutation::label)
            .collect();
        assert_eq!(labels.len(), enumerate_mutations(&c).len());
    }

    #[test]
    fn bad_sites_error() {
        let c = examples::producer_consumer();
        let bad = Mutation {
            kind: MutationKind::SkipWait,
            method: "receive".into(),
            path: Some(StmtPath(vec![99])),
        };
        assert!(apply_mutation(&c, &bad).is_err());
        let bad = Mutation {
            kind: MutationKind::SkipWait,
            method: "ghost".into(),
            path: Some(StmtPath(vec![0])),
        };
        assert!(matches!(
            apply_mutation(&c, &bad),
            Err(MutateError::NoSuchMethod(_))
        ));
    }

    #[test]
    fn redundant_sync_wraps_body() {
        let c = examples::semaphore();
        let m = Mutation {
            kind: MutationKind::AddRedundantSync,
            method: "release".into(),
            path: None,
        };
        let mutant = apply_mutation(&c, &m).unwrap();
        let body = &mutant.method("release").unwrap().body;
        assert_eq!(body.len(), 1);
        assert!(matches!(body[0], Stmt::Synchronized { .. }));
        assert!(validate(&mutant).is_empty());
    }
}
