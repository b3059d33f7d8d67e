//! Static validation of Monitor IR components: name resolution, a simple
//! type checker, and the concurrency-context rules that Java enforces at
//! run time (`IllegalMonitorStateException`) — here rejected statically.
//!
//! Non-fatal warnings (wait-not-in-loop, missing notifiers, unnecessary
//! synchronization, and many more) live in `jcc_analyze::analyze`, which
//! reports them as severity-ranked, failure-class-keyed diagnostics.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{
    Block, Component, Expr, LValue, LockRef, Method, Stmt, Type, UnOp,
};

/// A validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A name was declared twice in the same scope.
    DuplicateName {
        /// The offending name.
        name: String,
        /// What kind of declaration it was.
        kind: &'static str,
    },
    /// An expression referenced an unknown variable or field.
    UnknownName {
        /// The unresolved name.
        name: String,
        /// Method in which it occurred.
        method: String,
    },
    /// A lock operation referenced an undeclared lock.
    UnknownLock {
        /// The unresolved lock name.
        name: String,
        /// Method in which it occurred.
        method: String,
    },
    /// Types did not match.
    TypeMismatch {
        /// What was being checked.
        context: String,
        /// Expected type.
        expected: Type,
        /// Type found.
        found: Type,
        /// Method in which it occurred.
        method: String,
    },
    /// Wrong number of arguments to a builtin.
    ArityMismatch {
        /// The builtin's name.
        builtin: &'static str,
        /// Expected argument count.
        expected: usize,
        /// Found argument count.
        found: usize,
        /// Method in which it occurred.
        method: String,
    },
    /// `wait`/`notify`/`notifyAll` used without holding the referenced
    /// monitor (Java's `IllegalMonitorStateException`, caught statically).
    MonitorNotHeld {
        /// The operation (`wait`, `notify`, `notifyAll`).
        operation: &'static str,
        /// The lock that would be required.
        lock: String,
        /// Method in which it occurred.
        method: String,
    },
    /// A `return expr;` in a void method, or `return;` in a value-returning
    /// method.
    ReturnMismatch {
        /// Method in which it occurred.
        method: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DuplicateName { name, kind } => {
                write!(f, "duplicate {kind} `{name}`")
            }
            ValidationError::UnknownName { name, method } => {
                write!(f, "unknown name `{name}` in method `{method}`")
            }
            ValidationError::UnknownLock { name, method } => {
                write!(f, "unknown lock `{name}` in method `{method}`")
            }
            ValidationError::TypeMismatch {
                context,
                expected,
                found,
                method,
            } => write!(
                f,
                "type mismatch in {context} (method `{method}`): expected {expected}, found {found}"
            ),
            ValidationError::ArityMismatch {
                builtin,
                expected,
                found,
                method,
            } => write!(
                f,
                "`{builtin}` takes {expected} argument(s), found {found} (method `{method}`)"
            ),
            ValidationError::MonitorNotHeld {
                operation,
                lock,
                method,
            } => write!(
                f,
                "`{operation}` on `{lock}` outside its synchronized context in method `{method}`"
            ),
            ValidationError::ReturnMismatch { method, detail } => {
                write!(f, "return mismatch in method `{method}`: {detail}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate a component. Returns all errors found (empty = valid).
pub fn validate(component: &Component) -> Vec<ValidationError> {
    let mut errors = Vec::new();

    // Duplicate declarations.
    let mut seen = HashMap::new();
    for field in &component.fields {
        if seen.insert(field.name.clone(), ()).is_some() {
            errors.push(ValidationError::DuplicateName {
                name: field.name.clone(),
                kind: "field",
            });
        }
    }
    let mut seen_locks = HashMap::new();
    for lock in &component.locks {
        if seen_locks.insert(lock.clone(), ()).is_some() || seen.contains_key(lock) {
            errors.push(ValidationError::DuplicateName {
                name: lock.clone(),
                kind: "lock",
            });
        }
    }
    let mut seen_methods = HashMap::new();
    for method in &component.methods {
        if seen_methods.insert(method.name.clone(), ()).is_some() {
            errors.push(ValidationError::DuplicateName {
                name: method.name.clone(),
                kind: "method",
            });
        }
    }

    // Field initializers must be literals of the declared type.
    for field in &component.fields {
        let mut ctx = MethodCtx::new(component, "<field init>", &mut errors);
        if let Some(t) = ctx.expr_type(&field.init) {
            if t != field.ty {
                ctx.errors.push(ValidationError::TypeMismatch {
                    context: format!("initializer of field `{}`", field.name),
                    expected: field.ty,
                    found: t,
                    method: "<field init>".into(),
                });
            }
        }
    }

    for method in &component.methods {
        check_method(component, method, &mut errors);
    }
    errors
}

struct MethodCtx<'a> {
    component: &'a Component,
    method_name: &'a str,
    locals: HashMap<String, Type>,
    errors: &'a mut Vec<ValidationError>,
}

impl<'a> MethodCtx<'a> {
    fn new(
        component: &'a Component,
        method_name: &'a str,
        errors: &'a mut Vec<ValidationError>,
    ) -> Self {
        MethodCtx {
            component,
            method_name,
            locals: HashMap::new(),
            errors,
        }
    }

    fn expr_type(&mut self, expr: &Expr) -> Option<Type> {
        use crate::ast::BinOp::*;
        match expr {
            Expr::Int(_) => Some(Type::Int),
            Expr::Bool(_) => Some(Type::Bool),
            Expr::Str(_) => Some(Type::Str),
            Expr::Var(name) => {
                if let Some(&t) = self.locals.get(name) {
                    Some(t)
                } else {
                    self.errors.push(ValidationError::UnknownName {
                        name: name.clone(),
                        method: self.method_name.to_string(),
                    });
                    None
                }
            }
            Expr::Field(name) => match self.component.field(name) {
                Some(f) => Some(f.ty),
                None => {
                    self.errors.push(ValidationError::UnknownName {
                        name: name.clone(),
                        method: self.method_name.to_string(),
                    });
                    None
                }
            },
            Expr::Unary(op, e) => {
                let t = self.expr_type(e)?;
                let expected = match op {
                    UnOp::Neg => Type::Int,
                    UnOp::Not => Type::Bool,
                };
                if t != expected {
                    self.errors.push(ValidationError::TypeMismatch {
                        context: "unary operand".into(),
                        expected,
                        found: t,
                        method: self.method_name.to_string(),
                    });
                }
                Some(expected)
            }
            Expr::Binary(op, a, b) => {
                let ta = self.expr_type(a);
                let tb = self.expr_type(b);
                match op {
                    Add | Sub | Mul | Div | Mod => {
                        for t in [ta, tb].into_iter().flatten() {
                            if t != Type::Int {
                                self.errors.push(ValidationError::TypeMismatch {
                                    context: format!("operand of `{}`", op.symbol()),
                                    expected: Type::Int,
                                    found: t,
                                    method: self.method_name.to_string(),
                                });
                            }
                        }
                        Some(Type::Int)
                    }
                    Lt | Le | Gt | Ge => {
                        for t in [ta, tb].into_iter().flatten() {
                            if t != Type::Int {
                                self.errors.push(ValidationError::TypeMismatch {
                                    context: format!("operand of `{}`", op.symbol()),
                                    expected: Type::Int,
                                    found: t,
                                    method: self.method_name.to_string(),
                                });
                            }
                        }
                        Some(Type::Bool)
                    }
                    Eq | Ne => {
                        if let (Some(ta), Some(tb)) = (ta, tb) {
                            if ta != tb {
                                self.errors.push(ValidationError::TypeMismatch {
                                    context: format!("operands of `{}`", op.symbol()),
                                    expected: ta,
                                    found: tb,
                                    method: self.method_name.to_string(),
                                });
                            }
                        }
                        Some(Type::Bool)
                    }
                    And | Or => {
                        for t in [ta, tb].into_iter().flatten() {
                            if t != Type::Bool {
                                self.errors.push(ValidationError::TypeMismatch {
                                    context: format!("operand of `{}`", op.symbol()),
                                    expected: Type::Bool,
                                    found: t,
                                    method: self.method_name.to_string(),
                                });
                            }
                        }
                        Some(Type::Bool)
                    }
                }
            }
            Expr::Call(builtin, args) => {
                let params = builtin.param_types();
                if args.len() != params.len() {
                    self.errors.push(ValidationError::ArityMismatch {
                        builtin: builtin.name(),
                        expected: params.len(),
                        found: args.len(),
                        method: self.method_name.to_string(),
                    });
                }
                for (arg, &expected) in args.iter().zip(params) {
                    if let Some(found) = self.expr_type(arg) {
                        if found != expected {
                            self.errors.push(ValidationError::TypeMismatch {
                                context: format!("argument of `{}`", builtin.name()),
                                expected,
                                found,
                                method: self.method_name.to_string(),
                            });
                        }
                    }
                }
                Some(builtin.return_type())
            }
        }
    }
}

fn check_method(component: &Component, method: &Method, errors: &mut Vec<ValidationError>) {
    // Duplicate params.
    let mut seen = HashMap::new();
    for p in &method.params {
        if seen.insert(p.name.clone(), p.ty).is_some() {
            errors.push(ValidationError::DuplicateName {
                name: p.name.clone(),
                kind: "parameter",
            });
        }
    }
    let mut ctx = MethodCtx::new(component, &method.name, errors);
    ctx.locals = seen;

    // Initial held-locks: the receiver's monitor for synchronized methods.
    let mut held: Vec<LockRef> = Vec::new();
    if method.synchronized {
        held.push(LockRef::This);
    }
    check_block(&method.body, method, &mut ctx, &mut held);
}

fn lock_declared(component: &Component, lock: &LockRef) -> bool {
    match lock {
        LockRef::This => true,
        LockRef::Named(n) => component.locks.iter().any(|l| l == n),
    }
}

fn check_block(
    block: &Block,
    method: &Method,
    ctx: &mut MethodCtx<'_>,
    held: &mut Vec<LockRef>,
) {
    for stmt in block {
        match stmt {
            Stmt::While { cond, body } => {
                expect_type(ctx, cond, Type::Bool, "while condition");
                check_block(body, method, ctx, held);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                expect_type(ctx, cond, Type::Bool, "if condition");
                check_block(then_branch, method, ctx, held);
                check_block(else_branch, method, ctx, held);
            }
            Stmt::Wait { lock } | Stmt::Notify { lock } | Stmt::NotifyAll { lock } => {
                let op = match stmt {
                    Stmt::Wait { .. } => "wait",
                    Stmt::Notify { .. } => "notify",
                    _ => "notifyAll",
                };
                if !lock_declared(ctx.component, lock) {
                    ctx.errors.push(ValidationError::UnknownLock {
                        name: lock.to_string(),
                        method: method.name.clone(),
                    });
                } else if !held.contains(lock) {
                    ctx.errors.push(ValidationError::MonitorNotHeld {
                        operation: op,
                        lock: lock.to_string(),
                        method: method.name.clone(),
                    });
                }
            }
            Stmt::Assign { target, value } => {
                let target_ty = match target {
                    LValue::Field(name) => match ctx.component.field(name) {
                        Some(f) => Some(f.ty),
                        None => {
                            ctx.errors.push(ValidationError::UnknownName {
                                name: name.clone(),
                                method: method.name.clone(),
                            });
                            None
                        }
                    },
                    LValue::Local(name) => match ctx.locals.get(name).copied() {
                        Some(t) => Some(t),
                        None => {
                            ctx.errors.push(ValidationError::UnknownName {
                                name: name.clone(),
                                method: method.name.clone(),
                            });
                            None
                        }
                    },
                };
                if let (Some(expected), Some(found)) = (target_ty, ctx.expr_type(value)) {
                    if expected != found {
                        ctx.errors.push(ValidationError::TypeMismatch {
                            context: "assignment".into(),
                            expected,
                            found,
                            method: method.name.clone(),
                        });
                    }
                }
            }
            Stmt::Local { name, ty, init } => {
                if let Some(found) = ctx.expr_type(init) {
                    if found != *ty {
                        ctx.errors.push(ValidationError::TypeMismatch {
                            context: format!("initializer of `{name}`"),
                            expected: *ty,
                            found,
                            method: method.name.clone(),
                        });
                    }
                }
                if ctx.locals.insert(name.clone(), *ty).is_some() {
                    ctx.errors.push(ValidationError::DuplicateName {
                        name: name.clone(),
                        kind: "local",
                    });
                }
            }
            Stmt::Return(value) => match (&method.ret, value) {
                (Some(expected), Some(e)) => {
                    if let Some(found) = ctx.expr_type(e) {
                        if found != *expected {
                            ctx.errors.push(ValidationError::TypeMismatch {
                                context: "return value".into(),
                                expected: *expected,
                                found,
                                method: method.name.clone(),
                            });
                        }
                    }
                }
                (Some(_), None) => ctx.errors.push(ValidationError::ReturnMismatch {
                    method: method.name.clone(),
                    detail: "bare `return;` in a value-returning method".into(),
                }),
                (None, Some(_)) => ctx.errors.push(ValidationError::ReturnMismatch {
                    method: method.name.clone(),
                    detail: "`return <expr>;` in a void method".into(),
                }),
                (None, None) => {}
            },
            Stmt::Synchronized { lock, body } => {
                if !lock_declared(ctx.component, lock) {
                    ctx.errors.push(ValidationError::UnknownLock {
                        name: lock.to_string(),
                        method: method.name.clone(),
                    });
                }
                held.push(lock.clone());
                check_block(body, method, ctx, held);
                held.pop();
            }
            Stmt::Skip => {}
        }
    }
}

fn expect_type(ctx: &mut MethodCtx<'_>, expr: &Expr, expected: Type, context: &str) {
    if let Some(found) = ctx.expr_type(expr) {
        if found != expected {
            ctx.errors.push(ValidationError::TypeMismatch {
                context: context.into(),
                expected,
                found,
                method: ctx.method_name.to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::java::parse_component;

    fn ok(src: &str) -> Component {
        let c = parse_component(src).unwrap();
        let errs = validate(&c);
        assert!(errs.is_empty(), "unexpected errors: {errs:?}");
        c
    }

    fn errs(src: &str) -> Vec<ValidationError> {
        let c = parse_component(src).unwrap();
        validate(&c)
    }

    #[test]
    fn producer_consumer_is_valid() {
        ok(crate::examples::PRODUCER_CONSUMER_SRC);
    }

    #[test]
    fn wait_outside_sync_rejected() {
        let e = errs("class X { void m() { wait(); } }");
        assert!(matches!(
            e[0],
            ValidationError::MonitorNotHeld { operation: "wait", .. }
        ));
    }

    #[test]
    fn notify_in_sync_block_on_other_lock_rejected() {
        let e = errs(
            "class X { final Object a = new Object(); final Object b = new Object(); void m() { synchronized (a) { b.notify(); } } }",
        );
        assert!(matches!(
            e[0],
            ValidationError::MonitorNotHeld { operation: "notify", .. }
        ));
    }

    #[test]
    fn notify_under_matching_block_ok() {
        ok("class X { final Object a = new Object(); void m() { synchronized (a) { a.notifyAll(); } } }");
    }

    #[test]
    fn unknown_lock_rejected() {
        // The frontend rejects an undeclared lock, so plant it in the MIR.
        let mut c = ok("class X { void m() { synchronized (this) { Thread.yield(); } } }");
        let Stmt::Synchronized { lock, .. } = &mut c.methods[0].body[0] else {
            panic!("expected a synchronized block")
        };
        *lock = LockRef::Named("ghost".into());
        let e = validate(&c);
        assert!(matches!(e[0], ValidationError::UnknownLock { .. }));
    }

    #[test]
    fn type_mismatch_in_condition() {
        let e = errs("class X { int n = 0; synchronized void m() { while (n) { Thread.yield(); } } }");
        assert!(matches!(e[0], ValidationError::TypeMismatch { .. }));
    }

    #[test]
    fn unknown_variable() {
        // The frontend rejects an unresolved name, so plant it in the MIR.
        let mut c = ok("class X { void m() { int a = 0; } }");
        c.methods[0].body[0] = Stmt::Local {
            name: "a".into(),
            ty: Type::Int,
            init: Expr::var("ghost"),
        };
        let e = validate(&c);
        assert!(matches!(e[0], ValidationError::UnknownName { .. }));
    }

    #[test]
    fn arity_mismatch() {
        let e = errs(r#"class X { void m() { int a = len("x", "y"); } }"#);
        assert!(matches!(e[0], ValidationError::ArityMismatch { .. }));
    }

    #[test]
    fn return_mismatches() {
        let e = errs("class X { int m() { return; } }");
        assert!(matches!(e[0], ValidationError::ReturnMismatch { .. }));
        let e = errs("class X { void m() { return 3; } }");
        assert!(matches!(e[0], ValidationError::ReturnMismatch { .. }));
    }

    #[test]
    fn duplicate_declarations() {
        let e = errs("class X { int a = 0; int a = 1; }");
        assert!(matches!(e[0], ValidationError::DuplicateName { kind: "field", .. }));
        let e = errs("class X { void m() { Thread.yield(); } void m() { Thread.yield(); } }");
        assert!(matches!(e[0], ValidationError::DuplicateName { kind: "method", .. }));
        let e = errs("class X { void m(int a, int a) { Thread.yield(); } }");
        assert!(matches!(
            e[0],
            ValidationError::DuplicateName { kind: "parameter", .. }
        ));
    }

    #[test]
    fn field_initializer_type_checked() {
        let e = errs(r#"class X { int n = "oops"; }"#);
        assert!(matches!(e[0], ValidationError::TypeMismatch { .. }));
    }

    #[test]
    fn eq_requires_matching_types() {
        let e = errs(r#"class X { boolean m() { return 1 == "one"; } }"#);
        assert!(matches!(e[0], ValidationError::TypeMismatch { .. }));
    }
}
