//! Lowering: span-carrying Java AST → the Monitor IR, plus the
//! [`LowerMap`] that carries MIR locations back to source spans.
//!
//! Lowering is **total**: it always produces a [`Component`] (possibly
//! with `Skip` placeholders) and reports anything it cannot express as a
//! [`FrontDiag`] instead of panicking — the proptest in
//! `tests/java_frontend.rs` holds it to that. The rules:
//!
//! * class → [`Component`]; `Object` fields (with or without the
//!   `new Object()` initializer) → declared auxiliary locks,
//! * `synchronized` method modifier → [`Method::synchronized`];
//!   `synchronized (e) { .. }` → [`Stmt::Synchronized`] with the lock
//!   identity resolved from the receiver (`this` / declared lock field),
//! * `recv.wait()` / `notify()` / `notifyAll()` → the monitor statements,
//! * `if`/`while`/assignment/locals map structurally; `x++`/`x += e`
//!   arrive pre-desugared from the parser,
//! * calls to methods outside the modeled subset (`System.out.println`,
//!   helper methods) → [`Stmt::Skip`]: they move no monitor state,
//! * constructors are dropped: field initializers already carry the
//!   initial state.

use std::collections::{HashMap, HashSet};

use crate::ast::{
    BinOp, Block, Builtin, Component, Expr, Field, LValue, LockRef, Method, Param, Stmt, Type,
    UnOp, ELSE_OFFSET,
};

use super::ast::*;
use super::diag::{FrontDiag, Phase};
use super::span::Span;

/// Maps MIR locations (method name + statement path) back to the source
/// spans they were lowered from. Resolution falls back outward: statement
/// → method declaration → class declaration, so every analyzer diagnostic
/// gets *some* anchor even when its path points at synthesized code.
///
/// Statement spans live in two flat tables: one entry per lowered
/// statement, each method's run sorted by path, and the statements' paths
/// end to end. [`Self::resolve`] looks the method up by name and
/// binary-searches its run.
#[derive(Debug, Clone, Default)]
pub struct LowerMap {
    /// Span of the class declaration's name.
    pub class_span: Span,
    /// Each lowered method's name span and run of [`Self::stmts`].
    methods: HashMap<String, MethodSpans>,
    /// One entry per lowered statement; each method's run is sorted by
    /// path (lowering records them in pre-order, which is path order).
    stmts: Vec<StmtSpan>,
    /// The statements' paths, end to end.
    paths: Vec<usize>,
}

/// The span of a method's name in the source and its run of
/// [`LowerMap::stmts`].
#[derive(Debug, Clone, Copy)]
struct MethodSpans {
    span: Span,
    stmts: (u32, u32),
}

/// A statement's path (a range of [`LowerMap::paths`]) and source span.
#[derive(Debug, Clone, Copy)]
struct StmtSpan {
    path: (u32, u32),
    span: Span,
}

fn range<T>(items: &[T], (lo, hi): (u32, u32)) -> &[T] {
    &items[lo as usize..hi as usize]
}

impl LowerMap {
    /// Resolve a MIR location to the most precise span available.
    pub fn resolve(&self, method: &str, path: Option<&[usize]>) -> Span {
        match self.methods.get(method) {
            Some(m) => path.and_then(|p| self.stmt(m, p)).unwrap_or(m.span),
            None => self.class_span,
        }
    }

    fn stmt(&self, m: &MethodSpans, path: &[usize]) -> Option<Span> {
        let run = range(&self.stmts, m.stmts);
        let i = run
            .binary_search_by(|s| range(&self.paths, s.path).cmp(path))
            .ok()?;
        Some(run[i].span)
    }

    /// Record the statement at `path` of the method being lowered; calls
    /// come in pre-order, so each method's run stays sorted.
    fn push_stmt(&mut self, path: &[usize], span: Span) {
        let lo = self.paths.len() as u32;
        self.paths.extend_from_slice(path);
        self.stmts.push(StmtSpan {
            path: (lo, self.paths.len() as u32),
            span,
        });
    }

    /// Close the method `name` whose statements start at entry `first`.
    fn push_method(&mut self, name: &str, span: Span, first: usize) {
        debug_assert!(
            self.stmts[first..]
                .windows(2)
                .all(|w| range(&self.paths, w[0].path) < range(&self.paths, w[1].path)),
            "statement paths of `{name}` recorded out of order"
        );
        let stmts = (first as u32, self.stmts.len() as u32);
        self.methods
            .insert(name.to_string(), MethodSpans { span, stmts });
    }
}

/// Result of lowering one class.
pub struct Lowered {
    /// The Monitor IR component.
    pub component: Component,
    /// MIR → source span map.
    pub map: LowerMap,
    /// Everything the lowerer could not express.
    pub diags: Vec<FrontDiag>,
}

/// Lower one parsed class to the Monitor IR.
pub fn lower_class(class: &ClassDecl<'_>) -> Lowered {
    let mut cx = Lower {
        map: LowerMap {
            class_span: class.name_span,
            methods: HashMap::with_capacity(class.methods.len()),
            ..LowerMap::default()
        },
        diags: Vec::new(),
        members: HashMap::with_capacity(class.fields.len()),
        locals: HashSet::new(),
    };

    let mut component = Component {
        name: class.name.to_string(),
        locks: Vec::new(),
        fields: Vec::with_capacity(class.fields.len()),
        methods: Vec::with_capacity(class.methods.len()),
    };

    for f in &class.fields {
        let member = match f.ty {
            // With or without `= new Object()`: an auxiliary lock.
            JType::Object => Member::Lock,
            JType::Int | JType::Bool | JType::Str => Member::Field,
            ref other => {
                cx.diags.push(
                    FrontDiag::new(
                        Phase::Lower,
                        f.span,
                        format!("field type `{}` is not in the subset", other.render()),
                    )
                    .with_help("use int, long, boolean, String, or Object (as a lock)"),
                );
                continue;
            }
        };
        if cx.members.contains_key(f.name) {
            // The first declaration is the component's, and its spans
            // stay its own.
            cx.diags.push(
                FrontDiag::new(
                    Phase::Lower,
                    f.name_span,
                    format!("duplicate {} `{}`", member.kind(), f.name),
                )
                .with_help("fields and locks share one namespace; rename one"),
            );
            continue;
        }
        cx.members.insert(f.name, member);
        match member {
            Member::Lock => component.locks.push(f.name.to_string()),
            Member::Field => {
                let ty = cx.scalar_type(&f.ty).expect("scalar arm");
                let init = match &f.init {
                    Some(e) => cx.lower_expr(e),
                    None => default_init(ty),
                };
                component.fields.push(Field {
                    name: f.name.to_string(),
                    ty,
                    init,
                });
            }
        }
    }

    let mut declared = HashSet::with_capacity(class.methods.len());
    for m in &class.methods {
        if m.name == class.name {
            // Constructor: initial state lives in the field initializers.
            continue;
        }
        if !declared.insert(m.name) {
            // Overloads are outside the subset: the first declaration is
            // the component's method, and its spans stay its own.
            cx.diags.push(
                FrontDiag::new(
                    Phase::Lower,
                    m.name_span,
                    format!("duplicate method `{}`", m.name),
                )
                .with_help("overloaded methods are not in the subset; rename one"),
            );
            continue;
        }
        cx.locals.clear();
        let mut params = Vec::with_capacity(m.params.len());
        for p in &m.params {
            let ty = cx.scalar_type(&p.ty).unwrap_or_else(|| {
                cx.diags.push(FrontDiag::new(
                    Phase::Lower,
                    p.span,
                    format!("parameter type `{}` is not in the subset", p.ty.render()),
                ));
                Type::Int
            });
            params.push(Param {
                name: p.name.to_string(),
                ty,
            });
            cx.locals.insert(p.name);
        }
        let ret = match &m.ret {
            JType::Void => None,
            ty => match cx.scalar_type(ty) {
                Some(t) => Some(t),
                None => {
                    cx.diags.push(FrontDiag::new(
                        Phase::Lower,
                        m.name_span,
                        format!("return type `{}` is not in the subset", ty.render()),
                    ));
                    None
                }
            },
        };
        let first = cx.map.stmts.len();
        let mut path = Vec::new();
        let body = cx.lower_block(&m.body, &mut path, 0);
        cx.map.push_method(m.name, m.name_span, first);
        component.methods.push(Method {
            name: m.name.to_string(),
            params,
            ret,
            synchronized: m.synchronized,
            body,
        });
    }

    Lowered {
        component,
        map: cx.map,
        diags: cx.diags,
    }
}

fn default_init(ty: Type) -> Expr {
    match ty {
        Type::Int => Expr::Int(0),
        Type::Bool => Expr::Bool(false),
        Type::Str => Expr::Str(String::new()),
    }
}

/// What a class-level name declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Member {
    /// A scalar field.
    Field,
    /// An `Object` field: an auxiliary lock.
    Lock,
}

impl Member {
    fn kind(self) -> &'static str {
        match self {
            Member::Field => "field",
            Member::Lock => "lock",
        }
    }
}

struct Lower<'src> {
    map: LowerMap,
    diags: Vec<FrontDiag>,
    /// The class's fields and locks, by name.
    members: HashMap<&'src str, Member>,
    /// Parameters and locals of the method currently being lowered.
    locals: HashSet<&'src str>,
}

impl<'src> Lower<'src> {
    fn scalar_type(&self, ty: &JType<'_>) -> Option<Type> {
        match ty {
            JType::Int => Some(Type::Int),
            JType::Bool => Some(Type::Bool),
            JType::Str => Some(Type::Str),
            _ => None,
        }
    }

    fn is_field(&self, name: &str) -> bool {
        self.members.get(name) == Some(&Member::Field)
    }

    fn lock_ref(&mut self, recv: &Receiver<'src>, span: Span) -> LockRef {
        match *recv {
            Receiver::This => LockRef::This,
            Receiver::Name(n) => {
                if self.members.get(n) != Some(&Member::Lock) {
                    self.diags.push(
                        FrontDiag::new(
                            Phase::Lower,
                            span,
                            format!("`{n}` is not a declared lock object"),
                        )
                        .with_help(format!(
                            "declare it as `private final Object {n} = new Object();`"
                        )),
                    );
                }
                LockRef::Named(n.to_string())
            }
        }
    }

    /// Lower a statement list. `path` is the prefix addressing this block;
    /// `else_offset` is [`ELSE_OFFSET`] when the block is an else-branch
    /// (the MIR's statement-path convention), 0 otherwise. Each statement's
    /// span is recorded before its children's, so in path order. A block
    /// longer than [`ELSE_OFFSET`] statements is cut there with one error:
    /// a then-branch step past it would alias the else-branch's steps.
    fn lower_block(
        &mut self,
        stmts: &[JStmt<'src>],
        path: &mut Vec<usize>,
        else_offset: usize,
    ) -> Block {
        let mut out = Block::with_capacity(stmts.len());
        for s in stmts {
            if let JStmtKind::Empty = s.kind {
                continue;
            }
            if out.len() == ELSE_OFFSET {
                self.diags.push(
                    FrontDiag::new(
                        Phase::Lower,
                        s.span,
                        format!("block of more than {ELSE_OFFSET} statements"),
                    )
                    .with_help("split the method"),
                );
                break;
            }
            path.push(out.len() + else_offset);
            self.map.push_stmt(path, s.span);
            let lowered = self.lower_stmt(s, path);
            out.push(lowered);
            path.pop();
        }
        out
    }

    fn lower_stmt(&mut self, s: &JStmt<'src>, path: &mut Vec<usize>) -> Stmt {
        match &s.kind {
            JStmtKind::Empty => unreachable!("lower_block skips empty statements"),
            JStmtKind::While { cond, body } => Stmt::While {
                cond: self.lower_expr(cond),
                body: self.lower_block(body, path, 0),
            },
            JStmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => Stmt::If {
                cond: self.lower_expr(cond),
                then_branch: self.lower_block(then_branch, path, 0),
                else_branch: self.lower_block(else_branch, path, ELSE_OFFSET),
            },
            JStmtKind::Synchronized {
                recv,
                recv_span,
                body,
            } => Stmt::Synchronized {
                lock: self.lock_ref(recv, *recv_span),
                body: self.lower_block(body, path, 0),
            },
            JStmtKind::Wait { recv } => Stmt::Wait {
                lock: self.lock_ref(recv, s.span),
            },
            JStmtKind::Notify { recv } => Stmt::Notify {
                lock: self.lock_ref(recv, s.span),
            },
            JStmtKind::NotifyAll { recv } => Stmt::NotifyAll {
                lock: self.lock_ref(recv, s.span),
            },
            JStmtKind::Assign {
                target,
                explicit_this,
                target_span,
                value,
            } => {
                let target = *target;
                let lv = if *explicit_this {
                    LValue::Field(target.to_string())
                } else if self.locals.contains(target) {
                    LValue::Local(target.to_string())
                } else if self.is_field(target) {
                    LValue::Field(target.to_string())
                } else {
                    self.diags.push(FrontDiag::new(
                        Phase::Lower,
                        *target_span,
                        format!("assignment to unresolved name `{target}`"),
                    ));
                    LValue::Local(target.to_string())
                };
                Stmt::Assign {
                    target: lv,
                    value: self.lower_expr(value),
                }
            }
            JStmtKind::Local {
                name,
                ty,
                name_span,
                init,
            } => {
                let ty = self.scalar_type(ty).unwrap_or_else(|| {
                    self.diags.push(FrontDiag::new(
                        Phase::Lower,
                        *name_span,
                        format!("local type `{}` is not in the subset", ty.render()),
                    ));
                    Type::Int
                });
                let init = self.lower_expr(init);
                self.locals.insert(name);
                Stmt::Local {
                    name: name.to_string(),
                    ty,
                    init,
                }
            }
            JStmtKind::Return(e) => Stmt::Return(e.as_ref().map(|e| self.lower_expr(e))),
            // An unmodeled call moves no monitor state: a no-op in the IR.
            JStmtKind::ExprStmt(_) => Stmt::Skip,
        }
    }

    fn lower_expr(&mut self, e: &JExpr<'src>) -> Expr {
        match &e.kind {
            JExprKind::Int(n) => Expr::Int(*n),
            JExprKind::Bool(b) => Expr::Bool(*b),
            JExprKind::Str(s) => Expr::Str(s.to_string()),
            &JExprKind::Ident(n) => {
                if self.locals.contains(n) {
                    Expr::Var(n.to_string())
                } else if self.is_field(n) {
                    Expr::Field(n.to_string())
                } else {
                    self.diags.push(FrontDiag::new(
                        Phase::Lower,
                        e.span,
                        format!("unresolved name `{n}`"),
                    ));
                    Expr::Var(n.to_string())
                }
            }
            &JExprKind::FieldAccess(n) => {
                if !self.members.contains_key(n) {
                    self.diags.push(FrontDiag::new(
                        Phase::Lower,
                        e.span,
                        format!("`this.{n}` does not name a field"),
                    ));
                }
                Expr::Field(n.to_string())
            }
            JExprKind::Unary(op, inner) => {
                let op = match op {
                    UnOpKind::Neg => UnOp::Neg,
                    UnOpKind::Not => UnOp::Not,
                };
                Expr::Unary(op, Box::new(self.lower_expr(inner)))
            }
            JExprKind::Binary(op, a, b) => {
                let op = match op {
                    BinOpKind::Add => BinOp::Add,
                    BinOpKind::Sub => BinOp::Sub,
                    BinOpKind::Mul => BinOp::Mul,
                    BinOpKind::Div => BinOp::Div,
                    BinOpKind::Mod => BinOp::Mod,
                    BinOpKind::Eq => BinOp::Eq,
                    BinOpKind::Ne => BinOp::Ne,
                    BinOpKind::Lt => BinOp::Lt,
                    BinOpKind::Le => BinOp::Le,
                    BinOpKind::Gt => BinOp::Gt,
                    BinOpKind::Ge => BinOp::Ge,
                    BinOpKind::And => BinOp::And,
                    BinOpKind::Or => BinOp::Or,
                };
                Expr::Binary(
                    op,
                    Box::new(self.lower_expr(a)),
                    Box::new(self.lower_expr(b)),
                )
            }
            JExprKind::Call { recv, name, args } => self.lower_call(e.span, recv, name, args),
        }
    }

    /// String builtins arrive in Java method syntax (`s.length()`,
    /// `s.charAt(i)`, `s.concat(t)`, `toStr(n)`); everything else is
    /// outside the subset in expression position (as a statement it would
    /// have become `Skip`).
    fn lower_call(
        &mut self,
        span: Span,
        recv: &Option<Box<JExpr<'src>>>,
        name: &str,
        args: &[JExpr<'src>],
    ) -> Expr {
        let builtin = match (recv.is_some(), name) {
            (true, "length") => Some(Builtin::Len),
            (true, "charAt") => Some(Builtin::CharAt),
            (true, "concat") => Some(Builtin::Concat),
            (false, _) => Builtin::by_name(name),
            _ => None,
        };
        match builtin {
            Some(b) => {
                let mut lowered = Vec::with_capacity(args.len() + usize::from(recv.is_some()));
                if let Some(r) = recv {
                    lowered.push(self.lower_expr(r));
                }
                lowered.extend(args.iter().map(|a| self.lower_expr(a)));
                Expr::Call(b, lowered)
            }
            None => {
                self.diags.push(
                    FrontDiag::new(
                        Phase::Lower,
                        span,
                        format!("call to `{name}` in expression position is not in the subset"),
                    )
                    .with_help("only length()/charAt()/concat() and toStr() are modeled"),
                );
                Expr::Int(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::java::parser::parse;

    fn lower_src(src: &str) -> Lowered {
        let (unit, diags) = parse(src);
        assert!(diags.is_empty(), "{diags:?}");
        lower_class(&unit.classes[0])
    }

    #[test]
    fn fields_locks_and_sync_modifier() {
        let l = lower_src(
            "class C { private final Object lock = new Object(); \
             private int n = 3; private boolean ok = true; \
             public synchronized void m() { n = n + 1; } }",
        );
        assert!(l.diags.is_empty(), "{:?}", l.diags);
        assert_eq!(l.component.locks, vec!["lock".to_string()]);
        assert_eq!(l.component.fields.len(), 2);
        assert_eq!(l.component.fields[0].init, Expr::Int(3));
        assert!(l.component.methods[0].synchronized);
    }

    #[test]
    fn wait_in_while_lowers_with_paths() {
        let src = "class W { boolean ready = false; \
             synchronized void await() { while (!ready) { wait(); } ready = false; } }";
        let l = lower_src(src);
        assert!(l.diags.is_empty(), "{:?}", l.diags);
        let m = &l.component.methods[0];
        assert!(matches!(m.body[0], Stmt::While { .. }));
        // The wait statement at path [0, 0] maps back to its source span.
        let span = l.map.stmt(&l.map.methods["await"], &[0, 0]).unwrap();
        assert_eq!(&src[span.lo as usize..span.hi as usize], "wait();");
    }

    #[test]
    fn else_branch_paths_use_the_offset_convention() {
        let src = "class E { int n = 0; synchronized void m(boolean b) { \
             if (b) { n = 1; } else { n = 2; } } }";
        let l = lower_src(src);
        assert!(l.diags.is_empty(), "{:?}", l.diags);
        let then_span = l.map.stmt(&l.map.methods["m"], &[0, 0]).unwrap();
        let else_span = l.map.stmt(&l.map.methods["m"], &[0, ELSE_OFFSET]).unwrap();
        assert_eq!(&src[then_span.lo as usize..then_span.hi as usize], "n = 1;");
        assert_eq!(&src[else_span.lo as usize..else_span.hi as usize], "n = 2;");
    }

    #[test]
    fn unmodeled_call_statement_is_skip_not_error() {
        let l = lower_src("class U { void m() { log(); } }");
        assert!(l.diags.is_empty(), "{:?}", l.diags);
        assert!(matches!(l.component.methods[0].body[0], Stmt::Skip));
    }

    #[test]
    fn unresolved_names_report_but_stay_total() {
        let l = lower_src("class B { void m() { x = 1; } }");
        assert_eq!(l.diags.len(), 1);
        assert!(l.diags[0].message.contains("unresolved"));
        assert_eq!(l.component.methods.len(), 1);
    }

    #[test]
    fn constructors_are_dropped() {
        let l = lower_src("class K { int n = 0; K() { n = 5; } synchronized int get() { return n; } }");
        assert!(l.diags.is_empty(), "{:?}", l.diags);
        assert_eq!(l.component.methods.len(), 1);
        assert_eq!(l.component.methods[0].name, "get");
    }

    #[test]
    fn string_builtins_map_to_ir_calls() {
        let l = lower_src(
            "class S { String s = \"ab\"; synchronized int size() { return s.length(); } }",
        );
        assert!(l.diags.is_empty(), "{:?}", l.diags);
        match &l.component.methods[0].body[0] {
            Stmt::Return(Some(Expr::Call(Builtin::Len, args))) => {
                assert_eq!(args[0], Expr::Field("s".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resolve_falls_back_stmt_to_method_to_class() {
        let l = lower_src("class F { synchronized void m() { return; } }");
        let stmt = l.map.resolve("m", Some(&[0]));
        let method = l.map.resolve("m", Some(&[99]));
        let class = l.map.resolve("<F>", None);
        assert_ne!(stmt, method);
        assert_eq!(method, l.map.methods["m"].span);
        assert_eq!(class, l.map.class_span);
    }
}
