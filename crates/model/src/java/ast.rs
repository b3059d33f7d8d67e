//! The span-carrying Java AST the parser produces.
//!
//! This is deliberately a *surface* AST: it records what the file says
//! (`this.count`, `lock.wait()`, `synchronized (this) { ... }`) without
//! resolving names or monitors — that is the lowering pass's job, so
//! lowering errors can point at precise source spans.
//!
//! Every name in the tree is a slice of the source text (`'src`), and so is
//! every string literal without an escape: parsing allocates the tree's
//! nodes and lists, never its names.

use std::borrow::Cow;

use super::span::Span;

/// A parsed compilation unit: one `.java` file.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilationUnit<'src> {
    /// The classes declared in the file (usually exactly one).
    pub classes: Vec<ClassDecl<'src>>,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl<'src> {
    /// Class name.
    pub name: &'src str,
    /// Span of the name identifier.
    pub name_span: Span,
    /// Span of the whole declaration (`class` keyword to closing brace).
    pub span: Span,
    /// Field declarations in source order.
    pub fields: Vec<FieldDecl<'src>>,
    /// Method declarations in source order.
    pub methods: Vec<MethodDecl<'src>>,
}

/// A surface type name.
#[derive(Debug, Clone, PartialEq)]
pub enum JType<'src> {
    /// `int` or `long`.
    Int,
    /// `boolean`.
    Bool,
    /// `String`.
    Str,
    /// `Object` — only legal as a lock field's type.
    Object,
    /// `void` (method returns only).
    Void,
    /// Any other class name, carried for the error message.
    Other(&'src str),
}

impl<'src> JType<'src> {
    /// Java surface syntax of the type.
    pub fn render(&self) -> &'src str {
        match self {
            JType::Int => "int",
            JType::Bool => "boolean",
            JType::Str => "String",
            JType::Object => "Object",
            JType::Void => "void",
            JType::Other(n) => n,
        }
    }
}

/// A field declaration, e.g. `private int count = 0;` or
/// `private final Object lock = new Object();`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl<'src> {
    /// Field name.
    pub name: &'src str,
    /// Span of the name identifier.
    pub name_span: Span,
    /// Span of the whole declaration.
    pub span: Span,
    /// Declared type.
    pub ty: JType<'src>,
    /// `= new Object()` marks a lock declaration.
    pub is_lock: bool,
    /// Initializer expression (absent for lock fields and bare decls).
    pub init: Option<JExpr<'src>>,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl<'src> {
    /// Method name.
    pub name: &'src str,
    /// Span of the name identifier.
    pub name_span: Span,
    /// Span of the whole declaration.
    pub span: Span,
    /// `synchronized` modifier present.
    pub synchronized: bool,
    /// Return type.
    pub ret: JType<'src>,
    /// Parameters in order.
    pub params: Vec<ParamDecl<'src>>,
    /// Body statements.
    pub body: Vec<JStmt<'src>>,
}

/// A method parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl<'src> {
    /// Parameter name.
    pub name: &'src str,
    /// Declared type.
    pub ty: JType<'src>,
    /// Span of the declaration.
    pub span: Span,
}

/// The receiver of a monitor operation or `synchronized` block:
/// `this`, a bare identifier, or `this.ident`.
#[derive(Debug, Clone, PartialEq)]
pub enum Receiver<'src> {
    /// `this` (explicit or implicit).
    This,
    /// A named object, e.g. the `lock` in `lock.wait()`.
    Name(&'src str),
}

/// A surface statement with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct JStmt<'src> {
    /// Statement kind.
    pub kind: JStmtKind<'src>,
    /// Span of the whole statement.
    pub span: Span,
}

/// Surface statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum JStmtKind<'src> {
    /// `while (cond) body`
    While {
        /// Loop condition.
        cond: JExpr<'src>,
        /// Loop body (a block or a single statement).
        body: Vec<JStmt<'src>>,
    },
    /// `if (cond) body [else body]`
    If {
        /// Branch condition.
        cond: JExpr<'src>,
        /// Then branch.
        then_branch: Vec<JStmt<'src>>,
        /// Else branch (empty when absent).
        else_branch: Vec<JStmt<'src>>,
    },
    /// `synchronized (recv) { body }`
    Synchronized {
        /// The locked object.
        recv: Receiver<'src>,
        /// Span of the receiver expression.
        recv_span: Span,
        /// Statements under the lock.
        body: Vec<JStmt<'src>>,
    },
    /// `recv.wait();` (or bare `wait();`)
    Wait {
        /// The monitor waited on.
        recv: Receiver<'src>,
    },
    /// `recv.notify();`
    Notify {
        /// The monitor notified.
        recv: Receiver<'src>,
    },
    /// `recv.notifyAll();`
    NotifyAll {
        /// The monitor notified.
        recv: Receiver<'src>,
    },
    /// `target = value;` — target is an identifier or `this.ident`.
    Assign {
        /// Assignment target name.
        target: &'src str,
        /// `this.` prefix present, forcing field resolution.
        explicit_this: bool,
        /// Span of the target.
        target_span: Span,
        /// Right-hand side.
        value: JExpr<'src>,
    },
    /// Local declaration: `int x = e;`
    Local {
        /// Variable name.
        name: &'src str,
        /// Declared type.
        ty: JType<'src>,
        /// Span of the name.
        name_span: Span,
        /// Initializer.
        init: JExpr<'src>,
    },
    /// `return;` / `return e;`
    Return(Option<JExpr<'src>>),
    /// An expression statement: a call we do not model (`System.out.println`)
    /// or a no-op; lowers to `Stmt::Skip`.
    ExprStmt(JExpr<'src>),
    /// An empty statement `;`.
    Empty,
}

/// A surface expression with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct JExpr<'src> {
    /// Expression kind.
    pub kind: JExprKind<'src>,
    /// Span of the expression.
    pub span: Span,
}

/// Surface expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum JExprKind<'src> {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(Cow<'src, str>),
    /// A bare identifier (local, parameter, or field — resolved in lowering).
    Ident(&'src str),
    /// `this.name` — forced field access.
    FieldAccess(&'src str),
    /// Unary operator.
    Unary(UnOpKind, Box<JExpr<'src>>),
    /// Binary operator.
    Binary(BinOpKind, Box<JExpr<'src>>, Box<JExpr<'src>>),
    /// A method call `recv.name(args)` / `name(args)`. Builtins
    /// (`length`, `charAt`, `concat`, `toString`) lower to IR calls;
    /// anything else is unmodeled.
    Call {
        /// Receiver expression, when present.
        recv: Option<Box<JExpr<'src>>>,
        /// Method name.
        name: &'src str,
        /// Arguments.
        args: Vec<JExpr<'src>>,
    },
}

/// Surface unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOpKind {
    /// `-e`
    Neg,
    /// `!e`
    Not,
}

/// Surface binary operators (maps 1:1 onto [`crate::ast::BinOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOpKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}
