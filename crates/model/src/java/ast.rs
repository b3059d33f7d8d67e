//! The span-carrying Java AST the parser produces.
//!
//! This is deliberately a *surface* AST: it records what the file says
//! (`this.count`, `lock.wait()`, `synchronized (this) { ... }`) without
//! resolving names or monitors — that is the lowering pass's job, so
//! lowering errors can point at precise source spans.

use super::span::Span;

/// A parsed compilation unit: one `.java` file.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilationUnit {
    /// The classes declared in the file (usually exactly one).
    pub classes: Vec<ClassDecl>,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Span of the name identifier.
    pub name_span: Span,
    /// Span of the whole declaration (`class` keyword to closing brace).
    pub span: Span,
    /// Field declarations in source order.
    pub fields: Vec<FieldDecl>,
    /// Method declarations in source order.
    pub methods: Vec<MethodDecl>,
}

/// A surface type name.
#[derive(Debug, Clone, PartialEq)]
pub enum JType {
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
    Other(String),
}

impl JType {
    /// Java surface syntax of the type.
    pub fn render(&self) -> String {
        match self {
            JType::Int => "int".into(),
            JType::Bool => "boolean".into(),
            JType::Str => "String".into(),
            JType::Object => "Object".into(),
            JType::Void => "void".into(),
            JType::Other(n) => n.clone(),
        }
    }
}

/// A field declaration, e.g. `private int count = 0;` or
/// `private final Object lock = new Object();`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Span of the name identifier.
    pub name_span: Span,
    /// Span of the whole declaration.
    pub span: Span,
    /// Declared type.
    pub ty: JType,
    /// `= new Object()` marks a lock declaration.
    pub is_lock: bool,
    /// Initializer expression (absent for lock fields and bare decls).
    pub init: Option<JExpr>,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Method name.
    pub name: String,
    /// Span of the name identifier.
    pub name_span: Span,
    /// Span of the whole declaration.
    pub span: Span,
    /// `synchronized` modifier present.
    pub synchronized: bool,
    /// Return type.
    pub ret: JType,
    /// Parameters in order.
    pub params: Vec<ParamDecl>,
    /// Body statements.
    pub body: Vec<JStmt>,
}

/// A method parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: JType,
    /// Span of the declaration.
    pub span: Span,
}

/// The receiver of a monitor operation or `synchronized` block:
/// `this`, a bare identifier, or `this.ident`.
#[derive(Debug, Clone, PartialEq)]
pub enum Receiver {
    /// `this` (explicit or implicit).
    This,
    /// A named object, e.g. the `lock` in `lock.wait()`.
    Name(String),
}

/// A surface statement with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct JStmt {
    /// Statement kind.
    pub kind: JStmtKind,
    /// Span of the whole statement.
    pub span: Span,
}

/// Surface statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum JStmtKind {
    /// `while (cond) body`
    While {
        /// Loop condition.
        cond: JExpr,
        /// Loop body (a block or a single statement).
        body: Vec<JStmt>,
    },
    /// `if (cond) body [else body]`
    If {
        /// Branch condition.
        cond: JExpr,
        /// Then branch.
        then_branch: Vec<JStmt>,
        /// Else branch (empty when absent).
        else_branch: Vec<JStmt>,
    },
    /// `synchronized (recv) { body }`
    Synchronized {
        /// The locked object.
        recv: Receiver,
        /// Span of the receiver expression.
        recv_span: Span,
        /// Statements under the lock.
        body: Vec<JStmt>,
    },
    /// `recv.wait();` (or bare `wait();`)
    Wait {
        /// The monitor waited on.
        recv: Receiver,
    },
    /// `recv.notify();`
    Notify {
        /// The monitor notified.
        recv: Receiver,
    },
    /// `recv.notifyAll();`
    NotifyAll {
        /// The monitor notified.
        recv: Receiver,
    },
    /// `target = value;` — target is an identifier or `this.ident`.
    Assign {
        /// Assignment target name.
        target: String,
        /// `this.` prefix present, forcing field resolution.
        explicit_this: bool,
        /// Span of the target.
        target_span: Span,
        /// Right-hand side.
        value: JExpr,
    },
    /// Local declaration: `int x = e;`
    Local {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: JType,
        /// Span of the name.
        name_span: Span,
        /// Initializer.
        init: JExpr,
    },
    /// `return;` / `return e;`
    Return(Option<JExpr>),
    /// An expression statement: a call we do not model (`System.out.println`)
    /// or a no-op; lowers to `Stmt::Skip`.
    ExprStmt(JExpr),
    /// An empty statement `;`.
    Empty,
}

/// A surface expression with its span.
#[derive(Debug, Clone, PartialEq)]
pub struct JExpr {
    /// Expression kind.
    pub kind: JExprKind,
    /// Span of the expression.
    pub span: Span,
}

/// Surface expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum JExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// A bare identifier (local, parameter, or field — resolved in lowering).
    Ident(String),
    /// `this.name` — forced field access.
    FieldAccess(String),
    /// Unary operator.
    Unary(UnOpKind, Box<JExpr>),
    /// Binary operator.
    Binary(BinOpKind, Box<JExpr>, Box<JExpr>),
    /// A method call `recv.name(args)` / `name(args)`. Builtins
    /// (`length`, `charAt`, `concat`, `toString`) lower to IR calls;
    /// anything else is unmodeled.
    Call {
        /// Receiver expression, when present.
        recv: Option<Box<JExpr>>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<JExpr>,
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
