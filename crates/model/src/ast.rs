//! The Monitor IR: components, methods, statements and expressions.
//!
//! The IR models the Java subset the paper's method operates on: classes
//! whose methods may be `synchronized`, with `wait` / `notify` / `notifyAll`
//! on the receiver's monitor (or a named auxiliary lock), `while`/`if`
//! control flow and simple integer / boolean / string state.

use std::fmt;

/// A scalar type in the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// Immutable string.
    Str,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Type::Int => "int",
            Type::Bool => "bool",
            Type::Str => "str",
        })
    }
}

/// Which monitor a lock operation refers to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockRef {
    /// The component instance itself (Java `this`).
    This,
    /// A named auxiliary lock object declared on the component.
    Named(String),
}

impl fmt::Display for LockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockRef::This => f.write_str("this"),
            LockRef::Named(n) => f.write_str(n),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` on integers.
    Add,
    /// `-` on integers.
    Sub,
    /// `*` on integers.
    Mul,
    /// `/` on integers (trapping on division by zero at run time).
    Div,
    /// `%` on integers.
    Mod,
    /// `==` on any matching types.
    Eq,
    /// `!=` on any matching types.
    Ne,
    /// `<` on integers.
    Lt,
    /// `<=` on integers.
    Le,
    /// `>` on integers.
    Gt,
    /// `>=` on integers.
    Ge,
    /// `&&` (short-circuiting).
    And,
    /// `||` (short-circuiting).
    Or,
}

impl BinOp {
    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Built-in (pure) functions available in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `len(s: str) -> int`
    Len,
    /// `charAt(s: str, i: int) -> str` — a one-character string; traps when
    /// out of bounds (mirrors Java's `StringIndexOutOfBoundsException`).
    CharAt,
    /// `concat(a: str, b: str) -> str`
    Concat,
    /// `toStr(i: int) -> str`
    ToStr,
}

impl Builtin {
    /// Surface name of the builtin.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Len => "len",
            Builtin::CharAt => "charAt",
            Builtin::Concat => "concat",
            Builtin::ToStr => "toStr",
        }
    }

    /// Parameter types.
    pub fn param_types(self) -> &'static [Type] {
        match self {
            Builtin::Len => &[Type::Str],
            Builtin::CharAt => &[Type::Str, Type::Int],
            Builtin::Concat => &[Type::Str, Type::Str],
            Builtin::ToStr => &[Type::Int],
        }
    }

    /// Return type.
    pub fn return_type(self) -> Type {
        match self {
            Builtin::Len => Type::Int,
            Builtin::CharAt => Type::Str,
            Builtin::Concat => Type::Str,
            Builtin::ToStr => Type::Str,
        }
    }

    /// Look up a builtin by surface name.
    pub fn by_name(name: &str) -> Option<Builtin> {
        match name {
            "len" => Some(Builtin::Len),
            "charAt" => Some(Builtin::CharAt),
            "concat" => Some(Builtin::Concat),
            "toStr" => Some(Builtin::ToStr),
            _ => None,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// A local variable or parameter.
    Var(String),
    /// A field of the component (`this.<name>` in Java terms).
    Field(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Builtin call.
    Call(Builtin, Vec<Expr>),
}

impl Expr {
    /// Convenience: `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(a), Box::new(b))
    }

    /// Convenience: field reference.
    pub fn field(name: &str) -> Expr {
        Expr::Field(name.to_string())
    }

    /// Convenience: variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// A component field.
    Field(String),
    /// A method-local variable.
    Local(String),
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `while (cond) { body }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `if (cond) { then } else { els }`
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when the condition is true.
        then_branch: Block,
        /// Taken when the condition is false (possibly empty).
        else_branch: Block,
    },
    /// `wait;` — suspend on `lock`'s wait set, releasing the lock.
    Wait {
        /// The monitor waited on.
        lock: LockRef,
    },
    /// `notify;` — wake one arbitrary waiter of `lock`.
    Notify {
        /// The monitor notified.
        lock: LockRef,
    },
    /// `notifyAll;` — wake every waiter of `lock`.
    NotifyAll {
        /// The monitor notified.
        lock: LockRef,
    },
    /// `target = value;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// `let name: ty = init;`
    Local {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Initializer.
        init: Expr,
    },
    /// `return;` or `return expr;`
    Return(Option<Expr>),
    /// `synchronized (lock) { body }` — an explicit nested block.
    Synchronized {
        /// The monitor locked for the block's duration.
        lock: LockRef,
        /// Statements executed under the lock.
        body: Block,
    },
    /// `skip;` — no-op, useful as a mutation placeholder.
    Skip,
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// A method parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// A method of a component.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Method {
    /// Method name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Return type, or `None` for void.
    pub ret: Option<Type>,
    /// Whether the whole body runs under the receiver's monitor
    /// (Java `synchronized` method).
    pub synchronized: bool,
    /// Method body.
    pub body: Block,
}

/// A field of a component with its initial value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Initial value (a literal expression).
    pub init: Expr,
}

/// A concurrent component: a class with state and (typically synchronized)
/// methods, tested under the assumption of multiple-thread access.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Component {
    /// Class name.
    pub name: String,
    /// Declared auxiliary lock objects (besides the implicit `this`).
    pub locks: Vec<String>,
    /// Fields with initializers.
    pub fields: Vec<Field>,
    /// Methods.
    pub methods: Vec<Method>,
}

impl Component {
    /// Find a method by name.
    pub fn method(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Find a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Walk every statement of a block in pre-order, with a mutable visitor.
pub fn visit_stmts<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for stmt in block {
        f(stmt);
        match stmt {
            Stmt::While { body, .. } | Stmt::Synchronized { body, .. } => visit_stmts(body, f),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit_stmts(then_branch, f);
                visit_stmts(else_branch, f);
            }
            _ => {}
        }
    }
}

/// Walk every statement of a block in pre-order, passing each with its
/// [`StmtPath`] steps (else-branch steps carry [`ELSE_OFFSET`], so every
/// path resolves through [`stmt_at`]).
pub fn walk_paths(block: &Block, f: &mut impl FnMut(&Stmt, &[usize])) {
    fn walk(
        block: &Block,
        offset: usize,
        path: &mut Vec<usize>,
        f: &mut impl FnMut(&Stmt, &[usize]),
    ) {
        for (i, stmt) in block.iter().enumerate() {
            path.push(offset + i);
            f(stmt, path);
            match stmt {
                Stmt::While { body, .. } | Stmt::Synchronized { body, .. } => {
                    walk(body, 0, path, f)
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, 0, path, f);
                    walk(else_branch, ELSE_OFFSET, path, f);
                }
                _ => {}
            }
            path.pop();
        }
    }
    walk(block, 0, &mut Vec::new(), f);
}

/// Count statements in a block, including nested ones.
pub fn count_stmts(block: &Block) -> usize {
    let mut n = 0;
    visit_stmts(block, &mut |_| n += 1);
    n
}

/// A path addressing a statement within a method body: a sequence of
/// (child index within block) steps, descending through `While`/`If`/
/// `Synchronized` bodies. `If` paths step into the then-branch for step
/// value `i` when addressing `then_branch[i]`; a sentinel offset of
/// `ELSE_OFFSET + i` addresses `else_branch[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StmtPath(pub Vec<usize>);

/// Offset marking else-branch steps inside a [`StmtPath`].
pub const ELSE_OFFSET: usize = 1 << 16;

/// Resolve a path to a statement reference, if valid.
///
/// Each step selects a child of the current block; when descending into an
/// `If`, the *next* step's `ELSE_OFFSET` flag selects which branch is
/// entered.
pub fn stmt_at<'a>(block: &'a Block, path: &StmtPath) -> Option<&'a Stmt> {
    if path.0.is_empty() {
        return None;
    }
    let mut cur_block = block;
    for depth in 0..path.0.len() {
        let step = path.0[depth];
        let idx = if step >= ELSE_OFFSET { step - ELSE_OFFSET } else { step };
        if depth + 1 == path.0.len() {
            return cur_block.get(idx);
        }
        let next_is_else = path.0[depth + 1] >= ELSE_OFFSET;
        cur_block = match cur_block.get(idx)? {
            Stmt::While { body, .. } | Stmt::Synchronized { body, .. } => body,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                if next_is_else {
                    else_branch
                } else {
                    then_branch
                }
            }
            _ => return None,
        };
    }
    None
}

/// Resolve a path to a mutable statement reference, if valid.
/// Same path semantics as [`stmt_at`].
pub fn stmt_at_mut<'a>(block: &'a mut Block, path: &StmtPath) -> Option<&'a mut Stmt> {
    let (parent, idx) = parent_block_mut(block, path)?;
    parent.get_mut(idx)
}

/// Remove the statement addressed by `path`, returning it. Same path
/// semantics as [`stmt_at`].
pub fn remove_stmt_at(block: &mut Block, path: &StmtPath) -> Option<Stmt> {
    let (parent, idx) = parent_block_mut(block, path)?;
    (idx < parent.len()).then(|| parent.remove(idx))
}

/// Descend to the block holding the statement `path` addresses, returning
/// it with the statement's index in it (not checked against its length).
fn parent_block_mut<'a>(block: &'a mut Block, path: &StmtPath) -> Option<(&'a mut Block, usize)> {
    let (&last, steps) = path.0.split_last()?;
    let mut cur_block = block;
    for (depth, &step) in steps.iter().enumerate() {
        let idx = if step >= ELSE_OFFSET {
            step - ELSE_OFFSET
        } else {
            step
        };
        let next_is_else = path.0[depth + 1] >= ELSE_OFFSET;
        cur_block = match cur_block.get_mut(idx)? {
            Stmt::While { body, .. } | Stmt::Synchronized { body, .. } => body,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                if next_is_else {
                    else_branch
                } else {
                    then_branch
                }
            }
            _ => return None,
        };
    }
    let idx = if last >= ELSE_OFFSET {
        last - ELSE_OFFSET
    } else {
        last
    };
    Some((cur_block, idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        vec![
            Stmt::While {
                cond: Expr::Bool(true),
                body: vec![Stmt::Wait { lock: LockRef::This }, Stmt::Skip],
            },
            Stmt::NotifyAll { lock: LockRef::This },
        ]
    }

    #[test]
    fn visit_counts_nested() {
        let b = sample_block();
        assert_eq!(count_stmts(&b), 4);
    }

    #[test]
    fn stmt_at_resolves_nested_path() {
        let b = sample_block();
        let wait = stmt_at(&b, &StmtPath(vec![0, 0])).unwrap();
        assert!(matches!(wait, Stmt::Wait { .. }));
        let skip = stmt_at(&b, &StmtPath(vec![0, 1])).unwrap();
        assert!(matches!(skip, Stmt::Skip));
        let notify = stmt_at(&b, &StmtPath(vec![1])).unwrap();
        assert!(matches!(notify, Stmt::NotifyAll { .. }));
        assert!(stmt_at(&b, &StmtPath(vec![5])).is_none());
        assert!(stmt_at(&b, &StmtPath(vec![1, 0])).is_none());
    }

    #[test]
    fn stmt_at_mut_allows_replacement() {
        let mut b = sample_block();
        *stmt_at_mut(&mut b, &StmtPath(vec![0, 0])).unwrap() = Stmt::Skip;
        let replaced = stmt_at(&b, &StmtPath(vec![0, 0])).unwrap();
        assert!(matches!(replaced, Stmt::Skip));
    }

    #[test]
    fn builtin_lookup_and_signatures() {
        for b in [Builtin::Len, Builtin::CharAt, Builtin::Concat, Builtin::ToStr] {
            assert_eq!(Builtin::by_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::by_name("nope"), None);
        assert_eq!(Builtin::CharAt.param_types(), &[Type::Str, Type::Int]);
        assert_eq!(Builtin::CharAt.return_type(), Type::Str);
    }

    #[test]
    fn else_branch_paths() {
        let b: Block = vec![Stmt::If {
            cond: Expr::Bool(true),
            then_branch: vec![Stmt::Skip],
            else_branch: vec![Stmt::Return(None)],
        }];
        let then_stmt = stmt_at(&b, &StmtPath(vec![0, 0])).unwrap();
        assert!(matches!(then_stmt, Stmt::Skip));
        let else_stmt = stmt_at(&b, &StmtPath(vec![0, ELSE_OFFSET])).unwrap();
        assert!(matches!(else_stmt, Stmt::Return(None)));
    }

    #[test]
    fn component_lookup() {
        let c = Component {
            name: "X".into(),
            locks: vec![],
            fields: vec![Field {
                name: "n".into(),
                ty: Type::Int,
                init: Expr::Int(0),
            }],
            methods: vec![Method {
                name: "m".into(),
                params: vec![],
                ret: None,
                synchronized: true,
                body: vec![],
            }],
        };
        assert!(c.method("m").is_some());
        assert!(c.method("q").is_none());
        assert!(c.field("n").is_some());
        assert!(c.field("q").is_none());
    }
}
