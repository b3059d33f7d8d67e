//! Runtime values, slot-resolved expressions and their evaluation.
//!
//! `compile` resolves every field and local name an expression mentions to
//! a slot index once (`SlotExpr::resolve`), so evaluation reads `&[Slot]`
//! arrays instead of name-keyed maps. Reading a slot nothing has assigned
//! raises the usual `undefined field` / `undefined local` fault.

use std::fmt;
use std::sync::Arc;

use jcc_model::ast::{BinOp, Builtin, Expr, Type, UnOp};

/// A runtime value of the Monitor IR. Cloning one never allocates: strings
/// are shared, immutable `Arc<str>`s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Immutable string.
    Str(Arc<str>),
}

/// A field or local slot: `None` until something is stored in it.
pub type Slot = Option<Value>;

impl Value {
    /// The IR type of this value.
    pub fn ty(&self) -> Type {
        match self {
            Value::Int(_) => Type::Int,
            Value::Bool(_) => Type::Bool,
            Value::Str(_) => Type::Str,
        }
    }

    /// The default value of a type (used by fault-injected early returns).
    pub fn default_of(ty: Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Bool => Value::Bool(false),
            Type::Str => Value::Str("".into()),
        }
    }

    /// Extract an integer, or a runtime error.
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Value::Int(n) => Ok(*n),
            other => Err(EvalError::new(format!("expected int, got {other}"))),
        }
    }

    /// Extract a boolean, or a runtime error.
    pub fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::new(format!("expected bool, got {other}"))),
        }
    }

    /// Extract a string slice, or a runtime error.
    pub fn as_str(&self) -> Result<&str, EvalError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(EvalError::new(format!("expected str, got {other}"))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A runtime evaluation error (division by zero, index out of bounds, …) —
/// the VM marks the executing thread as faulted, mirroring a Java runtime
/// exception propagating out of the component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description.
    pub message: String,
}

impl EvalError {
    /// Construct an error.
    pub fn new(message: impl Into<String>) -> Self {
        EvalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EvalError {}

/// An expression with every name resolved to a slot.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotExpr {
    /// A literal.
    Lit(Value),
    /// The local (or parameter) in this slot of the executing frame.
    Local(usize),
    /// The component field in this slot.
    Field(usize),
    /// Unary operation.
    Unary(UnOp, Box<SlotExpr>),
    /// Binary operation.
    Binary(BinOp, Box<SlotExpr>, Box<SlotExpr>),
    /// Builtin call.
    Call(Builtin, Vec<SlotExpr>),
}

impl SlotExpr {
    /// Resolve `expr` against the slot names of the fields and of the
    /// executing method's locals, giving every name it mentions a slot
    /// (appended when new). `reads` receives the slot of every field
    /// named, in tree order with repeats.
    pub(crate) fn resolve(
        expr: &Expr,
        fields: &mut Vec<String>,
        locals: &mut Vec<String>,
        reads: &mut Vec<usize>,
    ) -> SlotExpr {
        let mut resolve = |e: &Expr| Self::resolve(e, fields, locals, reads);
        match expr {
            Expr::Int(n) => SlotExpr::Lit(Value::Int(*n)),
            Expr::Bool(b) => SlotExpr::Lit(Value::Bool(*b)),
            Expr::Str(s) => SlotExpr::Lit(Value::Str(s.as_str().into())),
            Expr::Var(name) => SlotExpr::Local(slot_of(locals, name)),
            Expr::Field(name) => {
                let slot = slot_of(fields, name);
                reads.push(slot);
                SlotExpr::Field(slot)
            }
            Expr::Unary(op, e) => SlotExpr::Unary(*op, Box::new(resolve(e))),
            Expr::Binary(op, a, b) => {
                let a = resolve(a);
                SlotExpr::Binary(*op, Box::new(a), Box::new(resolve(b)))
            }
            Expr::Call(builtin, args) => {
                SlotExpr::Call(*builtin, args.iter().map(resolve).collect())
            }
        }
    }
}

/// The slot of `name` in `names`, appending it when it has none.
pub(crate) fn slot_of(names: &mut Vec<String>, name: &str) -> usize {
    match names.iter().position(|n| n == name) {
        Some(slot) => slot,
        None => {
            names.push(name.to_string());
            names.len() - 1
        }
    }
}

/// One scope's slots and their names (the names only word faults).
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    /// The slot values.
    pub slots: &'a [Slot],
    /// The slot names, indexed like `slots`.
    pub names: &'a [String],
}

/// The variable environment an expression is evaluated in.
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    /// Component fields (shared state).
    pub fields: Scope<'a>,
    /// Locals and parameters of the executing frame.
    pub locals: Scope<'a>,
}

/// Read `slot` of `scope`; an unset slot faults as an undefined `kind`.
fn read(scope: Scope<'_>, slot: usize, kind: &str) -> Result<Value, EvalError> {
    scope.slots[slot]
        .clone()
        .ok_or_else(|| EvalError::new(format!("undefined {kind} `{}`", scope.names[slot])))
}

/// Evaluate `expr` in `env`.
pub fn eval(expr: &SlotExpr, env: &Env<'_>) -> Result<Value, EvalError> {
    match expr {
        SlotExpr::Lit(v) => Ok(v.clone()),
        SlotExpr::Local(slot) => read(env.locals, *slot, "local"),
        SlotExpr::Field(slot) => read(env.fields, *slot, "field"),
        SlotExpr::Unary(op, e) => {
            let v = eval(e, env)?;
            match op {
                UnOp::Neg => Ok(Value::Int(
                    v.as_int()?
                        .checked_neg()
                        .ok_or_else(|| EvalError::new("integer overflow in negation"))?,
                )),
                UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
            }
        }
        SlotExpr::Binary(op, a, b) => eval_binary(*op, a, b, env),
        SlotExpr::Call(builtin, args) => {
            // Every builtin takes one or two arguments; all are evaluated,
            // in order, so a faulting argument faults the call.
            let mut vals = [None, None];
            for (i, a) in args.iter().enumerate() {
                let v = eval(a, env)?;
                if let Some(slot) = vals.get_mut(i) {
                    *slot = Some(v);
                }
            }
            eval_builtin(*builtin, &vals)
        }
    }
}

fn eval_binary(op: BinOp, a: &SlotExpr, b: &SlotExpr, env: &Env<'_>) -> Result<Value, EvalError> {
    // Short-circuit operators first.
    match op {
        BinOp::And => {
            return Ok(Value::Bool(
                eval(a, env)?.as_bool()? && eval(b, env)?.as_bool()?,
            ))
        }
        BinOp::Or => {
            return Ok(Value::Bool(
                eval(a, env)?.as_bool()? || eval(b, env)?.as_bool()?,
            ))
        }
        _ => {}
    }
    let va = eval(a, env)?;
    let vb = eval(b, env)?;
    let int_op = |f: fn(i64, i64) -> Option<i64>| -> Result<Value, EvalError> {
        let x = va.as_int()?;
        let y = vb.as_int()?;
        f(x, y)
            .map(Value::Int)
            .ok_or_else(|| EvalError::new(format!("arithmetic fault in {x} {} {y}", op.symbol())))
    };
    let cmp_op = |f: fn(&i64, &i64) -> bool| -> Result<Value, EvalError> {
        Ok(Value::Bool(f(&va.as_int()?, &vb.as_int()?)))
    };
    match op {
        BinOp::Add => int_op(i64::checked_add),
        BinOp::Sub => int_op(i64::checked_sub),
        BinOp::Mul => int_op(i64::checked_mul),
        BinOp::Div => int_op(|x, y| if y == 0 { None } else { x.checked_div(y) }),
        BinOp::Mod => int_op(|x, y| if y == 0 { None } else { x.checked_rem(y) }),
        BinOp::Lt => cmp_op(|x, y| x < y),
        BinOp::Le => cmp_op(|x, y| x <= y),
        BinOp::Gt => cmp_op(|x, y| x > y),
        BinOp::Ge => cmp_op(|x, y| x >= y),
        BinOp::Eq => {
            if va.ty() != vb.ty() {
                return Err(EvalError::new("== on mismatched types"));
            }
            Ok(Value::Bool(va == vb))
        }
        BinOp::Ne => {
            if va.ty() != vb.ty() {
                return Err(EvalError::new("!= on mismatched types"));
            }
            Ok(Value::Bool(va != vb))
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn eval_builtin(builtin: Builtin, args: &[Option<Value>; 2]) -> Result<Value, EvalError> {
    let arg = |i: usize| {
        args[i]
            .as_ref()
            .unwrap_or_else(|| panic!("`{}` called without argument {i}", builtin.name()))
    };
    match builtin {
        Builtin::Len => Ok(Value::Int(arg(0).as_str()?.chars().count() as i64)),
        Builtin::CharAt => {
            let s = arg(0).as_str()?;
            let i = arg(1).as_int()?;
            let ch = usize::try_from(i)
                .ok()
                .and_then(|i| s.chars().nth(i))
                .ok_or_else(|| {
                    EvalError::new(format!("string index {i} out of bounds for {s:?}"))
                })?;
            Ok(Value::Str(ch.encode_utf8(&mut [0; 4]).into()))
        }
        Builtin::Concat => {
            let (a, b) = (arg(0).as_str()?, arg(1).as_str()?);
            Ok(Value::Str([a, b].concat().into()))
        }
        Builtin::ToStr => Ok(Value::Str(arg(0).as_int()?.to_string().into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::ast::Builtin;

    /// Resolve `expr` against `fields` and `locals` (name, value) pairs and
    /// evaluate it there; a name not in them gets an unset slot.
    fn eval_in(
        expr: &Expr,
        fields: &[(&str, Slot)],
        locals: &[(&str, Slot)],
    ) -> Result<Value, EvalError> {
        let names = |scope: &[(&str, Slot)]| scope.iter().map(|(n, _)| n.to_string()).collect();
        let (mut field_names, mut local_names): (Vec<String>, Vec<String>) =
            (names(fields), names(locals));
        let resolved = SlotExpr::resolve(expr, &mut field_names, &mut local_names, &mut Vec::new());
        let slots = |scope: &[(&str, Slot)], len: usize| {
            let mut slots: Vec<Slot> = scope.iter().map(|(_, v)| v.clone()).collect();
            slots.resize(len, None);
            slots
        };
        let field_slots = slots(fields, field_names.len());
        let local_slots = slots(locals, local_names.len());
        let env = Env {
            fields: Scope {
                slots: &field_slots,
                names: &field_names,
            },
            locals: Scope {
                slots: &local_slots,
                names: &local_names,
            },
        };
        eval(&resolved, &env)
    }

    fn ev(expr: &Expr) -> Result<Value, EvalError> {
        eval_in(expr, &[], &[])
    }

    fn fault(expr: &Expr, fields: &[(&str, Slot)], locals: &[(&str, Slot)]) -> String {
        eval_in(expr, fields, locals).unwrap_err().message
    }

    #[test]
    fn literals() {
        assert_eq!(ev(&Expr::Int(3)).unwrap(), Value::Int(3));
        assert_eq!(ev(&Expr::Bool(true)).unwrap(), Value::Bool(true));
        assert_eq!(
            ev(&Expr::Str("x".into())).unwrap(),
            Value::Str("x".into())
        );
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Int(2)),
            Box::new(Expr::Binary(BinOp::Mul, Box::new(Expr::Int(3)), Box::new(Expr::Int(4)))),
        );
        assert_eq!(ev(&e).unwrap(), Value::Int(14));
        let lt = Expr::Binary(BinOp::Lt, Box::new(Expr::Int(1)), Box::new(Expr::Int(2)));
        assert_eq!(ev(&lt).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_faults() {
        let e = Expr::Binary(BinOp::Div, Box::new(Expr::Int(1)), Box::new(Expr::Int(0)));
        assert_eq!(fault(&e, &[], &[]), "arithmetic fault in 1 / 0");
        let e = Expr::Binary(BinOp::Mod, Box::new(Expr::Int(1)), Box::new(Expr::Int(0)));
        assert!(ev(&e).is_err());
    }

    #[test]
    fn overflow_faults() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Int(i64::MAX)),
            Box::new(Expr::Int(1)),
        );
        assert!(ev(&e).is_err());
    }

    #[test]
    fn short_circuit_and() {
        // false && (1/0 == 0) must not fault.
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Bool(false)),
            Box::new(Expr::Binary(
                BinOp::Eq,
                Box::new(Expr::Binary(
                    BinOp::Div,
                    Box::new(Expr::Int(1)),
                    Box::new(Expr::Int(0)),
                )),
                Box::new(Expr::Int(0)),
            )),
        );
        assert_eq!(ev(&e).unwrap(), Value::Bool(false));
        // Nor does a short-circuited read of an unassigned name.
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Bool(false)),
            Box::new(Expr::Field("ghost".into())),
        );
        assert_eq!(ev(&e).unwrap(), Value::Bool(false));
    }

    #[test]
    fn fields_and_locals_resolve() {
        let fields = [("f", Some(Value::Int(10)))];
        let locals = [("x", Some(Value::Int(32)))];
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Field("f".into())),
            Box::new(Expr::Var("x".into())),
        );
        assert_eq!(eval_in(&e, &fields, &locals).unwrap(), Value::Int(42));
        assert_eq!(
            fault(&Expr::Var("ghost".into()), &fields, &locals),
            "undefined local `ghost`"
        );
        assert_eq!(
            fault(&Expr::Field("ghost".into()), &fields, &locals),
            "undefined field `ghost`"
        );
    }

    #[test]
    fn unset_slots_fault_like_missing_names() {
        // A local read before it is assigned, and a field that is only
        // ever stored to, have slots but no value yet.
        let fields = [("later", None)];
        let locals = [("tmp", None)];
        assert_eq!(
            fault(&Expr::Var("tmp".into()), &fields, &locals),
            "undefined local `tmp`"
        );
        assert_eq!(
            fault(&Expr::Field("later".into()), &fields, &locals),
            "undefined field `later`"
        );
        // A field name never resolves to a local slot, nor the reverse.
        assert_eq!(
            fault(&Expr::Field("tmp".into()), &fields, &locals),
            "undefined field `tmp`"
        );
        assert_eq!(
            fault(&Expr::Var("later".into()), &fields, &locals),
            "undefined local `later`"
        );
    }

    #[test]
    fn builtins() {
        let len = Expr::Call(Builtin::Len, vec![Expr::Str("abc".into())]);
        assert_eq!(ev(&len).unwrap(), Value::Int(3));
        let at = Expr::Call(
            Builtin::CharAt,
            vec![Expr::Str("abc".into()), Expr::Int(1)],
        );
        assert_eq!(ev(&at).unwrap(), Value::Str("b".into()));
        let oob = Expr::Call(
            Builtin::CharAt,
            vec![Expr::Str("abc".into()), Expr::Int(5)],
        );
        assert_eq!(
            fault(&oob, &[], &[]),
            "string index 5 out of bounds for \"abc\""
        );
        let neg = Expr::Call(
            Builtin::CharAt,
            vec![Expr::Str("abc".into()), Expr::Int(-1)],
        );
        assert!(ev(&neg).is_err());
        let multibyte = Expr::Call(Builtin::CharAt, vec![Expr::Str("aé".into()), Expr::Int(1)]);
        assert_eq!(ev(&multibyte).unwrap(), Value::Str("é".into()));
        let cc = Expr::Call(
            Builtin::Concat,
            vec![Expr::Str("ab".into()), Expr::Str("cd".into())],
        );
        assert_eq!(ev(&cc).unwrap(), Value::Str("abcd".into()));
        let ts = Expr::Call(Builtin::ToStr, vec![Expr::Int(-7)]);
        assert_eq!(ev(&ts).unwrap(), Value::Str("-7".into()));
        // Builtins read slots like any other expression.
        let locals = [
            ("s", Some(Value::Str("xy".into()))),
            ("i", Some(Value::Int(1))),
        ];
        let at = Expr::Call(
            Builtin::CharAt,
            vec![Expr::Var("s".into()), Expr::Var("i".into())],
        );
        assert_eq!(eval_in(&at, &[], &locals).unwrap(), Value::Str("y".into()));
        let cc = Expr::Call(
            Builtin::Concat,
            vec![
                Expr::Var("s".into()),
                Expr::Call(Builtin::ToStr, vec![Expr::Var("i".into())]),
            ],
        );
        assert_eq!(
            eval_in(&cc, &[], &locals).unwrap(),
            Value::Str("xy1".into())
        );
        // A type error names the offending value.
        let bad = Expr::Call(Builtin::ToStr, vec![Expr::Var("s".into())]);
        assert_eq!(fault(&bad, &[], &locals), "expected int, got \"xy\"");
    }

    #[test]
    fn value_helpers() {
        assert_eq!(Value::default_of(Type::Int), Value::Int(0));
        assert_eq!(Value::default_of(Type::Bool), Value::Bool(false));
        assert_eq!(Value::default_of(Type::Str), Value::Str("".into()));
        assert_eq!(Value::Int(1).ty(), Type::Int);
        assert!(Value::Bool(true).as_int().is_err());
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Int(1).as_str().is_err());
        assert_eq!(Value::Str("q".into()).to_string(), "\"q\"");
    }

    #[test]
    fn eq_requires_same_type() {
        let e = Expr::Binary(
            BinOp::Eq,
            Box::new(Expr::Int(1)),
            Box::new(Expr::Bool(true)),
        );
        assert_eq!(fault(&e, &[], &[]), "== on mismatched types");
    }
}
