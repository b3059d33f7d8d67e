//! Hostile input at the library boundary: a component built through the
//! API, not by the bounded Java parser, can nest arbitrarily deep. The
//! passes after validation walk its tree recursively, so `validate`
//! measures the nesting first, without recursion, and rejects anything
//! deeper than `MAX_NESTING_DEPTH` with a typed error; `Pipeline::new`
//! returns that error before any recursive pass.

use jcc_core::model::ast::{BinOp, Block, Component, Expr, LValue, LockRef, Stmt};
use jcc_core::model::parse_component;
use jcc_core::model::validate::MAX_NESTING_DEPTH;
use jcc_core::model::{validate, ValidationError};
use jcc_core::Pipeline;

/// `class Deep { int n = 0; void f() { body } }`.
fn deep(body: Block) -> Component {
    let mut c = parse_component("class Deep { int n = 0; void f() { } }").unwrap();
    c.methods[0].body = body;
    c
}

/// `n = value;`
fn assign(value: Expr) -> Stmt {
    Stmt::Assign {
        target: LValue::Field("n".into()),
        value,
    }
}

/// `levels` nested `synchronized (this)` blocks around `n = 1;`, which
/// nests `levels + 2` deep (the statement, then its literal).
fn nested_sync(levels: usize) -> Component {
    let mut body = vec![assign(Expr::Int(1))];
    for _ in 0..levels {
        body = vec![Stmt::Synchronized {
            lock: LockRef::This,
            body,
        }];
    }
    deep(body)
}

/// `n = 1 + 1 + … + 1` with `folds` additions, a left-deep tree that
/// nests `folds + 2` deep.
fn sum_chain(folds: usize) -> Component {
    let mut e = Expr::Int(1);
    for _ in 0..folds {
        e = Expr::Binary(BinOp::Add, Box::new(e), Box::new(Expr::Int(1)));
    }
    deep(vec![assign(e)])
}

fn too_deep_in_f() -> Vec<ValidationError> {
    vec![ValidationError::TooDeep { method: "f".into() }]
}

#[test]
fn a_ten_thousand_deep_mir_is_a_typed_error_not_a_stack_overflow() {
    for component in [nested_sync(10_000), sum_chain(10_000)] {
        assert_eq!(validate(&component), too_deep_in_f());
        assert_eq!(Pipeline::new(component).err(), Some(too_deep_in_f()));
    }
}

#[test]
fn nesting_at_the_limit_still_builds_a_pipeline_on_a_default_test_thread() {
    for (at_limit, over) in [
        (
            nested_sync(MAX_NESTING_DEPTH - 2),
            nested_sync(MAX_NESTING_DEPTH - 1),
        ),
        (
            sum_chain(MAX_NESTING_DEPTH - 2),
            sum_chain(MAX_NESTING_DEPTH - 1),
        ),
    ] {
        assert_eq!(validate(&at_limit), vec![]);
        assert!(Pipeline::new(at_limit).is_ok());
        assert_eq!(validate(&over), too_deep_in_f());
    }
}
