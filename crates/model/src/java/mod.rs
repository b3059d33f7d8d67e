//! The Java-subset frontend: the only surface syntax of the Monitor IR.
//!
//! Components are written as Java classes of the shape the paper studies —
//! fields, `synchronized` methods and `synchronized (expr)` blocks,
//! `wait()` / `notify()` / `notifyAll()`, `if`/`while`/assignment — and
//! lowered onto [`crate::ast`] unchanged. One module per stage:
//!
//! * [`span`] — byte spans and the [`span::SourceMap`] (offset → line:col),
//! * [`lexer`] — span-carrying tokens with lex-error recovery,
//! * [`parser`] — recursive descent with panic-mode recovery (sync on
//!   `;` / `}`): a syntax error never hides the rest of the file,
//! * [`lower`] — Java AST → Monitor IR, plus the [`lower::LowerMap`]
//!   carrying MIR method/statement ids back to source spans,
//! * [`diag`] — the spanned [`FrontDiag`] every stage reports.
//!
//! [`parse_component`] runs the whole pipeline on one class and fails on
//! the first diagnostic; `jcc-javasrc` renders them all instead.

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod span;

pub use diag::{FrontDiag, Phase};
pub use lower::{lower_class, LowerMap, Lowered};
pub use parser::parse;
pub use span::{SourceMap, Span};

use crate::ast::Component;

/// Parse and lower a source holding exactly one Java class. The first
/// frontend diagnostic, if any, is the error.
pub fn parse_component(src: &str) -> Result<Component, FrontDiag> {
    let (unit, diags) = parse(src);
    if let Some(d) = diags.into_iter().next() {
        return Err(d);
    }
    let [class] = unit.classes.as_slice() else {
        return Err(FrontDiag::new(
            Phase::Parse,
            Span::new(0, src.len()),
            format!("expected exactly one class, found {}", unit.classes.len()),
        ));
    };
    let lowered = lower_class(class);
    match lowered.diags.into_iter().next() {
        Some(d) => Err(d),
        None => Ok(lowered.component),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, LValue, Stmt};

    #[test]
    fn field_references_resolved() {
        let c = parse_component("class S { int contents; void send(int x) { contents = x; } }")
            .unwrap();
        // `contents` is a field, `x` is a param.
        assert_eq!(
            c.methods[0].body[0],
            Stmt::Assign {
                target: LValue::Field("contents".into()),
                value: Expr::var("x"),
            }
        );
    }

    #[test]
    fn local_shadows_field() {
        let c = parse_component(
            "class S { int x = 1; int y = 0; void m(int p) { y = x; int x = 2; y = x; } }",
        )
        .unwrap();
        let body = &c.methods[0].body;
        let assign = |value: Expr| Stmt::Assign {
            target: LValue::Field("y".into()),
            value,
        };
        // Before the local is declared `x` is the field; from there on the
        // local shadows it.
        assert_eq!(body[0], assign(Expr::field("x")));
        assert_eq!(body[2], assign(Expr::var("x")));
    }

    #[test]
    fn operator_precedence() {
        let c =
            parse_component("class P { boolean m() { return 1 + 2 * 3 == 7 && true || false; } }")
                .unwrap();
        let Stmt::Return(Some(Expr::Binary(BinOp::Or, lhs, rhs))) = &c.methods[0].body[0] else {
            panic!("expected `||` at the top: {:?}", c.methods[0].body[0]);
        };
        assert_eq!(**rhs, Expr::Bool(false));
        let Expr::Binary(BinOp::And, eq, _) = &**lhs else {
            panic!("expected `&&` under `||`: {lhs:?}");
        };
        assert!(matches!(**eq, Expr::Binary(BinOp::Eq, _, _)), "{eq:?}");
    }

    #[test]
    fn error_positions_reported() {
        let src = "class X {\n  int y\n}";
        let err = parse_component(src).unwrap_err();
        assert_eq!(err.phase, Phase::Parse);
        assert!(err.message.contains("expected"), "{err}");
        let (line, _) = SourceMap::new("X.java", src).line_col(err.span.lo);
        assert!(line >= 2, "error anchored at line {line}: {err}");
    }

    #[test]
    fn unknown_function_rejected() {
        let err = parse_component("class X { void m() { int a = frobnicate(1); } }").unwrap_err();
        assert_eq!(err.phase, Phase::Lower);
        assert!(err.message.contains("frobnicate"), "{err}");
    }

    #[test]
    fn non_ascii_string_literals_lower_to_the_same_text() {
        let c = parse_component(
            "class S { String s = \"é\"; String clef = \"𝄞 é\"; \
             String m() { return \"é\"; } }",
        )
        .unwrap();
        assert_eq!(c.fields[0].init, crate::ast::Expr::Str("é".into()));
        assert_eq!(c.fields[1].init, crate::ast::Expr::Str("𝄞 é".into()));
        // Printing and reparsing is a fixed point.
        let printed = crate::pretty::print_component(&c);
        assert!(printed.contains("\"𝄞 é\""), "{printed}");
        let again = parse_component(&printed).unwrap();
        assert_eq!(again, c);
        assert_eq!(crate::pretty::print_component(&again), printed);
    }

    #[test]
    fn non_ascii_identifiers_lower() {
        let c = parse_component("class Café { int ñ = 0; void m() { ñ = 1; } }").unwrap();
        assert_eq!(c.name, "Café");
        assert_eq!(c.fields[0].name, "ñ");
        assert_eq!(c.methods[0].name, "m");
        let printed = crate::pretty::print_component(&c);
        assert_eq!(parse_component(&printed).unwrap(), c);
    }

    #[test]
    fn exactly_one_class_is_a_component() {
        let err = parse_component("class X { } class Y { }").unwrap_err();
        assert!(err.message.contains("exactly one class, found 2"), "{err}");
    }
}
