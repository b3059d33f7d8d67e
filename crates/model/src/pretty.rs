//! MIR → Java printer. Its output lowers back to the same MIR
//! (`parse_component(&print_component(c)) == c`), which the property tests
//! rely on. [`print_expr`] also labels CoFG arcs and analyzer messages.

use std::fmt::Write as _;

use crate::ast::{BinOp, Block, Component, Expr, LValue, LockRef, Method, Stmt, Type, UnOp};

/// Render a component as a Java class.
pub fn print_component(c: &Component) -> String {
    let mut out = format!("class {} {{\n", c.name);
    for lock in &c.locks {
        let _ = writeln!(out, "  private final Object {lock} = new Object();");
    }
    for field in &c.fields {
        let (ty, name, init) = (java_type(field.ty), &field.name, print_top(&field.init));
        let _ = writeln!(out, "  private {ty} {name} = {init};");
    }
    for method in &c.methods {
        print_method(&mut out, method);
    }
    out.push_str("}\n");
    out
}

fn java_type(ty: Type) -> &'static str {
    match ty {
        Type::Int => "int",
        Type::Bool => "boolean",
        Type::Str => "String",
    }
}

fn print_method(out: &mut String, m: &Method) {
    let sync = if m.synchronized { "synchronized " } else { "" };
    let ret = m.ret.map_or("void", java_type);
    let params = m
        .params
        .iter()
        .map(|p| format!("{} {}", java_type(p.ty), p.name))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "\n  public {sync}{ret} {}({params}) {{", m.name);
    print_block(out, &m.body, 2);
    out.push_str("  }\n");
}

fn print_block(out: &mut String, block: &Block, indent: usize) {
    for stmt in block {
        print_stmt(out, stmt, indent);
    }
}

fn receiver(lock: &LockRef) -> &str {
    match lock {
        LockRef::This => "this",
        LockRef::Named(n) => n,
    }
}

fn print_stmt(out: &mut String, stmt: &Stmt, indent: usize) {
    let pad = "  ".repeat(indent);
    match stmt {
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "{pad}while ({}) {{", print_top(cond));
            print_block(out, body, indent + 1);
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let _ = writeln!(out, "{pad}if ({}) {{", print_top(cond));
            print_block(out, then_branch, indent + 1);
            if !else_branch.is_empty() {
                let _ = writeln!(out, "{pad}}} else {{");
                print_block(out, else_branch, indent + 1);
            }
        }
        Stmt::Synchronized { lock, body } => {
            let _ = writeln!(out, "{pad}synchronized ({}) {{", receiver(lock));
            print_block(out, body, indent + 1);
        }
        simple => {
            let _ = writeln!(out, "{pad}{}", simple_stmt(simple));
            return;
        }
    }
    let _ = writeln!(out, "{pad}}}");
}

fn simple_stmt(stmt: &Stmt) -> String {
    let monitor_call = |lock: &LockRef, op: &str| match lock {
        LockRef::This => format!("{op}();"),
        LockRef::Named(n) => format!("{n}.{op}();"),
    };
    match stmt {
        Stmt::Wait { lock } => monitor_call(lock, "wait"),
        Stmt::Notify { lock } => monitor_call(lock, "notify"),
        Stmt::NotifyAll { lock } => monitor_call(lock, "notifyAll"),
        Stmt::Assign { target, value } => {
            let (LValue::Field(name) | LValue::Local(name)) = target;
            format!("{name} = {};", print_top(value))
        }
        Stmt::Local { name, ty, init } => {
            format!("{} {name} = {};", java_type(*ty), print_top(init))
        }
        Stmt::Return(None) => "return;".to_string(),
        Stmt::Return(Some(e)) => format!("return {};", print_top(e)),
        // A call outside the modelled subset lowers to `Skip`.
        Stmt::Skip => "Thread.yield();".to_string(),
        Stmt::While { .. } | Stmt::If { .. } | Stmt::Synchronized { .. } => {
            unreachable!("compound statements print through print_stmt")
        }
    }
}

/// [`print_expr`] without the parentheses around a top-level binary
/// expression, for positions that delimit the expression themselves.
fn print_top(expr: &Expr) -> String {
    match expr {
        Expr::Binary(op, a, b) => format!("{} {} {}", print_expr(a), op_symbol(*op), print_expr(b)),
        _ => print_expr(expr),
    }
}

/// Render an expression with minimal necessary parentheses (every binary
/// sub-expression is parenthesized for simplicity and re-parse fidelity).
pub fn print_expr(expr: &Expr) -> String {
    match expr {
        Expr::Int(n) => {
            if *n < 0 {
                // Negative literals print as unary negation to stay in the
                // grammar (the lexer has no negative literals).
                format!("(-{})", n.unsigned_abs())
            } else {
                n.to_string()
            }
        }
        Expr::Bool(b) => b.to_string(),
        Expr::Str(s) => format!(
            "\"{}\"",
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        ),
        Expr::Var(n) | Expr::Field(n) => n.clone(),
        Expr::Unary(op, e) => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            format!("{sym}{}", atom(e))
        }
        Expr::Binary(op, a, b) => {
            format!("({} {} {})", print_expr(a), op_symbol(*op), print_expr(b))
        }
        Expr::Call(builtin, args) => {
            let rendered = args.iter().map(print_expr).collect::<Vec<_>>().join(", ");
            format!("{}({rendered})", builtin.name())
        }
    }
}

fn atom(e: &Expr) -> String {
    match e {
        Expr::Binary(..) => print_expr(e), // already parenthesized
        Expr::Unary(..) => format!("({})", print_expr(e)),
        _ => print_expr(e),
    }
}

fn op_symbol(op: BinOp) -> &'static str {
    op.symbol()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::java::parse_component;

    #[test]
    fn roundtrip_producer_consumer() {
        let c1 = crate::examples::producer_consumer();
        let printed = print_component(&c1);
        assert!(
            printed.contains("  public synchronized String receive() {\n"),
            "{printed}"
        );
        let c2 = parse_component(&printed).unwrap();
        assert_eq!(c1, c2, "pretty-printed source did not re-parse equal");
    }

    #[test]
    fn roundtrip_nested_control_flow() {
        let src = r#"
            class Nest {
              final Object aux = new Object();
              int n = 0;
              synchronized int m(int k) {
                if (k > 0) {
                  while (n < k) {
                    n = n + 1;
                    if (n % 2 == 0) { notify(); } else { Thread.yield(); }
                  }
                } else {
                  synchronized (aux) { aux.wait(); }
                }
                return n;
              }
            }
        "#;
        let c1 = parse_component(src).unwrap();
        let c2 = parse_component(&print_component(&c1)).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let src = r#"class S { String s = "a\nb\"c\\d"; }"#;
        let c1 = parse_component(src).unwrap();
        let c2 = parse_component(&print_component(&c1)).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn negative_literal_prints_parseably() {
        let e = Expr::Int(-5);
        let printed = print_expr(&e);
        assert_eq!(printed, "(-5)");
        // Embedded in a component it must re-parse (as unary neg of 5).
        let src = format!("class N {{ int m() {{ return {printed}; }} }}");
        assert!(parse_component(&src).is_ok());
    }

    #[test]
    fn unary_chains_print_unambiguously() {
        let e = Expr::Unary(
            UnOp::Not,
            Box::new(Expr::Unary(UnOp::Not, Box::new(Expr::Bool(true)))),
        );
        let src = format!("class N {{ boolean m() {{ return {}; }} }}", print_expr(&e));
        let c = parse_component(&src).unwrap();
        let c2 = parse_component(&print_component(&c)).unwrap();
        assert_eq!(c, c2);
    }
}
