//! Recursive-descent parser for the component DSL.
//!
//! Grammar (EBNF, whitespace and `//` comments insignificant):
//!
//! ```text
//! component  := "class" IDENT "{" decl* "}"
//! decl       := "lock" IDENT ";"
//!             | "var" IDENT ":" type "=" literal ";"
//!             | ("synchronized")? "fn" IDENT "(" params? ")" ("->" type)? block
//! params     := IDENT ":" type ("," IDENT ":" type)*
//! block      := "{" stmt* "}"
//! stmt       := "while" "(" expr ")" block
//!             | "if" "(" expr ")" block ("else" block)?
//!             | "wait" ("(" lockref ")")? ";"
//!             | "notify" ("(" lockref ")")? ";"
//!             | "notifyAll" ("(" lockref ")")? ";"
//!             | "synchronized" "(" lockref ")" block
//!             | "return" expr? ";"
//!             | "let" IDENT ":" type "=" expr ";"
//!             | "skip" ";"
//!             | IDENT "=" expr ";"            (assignment; fields shadowable by locals)
//! lockref    := "this" | IDENT
//! expr       := or-expression with C-like precedence:
//!               ||  <  &&  <  == !=  <  < <= > >=  <  + -  <  * / %  <  unary ! -
//! primary    := INT | STRING | "true" | "false" | IDENT | builtin "(" args ")" | "(" expr ")"
//! ```
//!
//! Name resolution of `IDENT` in expressions (local vs field) is done later
//! by the validator; the parser emits [`Expr::Var`] and the validator
//! rewrites to [`Expr::Field`] — callers should use [`parse_component`],
//! which runs that resolution pass.

use std::fmt;

use crate::ast::{
    visit_stmts, BinOp, Block, Builtin, Component, Expr, Field, LValue, LockRef, Method, Param,
    Stmt, Type, UnOp,
};
use crate::lexer::{lex, LexError, Token, TokenKind};

/// A parse error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parse a component from DSL source and resolve field references.
pub fn parse_component(src: &str) -> Result<Component, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut component = p.component()?;
    resolve_names(&mut component);
    Ok(component)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let t = &self.tokens[self.pos];
        Err(ParseError {
            message: format!("{} (found `{}`)", message.into(), t.kind),
            line: t.line,
            col: t.col,
        })
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            self.error(format!("expected `{kind}`"))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            _ => self.error("expected identifier"),
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        match self.advance() {
            TokenKind::IntTy => Ok(Type::Int),
            TokenKind::BoolTy => Ok(Type::Bool),
            TokenKind::StrTy => Ok(Type::Str),
            _ => {
                self.pos -= 1;
                self.error("expected type (`int`, `bool` or `str`)")
            }
        }
    }

    fn component(&mut self) -> Result<Component, ParseError> {
        self.expect(TokenKind::Class)?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        let mut locks = Vec::new();
        loop {
            match self.peek() {
                TokenKind::RBrace => {
                    self.advance();
                    break;
                }
                TokenKind::Lock => {
                    self.advance();
                    locks.push(self.ident()?);
                    self.expect(TokenKind::Semi)?;
                }
                TokenKind::Var => {
                    self.advance();
                    let fname = self.ident()?;
                    self.expect(TokenKind::Colon)?;
                    let ty = self.ty()?;
                    self.expect(TokenKind::Assign)?;
                    let init = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    fields.push(Field {
                        name: fname,
                        ty,
                        init,
                    });
                }
                TokenKind::Synchronized | TokenKind::Fn => {
                    methods.push(self.method()?);
                }
                TokenKind::Eof => return self.error("unexpected end of input in class body"),
                _ => return self.error("expected `var`, `lock`, `fn` or `}`"),
            }
        }
        if *self.peek() != TokenKind::Eof {
            return self.error("trailing input after class");
        }
        Ok(Component {
            name,
            locks,
            fields,
            methods,
        })
    }

    fn method(&mut self) -> Result<Method, ParseError> {
        let synchronized = if *self.peek() == TokenKind::Synchronized {
            self.advance();
            true
        } else {
            false
        };
        self.expect(TokenKind::Fn)?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                let pname = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let ty = self.ty()?;
                params.push(Param { name: pname, ty });
                if *self.peek() == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let ret = if *self.peek() == TokenKind::Arrow {
            self.advance();
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(Method {
            name,
            params,
            ret,
            synchronized,
            body,
        })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            if *self.peek() == TokenKind::Eof {
                return self.error("unexpected end of input in block");
            }
            stmts.push(self.stmt()?);
        }
        self.advance();
        Ok(stmts)
    }

    fn lockref_parens_opt(&mut self) -> Result<LockRef, ParseError> {
        if *self.peek() == TokenKind::LParen {
            self.advance();
            let r = self.lockref()?;
            self.expect(TokenKind::RParen)?;
            Ok(r)
        } else {
            Ok(LockRef::This)
        }
    }

    fn lockref(&mut self) -> Result<LockRef, ParseError> {
        match self.peek().clone() {
            TokenKind::This => {
                self.advance();
                Ok(LockRef::This)
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(LockRef::Named(name))
            }
            _ => self.error("expected `this` or a lock name"),
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            TokenKind::While => {
                self.advance();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::If => {
                self.advance();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then_branch = self.block()?;
                let else_branch = if *self.peek() == TokenKind::Else {
                    self.advance();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            TokenKind::Wait => {
                self.advance();
                let lock = self.lockref_parens_opt()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Wait { lock })
            }
            TokenKind::Notify => {
                self.advance();
                let lock = self.lockref_parens_opt()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Notify { lock })
            }
            TokenKind::NotifyAll => {
                self.advance();
                let lock = self.lockref_parens_opt()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::NotifyAll { lock })
            }
            TokenKind::Synchronized => {
                self.advance();
                self.expect(TokenKind::LParen)?;
                let lock = self.lockref()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                Ok(Stmt::Synchronized { lock, body })
            }
            TokenKind::Return => {
                self.advance();
                if *self.peek() == TokenKind::Semi {
                    self.advance();
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            TokenKind::Let => {
                self.advance();
                let name = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let ty = self.ty()?;
                self.expect(TokenKind::Assign)?;
                let init = self.expr()?;
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Local { name, ty, init })
            }
            TokenKind::Skip => {
                self.advance();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Skip)
            }
            TokenKind::Ident(name) => {
                if *self.peek2() == TokenKind::Assign {
                    self.advance();
                    self.advance();
                    let value = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    // Field-vs-local resolution happens in resolve_names.
                    Ok(Stmt::Assign {
                        target: LValue::Local(name),
                        value,
                    })
                } else {
                    self.error("expected `=` after identifier (only assignments may start with an identifier)")
                }
            }
            _ => self.error("expected a statement"),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while *self.peek() == TokenKind::OrOr {
            self.advance();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.equality_expr()?;
        while *self.peek() == TokenKind::AndAnd {
            self.advance();
            let rhs = self.equality_expr()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn equality_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.relational_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::Ne,
                _ => break,
            };
            self.advance();
            let rhs = self.relational_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn relational_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            self.advance();
            let rhs = self.additive_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn additive_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.multiplicative_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            TokenKind::Bang => {
                self.advance();
                let e = self.unary_expr()?;
                Ok(Expr::Unary(UnOp::Not, Box::new(e)))
            }
            TokenKind::Minus => {
                self.advance();
                let e = self.unary_expr()?;
                Ok(Expr::Unary(UnOp::Neg, Box::new(e)))
            }
            _ => self.primary_expr(),
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.advance();
                Ok(Expr::Int(n))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Str(s))
            }
            TokenKind::True => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            TokenKind::False => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if *self.peek2() == TokenKind::LParen {
                    let Some(builtin) = Builtin::by_name(&name) else {
                        return self.error(format!("unknown function `{name}`"));
                    };
                    self.advance();
                    self.advance();
                    let mut args = Vec::new();
                    if *self.peek() != TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if *self.peek() == TokenKind::Comma {
                                self.advance();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(Expr::Call(builtin, args))
                } else {
                    self.advance();
                    Ok(Expr::Var(name))
                }
            }
            _ => self.error("expected an expression"),
        }
    }
}

/// Rewrite `Expr::Var` references that name component fields into
/// `Expr::Field`, and `LValue::Local` targets likewise, respecting local
/// shadowing. Locals are collected per method (block-scoped declarations are
/// treated method-wide, matching the validator's rules).
fn resolve_names(component: &mut Component) {
    let field_names: Vec<String> = component.fields.iter().map(|f| f.name.clone()).collect();
    for method in &mut component.methods {
        let mut locals: Vec<String> = method.params.iter().map(|p| p.name.clone()).collect();
        visit_stmts(&method.body, &mut |stmt| {
            if let Stmt::Local { name, .. } = stmt {
                locals.push(name.clone());
            }
        });
        let is_field =
            |name: &str| field_names.iter().any(|f| f == name) && !locals.iter().any(|l| l == name);
        rewrite_block(&mut method.body, &is_field);
    }
    // Field initializers may not reference anything, but resolve for safety.
    for field in &mut component.fields {
        rewrite_expr(&mut field.init, &|_| false);
    }
}

fn rewrite_block(block: &mut Block, is_field: &impl Fn(&str) -> bool) {
    for stmt in block {
        match stmt {
            Stmt::While { cond, body } => {
                rewrite_expr(cond, is_field);
                rewrite_block(body, is_field);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                rewrite_expr(cond, is_field);
                rewrite_block(then_branch, is_field);
                rewrite_block(else_branch, is_field);
            }
            Stmt::Assign { target, value } => {
                rewrite_expr(value, is_field);
                if let LValue::Local(name) = target {
                    if is_field(name) {
                        *target = LValue::Field(name.clone());
                    }
                }
            }
            Stmt::Local { init, .. } => rewrite_expr(init, is_field),
            Stmt::Return(Some(e)) => rewrite_expr(e, is_field),
            Stmt::Synchronized { body, .. } => rewrite_block(body, is_field),
            _ => {}
        }
    }
}

fn rewrite_expr(expr: &mut Expr, is_field: &impl Fn(&str) -> bool) {
    match expr {
        Expr::Var(name)
            if is_field(name) => {
                *expr = Expr::Field(name.clone());
            }
        Expr::Unary(_, e) => rewrite_expr(e, is_field),
        Expr::Binary(_, a, b) => {
            rewrite_expr(a, is_field);
            rewrite_expr(b, is_field);
        }
        Expr::Call(_, args) => {
            for a in args {
                rewrite_expr(a, is_field);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, LValue, LockRef, Stmt, Type};

    const PRODUCER_CONSUMER: &str = r#"
        class ProducerConsumer {
          var contents: str = "";
          var totalLength: int = 0;
          var curPos: int = 0;

          synchronized fn receive() -> str {
            while (curPos == 0) { wait; }
            let y: str = charAt(contents, totalLength - curPos);
            curPos = curPos - 1;
            notifyAll;
            return y;
          }

          synchronized fn send(x: str) {
            while (curPos > 0) { wait; }
            contents = x;
            totalLength = len(x);
            curPos = totalLength;
            notifyAll;
          }
        }
    "#;

    #[test]
    fn parses_producer_consumer() {
        let c = parse_component(PRODUCER_CONSUMER).unwrap();
        assert_eq!(c.name, "ProducerConsumer");
        assert_eq!(c.fields.len(), 3);
        assert_eq!(c.methods.len(), 2);
        let receive = c.method("receive").unwrap();
        assert!(receive.synchronized);
        assert_eq!(receive.ret, Some(Type::Str));
        assert_eq!(receive.body.len(), 5);
        // First statement: while (curPos == 0) { wait; }
        match &receive.body[0] {
            Stmt::While { cond, body } => {
                assert_eq!(
                    *cond,
                    Expr::Binary(
                        BinOp::Eq,
                        Box::new(Expr::Field("curPos".into())),
                        Box::new(Expr::Int(0))
                    )
                );
                assert_eq!(body.len(), 1);
                assert!(matches!(body[0], Stmt::Wait { lock: LockRef::This }));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn field_references_resolved() {
        let c = parse_component(PRODUCER_CONSUMER).unwrap();
        let send = c.method("send").unwrap();
        // `contents = x;` — contents is a field, x is a param.
        match &send.body[1] {
            Stmt::Assign { target, value } => {
                assert_eq!(*target, LValue::Field("contents".into()));
                assert_eq!(*value, Expr::Var("x".into()));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn local_shadows_field() {
        let src = r#"
            class S {
              var x: int = 1;
              fn m() -> int {
                let x: int = 2;
                return x;
              }
            }
        "#;
        let c = parse_component(src).unwrap();
        match &c.method("m").unwrap().body[1] {
            Stmt::Return(Some(Expr::Var(name))) => assert_eq!(name, "x"),
            other => panic!("expected return of local var, got {other:?}"),
        }
    }

    #[test]
    fn named_locks_and_synchronized_blocks() {
        let src = r#"
            class TwoLocks {
              lock a;
              lock b;
              fn m() {
                synchronized (a) {
                  synchronized (b) { skip; }
                }
              }
            }
        "#;
        let c = parse_component(src).unwrap();
        assert_eq!(c.locks, vec!["a".to_string(), "b".to_string()]);
        match &c.method("m").unwrap().body[0] {
            Stmt::Synchronized { lock, body } => {
                assert_eq!(*lock, LockRef::Named("a".into()));
                assert!(matches!(
                    body[0],
                    Stmt::Synchronized {
                        lock: LockRef::Named(ref n),
                        ..
                    } if n == "b"
                ));
            }
            other => panic!("expected synchronized, got {other:?}"),
        }
    }

    #[test]
    fn wait_notify_with_explicit_lock() {
        let src = r#"
            class W {
              lock l;
              fn m() {
                synchronized (l) { wait(l); notify(l); notifyAll(l); }
              }
            }
        "#;
        let c = parse_component(src).unwrap();
        match &c.method("m").unwrap().body[0] {
            Stmt::Synchronized { body, .. } => {
                assert!(
                    matches!(&body[0], Stmt::Wait { lock: LockRef::Named(n) } if n == "l")
                );
                assert!(
                    matches!(&body[1], Stmt::Notify { lock: LockRef::Named(n) } if n == "l")
                );
                assert!(
                    matches!(&body[2], Stmt::NotifyAll { lock: LockRef::Named(n) } if n == "l")
                );
            }
            other => panic!("expected synchronized, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let src = r#"
            class P { fn m() -> bool { return 1 + 2 * 3 == 7 && true || false; } }
        "#;
        let c = parse_component(src).unwrap();
        let Stmt::Return(Some(e)) = &c.methods[0].body[0] else {
            panic!()
        };
        // ((1 + (2*3)) == 7 && true) || false
        match e {
            Expr::Binary(BinOp::Or, lhs, rhs) => {
                assert_eq!(**rhs, Expr::Bool(false));
                match &**lhs {
                    Expr::Binary(BinOp::And, l2, r2) => {
                        assert_eq!(**r2, Expr::Bool(true));
                        assert!(matches!(&**l2, Expr::Binary(BinOp::Eq, _, _)));
                    }
                    other => panic!("expected &&, got {other:?}"),
                }
            }
            other => panic!("expected ||, got {other:?}"),
        }
    }

    #[test]
    fn if_else_parses() {
        let src = r#"
            class B { fn m(v: int) -> int {
              if (v > 0) { return 1; } else { return 0 - 1; }
            } }
        "#;
        let c = parse_component(src).unwrap();
        match &c.methods[0].body[0] {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(then_branch.len(), 1);
                assert_eq!(else_branch.len(), 1);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn error_positions_reported() {
        let err = parse_component("class X { var y }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected"), "{}", err.message);
    }

    #[test]
    fn unknown_function_rejected() {
        let err = parse_component("class X { fn m() { let a: int = frobnicate(1); } }")
            .unwrap_err();
        assert!(err.message.contains("unknown function"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_component("class X { } class Y { }").unwrap_err();
        assert!(err.message.contains("trailing input"));
    }

    #[test]
    fn unary_operators_parse() {
        let src = "class U { fn m(b: bool, n: int) -> bool { return !b && -n < 0; } }";
        let c = parse_component(src).unwrap();
        assert!(matches!(&c.methods[0].body[0], Stmt::Return(Some(_))));
    }
}
