//! Recursive-descent parser for the Java subset, with panic-mode recovery.
//!
//! The parser never aborts: a syntax error is recorded as a [`FrontDiag`]
//! and the parser synchronizes to the next `;` or `}` and keeps going, so
//! one malformed statement does not hide the rest of the file (the E13
//! recovery fixture asserts exactly this). `package`/`import` headers,
//! `extends`/`implements` clauses, `throws` lists, and access modifiers
//! are parsed and discarded — they carry no concurrency meaning.
//!
//! Nesting is bounded by [`MAX_NESTING_DEPTH`]: input nested deeper gets
//! one diagnostic and the rest of the file is abandoned, so hostile input
//! cannot overflow the stack.

use super::ast::*;
use super::diag::{FrontDiag, Phase};
use super::lexer::{lex, Tok, Token};
use super::span::Span;

/// How deep statements and expressions may nest: each nested statement,
/// bare block, expression (parenthesised or an argument), unary operator,
/// binary-operator fold and `.member` link is one level. The parser
/// recurses once per level, and lowering and analysis walk the tree it
/// builds, so deeper input is rejected with a diagnostic instead of
/// overflowing the stack.
pub const MAX_NESTING_DEPTH: usize = 128;

/// Parse one `.java` source text. Always returns a unit (possibly with no
/// classes); syntax errors are reported in the diagnostic list.
pub fn parse(src: &str) -> (CompilationUnit, Vec<FrontDiag>) {
    let (tokens, mut diags) = lex(src);
    let mut p = Parser {
        tokens,
        pos: 0,
        diags: Vec::new(),
        depth: 0,
        abandoned: false,
    };
    let unit = p.parse_unit();
    diags.append(&mut p.diags);
    (unit, diags)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Vec<FrontDiag>,
    /// Current nesting depth (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
    /// Set once the input nested too deep: the parser then sits at `Eof`
    /// and reports nothing more.
    abandoned: bool,
}

/// Statement-level parse failure; the caller synchronizes.
struct Recover;

type PResult<T> = Result<T, Recover>;

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &Tok {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &Tok) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &Tok) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error(&mut self, span: Span, message: impl Into<String>) {
        if !self.abandoned {
            self.diags.push(FrontDiag::new(Phase::Parse, span, message));
        }
    }

    /// Run `f` one nesting level deeper. Past [`MAX_NESTING_DEPTH`], report
    /// the input as too deep and abandon the rest of the file: every
    /// enclosing level then unwinds at `Eof` without further diagnostics.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.scoped(|p| {
            p.descend()?;
            f(p)
        })
    }

    /// Run `f`, then restore the nesting depth it started at: a fold or a
    /// chain [`Self::descend`]s once per link and never climbs back itself.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        let base = self.depth;
        let result = f(self);
        self.depth = base;
        result
    }

    /// Enter one nesting level, or abandon the file past the limit.
    fn descend(&mut self) -> PResult<()> {
        if self.depth >= MAX_NESTING_DEPTH {
            let span = self.peek_span();
            self.error(
                span,
                format!("nesting deeper than {MAX_NESTING_DEPTH} levels is not supported"),
            );
            self.abandoned = true;
            self.pos = self.tokens.len() - 1;
            return Err(Recover);
        }
        self.depth += 1;
        Ok(())
    }

    fn expect(&mut self, kind: &Tok, what: &str) -> PResult<Span> {
        if self.at(kind) {
            Ok(self.bump().span)
        } else {
            let found = self.peek().clone();
            let span = self.peek_span();
            self.error(span, format!("expected {what}, found `{found}`"));
            Err(Recover)
        }
    }

    fn expect_ident(&mut self, what: &str) -> PResult<(String, Span)> {
        if let Tok::Ident(name) = self.peek() {
            let name = name.clone();
            let span = self.bump().span;
            Ok((name, span))
        } else {
            let found = self.peek().clone();
            let span = self.peek_span();
            self.error(span, format!("expected {what}, found `{found}`"));
            Err(Recover)
        }
    }

    /// Panic-mode recovery: skip to just past the next `;`, or stop before
    /// `}` / `Eof` so the enclosing block can close normally.
    fn synchronize(&mut self) {
        loop {
            match self.peek() {
                Tok::Semi => {
                    self.bump();
                    return;
                }
                Tok::RBrace | Tok::Eof => return,
                // A statement keyword is a safe place to resume too.
                Tok::While | Tok::If | Tok::Return | Tok::Synchronized => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- compilation unit ------------------------------------------------

    fn parse_unit(&mut self) -> CompilationUnit {
        let mut classes = Vec::new();
        while !self.at(&Tok::Eof) {
            match self.peek() {
                Tok::Package | Tok::Import => {
                    // `package a.b.c;` / `import a.b.C;` — no concurrency
                    // meaning; skip to the terminating semicolon.
                    self.bump();
                    while !self.at(&Tok::Semi) && !self.at(&Tok::Eof) {
                        self.bump();
                    }
                    self.eat(&Tok::Semi);
                }
                _ => {
                    if let Some(class) = self.parse_class() {
                        classes.push(class);
                    }
                }
            }
        }
        CompilationUnit { classes }
    }

    fn skip_modifiers(&mut self) -> bool {
        let mut synchronized = false;
        loop {
            match self.peek() {
                Tok::Public
                | Tok::Private
                | Tok::Protected
                | Tok::Static
                | Tok::Final
                | Tok::Volatile
                | Tok::Abstract => {
                    self.bump();
                }
                Tok::Synchronized => {
                    synchronized = true;
                    self.bump();
                }
                _ => return synchronized,
            }
        }
    }

    fn parse_class(&mut self) -> Option<ClassDecl> {
        let start = self.peek_span();
        self.skip_modifiers();
        if !self.eat(&Tok::Class) {
            let found = self.peek().clone();
            let span = self.peek_span();
            self.error(span, format!("expected `class`, found `{found}`"));
            // Not even a class header: skip one token and retry at the
            // unit level rather than looping forever.
            self.bump();
            return None;
        }
        let (name, name_span) = match self.expect_ident("a class name") {
            Ok(v) => v,
            Err(Recover) => ("<error>".to_string(), self.peek_span()),
        };
        // `extends Base` / `implements I1, I2` — skip to the class body.
        while !self.at(&Tok::LBrace) && !self.at(&Tok::Eof) {
            self.bump();
        }
        let mut class = ClassDecl {
            name,
            name_span,
            span: start,
            fields: Vec::new(),
            methods: Vec::new(),
        };
        if self.expect(&Tok::LBrace, "`{` to open the class body").is_err() {
            return Some(class);
        }
        while !self.at(&Tok::RBrace) && !self.at(&Tok::Eof) {
            if self.parse_member(&mut class).is_err() {
                self.synchronize();
            }
        }
        let end = self.peek_span();
        self.eat(&Tok::RBrace);
        class.span = start.to(end);
        Some(class)
    }

    // ---- class members ---------------------------------------------------

    fn parse_member(&mut self, class: &mut ClassDecl) -> PResult<()> {
        let start = self.peek_span();
        let synchronized = self.skip_modifiers();

        // Constructor: the class name directly followed by `(`.
        if let Tok::Ident(n) = self.peek() {
            if n == &class.name && self.peek_at(1) == &Tok::LParen {
                let (name, name_span) = self.expect_ident("a constructor name")?;
                let method = self.finish_method(name, name_span, start, synchronized, JType::Void)?;
                class.methods.push(method);
                return Ok(());
            }
        }

        let ty = self.parse_type()?;
        let (name, name_span) = self.expect_ident("a field or method name")?;

        if self.at(&Tok::LParen) {
            let method = self.finish_method(name, name_span, start, synchronized, ty)?;
            class.methods.push(method);
        } else {
            let field = self.finish_field(name, name_span, start, ty)?;
            class.fields.push(field);
        }
        Ok(())
    }

    fn parse_type(&mut self) -> PResult<JType> {
        let ty = match self.peek().clone() {
            Tok::Int | Tok::Long => JType::Int,
            Tok::Boolean => JType::Bool,
            Tok::Void => JType::Void,
            Tok::Ident(n) => match n.as_str() {
                "String" => JType::Str,
                "Object" => JType::Object,
                _ => JType::Other(n),
            },
            found => {
                let span = self.peek_span();
                self.error(span, format!("expected a type, found `{found}`"));
                return Err(Recover);
            }
        };
        self.bump();
        if self.at(&Tok::LBracket) {
            let span = self.peek_span();
            self.error(span, "array types are not in the subset");
            return Err(Recover);
        }
        Ok(ty)
    }

    fn finish_field(
        &mut self,
        name: String,
        name_span: Span,
        start: Span,
        ty: JType,
    ) -> PResult<FieldDecl> {
        let mut is_lock = false;
        let mut init = None;
        if self.eat(&Tok::Assign) {
            // `= new Object()` declares an auxiliary lock; any other `new`
            // is outside the subset.
            if self.at(&Tok::New) {
                let new_span = self.bump().span;
                let (cls, _) = self.expect_ident("a class name after `new`")?;
                self.expect(&Tok::LParen, "`(`")?;
                self.expect(&Tok::RParen, "`)`")?;
                if cls == "Object" && ty == JType::Object {
                    is_lock = true;
                } else {
                    self.error(
                        new_span,
                        format!("`new {cls}()` is not in the subset"),
                    );
                    self.diags.last_mut().unwrap().help = Some(
                        "only `Object lock = new Object()` lock declarations are supported"
                            .to_string(),
                    );
                }
            } else {
                init = Some(self.parse_expr()?);
            }
        }
        let end = self.expect(&Tok::Semi, "`;` after the field declaration")?;
        Ok(FieldDecl {
            name,
            name_span,
            span: start.to(end),
            ty,
            is_lock,
            init,
        })
    }

    fn finish_method(
        &mut self,
        name: String,
        name_span: Span,
        start: Span,
        synchronized: bool,
        ret: JType,
    ) -> PResult<MethodDecl> {
        self.expect(&Tok::LParen, "`(` to open the parameter list")?;
        let mut params = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                let pstart = self.peek_span();
                let ty = self.parse_type()?;
                let (pname, pspan) = self.expect_ident("a parameter name")?;
                params.push(ParamDecl {
                    name: pname,
                    ty,
                    span: pstart.to(pspan),
                });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)` to close the parameter list")?;
        if self.eat(&Tok::Throws) {
            loop {
                self.expect_ident("an exception class name")?;
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        // Abstract/interface-style bodyless method.
        if self.at(&Tok::Semi) {
            let end = self.bump().span;
            return Ok(MethodDecl {
                name,
                name_span,
                span: start.to(end),
                synchronized,
                ret,
                params,
                body: Vec::new(),
            });
        }
        self.expect(&Tok::LBrace, "`{` to open the method body")?;
        let body = self.parse_block_body();
        let end = self.prev_span();
        Ok(MethodDecl {
            name,
            name_span,
            span: start.to(end),
            synchronized,
            ret,
            params,
            body,
        })
    }

    // ---- statements ------------------------------------------------------

    /// Parse statements up to and including the closing `}` of an
    /// already-opened block.
    fn parse_block_body(&mut self) -> Vec<JStmt> {
        let mut out = Vec::new();
        while !self.at(&Tok::RBrace) && !self.at(&Tok::Eof) {
            if self.parse_stmt_into(&mut out).is_err() {
                self.synchronize();
            }
        }
        self.eat(&Tok::RBrace);
        out
    }

    /// One statement (or a spliced bare block) appended to `out`.
    fn parse_stmt_into(&mut self, out: &mut Vec<JStmt>) -> PResult<()> {
        if self.eat(&Tok::LBrace) {
            // A bare `{ ... }` scope: Java scoping has no concurrency
            // meaning here, so its statements are spliced inline.
            let inner = self.nested(|p| Ok(p.parse_block_body()))?;
            out.extend(inner);
            return Ok(());
        }
        let stmt = self.parse_stmt()?;
        out.push(stmt);
        Ok(())
    }

    /// A block `{ ... }` or a single statement, as after `while (..)`.
    fn parse_body(&mut self) -> PResult<Vec<JStmt>> {
        if self.eat(&Tok::LBrace) {
            Ok(self.parse_block_body())
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_stmt(&mut self) -> PResult<JStmt> {
        self.nested(Self::parse_stmt_here)
    }

    fn parse_stmt_here(&mut self) -> PResult<JStmt> {
        let start = self.peek_span();
        match self.peek().clone() {
            Tok::Semi => {
                self.bump();
                Ok(JStmt {
                    kind: JStmtKind::Empty,
                    span: start,
                })
            }
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen, "`(` after `while`")?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)` after the loop condition")?;
                let body = self.parse_body()?;
                Ok(JStmt {
                    kind: JStmtKind::While { cond, body },
                    span: start.to(self.prev_span()),
                })
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen, "`(` after `if`")?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen, "`)` after the condition")?;
                let then_branch = self.parse_body()?;
                let else_branch = if self.eat(&Tok::Else) {
                    if self.at(&Tok::If) {
                        // `else if` chains nest as a one-statement else.
                        vec![self.parse_stmt()?]
                    } else {
                        self.parse_body()?
                    }
                } else {
                    Vec::new()
                };
                Ok(JStmt {
                    kind: JStmtKind::If {
                        cond,
                        then_branch,
                        else_branch,
                    },
                    span: start.to(self.prev_span()),
                })
            }
            Tok::Synchronized => {
                self.bump();
                self.expect(&Tok::LParen, "`(` after `synchronized`")?;
                let recv_expr = self.parse_expr()?;
                let recv_span = recv_expr.span;
                let recv = self.receiver_of(&recv_expr)?;
                self.expect(&Tok::RParen, "`)` after the lock expression")?;
                self.expect(&Tok::LBrace, "`{` to open the synchronized block")?;
                let body = self.parse_block_body();
                Ok(JStmt {
                    kind: JStmtKind::Synchronized {
                        recv,
                        recv_span,
                        body,
                    },
                    span: start.to(self.prev_span()),
                })
            }
            Tok::Return => {
                self.bump();
                let value = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                let end = self.expect(&Tok::Semi, "`;` after `return`")?;
                Ok(JStmt {
                    kind: JStmtKind::Return(value),
                    span: start.to(end),
                })
            }
            // Local declaration: a primitive type, or `Name name ...`.
            Tok::Int | Tok::Long | Tok::Boolean => self.parse_local(start),
            Tok::Ident(_) if matches!(self.peek_at(1), Tok::Ident(_)) => self.parse_local(start),
            // Assignment / increment on a bare identifier.
            Tok::Ident(name)
                if matches!(
                    self.peek_at(1),
                    Tok::Assign
                        | Tok::PlusAssign
                        | Tok::MinusAssign
                        | Tok::PlusPlus
                        | Tok::MinusMinus
                ) =>
            {
                let target_span = self.bump().span;
                self.finish_assign(name, false, target_span, start)
            }
            // `this.f = ...` / `this.f++` field assignment.
            Tok::This
                if matches!(self.peek_at(1), Tok::Dot)
                    && matches!(self.peek_at(2), Tok::Ident(_))
                    && matches!(
                        self.peek_at(3),
                        Tok::Assign
                            | Tok::PlusAssign
                            | Tok::MinusAssign
                            | Tok::PlusPlus
                            | Tok::MinusMinus
                    ) =>
            {
                self.bump(); // this
                self.bump(); // .
                let (name, tspan) = self.expect_ident("a field name")?;
                self.finish_assign(name, true, start.to(tspan), start)
            }
            _ => {
                // Expression statement: a call. Monitor operations become
                // first-class statements here.
                let expr = self.parse_expr()?;
                let end = self.expect(&Tok::Semi, "`;` after the expression")?;
                let span = start.to(end);
                let kind = self.expr_statement_kind(expr)?;
                Ok(JStmt { kind, span })
            }
        }
    }

    fn parse_local(&mut self, start: Span) -> PResult<JStmt> {
        let ty = self.parse_type()?;
        let (name, name_span) = self.expect_ident("a variable name")?;
        self.expect(&Tok::Assign, "`=` (locals must be initialized)")?;
        let init = self.parse_expr()?;
        let end = self.expect(&Tok::Semi, "`;` after the declaration")?;
        Ok(JStmt {
            kind: JStmtKind::Local {
                name,
                ty,
                name_span,
                init,
            },
            span: start.to(end),
        })
    }

    /// After the target of an assignment: `= e;`, `+= e;`, `-= e;`,
    /// `++;`, `--;` — compound forms desugar to plain assignment.
    fn finish_assign(
        &mut self,
        target: String,
        explicit_this: bool,
        target_span: Span,
        start: Span,
    ) -> PResult<JStmt> {
        let base = JExpr {
            kind: if explicit_this {
                JExprKind::FieldAccess(target.clone())
            } else {
                JExprKind::Ident(target.clone())
            },
            span: target_span,
        };
        let op = self.bump();
        let value = match op.kind {
            Tok::Assign => self.parse_expr()?,
            Tok::PlusAssign | Tok::PlusPlus | Tok::MinusAssign | Tok::MinusMinus => {
                let rhs = match op.kind {
                    Tok::PlusPlus | Tok::MinusMinus => JExpr {
                        kind: JExprKind::Int(1),
                        span: op.span,
                    },
                    _ => self.parse_expr()?,
                };
                let bop = match op.kind {
                    Tok::PlusAssign | Tok::PlusPlus => BinOpKind::Add,
                    _ => BinOpKind::Sub,
                };
                let span = base.span.to(rhs.span);
                JExpr {
                    kind: JExprKind::Binary(bop, Box::new(base), Box::new(rhs)),
                    span,
                }
            }
            _ => unreachable!("caller checked the operator token"),
        };
        let end = self.expect(&Tok::Semi, "`;` after the assignment")?;
        Ok(JStmt {
            kind: JStmtKind::Assign {
                target,
                explicit_this,
                target_span,
                value,
            },
            span: start.to(end),
        })
    }

    /// Classify an expression statement: `recv.wait()` family becomes a
    /// monitor-operation statement, everything else stays an [`JStmtKind::ExprStmt`].
    fn expr_statement_kind(&mut self, expr: JExpr) -> PResult<JStmtKind> {
        if let JExprKind::Call { recv, name, args } = &expr.kind {
            if matches!(name.as_str(), "wait" | "notify" | "notifyAll") {
                if !args.is_empty() {
                    self.error(
                        expr.span,
                        format!("`{name}` with arguments (timed wait) is not in the subset"),
                    );
                    return Err(Recover);
                }
                let receiver = match recv.as_deref() {
                    None => Receiver::This,
                    Some(r) => self.receiver_of(r)?,
                };
                return Ok(match name.as_str() {
                    "wait" => JStmtKind::Wait { recv: receiver },
                    "notify" => JStmtKind::Notify { recv: receiver },
                    _ => JStmtKind::NotifyAll { recv: receiver },
                });
            }
        }
        Ok(JStmtKind::ExprStmt(expr))
    }

    /// Convert an expression in receiver position (`synchronized (e)`,
    /// `e.wait()`) to a [`Receiver`].
    fn receiver_of(&mut self, e: &JExpr) -> PResult<Receiver> {
        match &e.kind {
            JExprKind::Ident(n) if n == "this" => Ok(Receiver::This),
            JExprKind::Ident(n) => Ok(Receiver::Name(n.clone())),
            JExprKind::FieldAccess(n) => Ok(Receiver::Name(n.clone())),
            _ => {
                self.error(
                    e.span,
                    "a monitor receiver must be `this`, a field, or `this.field`",
                );
                Err(Recover)
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> PResult<JExpr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> PResult<JExpr> {
        self.binary(Self::parse_and, |t| (*t == Tok::OrOr).then_some(BinOpKind::Or))
    }

    fn parse_and(&mut self) -> PResult<JExpr> {
        self.binary(Self::parse_equality, |t| {
            (*t == Tok::AndAnd).then_some(BinOpKind::And)
        })
    }

    fn parse_equality(&mut self) -> PResult<JExpr> {
        self.binary(Self::parse_relational, |t| match t {
            Tok::EqEq => Some(BinOpKind::Eq),
            Tok::NotEq => Some(BinOpKind::Ne),
            _ => None,
        })
    }

    fn parse_relational(&mut self) -> PResult<JExpr> {
        self.binary(Self::parse_additive, |t| match t {
            Tok::Lt => Some(BinOpKind::Lt),
            Tok::Le => Some(BinOpKind::Le),
            Tok::Gt => Some(BinOpKind::Gt),
            Tok::Ge => Some(BinOpKind::Ge),
            _ => None,
        })
    }

    fn parse_additive(&mut self) -> PResult<JExpr> {
        self.binary(Self::parse_multiplicative, |t| match t {
            Tok::Plus => Some(BinOpKind::Add),
            Tok::Minus => Some(BinOpKind::Sub),
            _ => None,
        })
    }

    fn parse_multiplicative(&mut self) -> PResult<JExpr> {
        self.binary(Self::parse_unary, |t| match t {
            Tok::Star => Some(BinOpKind::Mul),
            Tok::Slash => Some(BinOpKind::Div),
            Tok::Percent => Some(BinOpKind::Mod),
            _ => None,
        })
    }

    /// One left-associative precedence level: `operand (op operand)*`.
    /// Each fold nests the tree one level deeper, so it counts against
    /// [`MAX_NESTING_DEPTH`] until the level is done.
    fn binary(
        &mut self,
        operand: impl Fn(&mut Self) -> PResult<JExpr>,
        op_of: impl Fn(&Tok) -> Option<BinOpKind>,
    ) -> PResult<JExpr> {
        self.scoped(|p| {
            let mut lhs = operand(p)?;
            while let Some(op) = op_of(p.peek()) {
                p.bump();
                p.descend()?;
                let rhs = operand(p)?;
                let span = lhs.span.to(rhs.span);
                lhs = JExpr {
                    kind: JExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                    span,
                };
            }
            Ok(lhs)
        })
    }

    fn parse_unary(&mut self) -> PResult<JExpr> {
        let start = self.peek_span();
        let op = match self.peek() {
            Tok::Minus => Some(UnOpKind::Neg),
            Tok::Bang => Some(UnOpKind::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Self::parse_unary)?;
            let span = start.to(operand.span);
            return Ok(JExpr {
                kind: JExprKind::Unary(op, Box::new(operand)),
                span,
            });
        }
        self.parse_postfix()
    }

    /// A primary and its `.member` / `.m(..)` chain. Each link wraps the
    /// tree one level deeper, so it counts against [`MAX_NESTING_DEPTH`].
    fn parse_postfix(&mut self) -> PResult<JExpr> {
        self.scoped(Self::postfix_chain)
    }

    fn postfix_chain(&mut self) -> PResult<JExpr> {
        let mut e = self.parse_primary()?;
        while self.eat(&Tok::Dot) {
            self.descend()?;
            let (name, nspan) = self.expect_ident("a member name after `.`")?;
            if self.eat(&Tok::LParen) {
                let mut args = Vec::new();
                if !self.at(&Tok::RParen) {
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(&Tok::RParen, "`)` to close the argument list")?;
                let span = e.span.to(end);
                e = JExpr {
                    kind: JExprKind::Call {
                        recv: Some(Box::new(e)),
                        name,
                        args,
                    },
                    span,
                };
            } else {
                let span = e.span.to(nspan);
                // `this.f` is a field access; `x.f` on anything else is a
                // path we cannot model — keep it as a field access on the
                // *last* segment so `this.lock.wait()` still resolves.
                let is_this = matches!(&e.kind, JExprKind::Ident(n) if n == "this");
                if is_this {
                    e = JExpr {
                        kind: JExprKind::FieldAccess(name),
                        span,
                    };
                } else {
                    self.error(span, format!("member access `.{name}` is not in the subset"));
                    return Err(Recover);
                }
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> PResult<JExpr> {
        let span = self.peek_span();
        let kind = match self.peek().clone() {
            Tok::IntLit(n) => {
                self.bump();
                JExprKind::Int(n)
            }
            Tok::True => {
                self.bump();
                JExprKind::Bool(true)
            }
            Tok::False => {
                self.bump();
                JExprKind::Bool(false)
            }
            Tok::StrLit(s) => {
                self.bump();
                JExprKind::Str(s)
            }
            Tok::This => {
                self.bump();
                // `this` only means something under a postfix `.member` or
                // in receiver position; both handle this marker.
                JExprKind::Ident("this".to_string())
            }
            Tok::Ident(name) => {
                self.bump();
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.at(&Tok::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(&Tok::RParen, "`)` to close the argument list")?;
                    return Ok(JExpr {
                        kind: JExprKind::Call {
                            recv: None,
                            name,
                            args,
                        },
                        span: span.to(end),
                    });
                }
                JExprKind::Ident(name)
            }
            Tok::LParen => {
                self.bump();
                let inner = self.parse_expr()?;
                let end = self.expect(&Tok::RParen, "`)`")?;
                return Ok(JExpr {
                    kind: inner.kind,
                    span: span.to(end),
                });
            }
            Tok::Null => {
                self.bump();
                self.error(span, "`null` is not in the subset");
                return Err(Recover);
            }
            Tok::New => {
                self.bump();
                self.error(
                    span,
                    "`new` is only supported in `Object lock = new Object()` field declarations",
                );
                return Err(Recover);
            }
            found => {
                self.error(span, format!("expected an expression, found `{found}`"));
                return Err(Recover);
            }
        };
        Ok(JExpr { kind, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_clean(src: &str) -> CompilationUnit {
        let (unit, diags) = parse(src);
        assert!(diags.is_empty(), "{diags:?}");
        unit
    }

    #[test]
    fn minimal_class_with_field_and_method() {
        let unit = parse_clean(
            "package p;\nimport java.util.List;\n\
             public class Cell { private int v = 0; \
             public synchronized int get() { return v; } }",
        );
        assert_eq!(unit.classes.len(), 1);
        let c = &unit.classes[0];
        assert_eq!(c.name, "Cell");
        assert_eq!(c.fields.len(), 1);
        assert_eq!(c.fields[0].name, "v");
        assert!(!c.fields[0].is_lock);
        assert_eq!(c.methods.len(), 1);
        assert!(c.methods[0].synchronized);
        assert_eq!(c.methods[0].ret, JType::Int);
    }

    #[test]
    fn lock_field_and_synchronized_block() {
        let unit = parse_clean(
            "class B { private final Object lock = new Object(); \
             void m() { synchronized (lock) { lock.notifyAll(); } } }",
        );
        let c = &unit.classes[0];
        assert!(c.fields[0].is_lock);
        let m = &c.methods[0];
        match &m.body[0].kind {
            JStmtKind::Synchronized { recv, body, .. } => {
                assert_eq!(recv, &Receiver::Name("lock".into()));
                assert!(matches!(
                    body[0].kind,
                    JStmtKind::NotifyAll {
                        recv: Receiver::Name(_)
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wait_in_while_with_implicit_this() {
        let unit = parse_clean(
            "class W { boolean ready = false; \
             synchronized void await() { while (!ready) { wait(); } } }",
        );
        let m = &unit.classes[0].methods[0];
        match &m.body[0].kind {
            JStmtKind::While { body, .. } => {
                assert!(matches!(
                    body[0].kind,
                    JStmtKind::Wait {
                        recv: Receiver::This
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compound_assignment_desugars() {
        let unit = parse_clean("class C { int n = 0; synchronized void inc() { n += 2; n++; } }");
        let m = &unit.classes[0].methods[0];
        for stmt in &m.body {
            match &stmt.kind {
                JStmtKind::Assign { target, value, .. } => {
                    assert_eq!(target, "n");
                    assert!(matches!(value.kind, JExprKind::Binary(BinOpKind::Add, _, _)));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn else_if_chain_and_this_field_assign() {
        let unit = parse_clean(
            "class C { int s = 0; synchronized void m(int x) { \
             if (x > 0) { this.s = 1; } else if (x < 0) { s = 2; } else { s = 3; } } }",
        );
        let m = &unit.classes[0].methods[0];
        match &m.body[0].kind {
            JStmtKind::If { else_branch, .. } => {
                assert!(matches!(else_branch[0].kind, JStmtKind::If { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_calls_stay_expression_statements() {
        let unit = parse_clean("class C { void m() { helper(1); } }");
        let m = &unit.classes[0].methods[0];
        assert!(matches!(m.body[0].kind, JStmtKind::ExprStmt(_)));
    }

    #[test]
    fn recovery_resumes_after_bad_statement() {
        let (unit, diags) = parse(
            "class R { int n = 0; \
             synchronized void m() { n = ; n = 1; } \
             synchronized int get() { return n; } }",
        );
        assert!(!diags.is_empty());
        let c = &unit.classes[0];
        assert_eq!(c.methods.len(), 2, "second method survives the error");
        // The bad assignment is dropped, the good one is kept.
        assert_eq!(c.methods[0].body.len(), 1);
    }

    #[test]
    fn timed_wait_is_rejected() {
        let (_, diags) = parse("class T { synchronized void m() { wait(100); } }");
        assert!(diags.iter().any(|d| d.message.contains("timed wait")));
    }

    #[test]
    fn spans_point_at_the_wait_call() {
        let src = "class S { synchronized void m() { wait(); } }";
        let (unit, diags) = parse(src);
        assert!(diags.is_empty());
        let stmt = &unit.classes[0].methods[0].body[0];
        assert_eq!(&src[stmt.span.lo as usize..stmt.span.hi as usize], "wait();");
    }
}
