//! Recursive-descent parser for the concrete Signal syntax.
//!
//! Grammar (binding looser → tighter):
//!
//! ```text
//! program    := component*
//! component  := "process" IDENT "{" (decl | stmt)* "}"
//! decl       := ("input" | "output" | "local") binder ("," binder)* ";"
//! binder     := IDENT ":" ("int" | "bool")
//! stmt       := IDENT ":=" expr ";"
//!             | "sync" IDENT ("," IDENT)* ";"
//!             | IDENT "^=" IDENT ("^=" IDENT)* ";"
//! expr       := whenexpr ("default" whenexpr)*          -- left assoc
//! whenexpr   := orexpr ("when" orexpr)*                 -- left assoc
//! orexpr     := andexpr ("or" andexpr)*
//! andexpr    := cmpexpr ("and" cmpexpr)*
//! cmpexpr    := addexpr (("=" | "/=" | "<" | "<=" | ">" | ">=") addexpr)?
//! addexpr    := mulexpr (("+" | "-") mulexpr)*
//! mulexpr    := unary ("*" unary)*
//! unary      := "not" unary | "-" unary | "^" unary
//!             | "pre" literal unary | primary
//! primary    := IDENT | literal | "(" expr ")"
//! literal    := INT | "-" INT | "true" | "false"
//! ```
//!
//! Expressions are bounded in depth by [`MAX_EXPR_DEPTH`].

use polysig_tagged::{Value, ValueType};

use crate::ast::{Binop, Component, Declaration, Equation, Expr, Program, Role, Statement, Unop};
use crate::error::{LangError, Pos};
use crate::lexer::{tokenize, Spanned, Token};

/// The deepest expression the parser accepts. Depth counts every operator
/// node, every prefix operator and every parenthesis on the way down to a
/// leaf, so both `((((x))))` and the left-nested tree of a flat
/// `a + a + … + a` are bounded. The parser and every later pass (printing,
/// resolution, typing, the clock calculus, analysis, lowering) recurse once
/// per level, and a stack overflow aborts the process rather than
/// unwinding; 128 levels sit well inside a 2 MiB thread stack even in a
/// debug build. The printer parenthesizes every compound node, so its text
/// for an expression of depth `d` has depth `2d`.
pub const MAX_EXPR_DEPTH: usize = 128;

/// Parses a whole program (one or more `process` blocks).
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
///
/// ```
/// let p = polysig_lang::parse_program(
///     "process A { output x: int; x := 1 when true; } process B { input x: int; }",
/// )?;
/// assert_eq!(p.components.len(), 2);
/// # Ok::<(), polysig_lang::LangError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, LangError> {
    let tokens = tokenize(src)?;
    let mut p = Parser::new(&tokens);
    let mut program = Program::new("main");
    while !p.at_end() {
        program.components.push(p.component()?);
    }
    if program.components.len() == 1 {
        program.name = program.components[0].name.clone();
    }
    Ok(program)
}

/// Parses a single `process` block.
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
pub fn parse_component(src: &str) -> Result<Component, LangError> {
    let tokens = tokenize(src)?;
    let mut p = Parser::new(&tokens);
    let c = p.component()?;
    p.expect_end()?;
    Ok(c)
}

/// Parses a standalone expression (handy in tests and tools).
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
pub fn parse_expr(src: &str) -> Result<Expr, LangError> {
    let tokens = tokenize(src)?;
    let mut p = Parser::new(&tokens);
    let (e, _) = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

/// A parsed expression with its depth (see [`MAX_EXPR_DEPTH`]).
type Deep = Result<(Expr, usize), LangError>;

struct Parser<'a> {
    tokens: &'a [Spanned],
    i: usize,
    /// Parentheses and prefix operators open on the way down.
    open: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Spanned]) -> Self {
        Parser { tokens, i: 0, open: 0 }
    }

    /// The depth of a node over children at most `below` deep.
    fn deeper(&self, below: usize) -> Result<usize, LangError> {
        if below >= MAX_EXPR_DEPTH {
            return Err(LangError::TooDeep { pos: self.pos(), limit: MAX_EXPR_DEPTH });
        }
        Ok(below + 1)
    }

    /// Parses `inner` under one more parenthesis or prefix operator,
    /// refusing before the descent passes the bound.
    fn nested(&mut self, inner: fn(&mut Self) -> Deep) -> Deep {
        self.deeper(self.open)?;
        self.open += 1;
        let parsed = inner(self);
        self.open -= 1;
        let (e, d) = parsed?;
        Ok((e, self.deeper(d)?))
    }

    fn at_end(&self) -> bool {
        self.i >= self.tokens.len()
    }

    fn pos(&self) -> Pos {
        self.tokens
            .get(self.i)
            .map(|s| s.pos)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.pos).unwrap_or_default())
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.i).map(|s| &s.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.i).map(|s| s.token.clone());
        self.i += 1;
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, message: impl Into<String>) -> LangError {
        LangError::Parse { pos: self.pos(), message: message.into() }
    }

    fn expect(&mut self, t: Token, what: &str) -> Result<(), LangError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_end(&self) -> Result<(), LangError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing token {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, LangError> {
        match self.bump() {
            Some(Token::Ident(name)) => Ok(name.clone()),
            other => Err(LangError::Parse {
                pos: self.tokens.get(self.i.saturating_sub(1)).map(|s| s.pos).unwrap_or_default(),
                message: format!("expected {what}, found {other:?}"),
            }),
        }
    }

    fn component(&mut self) -> Result<Component, LangError> {
        self.expect(Token::KwProcess, "`process`")?;
        let name = self.ident("component name")?;
        self.expect(Token::LBrace, "`{`")?;
        let mut c = Component::new(name);
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.i += 1;
                    break;
                }
                Some(Token::KwInput) => self.decl_line(&mut c, Role::Input)?,
                Some(Token::KwOutput) => self.decl_line(&mut c, Role::Output)?,
                Some(Token::KwLocal) => self.decl_line(&mut c, Role::Local)?,
                Some(Token::KwSync) => {
                    self.i += 1;
                    let mut names = vec![self.ident("signal name")?.into()];
                    while self.eat(&Token::Comma) {
                        names.push(self.ident("signal name")?.into());
                    }
                    self.expect(Token::Semi, "`;`")?;
                    c.stmts.push(Statement::Sync(names));
                }
                Some(Token::Ident(_)) => {
                    let lhs: polysig_tagged::SigName = self.ident("signal name")?.into();
                    if self.eat(&Token::SyncEq) {
                        let mut names = vec![lhs];
                        names.push(self.ident("signal name")?.into());
                        while self.eat(&Token::SyncEq) {
                            names.push(self.ident("signal name")?.into());
                        }
                        self.expect(Token::Semi, "`;`")?;
                        c.stmts.push(Statement::Sync(names));
                    } else {
                        self.expect(Token::Assign, "`:=`")?;
                        let (rhs, _) = self.expr()?;
                        self.expect(Token::Semi, "`;`")?;
                        c.stmts.push(Statement::Eq(Equation { lhs, rhs }));
                    }
                }
                None => return Err(self.err("unterminated component, expected `}`")),
                other => return Err(self.err(format!("unexpected token {other:?} in component"))),
            }
        }
        Ok(c)
    }

    fn decl_line(&mut self, c: &mut Component, role: Role) -> Result<(), LangError> {
        self.i += 1; // keyword already peeked
        loop {
            let name = self.ident("signal name")?;
            self.expect(Token::Colon, "`:`")?;
            let ty = match self.bump() {
                Some(Token::KwIntTy) => ValueType::Int,
                Some(Token::KwBoolTy) => ValueType::Bool,
                other => return Err(self.err(format!("expected type, found {other:?}"))),
            };
            c.decls.push(Declaration { name: name.into(), role, ty });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(Token::Semi, "`;`")?;
        Ok(())
    }

    fn expr(&mut self) -> Deep {
        let (mut e, mut d) = self.when_expr()?;
        while self.eat(&Token::KwDefault) {
            let (rhs, rd) = self.when_expr()?;
            d = self.deeper(d.max(rd))?;
            e = e.default(rhs);
        }
        Ok((e, d))
    }

    fn when_expr(&mut self) -> Deep {
        let (mut e, mut d) = self.or_expr()?;
        while self.eat(&Token::KwWhen) {
            let (cond, cd) = self.or_expr()?;
            d = self.deeper(d.max(cd))?;
            e = e.when(cond);
        }
        Ok((e, d))
    }

    fn or_expr(&mut self) -> Deep {
        let (mut e, mut d) = self.and_expr()?;
        while self.eat(&Token::KwOr) {
            let (rhs, rd) = self.and_expr()?;
            d = self.deeper(d.max(rd))?;
            e = e.binop(Binop::Or, rhs);
        }
        Ok((e, d))
    }

    fn and_expr(&mut self) -> Deep {
        let (mut e, mut d) = self.cmp_expr()?;
        while self.eat(&Token::KwAnd) {
            let (rhs, rd) = self.cmp_expr()?;
            d = self.deeper(d.max(rd))?;
            e = e.binop(Binop::And, rhs);
        }
        Ok((e, d))
    }

    fn cmp_expr(&mut self) -> Deep {
        let (e, d) = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(Binop::Eq),
            Some(Token::Ne) => Some(Binop::Ne),
            Some(Token::Lt) => Some(Binop::Lt),
            Some(Token::Le) => Some(Binop::Le),
            Some(Token::Gt) => Some(Binop::Gt),
            Some(Token::Ge) => Some(Binop::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.i += 1;
            let (rhs, rd) = self.add_expr()?;
            Ok((e.binop(op, rhs), self.deeper(d.max(rd))?))
        } else {
            Ok((e, d))
        }
    }

    fn add_expr(&mut self) -> Deep {
        let (mut e, mut d) = self.mul_expr()?;
        loop {
            let op = if self.eat(&Token::Plus) {
                Binop::Add
            } else if self.eat(&Token::Minus) {
                Binop::Sub
            } else {
                return Ok((e, d));
            };
            let (rhs, rd) = self.mul_expr()?;
            d = self.deeper(d.max(rd))?;
            e = e.binop(op, rhs);
        }
    }

    fn mul_expr(&mut self) -> Deep {
        let (mut e, mut d) = self.unary()?;
        while self.eat(&Token::Star) {
            let (rhs, rd) = self.unary()?;
            d = self.deeper(d.max(rd))?;
            e = e.binop(Binop::Mul, rhs);
        }
        Ok((e, d))
    }

    fn unary(&mut self) -> Deep {
        match self.peek() {
            Some(Token::KwNot) => {
                self.i += 1;
                let (arg, d) = self.nested(Self::unary)?;
                Ok((arg.not(), d))
            }
            Some(Token::Minus) => {
                self.i += 1;
                let (arg, d) = self.nested(Self::unary)?;
                // fold negation of integer literals so `-1` has one
                // canonical AST regardless of how it was built
                if let Expr::Const(Value::Int(k)) = arg {
                    Ok((Expr::Const(Value::Int(-k)), d))
                } else {
                    Ok((Expr::Unary { op: Unop::Neg, arg: Box::new(arg) }, d))
                }
            }
            Some(Token::Caret) => {
                self.i += 1;
                let (arg, d) = self.nested(Self::unary)?;
                Ok((arg.clock(), d))
            }
            Some(Token::KwPre) => {
                self.i += 1;
                let init = self.literal()?;
                let (body, d) = self.nested(Self::unary)?;
                Ok((body.pre(init), d))
            }
            _ => self.primary(),
        }
    }

    fn literal(&mut self) -> Result<Value, LangError> {
        match self.bump() {
            Some(Token::Int(v)) => Ok(Value::Int(v)),
            Some(Token::KwTrue) => Ok(Value::Bool(true)),
            Some(Token::KwFalse) => Ok(Value::Bool(false)),
            Some(Token::Minus) => match self.bump() {
                Some(Token::Int(v)) => Ok(Value::Int(-v)),
                other => Err(self.err(format!("expected integer after `-`, found {other:?}"))),
            },
            other => Err(self.err(format!("expected literal, found {other:?}"))),
        }
    }

    fn primary(&mut self) -> Deep {
        match self.peek() {
            Some(Token::Ident(name)) => {
                let e = Expr::var(name.as_str());
                self.i += 1;
                Ok((e, 0))
            }
            Some(Token::Int(v)) => {
                let e = Expr::int(*v);
                self.i += 1;
                Ok((e, 0))
            }
            Some(Token::KwTrue) => {
                self.i += 1;
                Ok((Expr::bool(true), 0))
            }
            Some(Token::KwFalse) => {
                self.i += 1;
                Ok((Expr::bool(false), 0))
            }
            Some(Token::LParen) => {
                self.i += 1;
                let e = self.nested(Self::expr)?;
                self.expect(Token::RParen, "`)`")?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example_memory_cell() {
        // the single-cell memory of Example 1
        let c = parse_component(
            r#"
            process Memory {
                input msgin: int;
                input rd: bool;
                output msgout: int;
                local data: int;
                data := msgin default (pre 0 data);
                msgout := data when rd;
            }
            "#,
        )
        .unwrap();
        assert_eq!(c.name, "Memory");
        assert_eq!(c.decls.len(), 4);
        assert_eq!(c.equations().count(), 2);
        let data_eq = c.defining_equation(&"data".into()).unwrap();
        assert!(matches!(data_eq.rhs, Expr::Default { .. }));
    }

    #[test]
    fn default_binds_looser_than_when() {
        let e = parse_expr("a when b default c").unwrap();
        // (a when b) default c
        match e {
            Expr::Default { left, .. } => assert!(matches!(*left, Expr::When { .. })),
            other => panic!("expected default at top, got {other:?}"),
        }
    }

    #[test]
    fn when_chains_left_associatively() {
        let e = parse_expr("a when b when c").unwrap();
        match e {
            Expr::When { body, .. } => assert!(matches!(*body, Expr::When { .. })),
            other => panic!("expected nested when, got {other:?}"),
        }
    }

    #[test]
    fn pre_takes_literal_then_operand() {
        let e = parse_expr("pre 0 x").unwrap();
        match e {
            Expr::Pre { init, body } => {
                assert_eq!(init, Value::Int(0));
                assert_eq!(*body, Expr::var("x"));
            }
            other => panic!("expected pre, got {other:?}"),
        }
        let e = parse_expr("pre false full").unwrap();
        assert!(matches!(e, Expr::Pre { init: Value::Bool(false), .. }));
        let e = parse_expr("pre -1 x").unwrap();
        assert!(matches!(e, Expr::Pre { init: Value::Int(-1), .. }));
    }

    #[test]
    fn clock_of_and_not() {
        let e = parse_expr("not ^x").unwrap();
        match e {
            Expr::Unary { op: Unop::Not, arg } => {
                assert!(matches!(*arg, Expr::Unary { op: Unop::ClockOf, .. }));
            }
            other => panic!("expected not ^x, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("a + b * c").unwrap();
        match e {
            Expr::Binary { op: Binop::Add, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: Binop::Mul, .. }));
            }
            other => panic!("expected +, got {other:?}"),
        }
    }

    #[test]
    fn comparisons_and_logic() {
        let e = parse_expr("a < b and c = d or e").unwrap();
        assert!(matches!(e, Expr::Binary { op: Binop::Or, .. }));
    }

    #[test]
    fn sync_constraints_both_spellings() {
        let c = parse_component(
            "process S { local a: bool, b: bool, c: bool; a ^= b ^= c; sync a, b; a := b; b := c; c := true when a; }",
        )
        .unwrap();
        let syncs: Vec<_> = c.stmts.iter().filter(|s| matches!(s, Statement::Sync(_))).collect();
        assert_eq!(syncs.len(), 2);
        match syncs[0] {
            Statement::Sync(names) => assert_eq!(names.len(), 3),
            Statement::Eq(_) => unreachable!(),
        }
    }

    #[test]
    fn multiple_components() {
        let p = parse_program(
            "process A { output x: int; x := 1 when true; } process B { input x: int; output y: int; y := x; }",
        )
        .unwrap();
        assert_eq!(p.components.len(), 2);
        assert_eq!(p.shared_signals("A", "B").len(), 1);
    }

    #[test]
    fn error_on_missing_semicolon() {
        let r = parse_component("process P { output x: int; x := 1 }");
        assert!(matches!(r, Err(LangError::Parse { .. })));
    }

    #[test]
    fn error_on_trailing_tokens() {
        assert!(parse_expr("a b").is_err());
        assert!(parse_component("process P { } garbage").is_err());
    }

    #[test]
    fn error_on_bad_declaration() {
        let r = parse_component("process P { input x int; }");
        assert!(matches!(r, Err(LangError::Parse { .. })));
    }

    /// A component whose one equation has `rhs` as its right-hand side.
    fn with_rhs(rhs: &str) -> String {
        format!("process P {{ input a: int; output x: int; x := {rhs}; }}")
    }

    fn too_deep(src: &str) -> bool {
        matches!(parse_program(src), Err(LangError::TooDeep { limit: MAX_EXPR_DEPTH, .. }))
    }

    #[test]
    fn nesting_is_bounded_at_the_limit() {
        let nest = |n: usize| with_rhs(&format!("{}a{}", "(".repeat(n), ")".repeat(n)));
        crate::check_program(&nest(MAX_EXPR_DEPTH)).expect("nesting at the bound is accepted");
        assert!(too_deep(&nest(MAX_EXPR_DEPTH + 1)));
        // far past the bound the parser stops on the way down
        assert!(too_deep(&nest(100_000)));
        let prefix = |n: usize| with_rhs(&format!("{}a", "- ".repeat(n)));
        crate::check_program(&prefix(MAX_EXPR_DEPTH)).expect("prefix chain at the bound");
        assert!(too_deep(&prefix(MAX_EXPR_DEPTH + 1)));
    }

    #[test]
    fn flat_chains_are_bounded_at_the_limit() {
        // n terms build n - 1 left-nested operator nodes
        let sum = |terms: usize| with_rhs(&vec!["a"; terms].join(" + "));
        let at_bound = crate::check_program(&sum(MAX_EXPR_DEPTH + 1)).expect("sum at the bound");
        assert!(too_deep(&sum(MAX_EXPR_DEPTH + 2)));
        assert!(too_deep(&sum(100_000)));
        let err = parse_program(&sum(MAX_EXPR_DEPTH + 2)).unwrap_err();
        assert!(err.to_string().contains("nests deeper than 128 levels"), "{err}");
        // the printer parenthesizes each node, doubling the depth: its text
        // is refused with the same structured error, not a stack overflow
        let printed = crate::pretty_program(&at_bound);
        assert!(too_deep(&printed));
        let half = crate::check_program(&sum(MAX_EXPR_DEPTH / 2 + 1)).unwrap();
        assert_eq!(parse_program(&crate::pretty_program(&half)).unwrap(), half);
    }

    #[test]
    fn parenthesized_expressions() {
        let e = parse_expr("(a default b) when (not c)").unwrap();
        assert!(matches!(e, Expr::When { .. }));
    }
}
