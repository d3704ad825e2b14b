//! Pretty-printer: renders ASTs back to parseable concrete syntax.
//!
//! The printer round-trips: `parse(pretty(p))` yields an equal AST, which
//! the test-suite checks. It prints only the parentheses the grammar
//! needs, so the printed text is never deeper than any source of the same
//! AST and every program the parser accepts prints to text it accepts
//! again (see [`crate::MAX_EXPR_DEPTH`]).

use std::fmt::Write as _;

use polysig_tagged::Value;

use crate::ast::{Binop, Component, Expr, Program, Role, Statement, Unop};

/// The binding strength of comparisons.
const COMPARISON: u8 = 4;
/// The binding strength of prefix operators, whose operand is a prefix
/// operator or a leaf.
const PREFIX: u8 = 7;
/// Tighter than any expression, so the operand always gets parentheses:
/// a negated integer literal prints as `- (3)`, because `- 3` would
/// reparse as the literal `-3`.
const PARENTHESIZED: u8 = 9;

/// Binding strength, loosest first: `default`, `when`, `or`, `and`,
/// comparisons, `+`/`-`, `*`, prefix operators, then leaves.
fn level(e: &Expr) -> u8 {
    match e {
        Expr::Default { .. } => 0,
        Expr::When { .. } => 1,
        Expr::Binary { op, .. } => match op {
            Binop::Or => 2,
            Binop::And => 3,
            Binop::Eq | Binop::Ne | Binop::Lt | Binop::Le | Binop::Gt | Binop::Ge => COMPARISON,
            Binop::Add | Binop::Sub => 5,
            Binop::Mul => 6,
        },
        Expr::Unary { .. } | Expr::Pre { .. } => PREFIX,
        Expr::Var(_) | Expr::Const(_) => 8,
    }
}

/// Renders an expression with only the parentheses its structure needs.
pub fn pretty_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, 0);
    out
}

/// Appends `e` in a slot that binds at least as tight as `min`,
/// parenthesizing it when it binds looser.
fn write_expr(out: &mut String, e: &Expr, min: u8) {
    let l = level(e);
    if l < min {
        out.push('(');
    }
    match e {
        Expr::Var(x) => out.push_str(x.as_str()),
        Expr::Const(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Pre { init, body } => {
            let _ = write!(out, "pre {init} ");
            write_expr(out, body, PREFIX);
        }
        Expr::Unary { op, arg } => {
            out.push_str(match op {
                Unop::Not => "not ",
                Unop::Neg => "- ",
                Unop::ClockOf => "^ ",
            });
            let negated_literal = *op == Unop::Neg && matches!(**arg, Expr::Const(Value::Int(_)));
            write_expr(out, arg, if negated_literal { PARENTHESIZED } else { PREFIX });
        }
        Expr::When { body: left, cond: right } | Expr::Default { left, right } => {
            // left-associative: the right operand binds one level tighter
            write_expr(out, left, l);
            out.push_str(if l == 0 { " default " } else { " when " });
            write_expr(out, right, l + 1);
        }
        Expr::Binary { op, left, right } => {
            // comparisons do not associate, so neither side may be one
            write_expr(out, left, if l == COMPARISON { l + 1 } else { l });
            let _ = write!(out, " {op} ");
            write_expr(out, right, l + 1);
        }
    }
    if l < min {
        out.push(')');
    }
}

/// Renders a component.
///
/// Declarations print in declaration order, one line per run of consecutive
/// same-role binders — grouping all declarations of one role together would
/// reorder interleaved `decls` and break the structural round trip.
pub fn pretty_component(c: &Component) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "process {} {{", c.name);
    let mut run: Vec<String> = Vec::new();
    let mut run_role: Option<Role> = None;
    let flush = |run: &mut Vec<String>, role: Option<Role>, out: &mut String| {
        if let (Some(role), false) = (role, run.is_empty()) {
            let _ = writeln!(out, "    {role} {};", run.join(", "));
            run.clear();
        }
    };
    for d in &c.decls {
        if run_role != Some(d.role) {
            flush(&mut run, run_role, &mut out);
            run_role = Some(d.role);
        }
        run.push(format!("{}: {}", d.name, d.ty));
    }
    flush(&mut run, run_role, &mut out);
    for stmt in &c.stmts {
        match stmt {
            Statement::Eq(eq) => {
                let _ = writeln!(out, "    {} := {};", eq.lhs, pretty_expr(&eq.rhs));
            }
            Statement::Sync(names) => {
                let joined: Vec<String> = names.iter().map(|n| n.to_string()).collect();
                let _ = writeln!(out, "    sync {};", joined.join(", "));
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a whole program.
///
/// ```
/// use polysig_lang::{parse_program, pretty_program};
/// let p = parse_program("process P { output x: int; x := 1 when true; }")?;
/// let text = pretty_program(&p);
/// let reparsed = parse_program(&text)?;
/// assert_eq!(p, reparsed);
/// # Ok::<(), polysig_lang::LangError>(())
/// ```
pub fn pretty_program(p: &Program) -> String {
    p.components.iter().map(pretty_component).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_component, parse_expr, parse_program};

    #[test]
    fn expr_round_trips() {
        for src in [
            "a when b default c",
            "pre 0 x",
            "not (^ y)",
            "(a + b) * c",
            "a < b and c = d",
            "(msgin when (not full)) default (pre 0 data)",
            "1 when true",
            "a /= b or a >= c",
        ] {
            let e = parse_expr(src).unwrap();
            let printed = pretty_expr(&e);
            let reparsed = parse_expr(&printed).unwrap();
            assert_eq!(e, reparsed, "round-trip failed for `{src}` -> `{printed}`");
        }
    }

    #[test]
    fn prints_only_the_parentheses_the_grammar_needs() {
        for (src, want) in [
            ("((a + b)) * c", "(a + b) * c"),
            ("a + (b * c)", "a + b * c"),
            ("(a - b) - c", "a - b - c"),
            ("a - (b - c)", "a - (b - c)"),
            ("(a when b) default (c default d)", "a when b default (c default d)"),
            ("(a < b) = (c = d)", "(a < b) = (c = d)"),
            ("not (a and b) or (pre 0 x)", "not (a and b) or pre 0 x"),
        ] {
            assert_eq!(pretty_expr(&parse_expr(src).unwrap()), want, "{src}");
        }
    }

    #[test]
    fn component_round_trips() {
        let src = r#"
        process OneFifo {
            input msgin: int, rd: bool;
            output msgout: int;
            local data: int, full: bool;
            data := (msgin when (not full)) default (pre 0 data);
            msgout := data when rd;
            full := (^msgin) default (pre false full);
            sync data, full;
        }
        "#;
        let c = parse_component(src).unwrap();
        let printed = pretty_component(&c);
        let reparsed = parse_component(&printed).unwrap();
        assert_eq!(c, reparsed);
    }

    #[test]
    fn program_round_trips() {
        let src = "process A { output x: int; x := 1 when true; } \
                   process B { input x: int; output y: int; y := x + 1; }";
        let p = parse_program(src).unwrap();
        let reparsed = parse_program(&pretty_program(&p)).unwrap();
        assert_eq!(p.components, reparsed.components);
    }

    #[test]
    fn interleaved_declaration_order_round_trips() {
        // regression: the printer used to emit declarations grouped by role
        // (all inputs, all outputs, all locals), silently reordering a
        // component whose declaration lines interleave roles
        let src = "process Mix { \
                   input a: int; local t: bool; input b: bool, c: int; \
                   output x: int; local u: int; output y: bool; \
                   x := a + c; y := b; t := b; u := a; }";
        let c = parse_component(src).unwrap();
        let printed = pretty_component(&c);
        let reparsed = parse_component(&printed).unwrap();
        assert_eq!(c, reparsed, "interleaved roles must survive printing:\n{printed}");
        let roles: Vec<_> = reparsed.decls.iter().map(|d| d.role).collect();
        use crate::ast::Role::{Input, Local, Output};
        assert_eq!(roles, vec![Input, Local, Input, Input, Output, Local, Output]);
    }

    #[test]
    fn negative_literals_round_trip() {
        let e = parse_expr("pre -3 x").unwrap();
        let reparsed = parse_expr(&pretty_expr(&e)).unwrap();
        assert_eq!(e, reparsed);
    }

    #[test]
    fn ast_built_literals_round_trip() {
        // neither node has a source spelling the printer could get wrong:
        // `i64::MIN` prints as a negative literal, and a negated literal
        // keeps its parentheses so the sign does not fold into it
        let neg = |k| Expr::Unary { op: Unop::Neg, arg: Box::new(Expr::int(k)) };
        let min = Expr::int(i64::MIN);
        for e in [
            min.clone(),
            Expr::var("x").pre(Value::Int(i64::MIN)),
            Expr::var("a").binop(Binop::Sub, min),
            neg(3),
            neg(-3),
            neg(i64::MIN),
        ] {
            let printed = pretty_expr(&e);
            assert_eq!(parse_expr(&printed).unwrap(), e, "`{printed}`");
        }
        assert_eq!(pretty_expr(&neg(3)), "- (3)");
    }
}
