//! Compiled expression IR: signal references resolved to dense indices and
//! every `pre` given a register id.

use polysig_lang::{Binop, Expr, Unop};
use polysig_tagged::Value;

/// A compiled expression. Mirrors [`polysig_lang::Expr`] with dense signal
/// indices and explicit `pre` register ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CExpr {
    /// A signal read, by dense index.
    Var(usize),
    /// A constant (ubiquitous clock).
    Const(Value),
    /// A delay with its register id.
    Pre {
        /// Index into the reactor's register file.
        reg: usize,
        /// The delayed expression.
        body: Box<CExpr>,
    },
    /// Sampling.
    When {
        /// The sampled expression.
        body: Box<CExpr>,
        /// The boolean condition.
        cond: Box<CExpr>,
    },
    /// Deterministic merge.
    Default {
        /// Preferred branch.
        left: Box<CExpr>,
        /// Fallback branch.
        right: Box<CExpr>,
    },
    /// Unary pointwise operator.
    Unary {
        /// The operator.
        op: Unop,
        /// The operand.
        arg: Box<CExpr>,
    },
    /// Binary synchronous pointwise operator.
    Binary {
        /// The operator.
        op: Binop,
        /// Left operand.
        left: Box<CExpr>,
        /// Right operand.
        right: Box<CExpr>,
    },
}

impl CExpr {
    /// `true` iff the expression contains a `pre` anywhere — equations
    /// without one own no registers, so the post-reaction register-update
    /// walk can skip them entirely.
    pub fn has_pre(&self) -> bool {
        match self {
            CExpr::Var(_) | CExpr::Const(_) => false,
            CExpr::Pre { .. } => true,
            CExpr::When { body: left, cond: right }
            | CExpr::Default { left, right }
            | CExpr::Binary { left, right, .. } => left.has_pre() || right.has_pre(),
            CExpr::Unary { arg, .. } => arg.has_pre(),
        }
    }

    /// Calls `f` on every signal whose *current-instant* value the
    /// expression reads: every read outside a `pre`, left to right, repeats
    /// included (a `pre` body is last instant's value, so it delays
    /// nothing).
    pub(crate) fn visit_instant_vars(&self, f: &mut impl FnMut(usize)) {
        match self {
            CExpr::Var(i) => f(*i),
            CExpr::Const(_) | CExpr::Pre { .. } => {}
            CExpr::When { body: left, cond: right }
            | CExpr::Default { left, right }
            | CExpr::Binary { left, right, .. } => {
                left.visit_instant_vars(f);
                right.visit_instant_vars(f);
            }
            CExpr::Unary { arg, .. } => arg.visit_instant_vars(f),
        }
    }
}

/// Compiles an AST expression, resolving names through `index_of` and
/// allocating a register (recording its initial value in `registers`) for
/// every `pre`.
pub fn compile(
    e: &Expr,
    index_of: &impl Fn(&polysig_tagged::SigName) -> usize,
    registers: &mut Vec<Value>,
) -> CExpr {
    match e {
        Expr::Var(x) => CExpr::Var(index_of(x)),
        Expr::Const(v) => CExpr::Const(*v),
        Expr::Pre { init, body } => {
            let reg = registers.len();
            registers.push(*init);
            CExpr::Pre { reg, body: Box::new(compile(body, index_of, registers)) }
        }
        Expr::When { body, cond } => CExpr::When {
            body: Box::new(compile(body, index_of, registers)),
            cond: Box::new(compile(cond, index_of, registers)),
        },
        Expr::Default { left, right } => CExpr::Default {
            left: Box::new(compile(left, index_of, registers)),
            right: Box::new(compile(right, index_of, registers)),
        },
        Expr::Unary { op, arg } => {
            CExpr::Unary { op: *op, arg: Box::new(compile(arg, index_of, registers)) }
        }
        Expr::Binary { op, left, right } => CExpr::Binary {
            op: *op,
            left: Box::new(compile(left, index_of, registers)),
            right: Box::new(compile(right, index_of, registers)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_expr;

    #[test]
    fn compile_allocates_registers_in_order() {
        let e = parse_expr("(pre 0 x) + (pre 7 y)").unwrap();
        let mut regs = Vec::new();
        let c = compile(&e, &|_| 0, &mut regs);
        assert_eq!(regs, vec![Value::Int(0), Value::Int(7)]);
        match c {
            CExpr::Binary { left, right, .. } => {
                assert!(matches!(*left, CExpr::Pre { reg: 0, .. }));
                assert!(matches!(*right, CExpr::Pre { reg: 1, .. }));
            }
            other => panic!("expected binary, got {other:?}"),
        }
    }

    #[test]
    fn compile_resolves_names() {
        let e = parse_expr("a default b").unwrap();
        let mut regs = Vec::new();
        let c = compile(&e, &|n| if n.as_str() == "a" { 10 } else { 20 }, &mut regs);
        match c {
            CExpr::Default { left, right } => {
                assert_eq!(*left, CExpr::Var(10));
                assert_eq!(*right, CExpr::Var(20));
            }
            other => panic!("expected default, got {other:?}"),
        }
    }
}
