//! Type checking (bool/int, the paper's value domain `V`).

use std::collections::HashMap;

use polysig_tagged::{SigName, ValueType};

use crate::ast::{Binop, Component, DeclIndex, Expr, Program, Role, Statement, Unop};
use crate::error::LangError;

/// Infers the type of an expression inside component `c`, whose
/// declarations `index` holds.
///
/// # Errors
///
/// Returns a [`LangError::Type`] (attributed to `signal`, the equation's
/// left-hand side) on any mismatch, or [`LangError::UndeclaredSignal`] for
/// unknown names.
fn infer_expr(
    c: &Component,
    index: &DeclIndex<'_>,
    signal: &SigName,
    e: &Expr,
) -> Result<ValueType, LangError> {
    let type_err = |expected: ValueType, found: ValueType, context: &str| LangError::Type {
        component: c.name.clone(),
        signal: signal.clone(),
        expected,
        found,
        context: context.to_string(),
    };
    let infer = |e: &Expr| infer_expr(c, index, signal, e);
    match e {
        Expr::Var(x) => index.get(x).map(|d| d.ty).ok_or_else(|| LangError::UndeclaredSignal {
            component: c.name.clone(),
            name: x.clone(),
        }),
        Expr::Const(v) => Ok(v.ty()),
        Expr::Pre { init, body } => {
            let t = infer(body)?;
            if init.ty() != t {
                return Err(type_err(t, init.ty(), "initial value of pre"));
            }
            Ok(t)
        }
        Expr::When { body, cond } => {
            let tc = infer(cond)?;
            if tc != ValueType::Bool {
                return Err(type_err(ValueType::Bool, tc, "condition of when"));
            }
            infer(body)
        }
        Expr::Default { left, right } => {
            let tl = infer(left)?;
            let tr = infer(right)?;
            if tl != tr {
                return Err(type_err(tl, tr, "right operand of default"));
            }
            Ok(tl)
        }
        Expr::Unary { op, arg } => {
            let ta = infer(arg)?;
            match op {
                Unop::Not => {
                    if ta != ValueType::Bool {
                        return Err(type_err(ValueType::Bool, ta, "operand of not"));
                    }
                    Ok(ValueType::Bool)
                }
                Unop::Neg => {
                    if ta != ValueType::Int {
                        return Err(type_err(ValueType::Int, ta, "operand of unary -"));
                    }
                    Ok(ValueType::Int)
                }
                Unop::ClockOf => Ok(ValueType::Bool),
            }
        }
        Expr::Binary { op, left, right } => {
            let tl = infer(left)?;
            let tr = infer(right)?;
            if op.takes_ints() {
                if tl != ValueType::Int {
                    return Err(type_err(ValueType::Int, tl, "left operand"));
                }
                if tr != ValueType::Int {
                    return Err(type_err(ValueType::Int, tr, "right operand"));
                }
            } else if matches!(op, Binop::And | Binop::Or) {
                if tl != ValueType::Bool {
                    return Err(type_err(ValueType::Bool, tl, "left operand"));
                }
                if tr != ValueType::Bool {
                    return Err(type_err(ValueType::Bool, tr, "right operand"));
                }
            } else if tl != tr {
                // Eq / Ne over equal types
                return Err(type_err(tl, tr, "operands of comparison"));
            }
            Ok(if op.returns_bool() { ValueType::Bool } else { ValueType::Int })
        }
    }
}

/// Checks every equation of a component against its declarations (a name
/// declared twice has its first declaration's type).
///
/// # Errors
///
/// Returns the first type mismatch found.
pub fn check_component(c: &Component) -> Result<(), LangError> {
    let index = DeclIndex::new(c);
    for stmt in &c.stmts {
        if let Statement::Eq(eq) = stmt {
            let declared = index
                .get(&eq.lhs)
                .ok_or_else(|| LangError::UndeclaredSignal {
                    component: c.name.clone(),
                    name: eq.lhs.clone(),
                })?
                .ty;
            let inferred = infer_expr(c, &index, &eq.lhs, &eq.rhs)?;
            if declared != inferred {
                return Err(LangError::Type {
                    component: c.name.clone(),
                    signal: eq.lhs.clone(),
                    expected: declared,
                    found: inferred,
                    context: "equation right-hand side".to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Checks every component of a program, plus cross-component interface
/// consistency (a shared signal must be declared with the same type
/// everywhere).
///
/// # Errors
///
/// Returns the first type mismatch found.
pub fn check_program(p: &Program) -> Result<(), LangError> {
    check_components(&p.components)
}

/// [`check_program`] over components held anywhere, in program order.
///
/// # Errors
///
/// Returns the first type mismatch found.
pub fn check_components<'a>(
    components: impl IntoIterator<Item = &'a Component> + Clone,
) -> Result<(), LangError> {
    for c in components.clone() {
        check_component(c)?;
    }
    // interface types agree across components
    let mut seen: HashMap<&str, (&str, ValueType)> = HashMap::new();
    for c in components {
        for d in c.decls.iter().filter(|d| d.role != Role::Local) {
            match seen.get(d.name.as_str()) {
                Some(&(other, ty)) if ty != d.ty => {
                    return Err(LangError::Type {
                        component: c.name.clone(),
                        signal: d.name.clone(),
                        expected: ty,
                        found: d.ty,
                        context: format!("interface mismatch with component `{other}`"),
                    });
                }
                Some(_) => {}
                None => {
                    seen.insert(d.name.as_str(), (&c.name, d.ty));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_component, parse_program};

    #[test]
    fn accepts_well_typed_buffer_fragment() {
        let c = parse_component(
            r#"
            process P {
                input msgin: int, rd: bool;
                output msgout: int;
                local data: int, full: bool;
                data := (msgin when (not full)) default (pre 0 data);
                full := (^msgin) default (pre false full);
                msgout := data when rd;
            }
            "#,
        )
        .unwrap();
        assert!(check_component(&c).is_ok());
    }

    #[test]
    fn rejects_bool_plus_int() {
        let c = parse_component("process P { input b: bool; output x: int; x := b + 1; }").unwrap();
        assert!(matches!(check_component(&c), Err(LangError::Type { .. })));
    }

    #[test]
    fn rejects_int_condition() {
        let c =
            parse_component("process P { input a: int; output x: int; x := a when a; }").unwrap();
        let err = check_component(&c).unwrap_err();
        match err {
            LangError::Type { context, .. } => assert!(context.contains("when")),
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_mixed_default() {
        let c = parse_component(
            "process P { input a: int, b: bool; output x: int; x := a default b; }",
        )
        .unwrap();
        assert!(matches!(check_component(&c), Err(LangError::Type { .. })));
    }

    #[test]
    fn rejects_pre_init_mismatch() {
        let c =
            parse_component("process P { input a: int; output x: int; x := pre true a; }").unwrap();
        let err = check_component(&c).unwrap_err();
        match err {
            LangError::Type { context, .. } => assert!(context.contains("pre")),
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_lhs_mismatch() {
        let c = parse_component("process P { input a: int; output x: bool; x := a; }").unwrap();
        assert!(matches!(check_component(&c), Err(LangError::Type { .. })));
    }

    #[test]
    fn clock_of_is_bool() {
        let c = parse_component("process P { input a: int; output x: bool; x := ^a; }").unwrap();
        assert!(check_component(&c).is_ok());
    }

    #[test]
    fn comparison_requires_equal_types() {
        let c = parse_component("process P { input a: int, b: bool; output x: bool; x := a = b; }")
            .unwrap();
        assert!(matches!(check_component(&c), Err(LangError::Type { .. })));
    }

    #[test]
    fn interface_types_must_agree_across_components() {
        let p = parse_program(
            "process A { output x: int; x := 1 when true; } process B { input x: bool; }",
        )
        .unwrap();
        assert!(matches!(check_program(&p), Err(LangError::Type { .. })));
    }

    #[test]
    fn a_name_declared_twice_types_as_its_first_declaration() {
        // check_program does not resolve first, so a duplicate declaration
        // reaches it; the first declaration's type wins, on either side
        let p =
            parse_program("process P { input a: int; local a: bool; output x: int; x := a + 1; }")
                .unwrap();
        assert!(check_program(&p).is_ok());
        let p =
            parse_program("process P { input a: int; local a: bool; output x: bool; x := not a; }")
                .unwrap();
        match check_program(&p) {
            Err(LangError::Type { expected, found, context, .. }) => {
                assert_eq!((expected, found), (ValueType::Bool, ValueType::Int));
                assert_eq!(context, "operand of not");
            }
            other => panic!("expected a type error, got {other:?}"),
        }
        let p = parse_program("process P { input a: int; output x: int; local x: bool; x := a; }")
            .unwrap();
        assert!(check_program(&p).is_ok());
    }

    #[test]
    fn logic_ops_type_check() {
        let c = parse_component(
            "process P { input a: bool, b: bool; output x: bool; x := (a and b) or not a; }",
        )
        .unwrap();
        assert!(check_component(&c).is_ok());
    }
}
