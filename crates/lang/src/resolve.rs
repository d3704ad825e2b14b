//! Name resolution and single-writer checking.
//!
//! Enforces the static sanity rules the paper assumes:
//!
//! * every used signal is declared;
//! * inputs are never defined; outputs and locals are defined exactly once;
//! * across components, a signal has at most one writer (the paper's
//!   single-producer assumption below Theorem 2 — multi-producer designs
//!   must go through explicit fork/merge components).

use std::collections::HashMap;

use polysig_tagged::SigName;

use crate::ast::{Component, DeclIndex, Expr, Program, Role, Statement};
use crate::error::LangError;

/// Resolves one component.
///
/// # Errors
///
/// Returns the first violated rule as a [`LangError`]: a duplicate
/// declaration at its second occurrence, then statement by statement an
/// undeclared left-hand side, a defined input, a second definition and the
/// smallest undeclared name the right-hand side reads, then the first
/// declaration left undefined.
pub fn resolve_component(c: &Component) -> Result<(), LangError> {
    let index = DeclIndex::new(c);
    if let Some(d) = index.duplicate {
        return Err(LangError::DuplicateDeclaration {
            component: c.name.clone(),
            name: d.name.clone(),
        });
    }
    let undeclared = |name: &SigName| LangError::UndeclaredSignal {
        component: c.name.clone(),
        name: name.clone(),
    };

    // `defined[i]`: declaration `i` has an equation (positions are unique
    // once duplicates are ruled out)
    let mut defined = vec![false; c.decls.len()];
    for stmt in &c.stmts {
        match stmt {
            Statement::Eq(eq) => {
                let i = index.position(&eq.lhs).ok_or_else(|| undeclared(&eq.lhs))?;
                if c.decls[i].role == Role::Input {
                    return Err(LangError::InputDefined {
                        component: c.name.clone(),
                        name: eq.lhs.clone(),
                    });
                }
                if std::mem::replace(&mut defined[i], true) {
                    return Err(LangError::MultipleDefinitions {
                        component: c.name.clone(),
                        name: eq.lhs.clone(),
                    });
                }
                if let Some(v) = smallest_undeclared(&eq.rhs, &index) {
                    return Err(undeclared(v));
                }
            }
            Statement::Sync(names) => {
                if let Some(n) = names.iter().find(|n| index.position(n).is_none()) {
                    return Err(undeclared(n));
                }
            }
        }
    }

    // outputs and locals must be defined
    match c.decls.iter().zip(&defined).find(|(d, &def)| d.role != Role::Input && !def) {
        Some((d, _)) => {
            Err(LangError::MissingDefinition { component: c.name.clone(), name: d.name.clone() })
        }
        None => Ok(()),
    }
}

/// The smallest name `e` reads that `index` does not declare: the one a
/// walk of its sorted free variables meets first.
fn smallest_undeclared<'e>(e: &'e Expr, index: &DeclIndex<'_>) -> Option<&'e SigName> {
    let mut smallest: Option<&SigName> = None;
    e.visit_vars(&mut |x| {
        if smallest.is_none_or(|s| x < s) && index.position(x).is_none() {
            smallest = Some(x);
        }
    });
    smallest
}

/// Resolves a whole program: each component individually, plus the
/// program-level single-writer rule.
///
/// # Errors
///
/// Returns the first violated rule as a [`LangError`].
pub fn resolve_program(p: &Program) -> Result<(), LangError> {
    resolve_components(&p.components)
}

/// [`resolve_program`] over components held anywhere, in program order.
///
/// # Errors
///
/// Returns the first violated rule as a [`LangError`].
pub fn resolve_components<'a>(
    components: impl IntoIterator<Item = &'a Component>,
) -> Result<(), LangError> {
    let mut writer: HashMap<&str, &str> = HashMap::new();
    for c in components {
        resolve_component(c)?;
        for d in c.signals_with_role(Role::Output) {
            if let Some(prev) = writer.insert(d.name.as_str(), &c.name) {
                return Err(LangError::MultipleWriters {
                    name: d.name.clone(),
                    components: (prev.to_string(), c.name.clone()),
                });
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
    fn accepts_well_formed_component() {
        let c = parse_component(
            "process P { input a: int; output b: int; local c: int; c := a; b := c + 1; }",
        )
        .unwrap();
        assert!(resolve_component(&c).is_ok());
    }

    #[test]
    fn rejects_undeclared_use() {
        let c = parse_component("process P { output b: int; b := mystery; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::UndeclaredSignal { .. })));
    }

    #[test]
    fn rejects_undeclared_lhs() {
        let c =
            parse_component("process P { output b: int; b := 1 when true; ghost := b; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::UndeclaredSignal { .. })));
    }

    #[test]
    fn rejects_defined_input() {
        let c = parse_component("process P { input a: int; a := 1 when true; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::InputDefined { .. })));
    }

    #[test]
    fn rejects_double_definition() {
        let c = parse_component("process P { output b: int; b := 1 when true; b := 2 when true; }")
            .unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::MultipleDefinitions { .. })));
    }

    #[test]
    fn rejects_missing_definition() {
        let c = parse_component("process P { output b: int; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::MissingDefinition { .. })));
    }

    #[test]
    fn rejects_duplicate_declaration() {
        let c =
            parse_component("process P { input a: int; local a: int; a := 1 when true; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::DuplicateDeclaration { .. })));
    }

    fn undeclared(c: &Component) -> String {
        match resolve_component(c) {
            Err(LangError::UndeclaredSignal { name, .. }) => name.to_string(),
            other => panic!("expected an undeclared signal, got {other:?}"),
        }
    }

    #[test]
    fn of_two_undeclared_reads_the_smaller_name_is_reported() {
        let c = parse_component("process P { output b: int; b := zz + aa; }").unwrap();
        assert_eq!(undeclared(&c), "aa");
        let c =
            parse_component("process P { output b: int; b := (pre 0 mm) default (kk when q); }")
                .unwrap();
        assert_eq!(undeclared(&c), "kk");
    }

    #[test]
    fn a_duplicate_declaration_is_reported_at_its_second_occurrence() {
        let c = parse_component(
            "process P { input b: int; input a: int; local b: int; local a: int; }",
        )
        .unwrap();
        match resolve_component(&c) {
            Err(LangError::DuplicateDeclaration { name, .. }) => assert_eq!(name.as_str(), "b"),
            other => panic!("expected a duplicate declaration, got {other:?}"),
        }
    }

    #[test]
    fn an_undeclared_lhs_is_reported_before_its_right_hand_side() {
        let c =
            parse_component("process P { output b: int; ghost := aa; b := 1 when true; }").unwrap();
        assert_eq!(undeclared(&c), "ghost");
        // and an undeclared read before a later equation's errors
        let c =
            parse_component("process P { input a: int; output b: int; b := zz; a := 1; }").unwrap();
        assert_eq!(undeclared(&c), "zz");
    }

    #[test]
    fn rejects_undeclared_in_sync() {
        let c = parse_component("process P { input a: int; a ^= nothere; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::UndeclaredSignal { .. })));
    }

    #[test]
    fn program_single_writer_rule() {
        let good = parse_program(
            "process A { output x: int; x := 1 when true; } process B { input x: int; }",
        )
        .unwrap();
        assert!(resolve_program(&good).is_ok());

        let bad = parse_program(
            "process A { output x: int; x := 1 when true; } process B { output x: int; x := 2 when true; }",
        )
        .unwrap();
        assert!(matches!(resolve_program(&bad), Err(LangError::MultipleWriters { .. })));
    }
}
