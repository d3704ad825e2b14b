//! Property tests of the language front end: pretty ↔ parse round trips on
//! randomly generated ASTs, and stability of the analyses.

use proptest::prelude::*;

use polysig_lang::pretty::{pretty_component, pretty_expr, pretty_program};
use polysig_lang::resolve::resolve_program;
use polysig_lang::{
    parse_component, parse_expr, parse_program, Binop, Component, ComponentBuilder, Expr, Program,
    Role, Unop,
};
use polysig_tagged::{Value, ValueType};

/// Declaration shapes with freely interleaved roles — the regression space
/// for the printer's old group-by-role reordering bug.
fn arb_decl_shape() -> impl Strategy<Value = Vec<(Role, ValueType)>> {
    proptest::collection::vec(
        (
            proptest::sample::select(vec![Role::Input, Role::Output, Role::Local]),
            proptest::sample::select(vec![ValueType::Int, ValueType::Bool]),
        ),
        1..6,
    )
}

/// Builds a resolvable component from a declaration shape: signals are
/// `<prefix>s<j>`, and every output/local gets a trivial defining equation.
fn component_from_shape(name: &str, prefix: &str, shape: &[(Role, ValueType)]) -> Component {
    let mut b = ComponentBuilder::new(name);
    for (j, (role, ty)) in shape.iter().enumerate() {
        let n = format!("{prefix}s{j}");
        b = match role {
            Role::Input => b.input(n.as_str(), *ty),
            Role::Output => b.output(n.as_str(), *ty),
            Role::Local => b.local(n.as_str(), *ty),
        };
    }
    for (j, (role, ty)) in shape.iter().enumerate() {
        if *role == Role::Input {
            continue;
        }
        let rhs = match ty {
            ValueType::Int => Expr::int(j as i64),
            ValueType::Bool => Expr::bool(j % 2 == 0),
        }
        .when(Expr::bool(true));
        b = b.equation(format!("{prefix}s{j}").as_str(), rhs);
    }
    b.build()
}

/// Random expressions over variables `a b c`, depth-bounded.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Expr::var),
        (-5i64..6).prop_map(Expr::int),
        prop_oneof![Just(i64::MIN), Just(i64::MAX)].prop_map(Expr::int),
        proptest::bool::ANY.prop_map(Expr::bool),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), -3i64..4).prop_map(|(e, k)| e.pre(Value::Int(k))),
            (inner.clone(), inner.clone()).prop_map(|(e, c)| e.when(c)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| l.default(r)),
            inner.clone().prop_map(Expr::not),
            inner.clone().prop_map(|e| Expr::Unary { op: Unop::Neg, arg: Box::new(e) }),
            inner.clone().prop_map(Expr::clock),
            (
                inner.clone(),
                inner,
                prop_oneof![
                    Just(Binop::Add),
                    Just(Binop::Sub),
                    Just(Binop::Mul),
                    Just(Binop::Eq),
                    Just(Binop::Ne),
                    Just(Binop::Lt),
                    Just(Binop::Le),
                    Just(Binop::Gt),
                    Just(Binop::Ge),
                    Just(Binop::And),
                    Just(Binop::Or),
                ]
            )
                .prop_map(|(l, r, op)| l.binop(op, r)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// pretty-print then parse is the identity on arbitrary ASTs —
    /// including every operator and nesting shape.
    #[test]
    fn pretty_parse_round_trips(e in arb_expr()) {
        let printed = pretty_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(reparsed, e);
    }

    /// free_vars is stable under the round trip and rename actually removes
    /// the renamed variable.
    #[test]
    fn rename_removes_the_source_var(e in arb_expr()) {
        let renamed = e.rename_var(&"a".into(), &"zz".into());
        let vars = renamed.free_vars();
        prop_assert!(!vars.contains("a"));
        if e.free_vars().contains("a") {
            prop_assert!(vars.contains("zz"));
        }
        // double rename is idempotent in effect
        let again = renamed.rename_var(&"a".into(), &"zz2".into());
        prop_assert_eq!(again, renamed);
    }

    /// Components built from random expressions round-trip through the
    /// printer (declarations + equations + sync).
    #[test]
    fn component_round_trips(e1 in arb_expr(), e2 in arb_expr()) {
        let c: Component = ComponentBuilder::new("P")
            .input("a", ValueType::Int)
            .input("b", ValueType::Int)
            .input("c", ValueType::Bool)
            .output("x", ValueType::Int)
            .output("y", ValueType::Int)
            .equation("x", e1)
            .equation("y", e2)
            .sync(["x", "y"])
            .build();
        let printed = pretty_component(&c);
        let reparsed = parse_component(&printed)
            .unwrap_or_else(|err| panic!("component failed to reparse: {err}\n{printed}"));
        prop_assert_eq!(reparsed, c);
    }

    /// instant-vars ⊆ free-vars, with equality when the expression has no
    /// `pre`.
    #[test]
    fn instant_vars_subset_of_free_vars(e in arb_expr()) {
        let mut instant = std::collections::BTreeSet::new();
        e.collect_instant_vars(&mut instant);
        let free = e.free_vars();
        prop_assert!(instant.is_subset(&free));
        fn has_pre(e: &Expr) -> bool {
            match e {
                Expr::Pre { .. } => true,
                Expr::Var(_) | Expr::Const(_) => false,
                Expr::When { body, cond } => has_pre(body) || has_pre(cond),
                Expr::Default { left, right } | Expr::Binary { left, right, .. } => {
                    has_pre(left) || has_pre(right)
                }
                Expr::Unary { arg, .. } => has_pre(arg),
            }
        }
        if !has_pre(&e) {
            prop_assert_eq!(instant, free);
        }
    }

    /// Whole programs — multiple components, interleaved declaration roles —
    /// round-trip through `pretty_program` to a structurally equal `Program`
    /// that still resolves. This is the printer/parser conformance property
    /// the generative harness leans on.
    #[test]
    fn interleaved_programs_round_trip(
        shapes in proptest::collection::vec(arb_decl_shape(), 1..4)
    ) {
        let components: Vec<Component> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| component_from_shape(&format!("C{i}"), &format!("c{i}_"), s))
            .collect();
        // parse_program names a single-component program after its component
        // and a multi-component program "main"; mirror that convention so the
        // whole Program (name included) compares equal after the round trip.
        let name =
            if components.len() == 1 { components[0].name.clone() } else { "main".to_string() };
        let program = Program { name, components };
        resolve_program(&program).expect("generated program must resolve");
        let printed = pretty_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|err| panic!("failed to reparse own printout: {err}\n{printed}"));
        prop_assert_eq!(&reparsed, &program);
        resolve_program(&reparsed).expect("reparsed program must resolve");
        for (c, shape) in reparsed.components.iter().zip(&shapes) {
            let roles: Vec<Role> = c.decls.iter().map(|d| d.role).collect();
            let expected: Vec<Role> = shape.iter().map(|(r, _)| *r).collect();
            prop_assert_eq!(roles, expected, "declaration order changed:\n{}", printed);
        }
    }

    /// The clock analysis never panics and produces a class for every
    /// declared signal, regardless of expression shape.
    #[test]
    fn clock_analysis_total(e in arb_expr()) {
        let c = ComponentBuilder::new("P")
            .input("a", ValueType::Int)
            .input("b", ValueType::Int)
            .input("c", ValueType::Bool)
            .output("x", ValueType::Int)
            .equation("x", e)
            .build();
        let analysis = polysig_lang::clock::analyze_component(&c);
        for name in ["a", "b", "c", "x"] {
            prop_assert!(analysis.class_of(&name.into()).is_some());
        }
        // dominance is reflexive-transitive: sanity on a couple of pairs
        prop_assert!(analysis.dominated_by(&"x".into(), &"x".into()));
    }
}

/// Every program shipped in `programs/` survives the printer:
/// `pretty_program` → `parse_program` → `resolve_program` yields a
/// structurally equal `Program`.
#[test]
fn shipped_programs_round_trip_structurally() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("programs/ directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("sig") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable program");
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        resolve_program(&program).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let printed = pretty_program(&program);
        let reparsed = parse_program(&printed).unwrap_or_else(|e| {
            panic!("{} failed to reparse its own printout: {e}\n{printed}", path.display())
        });
        assert_eq!(reparsed, program, "{} changed across the round trip", path.display());
        resolve_program(&reparsed).expect("reparsed program resolves");
        checked += 1;
    }
    assert!(checked >= 3, "expected the shipped .sig programs, found only {checked}");
}

/// A negation-specific regression: `not` chains and `- INT` literals are
/// the trickiest corners of the grammar.
#[test]
fn deep_negation_round_trips() {
    let e = Expr::var("a").not().not().not().pre(Value::Int(-3)).not();
    let printed = pretty_expr(&e);
    assert_eq!(parse_expr(&printed).unwrap(), e);

    // negation over an integer literal keeps its structure: the printer
    // writes `- (k)`, and only a sign touching the literal folds into it
    let neg = Expr::Unary {
        op: Unop::Neg,
        arg: Box::new(Expr::Unary { op: Unop::Neg, arg: Box::new(Expr::int(-7)) }),
    };
    let printed = pretty_expr(&neg);
    assert_eq!(parse_expr(&printed).unwrap(), neg);
    // …as does negation over variables
    let negvar = Expr::Unary { op: Unop::Neg, arg: Box::new(Expr::var("a")) };
    assert_eq!(parse_expr(&pretty_expr(&negvar)).unwrap(), negvar);
}
