//! Safety properties over reactions.
//!
//! A [`Property`] names one signal and the reactions on it that break the
//! property. The paper's verification step needs exactly one shape — "the
//! alarm signal is never raised" — and the closed set here holds the three
//! shapes both checkers compile: `Property::bind` resolves the signal to
//! a reactor's [`SigId`] once, and the explicit checker, the symbolic
//! encoder and counterexample replay all read that one bound form.

use std::fmt;

use polysig_sim::{DenseEnv, Reactor};
use polysig_tagged::{SigId, SigName, Value};

/// A safety property over reactions, named by its shape and its signal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Property {
    /// The signal is never present with value `true` (no alarm is ever
    /// raised).
    NeverTrue(SigName),
    /// The signal never ticks at all.
    NeverPresent(SigName),
    /// The integer signal stays within `lo..=hi` (the two bounds, in that
    /// order) whenever it is present.
    InRange(SigName, i64, i64),
}

impl Property {
    /// The paper's property: `signal` is never present with value `true`
    /// (no alarm is ever raised).
    pub fn never_true(signal: impl Into<SigName>) -> Property {
        Property::NeverTrue(signal.into())
    }

    /// `signal` never ticks at all.
    pub fn never_present(signal: impl Into<SigName>) -> Property {
        Property::NeverPresent(signal.into())
    }

    /// An integer signal stays within `lo..=hi` whenever present.
    pub fn always_in_range(signal: impl Into<SigName>, lo: i64, hi: i64) -> Property {
        Property::InRange(signal.into(), lo, hi)
    }

    /// Binds the property to a reactor's signal ids. A name the program
    /// does not declare never appears in a reaction, so it binds to `None`
    /// and the property holds trivially.
    pub(crate) fn bind(&self, reactor: &Reactor) -> DenseCheck<'_> {
        let (Property::NeverTrue(signal)
        | Property::NeverPresent(signal)
        | Property::InRange(signal, ..)) = self;
        DenseCheck { property: self, id: reactor.sig_id(signal) }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Property::NeverTrue(signal) => write!(f, "never {signal}=true"),
            Property::NeverPresent(signal) => write!(f, "never {signal} present"),
            Property::InRange(signal, lo, hi) => write!(f, "{signal} in [{lo}, {hi}]"),
        }
    }
}

/// A [`Property`] bound to one reactor's [`SigId`]s: evaluating it on a
/// dense reaction touches no names.
#[derive(Clone, Copy)]
pub(crate) struct DenseCheck<'p> {
    /// The property's shape.
    pub(crate) property: &'p Property,
    /// The property's signal, `None` when the program does not declare it.
    pub(crate) id: Option<SigId>,
}

impl DenseCheck<'_> {
    /// Evaluates the bound property on one dense reaction.
    pub(crate) fn holds_dense(&self, env: &DenseEnv) -> bool {
        let Some(id) = self.id else { return true };
        match self.property {
            Property::NeverTrue(_) => env.get(id) != Some(Value::TRUE),
            Property::NeverPresent(_) => !env.is_present(id),
            Property::InRange(_, lo, hi) => match env.get(id) {
                Some(Value::Int(i)) => *lo <= i && i <= *hi,
                _ => true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;

    /// Evaluates `p` on the reaction that carries `pairs`, bound to a
    /// reactor declaring `alarm`, `other`, `x`, `n` and `m`.
    fn holds(p: &Property, pairs: &[(&str, Value)]) -> bool {
        let program = parse_program(
            "process P { input alarm: bool, other: bool, n: int, m: int; output x: bool; \
             x := alarm; }",
        )
        .unwrap();
        let reactor = Reactor::for_program(&program).unwrap();
        let mut env = DenseEnv::new(reactor.signal_count());
        for (name, v) in pairs {
            env.set(reactor.sig_id(SigName::from(*name)).unwrap(), *v);
        }
        p.bind(&reactor).holds_dense(&env)
    }

    #[test]
    fn never_true_fires_only_on_true() {
        let p = Property::never_true("alarm");
        assert!(holds(&p, &[]));
        assert!(holds(&p, &[("alarm", Value::FALSE)]));
        assert!(holds(&p, &[("other", Value::TRUE)]));
        assert!(!holds(&p, &[("alarm", Value::TRUE)]));
    }

    #[test]
    fn never_present_fires_on_any_tick() {
        let p = Property::never_present("x");
        assert!(holds(&p, &[]));
        assert!(!holds(&p, &[("x", Value::FALSE)]));
        assert!(!holds(&p, &[("x", Value::TRUE)]));
    }

    #[test]
    fn range_property() {
        let p = Property::always_in_range("n", 0, 3);
        assert!(holds(&p, &[("n", Value::Int(3))]));
        assert!(!holds(&p, &[("n", Value::Int(4))]));
        assert!(holds(&p, &[("m", Value::Int(100))]));
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(Property::never_true("alarm").to_string(), "never alarm=true");
        assert_eq!(Property::never_present("x").to_string(), "never x present");
        assert_eq!(Property::always_in_range("n", 0, 3).to_string(), "n in [0, 3]");
    }
}
