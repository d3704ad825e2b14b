//! Symbolic bounded model checking over the compiled transition relation.
//!
//! The explicit checker ([`crate::reach`]) enumerates `(registers,
//! env_state)` states one by one; this backend instead *encodes* the
//! program's reaction as a Boolean formula and asks a SAT solver (the
//! vendored [`minicdcl`] CDCL core) whether a property violation is
//! reachable within `k` reactions. The encoding substrate is the compiled
//! static schedule (`polysig_sim::schedule`): each slot becomes presence /
//! unvaluedness bits plus a bit-blasted 64-bit value, each op is transcribed
//! rule for rule, and every executor *bail* becomes an infeasibility
//! constraint — a model is a trace of successful reactions by construction.
//!
//! ## Soundness contract
//!
//! * **UNSAT at depth `k` proves safety only up to `k` reactions.** The
//!   verdict is reported with `depth_bounded = true`; it says nothing about
//!   longer traces (no fixpoint/interpolation reasoning is attempted).
//! * **SAT yields a replayed concrete trace.** Every satisfying model is
//!   minimized to the lexicographically-least shortest trace and then
//!   replayed on the concrete reactor before being reported; the final
//!   [`crate::Counterexample`] is *identical* to what the explicit
//!   breadth-first checker returns for the same query. A model that fails
//!   to replay is a hard [`crate::VerifyError::BmcInternal`], never a
//!   result.
//! * **Hard program errors are treated as infeasibility.** Arithmetic
//!   overflow and runtime type errors abort the explicit checker with an
//!   error verdict; the symbolic encoding instead prunes such paths. On
//!   programs where the explicit checker returns `Ok`, no such path is
//!   reachable and the backends agree; on programs where it errors, the
//!   symbolic backend may still return a verdict that only covers
//!   non-erroring paths.
//!
//! Programs outside the encodable fragment (no static schedule, a letter
//! that drives a non-input or carries an ill-typed value, a few exotic
//! `when`/`default` operand shapes) are rejected with
//! [`crate::VerifyError::BmcUnsupported`] rather than answered wrongly.
//! Every [`crate::Property`] is encodable: each of its three shapes
//! becomes one violation bit per step.

mod cnf;
mod decode;
mod encode;
mod solve;

pub(crate) use solve::{run_bound, run_check};

/// Which engine answers a reachability or bound query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Explicit-state breadth-first exploration: exhaustive (up to
    /// `max_depth`, when set), exact counters, works on every program.
    #[default]
    Explicit,
    /// Symbolic bounded model checking via the vendored SAT core: unrolls
    /// the transition relation to `depth` reactions. A `holds` verdict is
    /// bounded (`depth_bounded` is always reported `true`); a violation
    /// comes with the same shortest counterexample the explicit checker
    /// finds. `CheckOptions::max_states`, `max_depth` and `threads` are
    /// ignored under this backend — `depth` alone bounds the query.
    Bmc {
        /// Number of reactions to unroll.
        depth: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::Backend;
    use crate::alphabet::{Alphabet, EnvAutomaton, Letter};
    use crate::prop::Property;
    use crate::reach::{check, CheckOptions};
    use polysig_gals::nfifo::nfifo_component;
    use polysig_lang::parse_program;
    use polysig_tagged::Value;

    fn bmc(depth: usize) -> CheckOptions {
        CheckOptions { backend: Backend::Bmc { depth }, ..Default::default() }
    }

    #[test]
    fn mod4_counter_range_holds_bounded() {
        let p = parse_program(
            "process C { input tick: bool; output n: int; local np: int; \
             np := (pre 0 n) when tick; \
             n := (0 when (np = 3)) default (np + 1); n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let r = check(&p, &alphabet, &Property::always_in_range("n", 0, 4), &bmc(6)).unwrap();
        assert!(r.holds);
        assert!(r.depth_bounded, "a BMC `holds` verdict is always bounded");
        assert_eq!(r.states_explored, 0, "symbolic: no explicit states");
    }

    #[test]
    fn counter_violation_matches_explicit_counterexample() {
        let p = parse_program(
            "process C { input tick: bool; output n: int; \
             n := ((pre 0 n) when tick) + 1; n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let prop = Property::always_in_range("n", 0, 2);
        let explicit = check(&p, &alphabet, &prop, &CheckOptions::default()).unwrap();
        let symbolic = check(&p, &alphabet, &prop, &bmc(6)).unwrap();
        assert!(!symbolic.holds);
        assert!(!symbolic.depth_bounded);
        assert_eq!(
            symbolic.counterexample.as_ref().unwrap().letters(),
            explicit.counterexample.as_ref().unwrap().letters(),
            "same shortest lexicographically-least trace"
        );
    }

    #[test]
    fn fifo_overflow_found_at_exact_depth() {
        let p = polysig_lang::Program::single(nfifo_component("ch", 2));
        let alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
        let prop = Property::never_true("ch_alarm");
        // three writes overflow depth 2: invisible at depth 2 …
        let shallow = check(&p, &alphabet, &prop, &bmc(2)).unwrap();
        assert!(shallow.holds);
        assert!(shallow.depth_bounded);
        // … found (with the BFS-identical trace) at depth 3
        let deep = check(&p, &alphabet, &prop, &bmc(3)).unwrap();
        assert!(!deep.holds);
        let explicit = check(&p, &alphabet, &prop, &CheckOptions::default()).unwrap();
        assert_eq!(
            deep.counterexample.as_ref().unwrap().letters(),
            explicit.counterexample.as_ref().unwrap().letters(),
        );
    }

    #[test]
    fn env_automaton_restricts_symbolic_traces_too() {
        let p = polysig_lang::Program::single(nfifo_component("ch", 1));
        let mut alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
        let mut write = Letter::new();
        write.insert("tick".into(), Value::TRUE);
        write.insert("ch_in".into(), Value::Int(1));
        let mut read = Letter::new();
        read.insert("tick".into(), Value::TRUE);
        read.insert("ch_rd".into(), Value::TRUE);
        let env = EnvAutomaton::cycle(&mut alphabet, &[write, read]);
        let r = check(
            &p,
            &alphabet,
            &Property::never_true("ch_alarm"),
            &CheckOptions {
                env: Some(env),
                backend: Backend::Bmc { depth: 8 },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.holds, "alternating write/read never overflows a 1-place buffer");
    }

    #[test]
    fn undeclared_property_signal_holds_trivially() {
        let p = parse_program("process P { input a: bool; output x: bool; x := a; }").unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let r = check(&p, &alphabet, &Property::never_true("ghost"), &bmc(4)).unwrap();
        assert!(r.holds);
    }

    #[test]
    fn negative_multiplication_does_not_phantom_overflow() {
        // regression: the multiplier's 128-bit sign extension must join the
        // shift-add, or `-3 * -2` raises a phantom overflow bail and every
        // unrolled step becomes infeasible (reported as a bogus `holds`)
        let p = parse_program("process M { input r: int; output y: int; y := (r * -2); }").unwrap();
        let mut letter = Letter::new();
        letter.insert("r".into(), Value::Int(-3));
        let mut alphabet = Alphabet::from_letters(vec![letter.clone()]).unwrap();
        let env = EnvAutomaton::cycle(&mut alphabet, &[letter]);
        let opts = CheckOptions {
            env: Some(env.clone()),
            backend: Backend::Bmc { depth: 2 },
            ..Default::default()
        };
        let r = check(&p, &alphabet, &Property::never_present("y"), &opts).unwrap();
        assert!(!r.holds, "y ticks with value 6 at the first reaction");
        assert_eq!(r.counterexample.unwrap().len(), 1);
        let b = crate::bound::max_signal_value(&p, &alphabet, &"y".into(), &opts).unwrap();
        assert_eq!(b.max, Some(6));
    }

    #[test]
    fn bound_backend_dispatch_matches_explicit_max() {
        let p = parse_program(
            "process C { input tick: bool; output n: int; local np: int; \
             np := (pre 0 n) when tick; \
             n := (0 when (np = 3)) default (np + 1); n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let explicit =
            crate::bound::max_signal_value(&p, &alphabet, &"n".into(), &CheckOptions::default())
                .unwrap();
        let symbolic = crate::bound::max_signal_value(&p, &alphabet, &"n".into(), &bmc(8)).unwrap();
        assert_eq!(explicit.max, Some(3));
        assert_eq!(symbolic.max, Some(3), "depth 8 sees the full period");
        assert!(!explicit.depth_bounded);
        assert!(symbolic.depth_bounded);
    }
}
