//! Proving exact worst-case bounds by exhaustive exploration.
//!
//! The paper's conclusion asks for algorithms "to make the buffer size
//! estimation and proof automatic". Given a finite-state program and a
//! rate-constrained environment automaton, [`max_signal_value`] explores
//! the *entire* reachable space and returns the largest value an integer
//! signal ever takes — applied to a channel's occupancy `count`, that is a
//! *proof* of the worst-case buffer requirement, not an estimate.
//!
//! The query takes the same [`CheckOptions`] as [`crate::reach::check`]
//! and honours every field it does: the exploration runs on the same
//! layer-synchronous engine (the maximum is a commutative fold, so the
//! result is identical at any thread count), and [`Backend::Bmc`] answers
//! it symbolically instead.

use polysig_lang::Program;
use polysig_sim::{DenseEnv, Reactor};
use polysig_tagged::{SigId, SigName, Value};

use crate::alphabet::{Alphabet, EnvAutomaton};
use crate::bmc::Backend;
use crate::error::VerifyError;
use crate::frontier::{self, Inspect};
use crate::reach::CheckOptions;

/// Result of a bound computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundResult {
    /// The maximum value the signal was ever observed to take (`None` when
    /// it never ticked on any reachable path).
    pub max: Option<i64>,
    /// Distinct states visited (the whole reachable space; `0` under the
    /// symbolic backend, which visits no explicit states).
    pub states_explored: usize,
    /// Reactions executed.
    pub transitions: usize,
    /// `true` iff the bound only covers traces up to a depth cutoff: always
    /// under the symbolic backend, and under the explicit one when
    /// `max_depth` cut the exploration off before closure. Otherwise the
    /// exploration was exhaustive and the maximum is a proven invariant.
    pub depth_bounded: bool,
}

/// Tracks the running maximum of the watched signal across reactions.
struct MaxInspect {
    watched: Option<SigId>,
}

impl Inspect for MaxInspect {
    type Acc = Option<i64>;

    #[inline]
    fn inspect(&self, reaction: &DenseEnv, acc: &mut Option<i64>) -> bool {
        if let Some(watched) = self.watched {
            if let Some(v) = reaction.get(watched).and_then(Value::as_int) {
                *acc = Some(acc.map_or(v, |m| m.max(v)));
            }
        }
        false
    }

    fn merge(into: &mut Option<i64>, from: Option<i64>) {
        if let Some(v) = from {
            *into = Some(into.map_or(v, |m| m.max(v)));
        }
    }
}

/// Returns the maximum value integer signal `signal` ever carries on the
/// executions of `program` that `alphabet` and `options.env` permit.
///
/// Under [`Backend::Explicit`] every reachable state is explored (up to
/// `options.max_depth` reactions, when set) on `options.threads` workers;
/// the exploration aborts rather than truncate at `options.max_states`, so
/// without a depth cutoff the returned maximum is a proven invariant:
/// `signal ≤ max` on every execution the environment permits. Under
/// [`Backend::Bmc`] the maximum covers traces up to that depth and
/// `depth_bounded` is set.
///
/// # Errors
///
/// * [`VerifyError::EmptyAlphabet`] — nothing to explore;
/// * [`VerifyError::StateCapExceeded`] — the space exceeds `max_states`
///   (the bound would be unsound, so no partial answer is returned);
/// * [`VerifyError::Sim`] — a non-clock program error;
/// * [`VerifyError::BmcUnsupported`] — outside the symbolic backend's
///   encodable fragment.
pub fn max_signal_value(
    program: &Program,
    alphabet: &Alphabet,
    signal: &SigName,
    options: &CheckOptions,
) -> Result<BoundResult, VerifyError> {
    if alphabet.is_empty() {
        return Err(VerifyError::EmptyAlphabet);
    }
    if let Backend::Bmc { depth } = options.backend {
        return crate::bmc::run_bound(program, alphabet, signal, options, depth);
    }
    let mut reactor = Reactor::for_program(program)?;
    let free_env;
    let env = match &options.env {
        Some(e) => e,
        None => {
            free_env = EnvAutomaton::free(alphabet);
            &free_env
        }
    };

    let compiled = frontier::compile_boundary(&reactor, alphabet, env)?;
    // an undeclared signal never ticks, so `None` just leaves `max` empty
    let inspect = MaxInspect { watched: reactor.sig_id(signal) };
    let e = frontier::explore(
        &mut reactor,
        &compiled,
        &inspect,
        options.max_states,
        options.max_depth,
        options.threads,
    )?;
    Ok(BoundResult {
        max: e.acc,
        states_explored: e.states.len(),
        transitions: e.transitions,
        depth_bounded: e.depth_bounded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Letter;
    use polysig_gals::nfifo::nfifo_component;
    use polysig_gals::{desynchronize, DesyncOptions};
    use polysig_lang::parse_program;

    fn letters(seq: &[(&[(&str, Value)], usize)]) -> (Alphabet, EnvAutomaton) {
        // seq of (letter contents, _) cycled
        let ls: Vec<Letter> = seq
            .iter()
            .map(|(pairs, _)| {
                pairs.iter().map(|(n, v)| (SigName::from(*n), *v)).collect::<Letter>()
            })
            .collect();
        let mut alphabet = Alphabet::from_letters(ls.clone()).unwrap();
        let env = EnvAutomaton::cycle(&mut alphabet, &ls);
        (alphabet, env)
    }

    fn opts(env: Option<EnvAutomaton>, max_states: usize) -> CheckOptions {
        CheckOptions { env, max_states, ..Default::default() }
    }

    #[test]
    fn proves_fifo_occupancy_bound() {
        // 2 writes then 2 reads, cycled, on a depth-3 FIFO. The *ideal*
        // queue bound for this environment is 2; the chain's ripple latency
        // (early reads miss while items are still in transit) provably
        // retains one more item: the exhaustive exploration certifies 3 —
        // an honest measurement of the Section-5.1 construction's cost.
        let p = polysig_lang::Program::single(nfifo_component("ch", 3));
        let (alphabet, env) = letters(&[
            (&[("tick", Value::TRUE), ("ch_in", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("ch_in", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("ch_rd", Value::TRUE)], 0),
            (&[("tick", Value::TRUE), ("ch_rd", Value::TRUE)], 0),
        ]);
        let r =
            max_signal_value(&p, &alphabet, &"ch_count".into(), &opts(Some(env), 100_000)).unwrap();
        assert_eq!(r.max, Some(3), "ideal bound 2 + one in-ripple item");
        assert!(r.states_explored > 1);
        // sanity: the bound can never exceed the declared depth
        assert!(r.max.unwrap() <= 3);
    }

    #[test]
    fn proven_bound_equals_the_minimal_safe_depth() {
        // the "automatic proof" workflow: prove the occupancy bound on a
        // generously sized channel, then check the bound-sized channel is
        // alarm-free — estimation made exact
        let prog = parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x; }",
        )
        .unwrap();
        let generous = desynchronize(&prog, &DesyncOptions::with_size(6)).unwrap();
        let (alphabet, env) = letters(&[
            (&[("tick", Value::TRUE), ("a", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("a", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("x_rd", Value::TRUE)], 0),
            (&[("tick", Value::TRUE), ("x_rd", Value::TRUE)], 0),
        ]);
        let r = max_signal_value(
            &generous.program,
            &alphabet,
            &"x_count".into(),
            &opts(Some(env), 100_000),
        )
        .unwrap();
        let bound = r.max.unwrap() as usize;
        // at least the ideal backlog of 2; bounded by the generous depth
        assert!((2..=6).contains(&bound), "got {bound}");
        // the proven bound is safe…
        let sized = desynchronize(&prog, &DesyncOptions::with_size(bound)).unwrap();
        let (alphabet2, env2) = letters(&[
            (&[("tick", Value::TRUE), ("a", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("a", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("x_rd", Value::TRUE)], 0),
            (&[("tick", Value::TRUE), ("x_rd", Value::TRUE)], 0),
        ]);
        let safe = crate::reach::check(
            &sized.program,
            &alphabet2,
            &crate::prop::Property::never_true("x_alarm"),
            &CheckOptions { env: Some(env2), ..Default::default() },
        )
        .unwrap();
        assert!(safe.holds);
    }

    #[test]
    fn never_ticking_signal_has_no_max() {
        // a mod-4 counter plus a signal sampled on an impossible condition
        let p = parse_program(
            "process P { input tick: bool; output n: int, m: int; \
             n := (0 when ((pre 0 n) = 3)) default ((pre 0 n) + 1); n ^= tick; \
             m := n when (n < 0); }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let r = max_signal_value(&p, &alphabet, &"m".into(), &opts(None, 10_000)).unwrap();
        assert_eq!(r.max, None, "m never ticks (n is never negative)");
        // while n's own maximum is proven
        let rn = max_signal_value(&p, &alphabet, &"n".into(), &opts(None, 10_000)).unwrap();
        assert_eq!(rn.max, Some(3));
        assert!(!rn.depth_bounded, "exhaustive without a depth cutoff");
    }

    #[test]
    fn cap_aborts_rather_than_underestimates() {
        let p = parse_program(
            "process C { input tick: bool; output n: int; \
             n := ((pre 0 n) when tick) + 1; n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let err = max_signal_value(&p, &alphabet, &"n".into(), &opts(None, 10)).unwrap_err();
        assert!(matches!(err, VerifyError::StateCapExceeded { .. }));
    }

    #[test]
    fn depth_cutoff_bounds_the_maximum() {
        // an unbounded counter has no exhaustive maximum (the cap aborts,
        // above), but its maximum over traces of at most k reactions is k
        let p = parse_program(
            "process C { input tick: bool; output n: int; \
             n := ((pre 0 n) when tick) + 1; n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        for k in [1usize, 4, 7] {
            let options = CheckOptions { max_depth: Some(k), ..Default::default() };
            let r = max_signal_value(&p, &alphabet, &"n".into(), &options).unwrap();
            assert_eq!(r.max, Some(k as i64), "k={k}");
            assert!(r.depth_bounded, "k={k}");
        }
    }

    #[test]
    fn bound_is_thread_count_invariant() {
        let p = polysig_lang::Program::single(nfifo_component("ch", 3));
        let (alphabet, env) = letters(&[
            (&[("tick", Value::TRUE), ("ch_in", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("ch_rd", Value::TRUE)], 0),
        ]);
        let run = |threads| {
            let options = CheckOptions { threads, ..opts(Some(env.clone()), 100_000) };
            max_signal_value(&p, &alphabet, &"ch_count".into(), &options).unwrap()
        };
        let seq = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }
}
