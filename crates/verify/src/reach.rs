//! Explicit-state reachability checking.
//!
//! The state of a Signal program is its `pre` register file; the checker
//! explores `(registers, env_state)` pairs breadth-first over the letters an
//! [`EnvAutomaton`] permits, checking a [`Property`] on every reaction.
//! BFS yields the *shortest* counterexample, which is what the estimation
//! loop wants to replay.
//!
//! Exploration runs on the crate's layer-synchronous frontier engine:
//! with [`CheckOptions::threads`] `> 1`, each depth layer is fanned out
//! across scoped worker threads, and the barrier merge keeps every result
//! field — state ids, counters, the shortest counterexample — bit-identical
//! to the sequential run.
//!
//! Letters whose reaction fails with a clock error are pruned: they are
//! environment moves the program's clock constraints forbid (e.g. a write
//! without the master tick). Genuine program errors still surface.

use polysig_sim::{DenseEnv, Reactor};

use polysig_lang::Program;

use crate::alphabet::{Alphabet, EnvAutomaton};
use crate::bmc::Backend;
use crate::counterexample::Counterexample;
use crate::error::VerifyError;
use crate::frontier::{self, Inspect};
use crate::prop::{DenseCheck, Property};

/// Exploration limits.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Abort (with [`VerifyError::StateCapExceeded`]) beyond this many
    /// distinct states.
    pub max_states: usize,
    /// Stop exploring paths longer than this many reactions (`None` =
    /// unbounded; the verdict is then exact rather than bounded).
    pub max_depth: Option<usize>,
    /// Environment automaton; `None` means unrestricted.
    pub env: Option<EnvAutomaton>,
    /// Worker threads for layer-parallel exploration. `1` never spawns;
    /// larger values split each sufficiently large BFS layer across scoped
    /// workers. The verdict, every counter and the counterexample are
    /// identical for every value — only wall-clock time changes. Defaults
    /// to the process's available parallelism (1 under `taskset -c 0`).
    pub threads: usize,
    /// Which engine answers the query: the explicit breadth-first checker
    /// (default) or symbolic bounded model checking ([`Backend::Bmc`],
    /// which ignores `max_states`, `max_depth` and `threads` — its own
    /// `depth` bounds the query).
    pub backend: Backend,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states: 1_000_000,
            max_depth: None,
            env: None,
            threads: crossbeam::pool::default_threads(),
            backend: Backend::Explicit,
        }
    }
}

/// The verdict of a reachability check.
#[derive(Debug)]
pub struct CheckResult {
    /// `true` iff no reachable reaction violates the property (within
    /// `max_depth`, when bounded).
    pub holds: bool,
    /// Shortest violating input sequence, when `!holds`.
    pub counterexample: Option<Counterexample>,
    /// Distinct `(registers, env_state)` states visited.
    pub states_explored: usize,
    /// Reactions executed.
    pub transitions: usize,
    /// Letters pruned because the program's clocks rejected them.
    pub pruned: usize,
    /// `true` iff exploration was cut off by `max_depth` before closure
    /// (a `holds` verdict is then only valid up to that bound).
    pub depth_bounded: bool,
}

/// The property check as the frontier engine sees it.
impl Inspect for DenseCheck<'_> {
    type Acc = ();

    #[inline]
    fn inspect(&self, reaction: &DenseEnv, _acc: &mut ()) -> bool {
        !self.holds_dense(reaction)
    }

    fn merge(_into: &mut (), _from: ()) {}
}

/// Runs the breadth-first check of `property` on `program` under
/// `alphabet` (shaped by `options.env` when given).
///
/// # Errors
///
/// * [`VerifyError::EmptyAlphabet`] — nothing to explore;
/// * [`VerifyError::StateCapExceeded`] — the reachable space is larger than
///   `options.max_states`;
/// * [`VerifyError::Sim`] — a non-clock program error during a reaction.
pub fn check(
    program: &Program,
    alphabet: &Alphabet,
    property: &Property,
    options: &CheckOptions,
) -> Result<CheckResult, VerifyError> {
    if alphabet.is_empty() {
        return Err(VerifyError::EmptyAlphabet);
    }
    if let Backend::Bmc { depth } = options.backend {
        return crate::bmc::run_check(program, alphabet, property, options, depth);
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
    let inspect = property.bind(&reactor);
    let e = frontier::explore(
        &mut reactor,
        &compiled,
        &inspect,
        options.max_states,
        options.max_depth,
        options.threads,
    )?;

    let counterexample = e.violation.map(|(state, letter)| {
        // walk the parent pointers back to the root, then append the
        // violating letter
        let mut letters = vec![alphabet.letters()[letter as usize].clone()];
        let mut cur = state;
        while let Some((pred, li)) = e.parents[cur as usize] {
            letters.push(alphabet.letters()[li as usize].clone());
            cur = pred;
        }
        letters.reverse();
        Counterexample::new(letters)
    });

    Ok(CheckResult {
        holds: counterexample.is_none(),
        counterexample,
        states_explored: e.states.len(),
        transitions: e.transitions,
        pruned: e.pruned,
        depth_bounded: e.depth_bounded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_gals::nfifo::nfifo_component;
    use polysig_lang::parse_program;
    use polysig_sim::Simulator;
    use polysig_tagged::{SigName, Value};

    #[test]
    fn counter_range_property_holds_with_reset() {
        // a mod-4 counter stays within [0, 3]
        let p = parse_program(
            "process C { input tick: bool; output n: int; local np: int; \
             np := (pre 0 n) when tick; \
             n := (0 when (np = 3)) default (np + 1); n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let r =
            check(&p, &alphabet, &Property::always_in_range("n", 0, 4), &CheckOptions::default())
                .unwrap();
        assert!(r.holds);
        assert_eq!(r.states_explored, 4, "mod-4 counter has 4 states");
        assert!(!r.depth_bounded);
    }

    #[test]
    fn violation_found_with_shortest_trace() {
        let p = parse_program(
            "process C { input tick: bool; output n: int; \
             n := ((pre 0 n) when tick) + 1; n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let r =
            check(&p, &alphabet, &Property::always_in_range("n", 0, 2), &CheckOptions::default())
                .unwrap();
        assert!(!r.holds);
        // n reaches 3 at the third tick
        assert_eq!(r.counterexample.unwrap().len(), 3);
    }

    #[test]
    fn fifo_overflow_alarm_reachable_and_replayable() {
        let p = polysig_lang::Program::single(nfifo_component("ch", 2));
        let alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
        let r = check(&p, &alphabet, &Property::never_true("ch_alarm"), &CheckOptions::default())
            .unwrap();
        assert!(!r.holds);
        let cx = r.counterexample.unwrap();
        // three consecutive writes overflow depth 2
        assert_eq!(cx.len(), 3);

        // Section 5.2 feedback: replay the counterexample in the simulator
        // and observe the alarm it predicts
        let mut sim = Simulator::for_program(&p).unwrap();
        let run = sim.run(&cx.to_scenario()).unwrap();
        assert!(run.flow(&SigName::from("ch_alarm")).contains(&Value::TRUE));
    }

    #[test]
    fn environment_automaton_rules_out_the_overflow() {
        // depth-1 FIFO, but the environment alternates write / read —
        // Lemma 2's rate condition with n = 1 — so no alarm is reachable
        let p = polysig_lang::Program::single(nfifo_component("ch", 1));
        let mut alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
        let mut write = crate::alphabet::Letter::new();
        write.insert("tick".into(), Value::TRUE);
        write.insert("ch_in".into(), Value::Int(1));
        let mut read = crate::alphabet::Letter::new();
        read.insert("tick".into(), Value::TRUE);
        read.insert("ch_rd".into(), Value::TRUE);
        let env = EnvAutomaton::cycle(&mut alphabet, &[write, read]);
        let r = check(
            &p,
            &alphabet,
            &Property::never_true("ch_alarm"),
            &CheckOptions { env: Some(env), ..Default::default() },
        )
        .unwrap();
        assert!(r.holds, "alternating write/read never overflows a 1-place buffer");
    }

    #[test]
    fn depth_bound_limits_exploration() {
        let p = parse_program(
            "process C { input tick: bool; output n: int; \
             n := ((pre 0 n) when tick) + 1; n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let r = check(
            &p,
            &alphabet,
            &Property::always_in_range("n", 0, 1000),
            &CheckOptions { max_depth: Some(10), ..Default::default() },
        )
        .unwrap();
        assert!(r.holds);
        assert!(r.depth_bounded);
        assert!(r.states_explored <= 12);
    }

    #[test]
    fn state_cap_is_enforced() {
        let p = parse_program(
            "process C { input tick: bool; output n: int; \
             n := ((pre 0 n) when tick) + 1; n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let err = check(
            &p,
            &alphabet,
            &Property::always_in_range("n", 0, 1_000_000),
            &CheckOptions { max_states: 50, ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::StateCapExceeded { cap: 50 }));
    }
}
