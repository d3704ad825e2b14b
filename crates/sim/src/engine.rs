//! High-level simulation driver: runs a scenario and records the resulting
//! tagged-model behavior.

use polysig_lang::{Component, Program};
use polysig_tagged::{Behavior, SigName, Tag, Value};

use crate::error::SimError;
use crate::reactor::Reactor;
use crate::scenario::Scenario;

/// The result of running a scenario.
#[derive(Debug, Clone)]
pub struct Run {
    /// The recorded behavior: every declared signal's trace, with one tag
    /// per reaction (reactions where a signal is absent simply do not appear
    /// on its chain).
    pub behavior: Behavior,
    /// Number of reactions executed.
    pub steps: usize,
    /// Total events produced.
    pub events: usize,
}

impl Run {
    /// The value flow of one signal (convenience accessor).
    pub fn flow(&self, name: &SigName) -> Vec<Value> {
        self.behavior.trace(name).map(|t| t.values()).unwrap_or_default()
    }

    /// Presence instants of one signal as 0-based reaction indices.
    pub fn presence(&self, name: &SigName) -> Vec<usize> {
        self.behavior
            .trace(name)
            .map(|t| t.tags().map(|tag| tag.as_u64() as usize - 1).collect())
            .unwrap_or_default()
    }
}

/// A reusable simulator: a [`Reactor`] plus trace recording.
///
/// ```
/// use polysig_lang::parse_program;
/// use polysig_sim::{Scenario, Simulator};
/// use polysig_tagged::Value;
///
/// let p = parse_program("process P { input a: int; output x: int; x := a + a; }")?;
/// let mut sim = Simulator::for_program(&p)?;
/// let run = sim.run(&Scenario::new().on("a", Value::Int(2)).tick())?;
/// assert_eq!(run.flow(&"x".into()), vec![Value::Int(4)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    reactor: Reactor,
}

impl Simulator {
    /// Elaborates a program.
    ///
    /// # Errors
    ///
    /// Surfaces resolution and type errors.
    pub fn for_program(p: &Program) -> Result<Simulator, SimError> {
        Ok(Simulator { reactor: Reactor::for_program(p)? })
    }

    /// Elaborates a single component.
    ///
    /// # Errors
    ///
    /// Surfaces resolution and type errors.
    pub fn for_component(c: &Component) -> Result<Simulator, SimError> {
        Ok(Simulator { reactor: Reactor::for_component(c)? })
    }

    /// Access to the underlying reactor (state inspection, stepping).
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Mutable access to the underlying reactor.
    pub fn reactor_mut(&mut self) -> &mut Reactor {
        &mut self.reactor
    }

    /// Runs a scenario from the current state, recording a behavior. The
    /// reactor state advances; call [`Simulator::reset`] to start over.
    ///
    /// The scenario's name-keyed steps are converted to dense environments
    /// once, up front ([`Reactor::dense_scenario`]); the per-reaction loop
    /// then drives [`Reactor::react_dense`] and never touches a name-keyed
    /// map. (Consequently, a scenario mentioning an undeclared name is
    /// rejected before any reaction executes.)
    ///
    /// # Errors
    ///
    /// Stops at the first reaction error (see [`SimError`]).
    pub fn run(&mut self, scenario: &Scenario) -> Result<Run, SimError> {
        let start = self.reactor.steps_taken();
        let names = self.reactor.signal_names().to_vec();
        let mut behavior = Behavior::new();
        for name in &names {
            behavior.declare(name.clone());
        }
        let dense_steps = self.reactor.dense_scenario(scenario)?;
        let mut events = 0usize;
        for (k, env) in dense_steps.iter().enumerate() {
            let present = self.reactor.react_dense(env)?;
            let tag = Tag::new((start + k) as u64 + 1);
            for (id, value) in present.iter() {
                behavior.push_event(names[id.index()].clone(), tag, value);
                events += 1;
            }
        }
        Ok(Run { behavior, steps: scenario.len(), events })
    }

    /// Resets the program state.
    pub fn reset(&mut self) {
        self.reactor.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;
    use polysig_tagged::denotation;

    fn sim(src: &str) -> Simulator {
        Simulator::for_program(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn run_records_behavior_with_reaction_tags() {
        let mut s = sim("process P { input a: int; output x: int; x := a; }");
        let run = s
            .run(
                &Scenario::new().on("a", Value::Int(1)).tick().tick().on("a", Value::Int(2)).tick(),
            )
            .unwrap();
        assert_eq!(run.steps, 3);
        assert_eq!(run.flow(&"x".into()), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(run.presence(&"x".into()), vec![0, 2]);
        assert_eq!(run.events, 4); // a twice, x twice
    }

    #[test]
    fn consecutive_runs_continue_the_state() {
        let mut s =
            sim("process Acc { input tick: bool; output n: int; n := (pre 0 n) + (1 when tick); }");
        let one = Scenario::new().on("tick", Value::TRUE).tick();
        let r1 = s.run(&one).unwrap();
        let r2 = s.run(&one).unwrap();
        assert_eq!(r1.flow(&"n".into()), vec![Value::Int(1)]);
        assert_eq!(r2.flow(&"n".into()), vec![Value::Int(2)]);
        s.reset();
        let r3 = s.run(&one).unwrap();
        assert_eq!(r3.flow(&"n".into()), vec![Value::Int(1)]);
    }

    #[test]
    fn operational_run_matches_denotational_when() {
        // simulator output for `x := a when c` must satisfy Table 1
        let mut s = sim("process P { input a: int, c: bool; output x: int; x := a when c; }");
        let run = s
            .run(
                &Scenario::new()
                    .on("a", Value::Int(1))
                    .on("c", Value::TRUE)
                    .tick()
                    .on("a", Value::Int(2))
                    .on("c", Value::FALSE)
                    .tick()
                    .on("a", Value::Int(3))
                    .on("c", Value::TRUE)
                    .tick(),
            )
            .unwrap();
        let a = run.behavior.trace(&"a".into()).unwrap();
        let c = run.behavior.trace(&"c".into()).unwrap();
        let x = run.behavior.trace(&"x".into()).unwrap();
        assert!(denotation::satisfies_when(x, a, c));
    }

    #[test]
    fn operational_run_matches_denotational_pre_and_default() {
        let mut s = sim("process P { input a: int, b: int; output x: int, y: int; \
             x := pre 0 a; y := a default b; }");
        let run = s
            .run(
                &Scenario::new()
                    .on("a", Value::Int(5))
                    .tick()
                    .on("b", Value::Int(7))
                    .tick()
                    .on("a", Value::Int(9))
                    .on("b", Value::Int(8))
                    .tick(),
            )
            .unwrap();
        let a = run.behavior.trace(&"a".into()).unwrap();
        let b = run.behavior.trace(&"b".into()).unwrap();
        assert!(denotation::satisfies_pre(
            run.behavior.trace(&"x".into()).unwrap(),
            Value::Int(0),
            a
        ));
        assert!(denotation::satisfies_default(run.behavior.trace(&"y".into()).unwrap(), a, b));
    }

    #[test]
    fn errors_carry_reaction_index() {
        let mut s = sim("process P { input a: int, b: int; output x: int; x := a + b; }");
        let scenario = Scenario::new()
            .on("a", Value::Int(1))
            .on("b", Value::Int(1))
            .tick()
            .on("a", Value::Int(2))
            .tick();
        let err = s.run(&scenario).unwrap_err();
        match err {
            SimError::ClockMismatch { step, .. } | SimError::Contradiction { step, .. } => {
                assert_eq!(step, 1)
            }
            other => panic!("unexpected error {other}"),
        }
    }
}
