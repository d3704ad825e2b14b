//! Deterministic tests for error paths the mainline suites leave cold:
//! scenario precompilation rejects and the state-cap boundary of the
//! reachability checker.

use std::collections::BTreeMap;

use polysig_gals::{desynchronize, DesyncOptions, GalsError};
use polysig_lang::parse_program;
use polysig_sim::{Scenario, SimError, Simulator};
use polysig_tagged::{SigName, Value};
use polysig_verify::{check, Alphabet, Backend, CheckOptions, Property, VerifyError};

fn acc_program() -> polysig_lang::Program {
    // the shipped saturating accumulator: with tick always present its
    // reachable register space is exactly the 4 values n cycles through
    parse_program(
        "process Acc { input tick: bool; output n: int; local np: int; \
           np := (pre 0 n) when tick; \
           n := (0 when (np = 3)) default (np + 1); \
           n ^= tick; }",
    )
    .unwrap()
}

#[test]
fn undeclared_scenario_signal_rejected_before_any_reaction() {
    let p = parse_program("process P { input a: int; output x: int; x := a + 1; }").unwrap();
    let mut sim = Simulator::for_program(&p).unwrap();
    // the bad name sits in the SECOND step: precompilation must still catch
    // it before reacting to the (valid) first step
    let scenario = Scenario::new().on("a", Value::Int(1)).tick().on("nosuch", Value::Int(2)).tick();
    let err = sim.run(&scenario).unwrap_err();
    match err {
        SimError::NotAnInput { name } => assert_eq!(name.as_str(), "nosuch"),
        other => panic!("expected NotAnInput, got {other}"),
    }
    assert_eq!(sim.reactor().steps_taken(), 0, "no reaction may execute before the reject");
    // the simulator is still usable afterwards
    let run = sim.run(&Scenario::new().on("a", Value::Int(3)).tick()).unwrap();
    assert_eq!(run.flow(&"x".into()), vec![Value::Int(4)]);
}

#[test]
fn state_cap_errors_exactly_at_the_boundary() {
    let p = acc_program();
    let mut tick = BTreeMap::new();
    tick.insert(SigName::from("tick"), Value::TRUE);
    let alphabet = Alphabet::from_letters(vec![tick]).unwrap();
    let property = Property::always_in_range("n", 0, 3);

    // measure the exact reachable count with an unconstraining cap
    let opts = |max_states: usize, threads: usize| CheckOptions {
        max_states,
        threads,
        ..Default::default()
    };
    let full = check(&p, &alphabet, &property, &opts(1_000, 1)).unwrap();
    assert!(full.holds);
    let n = full.states_explored;
    assert!(n > 1, "the accumulator must have a nontrivial state space");

    for threads in [1, 4] {
        // cap == reachable count: fits exactly, no error
        let at = check(&p, &alphabet, &property, &opts(n, threads)).unwrap();
        assert!(at.holds, "threads={threads}");
        assert_eq!(at.states_explored, n, "threads={threads}");
        assert_eq!(at.transitions, full.transitions, "threads={threads}");

        // cap == reachable count - 1: must trip, reporting that cap
        let err = check(&p, &alphabet, &property, &opts(n - 1, threads)).unwrap_err();
        match err {
            VerifyError::StateCapExceeded { cap } => assert_eq!(cap, n - 1, "threads={threads}"),
            other => panic!("expected StateCapExceeded, got {other}"),
        }
    }
}

#[test]
fn negating_i64_min_is_checked_like_subtracting_it_from_zero() {
    // `- a` and `0 - a` overflow on the same input: the explicit checker
    // reports the same value error for both, and BMC prunes both paths
    let neg = parse_program("process P { input a: int; output x: int; x := - a; }").unwrap();
    let sub = parse_program("process P { input a: int; output x: int; x := 0 - a; }").unwrap();
    let alphabet = Alphabet::exhaustive(&neg, &[1, i64::MIN]).unwrap();
    let property = Property::always_in_range("x", -1, 0);
    let explicit = CheckOptions { threads: 1, ..Default::default() };
    let answer = |p| check(p, &alphabet, &property, &explicit).map(|r| r.holds);
    let (n, s) = (answer(&neg), answer(&sub));
    assert!(
        matches!(n, Err(VerifyError::Sim(SimError::ValueType { .. }))),
        "explicit `- a`: {n:?}"
    );
    assert_eq!(n.unwrap_err().to_string(), s.unwrap_err().to_string());

    let bmc = CheckOptions { backend: Backend::Bmc { depth: 3 }, ..Default::default() };
    let answer = |p| {
        let r = check(p, &alphabet, &property, &bmc).unwrap();
        (r.holds, r.counterexample)
    };
    let n = answer(&neg);
    assert!(n.0, "BMC prunes the overflowing path: {n:?}");
    assert_eq!(n, answer(&sub));
}

#[test]
fn desynchronize_rejects_non_endochronous_components_unless_lenient() {
    // P's two inputs are unrelated masters: its reactions are not a function
    // of its input flows, so Theorem 1 gives no preservation guarantee
    let p = parse_program(
        "process P { input a: int, b: int; output x: int, w: int; x := a; w := b; } \
         process Q { input x: int; output y: int; y := x; }",
    )
    .unwrap();
    let err = desynchronize(&p, &DesyncOptions::with_size(1)).unwrap_err();
    match err {
        GalsError::NonEndochronous { component, masters } => {
            assert_eq!(component, "P");
            assert!(masters.len() >= 2, "both masters reported, got {masters:?}");
            // the rendering must point at the opt-out
            let shown = format!("{}", GalsError::NonEndochronous { component, masters });
            assert!(shown.contains("lenient"), "error must name the escape hatch: {shown}");
        }
        other => panic!("expected NonEndochronous, got {other}"),
    }

    // the explicit opt-out still transforms the program
    let d = desynchronize(&p, &DesyncOptions::with_size(1).lenient()).unwrap();
    assert_eq!(d.channels.len(), 1);
    assert_eq!(d.channels[0].spec.signal.as_str(), "x");

    // endochronous programs pass the gate untouched
    let ok = parse_program(
        "process P { input a: int; output x: int; x := a; } \
         process Q { input x: int; output y: int; y := x; }",
    )
    .unwrap();
    assert!(desynchronize(&ok, &DesyncOptions::with_size(1)).is_ok());
}

#[test]
fn empty_scenario_run_on_stateful_program_records_nothing() {
    let p = acc_program();
    let mut sim = Simulator::for_program(&p).unwrap();
    let run = sim.run(&Scenario::new()).unwrap();
    assert_eq!(run.steps, 0);
    assert_eq!(run.events, 0);
    assert!(run.flow(&"n".into()).is_empty());
    // the empty run did not advance the register state
    let r = sim.run(&Scenario::new().on("tick", Value::TRUE).tick()).unwrap();
    assert_eq!(r.flow(&"n".into()), vec![Value::Int(1)]);
}
