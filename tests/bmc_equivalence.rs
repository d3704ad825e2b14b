//! Backend agreement: the symbolic bounded model checker must reproduce
//! the explicit breadth-first checker field for field whenever both are
//! asked the same bounded question.
//!
//! Both engines are run at the same horizon (`max_depth` for the explicit
//! checker, `depth` for the symbolic one), so verdicts and counterexamples
//! are directly comparable: same `holds`, the *same* shortest
//! lexicographically-least trace, and the documented symbolic counter
//! conventions (no explicit states, `depth_bounded` on every bounded-safe
//! verdict). The explicit side runs both sequentially and at the default
//! worker count — the symbolic verdict must agree with either.
//!
//! Coverage mirrors `parallel_check.rs`: every program shipped under
//! `programs/`, the FIFO-overflow fixtures, and environment-automaton
//! shaped exploration.

use polysig::gals::nfifo::nfifo_component;
use polysig::gals::{desynchronize, DesyncOptions};
use polysig::lang::{parse_program, Program};
use polysig::sim::Reactor;
use polysig::tagged::Value;
use polysig::verify::alphabet::Letter;
use polysig::verify::reach::{check, CheckOptions, CheckResult};
use polysig::verify::{Alphabet, Backend, EnvAutomaton, Property};

fn program_file(name: &str) -> Program {
    let path = format!("{}/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_program(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Asserts the symbolic result agrees with the explicit one on the verdict
/// and the exact counterexample, and obeys the symbolic conventions.
fn assert_agree(label: &str, explicit: &CheckResult, symbolic: &CheckResult) {
    assert_eq!(explicit.holds, symbolic.holds, "{label}: verdicts diverge");
    assert_eq!(
        explicit.counterexample, symbolic.counterexample,
        "{label}: counterexamples diverge"
    );
    assert_eq!(symbolic.states_explored, 0, "{label}: symbolic explores no explicit states");
    assert_eq!(symbolic.transitions, 0, "{label}: symbolic executes no reactions");
    assert_eq!(symbolic.pruned, 0, "{label}: symbolic prunes nothing");
    if symbolic.holds {
        assert!(symbolic.depth_bounded, "{label}: a symbolic `holds` verdict is always bounded");
    } else {
        assert!(!symbolic.depth_bounded, "{label}: a violation is exact, not bounded");
    }
}

/// Runs the explicit checker (sequentially and at the default thread
/// count) and the symbolic backend at the same horizon, asserting
/// agreement.
fn drill(
    label: &str,
    program: &Program,
    alphabet: &Alphabet,
    property: &Property,
    env: Option<&EnvAutomaton>,
    depth: usize,
) {
    let explicit_base =
        CheckOptions { max_depth: Some(depth), env: env.cloned(), ..Default::default() };
    let seq =
        check(program, alphabet, property, &CheckOptions { threads: 1, ..explicit_base.clone() })
            .unwrap_or_else(|e| panic!("{label}: explicit sequential check failed: {e}"));
    let par = check(program, alphabet, property, &explicit_base)
        .unwrap_or_else(|e| panic!("{label}: explicit default-threads check failed: {e}"));
    let symbolic = check(
        program,
        alphabet,
        property,
        &CheckOptions { env: env.cloned(), backend: Backend::Bmc { depth }, ..Default::default() },
    )
    .unwrap_or_else(|e| panic!("{label}: symbolic check failed: {e}"));
    assert_agree(&format!("{label} vs threads=1"), &seq, &symbolic);
    assert_agree(&format!("{label} vs default threads"), &par, &symbolic);
}

// --- every program shipped under `programs/` -----------------------------

#[test]
fn shipped_programs_agree_across_backends() {
    // the vacuous property explores the whole bounded space on the
    // explicit side; the symbolic side must also report bounded-safe
    for name in ["accumulator.sig", "pipe.sig", "one_place_buffer.sig"] {
        let p = program_file(name);
        let alphabet = Alphabet::exhaustive(&p, &[0, 1]).unwrap();
        drill(
            &format!("programs/{name} (vacuous)"),
            &p,
            &alphabet,
            &Property::never_present("__no_such_signal"),
            None,
            6,
        );
    }
}

#[test]
fn shipped_program_properties_agree_across_backends() {
    // substantive properties per program: a held range, a reachable alarm,
    // and a violated range — verdict and trace must match either way
    let acc = program_file("accumulator.sig");
    let alphabet = Alphabet::exhaustive(&acc, &[0, 1]).unwrap();
    drill(
        "accumulator n in [0,4]",
        &acc,
        &alphabet,
        &Property::always_in_range("n", 0, 4),
        None,
        6,
    );
    drill(
        "accumulator n in [0,2] (violated)",
        &acc,
        &alphabet,
        &Property::always_in_range("n", 0, 2),
        None,
        6,
    );

    let buf = program_file("one_place_buffer.sig");
    let alphabet = Alphabet::exhaustive(&buf, &[0, 1]).unwrap();
    drill(
        "one_place_buffer alarm reachable",
        &buf,
        &alphabet,
        &Property::never_true("alarm"),
        None,
        4,
    );

    let pipe = program_file("pipe.sig");
    let alphabet = Alphabet::exhaustive(&pipe, &[0, 1]).unwrap();
    drill("pipe y in [0,4]", &pipe, &alphabet, &Property::always_in_range("y", 0, 4), None, 4);
    drill(
        "pipe y in [0,3] (violated)",
        &pipe,
        &alphabet,
        &Property::always_in_range("y", 0, 3),
        None,
        4,
    );
}

// --- the FIFO-overflow fixtures ------------------------------------------

#[test]
fn fifo_overflow_counterexamples_agree_across_backends() {
    for depth in 1..=3usize {
        let p = Program::single(nfifo_component("ch", depth));
        let alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
        let label = format!("nfifo(depth={depth})");
        // the shortest overflow is depth+1 writes; give both engines one
        // extra step of slack so the horizon is not what finds it
        drill(&label, &p, &alphabet, &Property::never_true("ch_alarm"), None, depth + 2);
        // sanity: the violation really is found, at the BFS length
        let r = check(
            &p,
            &alphabet,
            &Property::never_true("ch_alarm"),
            &CheckOptions { backend: Backend::Bmc { depth: depth + 2 }, ..Default::default() },
        )
        .unwrap();
        assert!(!r.holds, "{label}: overflow must be reachable");
        assert_eq!(r.counterexample.unwrap().len(), depth + 1, "{label}: shortest trace");
    }
}

// --- environment-automaton-shaped exploration ----------------------------

#[test]
fn env_automaton_checks_agree_across_backends() {
    let p = Program::single(nfifo_component("ch", 1));
    let mut alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
    let mut write = Letter::new();
    write.insert("tick".into(), Value::TRUE);
    write.insert("ch_in".into(), Value::Int(1));
    let mut read = Letter::new();
    read.insert("tick".into(), Value::TRUE);
    read.insert("ch_rd".into(), Value::TRUE);
    let env = EnvAutomaton::cycle(&mut alphabet, &[write, read]);
    drill(
        "nfifo(depth=1) under write/read cycle",
        &p,
        &alphabet,
        &Property::never_true("ch_alarm"),
        Some(&env),
        8,
    );
}

// --- a desynchronized network that lowers only on a retry ----------------

/// The two-stage pipeline whose consumer reads its channel only under
/// `pre`. Desynchronized, the consumer's equation reads `s0_out`, which the
/// FIFO defines; the schedule follows instantaneous reads only, so it may
/// place the consumer first, yet `s0_out`'s presence is the consumer's only
/// clock witness. The network must lower, and BMC must answer "never
/// `s0_alarm`" exactly as the explicit checker does, under a free
/// environment and under the cycle that overflows the FIFO.
#[test]
fn a_consumer_reading_its_channel_only_under_pre_lowers_after_desync() {
    let p = parse_program(
        "process P0 { input a: int; output s0: int; s0 := a + 1; } \
         process P1 { input s0: int; output s1: int; \
                      s1 := (pre 2 (s0 + s0)) + (pre -1 s1); }",
    )
    .unwrap();
    let options = DesyncOptions { default_size: 1, ..DesyncOptions::default() };
    let gals = desynchronize(&p, &options).unwrap();
    let reactor = Reactor::for_program_compiled(&gals.program).unwrap();
    assert!(reactor.is_compiled(), "no static schedule: {:?}", reactor.lower_failure());

    let property = Property::never_true("s0_alarm");
    let mut alphabet = Alphabet::exhaustive(&gals.program, &[1]).unwrap();
    drill("pre-only consumer, free", &gals.program, &alphabet, &property, None, 4);
    let letter = |pairs: &[(&str, Value)]| -> Letter {
        pairs.iter().map(|(n, v)| ((*n).into(), *v)).collect()
    };
    let write = letter(&[("tick", Value::TRUE), ("a", Value::Int(1))]);
    let read = letter(&[("tick", Value::TRUE), ("s0_rd", Value::TRUE)]);
    let env = EnvAutomaton::cycle(&mut alphabet, &[write.clone(), write, read]);
    drill(
        "pre-only consumer, write-write-read",
        &gals.program,
        &alphabet,
        &property,
        Some(&env),
        6,
    );
    let r = check(
        &gals.program,
        &alphabet,
        &property,
        &CheckOptions { env: Some(env), backend: Backend::Bmc { depth: 6 }, ..Default::default() },
    )
    .unwrap();
    assert_eq!(r.counterexample.map(|c| c.len()), Some(2), "the second write overflows");
}
