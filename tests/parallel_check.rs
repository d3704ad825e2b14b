//! Thread-count invariance of the explicit-state checkers.
//!
//! The layer-synchronous parallel BFS claims *bit-identical* results at any
//! worker count: same verdict, same state/transition/prune counters, same
//! depth-bounding flag, and the same (shortest) counterexample trace. This
//! suite pins that contract field-for-field across threads ∈ {1, 2, 4, 8}
//! on every program shipped under `programs/`, on the FIFO-overflow
//! fixtures (where a violation truncates exploration mid-layer — the
//! hardest case for determinism), on environment-automaton-shaped
//! exploration, and on the error paths (state cap).

use polysig::gals::nfifo::nfifo_component;
use polysig::lang::{parse_program, Program};
use polysig::tagged::Value;
use polysig::verify::alphabet::Letter;
use polysig::verify::reach::{check, CheckOptions, CheckResult};
use polysig::verify::{max_signal_value, Alphabet, EnvAutomaton, Property, VerifyError};

const THREADS: [usize; 3] = [2, 4, 8];

fn program_file(name: &str) -> Program {
    let path = format!("{}/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_program(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every field of the two results must agree, including the full
/// counterexample trace.
fn assert_identical(label: &str, seq: &CheckResult, par: &CheckResult, threads: usize) {
    assert_eq!(seq.holds, par.holds, "{label}: holds diverges at threads={threads}");
    assert_eq!(
        seq.counterexample, par.counterexample,
        "{label}: counterexample diverges at threads={threads}"
    );
    assert_eq!(
        seq.states_explored, par.states_explored,
        "{label}: states_explored diverges at threads={threads}"
    );
    assert_eq!(
        seq.transitions, par.transitions,
        "{label}: transitions diverges at threads={threads}"
    );
    assert_eq!(seq.pruned, par.pruned, "{label}: pruned diverges at threads={threads}");
    assert_eq!(
        seq.depth_bounded, par.depth_bounded,
        "{label}: depth_bounded diverges at threads={threads}"
    );
}

/// Runs the same check at threads = 1 and every parallel count, asserting
/// field-for-field identity.
fn drill(
    label: &str,
    program: &Program,
    alphabet: &Alphabet,
    property: &Property,
    base: &CheckOptions,
) {
    let seq = check(program, alphabet, property, &CheckOptions { threads: 1, ..base.clone() })
        .unwrap_or_else(|e| panic!("{label}: sequential check failed: {e}"));
    for threads in THREADS {
        let par = check(program, alphabet, property, &CheckOptions { threads, ..base.clone() })
            .unwrap_or_else(|e| panic!("{label}: threads={threads} check failed: {e}"));
        assert_identical(label, &seq, &par, threads);
    }
}

// --- every program shipped under `programs/` -----------------------------

#[test]
fn shipped_programs_are_thread_count_invariant() {
    // depth-bounded so unbounded counters stay finite; the bound also
    // exercises the depth_bounded accounting at the layer barrier
    let base = CheckOptions { max_depth: Some(6), ..Default::default() };
    for name in ["accumulator.sig", "pipe.sig", "one_place_buffer.sig"] {
        let p = program_file(name);
        let alphabet = Alphabet::exhaustive(&p, &[0, 1]).unwrap();
        // a vacuous property: the whole bounded space is explored, so the
        // counters probe exploration order, not early exit
        drill(
            &format!("programs/{name}"),
            &p,
            &alphabet,
            &Property::never_present("__no_such_signal"),
            &base,
        );
    }
}

// --- violation mid-layer: FIFO overflows ---------------------------------

#[test]
fn fifo_overflow_counterexamples_are_thread_count_invariant() {
    for depth in 1..=3usize {
        let p = Program::single(nfifo_component("ch", depth));
        let alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
        let label = format!("nfifo(depth={depth})");
        drill(&label, &p, &alphabet, &Property::never_true("ch_alarm"), &CheckOptions::default());
        // sanity: the violation really is found
        let r = check(
            &p,
            &alphabet,
            &Property::never_true("ch_alarm"),
            &CheckOptions { threads: 4, ..Default::default() },
        )
        .unwrap();
        assert!(!r.holds, "{label}: overflow must be reachable");
        assert_eq!(r.counterexample.unwrap().len(), depth + 1, "{label}: shortest trace");
    }
}

// --- environment-automaton-shaped exploration ----------------------------

#[test]
fn env_automaton_checks_are_thread_count_invariant() {
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
        &CheckOptions { env: Some(env), ..Default::default() },
    );
}

// --- error paths ---------------------------------------------------------

#[test]
fn state_cap_errors_are_thread_count_invariant() {
    // an unbounded counter: the reachable space is infinite, so every
    // thread count must trip the cap — at the same canonical insert
    let p = parse_program(
        "process C { input tick: bool; output n: int; \
         n := ((pre 0 n) when tick) + 1; n ^= tick; }",
    )
    .unwrap();
    let alphabet = Alphabet::exhaustive(&p, &[0, 1]).unwrap();
    let property = Property::never_present("__no_such_signal");
    let cap = 40;
    let seq = check(
        &p,
        &alphabet,
        &property,
        &CheckOptions { max_states: cap, threads: 1, ..Default::default() },
    )
    .unwrap_err();
    assert!(matches!(seq, VerifyError::StateCapExceeded { cap: c } if c == cap));
    for threads in THREADS {
        let par = check(
            &p,
            &alphabet,
            &property,
            &CheckOptions { max_states: cap, threads, ..Default::default() },
        )
        .unwrap_err();
        assert_eq!(seq, par, "cap error diverges at threads={threads}");
    }
}

// --- the exhaustive bound prover shares the engine -----------------------

#[test]
fn proven_bounds_are_thread_count_invariant() {
    let p = Program::single(nfifo_component("ch", 2));
    let mut alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
    let mut write = Letter::new();
    write.insert("tick".into(), Value::TRUE);
    write.insert("ch_in".into(), Value::Int(1));
    let mut read = Letter::new();
    read.insert("tick".into(), Value::TRUE);
    read.insert("ch_rd".into(), Value::TRUE);
    let env = EnvAutomaton::cycle(&mut alphabet, &[write.clone(), write, read]);
    let run = |threads| {
        let options = CheckOptions {
            env: Some(env.clone()),
            max_states: 100_000,
            threads,
            ..Default::default()
        };
        max_signal_value(&p, &alphabet, &"ch_count".into(), &options).unwrap()
    };
    let seq = run(1);
    for threads in THREADS {
        assert_eq!(seq, run(threads), "bound diverges at threads={threads}");
    }
}
