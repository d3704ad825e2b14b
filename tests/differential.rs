//! E4 — differential validation of the two execution plans and the two
//! reaction entry points.
//!
//! Every drilled program lowers to a static schedule, so
//! [`polysig::sim::Reactor::for_program`] runs it compiled, while
//! [`polysig::sim::Reactor::for_program_interpreted`] runs the constructive
//! interpreter. This suite drives the compiled reactor through the
//! name-keyed `react` and the interpreter through the index-addressed
//! `react_dense` — the map boundary against a hand-built [`DenseEnv`] —
//! over the same pseudo-random scenario ensembles and asserts
//! instant-by-instant equality of present signals, values, errors, and
//! register files.
//!
//! Coverage: every program under `programs/`, every component builder
//! realizing the theorem constructions validated by `tests/theorem1.rs` and
//! `tests/theorem2.rs` (the `AFifo`/`nFifo` network components: `nFifo` of
//! Definition 9, the one-place buffer and memory cell of Figure 2, the
//! fork/merge fan-out), and the desynchronized pipe the paper's Section 5
//! workflow produces.

use std::collections::BTreeMap;

use polysig::gals::instrument::monitor_component;
use polysig::gals::nfifo::nfifo_component;
use polysig::gals::onefifo::{memory_cell_component, one_place_buffer_component};
use polysig::gals::{desynchronize, fork_component, merge_component, DesyncOptions};
use polysig::lang::{parse_program, Program, Role};
use polysig::sim::{DenseEnv, Reactor, Scenario};
use polysig::tagged::{SigName, Value, ValueType};

/// Deterministic splitmix-style generator: the ensembles must be identical
/// on every run and platform.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
    z ^ (z >> 33)
}

/// The program's external inputs with their declared types.
fn input_decls(program: &Program) -> Vec<(SigName, ValueType)> {
    program
        .external_inputs()
        .into_iter()
        .map(|n| {
            let ty = program
                .components
                .iter()
                .find_map(|c| c.decl(&n).map(|d| d.ty))
                .expect("external input is declared");
            (n, ty)
        })
        .collect()
}

/// One pseudo-random scenario over `inputs`: each signal is independently
/// present about 3 of 4 instants, with small values so `when`/`default`
/// branches and register feedback all get exercised.
fn ensemble(inputs: &[(SigName, ValueType)], seed: u64, len: usize) -> Scenario {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut scenario = Scenario::new();
    for _ in 0..len {
        let mut step: BTreeMap<SigName, Value> = BTreeMap::new();
        for (name, ty) in inputs {
            if next(&mut state).is_multiple_of(4) {
                continue; // absent this instant
            }
            let v = match ty {
                ValueType::Bool => Value::Bool(next(&mut state).is_multiple_of(2)),
                ValueType::Int => Value::Int((next(&mut state) % 5) as i64),
            };
            step.insert(name.clone(), v);
        }
        scenario.push_step(step);
    }
    scenario
}

/// Drives `scenario` through two fresh reactors — the compiled plan via the
/// name-keyed `react`, the interpreter via `react_dense` — asserting
/// flow-equivalence at every instant: same present signals and values, same
/// error on rejected instants, same register file afterwards.
fn assert_flow_equivalent(label: &str, program: &Program, scenario: &Scenario, tag: &str) {
    let mut compiled = Reactor::for_program(program).expect("program elaborates");
    let mut interp = Reactor::for_program_interpreted(program).expect("program elaborates");
    assert!(compiled.is_compiled(), "{label}: no static schedule ({:?})", compiled.lower_failure());
    let names = interp.signal_names().to_vec();
    let n = interp.signal_count();
    let mut env = DenseEnv::new(n);

    for (k, step) in scenario.iter().enumerate() {
        let compiled_out = compiled.react(step);
        env.reset(n);
        for (name, value) in step {
            let id = interp.sig_id(name).expect("scenario drives declared signals");
            env.set(id, *value);
        }
        match (compiled_out, interp.react_dense(&env)) {
            (Ok(c), Ok(i)) => {
                let i: Vec<(SigName, Value)> =
                    i.iter().map(|(id, v)| (names[id.index()].clone(), v)).collect();
                assert_eq!(c, i, "{label}/{tag}: present sets diverge at instant {k}");
            }
            (Err(c), Err(i)) => {
                assert_eq!(
                    c.to_string(),
                    i.to_string(),
                    "{label}/{tag}: errors diverge at instant {k}"
                );
            }
            (c, i) => panic!(
                "{label}/{tag}: one plan rejected instant {k}: compiled {c:?}, interpreted {}",
                match i {
                    Ok(env) => format!("accepted {} present", env.present_count()),
                    Err(e) => format!("rejected ({e})"),
                }
            ),
        }
        assert_eq!(
            compiled.registers(),
            interp.registers(),
            "{label}/{tag}: register files diverge after instant {k}"
        );
    }
}

/// The full differential drill for one program: eight pseudo-random
/// ensembles of 24 instants each.
fn drill(label: &str, program: &Program) {
    let inputs = input_decls(program);
    assert!(!inputs.is_empty(), "{label}: nothing to drive");
    for seed in 0..8u64 {
        let scenario = ensemble(&inputs, seed, 24);
        assert_flow_equivalent(label, program, &scenario, &format!("seed{seed}"));
    }
}

fn program_file(name: &str) -> Program {
    let path = format!("{}/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_program(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

// --- every program shipped under `programs/` -----------------------------

#[test]
fn programs_accumulator_is_flow_equivalent() {
    drill("programs/accumulator.sig", &program_file("accumulator.sig"));
}

#[test]
fn programs_pipe_is_flow_equivalent() {
    drill("programs/pipe.sig", &program_file("pipe.sig"));
}

#[test]
fn programs_one_place_buffer_is_flow_equivalent() {
    let program = program_file("one_place_buffer.sig");
    drill("programs/one_place_buffer.sig", &program);
    // and the scenario file shipped beside it, verbatim
    let path = format!("{}/programs/one_place_buffer.scn", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap();
    let scenario = Scenario::from_text(&text).unwrap();
    assert_flow_equivalent("programs/one_place_buffer.sig", &program, &scenario, "scn");
}

// --- the theorem networks' component builders ----------------------------

#[test]
fn nfifo_builders_are_flow_equivalent() {
    for depth in 1..=3usize {
        let program = Program::single(nfifo_component("ch", depth));
        drill(&format!("nfifo(depth={depth})"), &program);
    }
}

#[test]
fn one_place_buffer_builder_is_flow_equivalent() {
    drill("one_place_buffer_component", &Program::single(one_place_buffer_component("b")));
}

#[test]
fn memory_cell_builder_is_flow_equivalent() {
    drill("memory_cell_component", &Program::single(memory_cell_component("m")));
}

#[test]
fn fork_and_merge_builders_are_flow_equivalent() {
    let x = SigName::from("x");
    for n in 2..=3usize {
        drill(&format!("fork(n={n})"), &Program::single(fork_component(&x, ValueType::Int, n)));
        drill(&format!("merge(n={n})"), &Program::single(merge_component(&x, ValueType::Int, n)));
    }
}

#[test]
fn monitor_builder_is_flow_equivalent() {
    drill("monitor_component", &Program::single(monitor_component("ch")));
}

// --- the Section 5 workflow output ---------------------------------------

#[test]
fn desynchronized_pipe_is_flow_equivalent() {
    let pipe = program_file("pipe.sig");
    for size in 1..=3usize {
        let gals =
            desynchronize(&pipe, &DesyncOptions::with_size(size)).expect("pipe desynchronizes");
        drill(&format!("desync(pipe, size={size})"), &gals.program);
    }
}

// --- the checkers are thread-count invariant on random environments ------

mod thread_invariance {
    use super::*;
    use polysig::verify::alphabet::Letter;
    use polysig::verify::reach::{check, CheckOptions};
    use polysig::verify::{max_signal_value, Alphabet, EnvAutomaton, Property};
    use proptest::prelude::*;

    /// Builds the FIFO write/read letter a `(write, read)` choice denotes.
    fn letter(write: bool, read: bool) -> Letter {
        let mut l = Letter::new();
        l.insert("tick".into(), Value::TRUE);
        if write {
            l.insert("ch_in".into(), Value::Int(1));
        }
        if read {
            l.insert("ch_rd".into(), Value::TRUE);
        }
        l
    }

    proptest! {
        /// Random FIFO depths, random cyclic environment automata, random
        /// depth bounds: the parallel checker must agree with the
        /// sequential one on every result field, and the bound prover on
        /// the maximum under the same options.
        #[test]
        fn random_envs_give_identical_verdicts_across_thread_counts(
            depth in 1usize..4,
            moves in proptest::collection::vec((proptest::bool::ANY, proptest::bool::ANY), 1..6),
            max_depth in proptest::option::of(2usize..10),
        ) {
            let p = Program::single(nfifo_component("ch", depth));
            let letters: Vec<Letter> =
                moves.iter().map(|&(w, r)| letter(w, r)).collect();
            let mut alphabet = Alphabet::from_letters(letters.clone()).unwrap();
            let env = EnvAutomaton::cycle(&mut alphabet, &letters);
            let base = CheckOptions { env: Some(env.clone()), max_depth, ..Default::default() };
            let property = Property::never_true("ch_alarm");

            let seq_options = CheckOptions { threads: 1, ..base.clone() };
            let seq = check(&p, &alphabet, &property, &seq_options).unwrap();
            let seq_bound =
                max_signal_value(&p, &alphabet, &"ch_count".into(), &seq_options).unwrap();
            for threads in [2usize, 8] {
                let par_options = CheckOptions { threads, ..base.clone() };
                let par = check(&p, &alphabet, &property, &par_options).unwrap();
                prop_assert_eq!(seq.holds, par.holds);
                prop_assert_eq!(&seq.counterexample, &par.counterexample);
                prop_assert_eq!(seq.states_explored, par.states_explored);
                prop_assert_eq!(seq.transitions, par.transitions);
                prop_assert_eq!(seq.pruned, par.pruned);
                prop_assert_eq!(seq.depth_bounded, par.depth_bounded);
                let par_bound =
                    max_signal_value(&p, &alphabet, &"ch_count".into(), &par_options).unwrap();
                prop_assert_eq!(&seq_bound, &par_bound);
            }
        }
    }
}

// --- the cached estimation engine matches the reference loop --------------

mod estimation_differential {
    use super::*;
    use polysig::gals::estimate::{
        estimate_buffer_sizes, estimate_buffer_sizes_ensemble, estimate_buffer_sizes_reference,
        EstimationOptions, GrowthPolicy,
    };
    use polysig::gals::{channels_of_program, GalsError};
    use proptest::prelude::*;

    /// Three producer/consumer stages — two channels, so rounds grow a
    /// *vector* of depths, some channels grown and some untouched.
    fn chain3() -> Program {
        parse_program(
            "process P { input a: int; output x: int; x := a + 1; } \
             process Q { input x: int; output y: int; y := x * 2; } \
             process R { input y: int; output z: int; z := y - 1; }",
        )
        .unwrap()
    }

    /// A pseudo-random estimation environment for `program`: drives the
    /// program's own external inputs, every channel's read-enable and the
    /// monitor clock. The writer inputs stay silent before `wphase`, so
    /// first writes land at a nonzero instant.
    fn estimation_env(program: &Program, seed: u64, len: usize, wphase: usize) -> Scenario {
        let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
        let channels = channels_of_program(program).expect("program partitions");
        let writers = input_decls(program);
        let mut scenario = Scenario::new();
        for k in 0..len {
            let mut step: BTreeMap<SigName, Value> = BTreeMap::new();
            step.insert("tick".into(), Value::TRUE);
            for (name, ty) in &writers {
                if name.as_str() == "tick" {
                    continue;
                }
                if k < wphase || next(&mut state).is_multiple_of(4) {
                    continue; // silent before the phase, then ~3/4 present
                }
                let v = match ty {
                    ValueType::Bool => Value::Bool(next(&mut state).is_multiple_of(2)),
                    ValueType::Int => Value::Int((next(&mut state) % 5) as i64),
                };
                step.insert(name.clone(), v);
            }
            for ch in &channels {
                if next(&mut state).is_multiple_of(3) {
                    step.insert(format!("{}_rd", ch.signal).as_str().into(), Value::TRUE);
                }
            }
            scenario.push_step(step);
        }
        scenario
    }

    /// Runs both engines on one (program, scenario, options) point and
    /// asserts the reports — every field of every iteration — are equal.
    fn assert_reports_match(
        label: &str,
        program: &Program,
        scenario: &Scenario,
        options: &EstimationOptions,
    ) {
        let warm = estimate_buffer_sizes(program, scenario, options);
        let cold = estimate_buffer_sizes_reference(program, scenario, options);
        match (warm, cold) {
            (Ok(w), Ok(c)) => {
                assert_eq!(w.converged, c.converged, "{label}: convergence diverges");
                assert_eq!(w.final_sizes, c.final_sizes, "{label}: final sizes diverge");
                assert_eq!(w.history.len(), c.history.len(), "{label}: round counts diverge");
                for (round, (wi, ci)) in w.history.iter().zip(&c.history).enumerate() {
                    assert_eq!(wi.sizes, ci.sizes, "{label}: sizes diverge in round {round}");
                    assert_eq!(wi.alarms, ci.alarms, "{label}: alarms diverge in round {round}");
                    assert_eq!(
                        wi.max_miss, ci.max_miss,
                        "{label}: max-miss diverges in round {round}"
                    );
                }
            }
            (Err(w), Err(c)) => {
                assert_eq!(w.to_string(), c.to_string(), "{label}: errors diverge");
            }
            (w, c) => panic!(
                "{label}: one engine failed: cached {}, reference {}",
                describe(&w),
                describe(&c)
            ),
        }
    }

    fn describe(r: &Result<polysig::gals::estimate::EstimationReport, GalsError>) -> String {
        match r {
            Ok(rep) => format!("ok ({} rounds)", rep.iterations()),
            Err(e) => format!("err ({e})"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random phased environments over the single-channel pipe and the
        /// two-channel chain, both growth policies, non-default initial
        /// sizes: the cached engine must reproduce the reference reports
        /// bit for bit.
        #[test]
        fn incremental_estimation_matches_cold_reference(
            seed in 0u64..1_000_000,
            len in 24usize..56,
            wphase in 0usize..8,
            doubling in proptest::bool::ANY,
            initial_size in 1usize..3,
        ) {
            let growth =
                if doubling { GrowthPolicy::Doubling } else { GrowthPolicy::ByMaxMiss };
            let options =
                EstimationOptions { growth, initial_size, ..Default::default() };
            for (label, program) in
                [("pipe", program_file("pipe.sig")), ("chain3", chain3())]
            {
                let scenario = estimation_env(&program, seed, len, wphase);
                assert_reports_match(label, &program, &scenario, &options);
            }
        }

        /// The ensemble entry point at every worker count must return the
        /// same per-scenario reports as one-at-a-time sequential loops.
        #[test]
        fn ensemble_matches_sequential_at_every_thread_count(
            seed in 0u64..1_000_000,
            wphase in 0usize..6,
        ) {
            let program = program_file("pipe.sig");
            let scenarios: Vec<Scenario> = (0..5)
                .map(|i| estimation_env(&program, seed.wrapping_add(i), 32, wphase))
                .collect();
            let reference: Vec<_> = scenarios
                .iter()
                .map(|s| {
                    estimate_buffer_sizes_reference(&program, s, &EstimationOptions::default())
                        .unwrap()
                })
                .collect();
            for threads in [1usize, 2, 4, 8] {
                let opts = EstimationOptions { threads, ..Default::default() };
                let ensemble =
                    estimate_buffer_sizes_ensemble(&program, &scenarios, &opts).unwrap();
                prop_assert_eq!(
                    &ensemble.reports, &reference,
                    "ensemble with {} threads diverges", threads
                );
            }
        }
    }

    /// Channel-free programs go through the same two engines (the loop
    /// converges immediately — but both paths must agree on that too).
    #[test]
    fn channel_free_programs_match() {
        for name in ["accumulator.sig", "one_place_buffer.sig"] {
            let program = program_file(name);
            let scenario = estimation_env(&program, 7, 24, 0);
            assert_reports_match(name, &program, &scenario, &EstimationOptions::default());
        }
    }
}

// --- composed multi-component programs go through the same boundary ------

#[test]
fn composed_components_agree_with_their_product() {
    // the per-component reactors used by the GALS runtimes must see the
    // same dense/name-keyed agreement as whole programs
    let pipe = program_file("pipe.sig");
    for c in &pipe.components {
        let inputs: Vec<(SigName, ValueType)> =
            c.signals_with_role(Role::Input).map(|d| (d.name.clone(), d.ty)).collect();
        for seed in 0..4u64 {
            let scenario = ensemble(&inputs, seed, 16);
            assert_flow_equivalent(
                &format!("component {}", c.name),
                &Program::single(c.clone()),
                &scenario,
                &format!("seed{seed}"),
            );
        }
    }
}
