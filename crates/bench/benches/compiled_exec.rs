//! E10 — compiled execution: static schedules vs the micro-step interpreter.
//!
//! `compile/lower_fig2` measures the one-time lowering cost of the Figure-2
//! buffer; `compile/elaborate_pipe16` elaborates the instrumented pipe
//! network at depth 16, the size estimation rounds reach (85 declarations,
//! where a pass that scans a component per equation shows);
//! `compile/exec_fig2*` drives the raw per-reaction dispatch
//! (`react_dense`) of the fig2 components under both execution plans; and
//! `compile/round_*` time one Section-5.2 estimation round — elaborate the
//! converged instrumented pipe network, then drive its 80-instant
//! scenario — under each plan, once per burst length of the
//! `estimation/full_loop/*` workload.

use criterion::{criterion_group, criterion_main, Criterion};

use polysig_bench::banner;
use polysig_gals::estimate::{estimate_buffer_sizes, EstimationOptions};
use polysig_gals::onefifo::{memory_cell_component, one_place_buffer_component};
use polysig_gals::{desynchronize, DesyncOptions};
use polysig_lang::ast::Program;
use polysig_sim::generator::master_clock;
use polysig_sim::{BurstyInputs, DenseEnv, PeriodicInputs, Reactor, Scenario, ScenarioGenerator};
use polysig_tagged::{Value, ValueType};

const STEPS: usize = 256;

/// The same workload as `fig2/*_256_reactions`, pre-rendered to dense
/// slot-indexed environments so the rows below time the reactor alone —
/// no `Behavior` recording, no name lookups.
fn dense_workload(r: &Reactor, steps: usize) -> Vec<DenseEnv> {
    let tick = r.sig_id("tick").unwrap();
    let msgin = r.sig_id("msgin").unwrap();
    let rd = r.sig_id("rd").unwrap();
    (0..steps)
        .map(|i| {
            let mut e = DenseEnv::new(r.signal_count());
            e.set(tick, Value::TRUE);
            if i % 2 == 0 {
                e.set(msgin, Value::Int(i as i64));
            } else {
                e.set(rd, Value::TRUE);
            }
            e
        })
        .collect()
}

fn drive(r: &mut Reactor, envs: &[DenseEnv]) -> usize {
    r.reset();
    let mut present = 0usize;
    for env in envs {
        present += r.react_dense(env).unwrap().present_count();
    }
    present
}

/// One estimation round on `program`: elaborate it under `build` and
/// drive `scenario` from instant 0, counting present outputs.
fn round(
    build: fn(&Program) -> Result<Reactor, polysig_sim::SimError>,
    program: &Program,
    scenario: &Scenario,
) -> usize {
    let mut r = build(program).unwrap();
    let envs = r.dense_scenario(scenario).unwrap();
    drive(&mut r, &envs)
}

/// The `estimation/full_loop/*` workload (see `buffer_estimation.rs`).
fn bursty_env(steps: usize, burst: usize) -> Scenario {
    BurstyInputs::new("a", ValueType::Int, burst, 16)
        .generate(steps)
        .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 2, 0).generate(steps))
        .zip_union(&master_clock("tick", steps))
}

fn bench(c: &mut Criterion) {
    let buffer = Program::single(one_place_buffer_component("B"));
    let cell = Program::single(memory_cell_component("M"));

    // the rows below are meaningless if the plans are not what their
    // names claim, so pin that down before measuring
    let compiled_buffer = Reactor::for_program(&buffer).unwrap();
    let compiled_cell = Reactor::for_program(&cell).unwrap();
    assert!(compiled_buffer.is_compiled(), "fig2 buffer must lower to a static schedule");
    assert!(compiled_cell.is_compiled(), "fig2 memory cell must lower to a static schedule");
    assert!(!Reactor::for_program_interpreted(&buffer).unwrap().is_compiled());
    banner(
        "E10 / compiled execution",
        &format!(
            "static schedules: buffer {} ops, memory cell {} ops",
            compiled_buffer.compiled_op_count().unwrap(),
            compiled_cell.compiled_op_count().unwrap(),
        ),
    );

    let mut group = c.benchmark_group("compile");
    group.bench_function("lower_fig2", |b| {
        b.iter(|| {
            let r = Reactor::for_program(&buffer).unwrap();
            assert!(r.is_compiled());
            std::hint::black_box(r.compiled_op_count())
        })
    });

    {
        let network =
            desynchronize(&polysig_bench::pipe(), &DesyncOptions::with_size(16).instrumented())
                .unwrap()
                .program;
        assert!(Reactor::for_program(&network).unwrap().is_compiled());
        group.bench_function("elaborate_pipe16", |b| {
            b.iter(|| std::hint::black_box(Reactor::for_program(&network).unwrap().signal_count()))
        });
    }

    {
        let mut compiled = Reactor::for_program(&buffer).unwrap();
        let envs = dense_workload(&compiled, STEPS);
        group.bench_function("exec_fig2", |b| {
            b.iter(|| std::hint::black_box(drive(&mut compiled, &envs)))
        });
        let mut interp = Reactor::for_program_interpreted(&buffer).unwrap();
        let envs = dense_workload(&interp, STEPS);
        group.bench_function("exec_fig2_interpreted", |b| {
            b.iter(|| std::hint::black_box(drive(&mut interp, &envs)))
        });
    }
    {
        let mut compiled = Reactor::for_program(&cell).unwrap();
        let envs = dense_workload(&compiled, STEPS);
        group.bench_function("exec_fig2_memory_cell", |b| {
            b.iter(|| std::hint::black_box(drive(&mut compiled, &envs)))
        });
        let mut interp = Reactor::for_program_interpreted(&cell).unwrap();
        let envs = dense_workload(&interp, STEPS);
        group.bench_function("exec_fig2_memory_cell_interpreted", |b| {
            b.iter(|| std::hint::black_box(drive(&mut interp, &envs)))
        });
    }

    // the converged round of each `estimation/full_loop/*` run: the
    // instrumented pipe network at the depths the loop settles on
    for burst in [2usize, 4, 8] {
        let env = bursty_env(80, burst);
        let report =
            estimate_buffer_sizes(&polysig_bench::pipe(), &env, &EstimationOptions::default())
                .unwrap();
        assert!(report.converged);
        let options = DesyncOptions { sizes: report.final_sizes, ..DesyncOptions::default() };
        let network =
            desynchronize(&polysig_bench::pipe(), &options.instrumented()).unwrap().program;
        assert!(Reactor::for_program(&network).unwrap().is_compiled());
        assert_eq!(
            round(Reactor::for_program, &network, &env),
            round(Reactor::for_program_interpreted, &network, &env)
        );
        group.bench_function(format!("round_{burst}"), |b| {
            b.iter(|| std::hint::black_box(round(Reactor::for_program, &network, &env)))
        });
        group.bench_function(format!("round_{burst}_interpreted"), |b| {
            b.iter(|| std::hint::black_box(round(Reactor::for_program_interpreted, &network, &env)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
