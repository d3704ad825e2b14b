//! Ad-hoc profiling harness for the estimation loop (not part of the docs).

use std::time::Instant;

use polysig_gals::estimate::{estimate_buffer_sizes, EstimationOptions};
use polysig_gals::{desynchronize, DesyncOptions};
use polysig_lang::parse_program;
use polysig_sim::generator::master_clock;
use polysig_sim::{BurstyInputs, PeriodicInputs, Scenario, ScenarioGenerator, Simulator};
use polysig_tagged::ValueType;

fn pipe() -> polysig_lang::Program {
    parse_program(
        "process P { input a: int; output x: int; x := a; } \
         process Q { input x: int; output y: int; y := x; }",
    )
    .unwrap()
}

fn bursty_env(steps: usize, burst: usize, period: usize, read_period: usize) -> Scenario {
    BurstyInputs::new("a", ValueType::Int, burst, period)
        .generate(steps)
        .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, read_period, 0).generate(steps))
        .zip_union(&master_clock("tick", steps))
}

fn main() {
    let p = pipe();
    for burst in [2usize, 4, 8] {
        let env = bursty_env(80, burst, 16, 2);
        let t0 = Instant::now();
        let mut sizes = Vec::new();
        let reps = 20;
        for _ in 0..reps {
            let r = estimate_buffer_sizes(&p, &env, &EstimationOptions::default()).unwrap();
            let x = polysig_tagged::SigName::from("x");
            sizes = r.history.iter().map(|h| h.sizes[&x]).collect();
        }
        println!("burst {burst}: {:?} per loop, rounds at sizes {sizes:?}", t0.elapsed() / reps);
    }

    // per-size round decomposition for the burst-8 loop's depth sequence
    let env = bursty_env(80, 8, 16, 2);
    for size in [1usize, 8, 15, 22, 29, 36] {
        let reps = 100u32;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = std::hint::black_box(
                desynchronize(&p, &DesyncOptions::with_size(size).instrumented()).unwrap(),
            );
        }
        let t_desync = t0.elapsed() / reps;
        let d = desynchronize(&p, &DesyncOptions::with_size(size).instrumented()).unwrap();
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = std::hint::black_box(Simulator::for_program(&d.program).unwrap());
        }
        let t_compile = t0.elapsed() / reps;

        let mut sim = Simulator::for_program(&d.program).unwrap();
        use polysig_sim::DenseEnv;
        let reactor = sim.reactor_mut();
        let n = reactor.signal_count();
        let dense: Vec<DenseEnv> = env
            .iter()
            .map(|inputs| {
                let mut e = DenseEnv::new(n);
                for (name, value) in inputs {
                    e.set(reactor.sig_id(name).unwrap(), *value);
                }
                e
            })
            .collect();
        let t0 = Instant::now();
        for _ in 0..reps {
            reactor.reset();
            for e in &dense {
                let _ = std::hint::black_box(reactor.react_dense(e).unwrap());
            }
        }
        let t_react = t0.elapsed() / reps;
        let passes = reactor.passes();
        let steps = reactor.steps_taken();
        let evals = reactor.evals();

        let reps = 200u32;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(polysig_lang::resolve::resolve_program(&d.program)).unwrap();
        }
        let t_resolve = t0.elapsed() / reps;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(polysig_lang::types::check_program(&d.program)).unwrap();
        }
        let t_types = t0.elapsed() / reps;
        let t0 = Instant::now();
        for _ in 0..reps {
            for c in &d.program.components {
                std::hint::black_box(polysig_lang::clock::analyze_component(c));
            }
        }
        let t_clock = t0.elapsed() / reps;
        // evals/step is RHS evaluations under interpretation but bytecode
        // ops under the compiled plan (see `Reactor::evals`); compare sizes
        // that run the same plan only
        println!(
            "size {size:3}: desync {t_desync:?}, compile {t_compile:?} \
             (resolve {t_resolve:?}, types {t_types:?}, clock {t_clock:?}), \
             react x80 {t_react:?}, passes/steps {passes}/{steps}, evals/step {}",
            evals / steps
        );
    }
}
