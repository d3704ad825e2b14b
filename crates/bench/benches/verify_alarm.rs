//! E7 — Section 5.2's verification step: model-checking "no alarm".
//!
//! Prints the state-space table (reachable states / transitions / verdict
//! per buffer depth under a rate-constrained environment), then measures
//! checking cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use polysig_bench::{banner, pipe};
use polysig_gals::{desynchronize, DesyncOptions};
use polysig_tagged::Value;
use polysig_verify::alphabet::Letter;
use polysig_verify::{check, Alphabet, Backend, CheckOptions, EnvAutomaton, Property};

/// The w-writes-then-w-reads frame environment.
fn frame(w: usize) -> Vec<Letter> {
    let mut seq = Vec::new();
    for i in 0..w {
        let mut l = Letter::new();
        l.insert("tick".into(), Value::TRUE);
        l.insert("a".into(), Value::Int(i as i64 + 1));
        seq.push(l);
    }
    for _ in 0..w {
        let mut l = Letter::new();
        l.insert("tick".into(), Value::TRUE);
        l.insert("x_rd".into(), Value::TRUE);
        seq.push(l);
    }
    seq
}

fn run_check(size: usize, w: usize, threads: usize) -> polysig_verify::CheckResult {
    let d = desynchronize(&pipe(), &DesyncOptions::with_size(size)).unwrap();
    let seq = frame(w);
    let mut alphabet = Alphabet::from_letters(seq.clone()).unwrap();
    let env = EnvAutomaton::cycle(&mut alphabet, &seq);
    check(
        &d.program,
        &alphabet,
        &Property::never_true("x_alarm"),
        &CheckOptions { env: Some(env), threads, ..Default::default() },
    )
    .unwrap()
}

fn run_bmc(size: usize, w: usize, depth: usize) -> polysig_verify::CheckResult {
    let d = desynchronize(&pipe(), &DesyncOptions::with_size(size)).unwrap();
    let seq = frame(w);
    let mut alphabet = Alphabet::from_letters(seq.clone()).unwrap();
    let env = EnvAutomaton::cycle(&mut alphabet, &seq);
    check(
        &d.program,
        &alphabet,
        &Property::never_true("x_alarm"),
        &CheckOptions { env: Some(env), backend: Backend::Bmc { depth }, ..Default::default() },
    )
    .unwrap()
}

/// BMC under a free-choice write frame, the environment shape of
/// perfbench's verify_sweep: `w` writes, each of one of four values chosen
/// freely, then `w` reads. The write states branch, so their moves keep
/// fresh selection literals and the solver searches and minimizes over
/// real choices.
fn run_bmc_choice(size: usize, w: usize, depth: usize) -> polysig_verify::CheckResult {
    const VALUES: usize = 4;
    let d = desynchronize(&pipe(), &DesyncOptions::with_size(size)).unwrap();
    let mut letters: Vec<Letter> = (1..=VALUES as i64)
        .map(|v| [("tick".into(), Value::TRUE), ("a".into(), Value::Int(v))].into())
        .collect();
    letters.push([("tick".into(), Value::TRUE), ("x_rd".into(), Value::TRUE)].into());
    let alphabet = Alphabet::from_letters(letters).unwrap();
    let mut env = EnvAutomaton::with_states(2 * w);
    for s in 0..w {
        for letter in 0..VALUES {
            env.allow(s, letter, s + 1);
        }
        env.allow(w + s, VALUES, (w + s + 1) % (2 * w));
    }
    check(
        &d.program,
        &alphabet,
        &Property::never_true("x_alarm"),
        &CheckOptions { env: Some(env), backend: Backend::Bmc { depth }, ..Default::default() },
    )
    .unwrap()
}

fn bench(c: &mut Criterion) {
    banner("E7 / Section 5.2", "alarm reachability vs buffer depth (2-write frames)");
    eprintln!("{:>6} | {:>8} | {:>12} | verdict", "depth", "states", "transitions");
    for size in 1..=5usize {
        let r = run_check(size, 2, 1);
        eprintln!(
            "{size:>6} | {:>8} | {:>12} | {}",
            r.states_explored,
            r.transitions,
            if r.holds { "alarm unreachable" } else { "ALARM REACHABLE" }
        );
    }

    let mut group = c.benchmark_group("verify");
    // sequential path (threads = 1): comparable with the pre-parallel
    // baseline sections
    for size in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("check_frame2", size), &size, |b, _| {
            b.iter(|| std::hint::black_box(run_check(size, 2, 1).states_explored))
        });
    }
    for w in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("check_depth3_framew", w), &w, |b, _| {
            b.iter(|| std::hint::black_box(run_check(3, w, 1).states_explored))
        });
    }
    // symbolic backend on the same fixtures: every move of a cycle
    // automaton is forced, so these two fold to constants while encoding
    // and time the encoder alone
    group.bench_function("bmc_frame2", |b| b.iter(|| std::hint::black_box(run_bmc(2, 2, 4).holds)));
    group.bench_function("bmc_pipe8", |b| b.iter(|| std::hint::black_box(run_bmc(3, 2, 8).holds)));
    // free-choice writes keep the solver on the path: depth 2 under
    // 3-write frames overflows at the third write, found and minimized at
    // BMC depth 3
    group.bench_function("bmc_choice_frame3", |b| {
        b.iter(|| {
            let r = run_bmc_choice(2, 3, 6);
            assert_eq!(r.counterexample.as_ref().map(|c| c.len()), Some(3));
            std::hint::black_box(r.holds)
        })
    });
    // layer-parallel exploration at fixed worker counts
    for threads in [2usize, 4] {
        for size in [2usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("check_frame2_par{threads}"), size),
                &size,
                |b, _| b.iter(|| std::hint::black_box(run_check(size, 2, threads).states_explored)),
            );
        }
        for w in [2usize, 3] {
            group.bench_with_input(
                BenchmarkId::new(format!("check_depth3_framew_par{threads}"), w),
                &w,
                |b, _| b.iter(|| std::hint::black_box(run_check(3, w, threads).states_explored)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
