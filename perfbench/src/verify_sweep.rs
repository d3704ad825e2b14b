//! `verify_sweep`: explicit and BMC checks of "never `x_alarm`" on
//! desynchronized pipes whose answers are known.
//!
//! A fixture is the two-stage pipe `a → x → y` desynchronized at FIFO
//! depth `d`, under a frame environment: `w` writes, each of one of four
//! values chosen freely, then `w` reads, forever. A frame overflows the
//! FIFO iff `d < w` (pinned by `tests/verify_alarm.rs`), and the shortest
//! overflow — the counterexample both engines must report — is `d + 1`
//! writes of the first letter. The free value choice makes the explicit
//! state count grow as 4^w: the fixtures span 3·10² to 8.7·10⁴ states on
//! violations and 3·10³ to 4.9·10⁴ on proofs.

use polysig::gals::{desynchronize, DesyncOptions};
use polysig::lang::{parse_program, Program};
use polysig::tagged::Value;
use polysig::verify::alphabet::Letter;
use polysig::verify::{
    check, Alphabet, Backend, CheckOptions, CheckResult, EnvAutomaton, Property,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::{closed_loop, shuffle, splitmix64, Phase, Plan, Workload};

/// Values a write may carry (the explicit state count grows as VALUES^w).
const VALUES: usize = 4;

/// `(depth, frame writes)` per fixture.
const FIXTURES: &[(usize, usize)] = &[(4, 5), (5, 5), (6, 7), (6, 6), (7, 7), (8, 9)];

/// One cycle of queries, `(fixture, BMC horizon)` (`None` = explicit):
/// every fixture explicitly, and symbolically at the horizon that first
/// shows an overflow (`min(d, w) + 1`) and at two frames (`2w`, left out
/// where the overflow already ends the search). Seventeen queries put the
/// median rank in the middle of one query's samples, not between two.
const CYCLE: &[(usize, Option<usize>)] = &[
    (0, None),
    (0, Some(5)),
    (1, None),
    (1, Some(6)),
    (1, Some(10)),
    (2, None),
    (2, Some(7)),
    (2, Some(14)),
    (3, None),
    (3, Some(7)),
    (3, Some(12)),
    (4, None),
    (4, Some(8)),
    (4, Some(14)),
    (5, None),
    (5, Some(9)),
    (5, Some(18)),
];

#[derive(Debug, Clone, Copy)]
enum Engine {
    Explicit,
    Bmc { depth: usize },
}

#[derive(Debug, Clone, Copy)]
struct Query {
    fixture: usize,
    engine: Engine,
}

/// The seed orders the cycle; the written values stay fixed, because the
/// SAT search's cost depends on their bit patterns while the explicit
/// state count does not.
pub struct Inputs {
    /// One cycle of queries in seeded order; the op stream repeats it.
    cycle: Vec<Query>,
}

struct Fixture {
    depth: usize,
    writes: usize,
    program: Program,
    alphabet: Alphabet,
    env: EnvAutomaton,
}

pub struct State {
    fixtures: Vec<Fixture>,
    next: u64,
}

pub struct VerifySweep;

impl Workload for VerifySweep {
    type Inputs = Inputs;
    type State = State;
    const COUNT_OPS: usize = CYCLE.len();

    fn generate(seed: u64, _seconds: f64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x7665_7269_6679));
        let mut cycle: Vec<Query> = CYCLE
            .iter()
            .map(|&(fixture, horizon)| Query {
                fixture,
                engine: horizon.map_or(Engine::Explicit, |depth| Engine::Bmc { depth }),
            })
            .collect();
        shuffle(&mut cycle, &mut rng);
        Inputs { cycle }
    }

    fn setup(inputs: &Inputs) -> Result<State, String> {
        let pipe = parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x; }",
        )
        .map_err(|e| e.to_string())?;
        let mut fixtures = Vec::new();
        for &(depth, writes) in FIXTURES {
            let gals = desynchronize(&pipe, &DesyncOptions::with_size(depth))
                .map_err(|e| e.to_string())?;
            let mut letters = Vec::new();
            for v in 1..=VALUES as i64 {
                let mut l = Letter::new();
                l.insert("tick".into(), Value::TRUE);
                l.insert("a".into(), Value::Int(v));
                letters.push(l);
            }
            let mut read = Letter::new();
            read.insert("tick".into(), Value::TRUE);
            read.insert("x_rd".into(), Value::TRUE);
            letters.push(read);
            let alphabet = Alphabet::from_letters(letters).map_err(|e| e.to_string())?;
            let mut env = EnvAutomaton::with_states(2 * writes);
            for s in 0..writes {
                for letter in 0..VALUES {
                    env.allow(s, letter, s + 1);
                }
                env.allow(writes + s, VALUES, (writes + s + 1) % (2 * writes));
            }
            fixtures.push(Fixture { depth, writes, program: gals.program, alphabet, env });
        }
        let state = State { fixtures, next: 0 };
        // warm-up: one cycle of queries
        let mut tracer = Tracer::off(std::time::Instant::now());
        for q in &inputs.cycle {
            query(&state.fixtures[q.fixture], q.engine, &mut tracer)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(state)
    }

    fn measure(state: &mut State, inputs: &Inputs, plan: Plan, tracer: &mut Tracer) -> Phase {
        let fixtures = &state.fixtures;
        let cycle = &inputs.cycle;
        let (phase, next) = closed_loop(state.next, u64::MAX, plan, tracer, |i, t| {
            let q = cycle[i as usize % cycle.len()];
            query(&fixtures[q.fixture], q.engine, t)
        });
        state.next = next;
        phase
    }
}

/// One op: one engine's verdict on one fixture, checked against the known
/// answer.
fn query(f: &Fixture, engine: Engine, t: &mut Tracer) -> Result<(), String> {
    let property = Property::never_true("x_alarm");
    let env = Some(f.env.clone());
    let (result, horizon) = match engine {
        Engine::Explicit => {
            let r = t.span("reach", || {
                check(
                    &f.program,
                    &f.alphabet,
                    &property,
                    &CheckOptions { env, ..CheckOptions::default() },
                )
            });
            (r.map_err(|e| format!("explicit: {e}"))?, None)
        }
        Engine::Bmc { depth } => {
            let r = t.span("bmc", || {
                check(
                    &f.program,
                    &f.alphabet,
                    &property,
                    &CheckOptions {
                        env,
                        backend: Backend::Bmc { depth },
                        ..CheckOptions::default()
                    },
                )
            });
            t.add("bmc.depth", depth as f64);
            (r.map_err(|e| format!("bmc: {e}"))?, Some(depth))
        }
    };
    if horizon.is_none() {
        t.add("reach.states", result.states_explored as f64);
        t.add("reach.transitions", result.transitions as f64);
        t.add("reach.pruned", result.pruned as f64);
        t.add("reach.expanded", (result.transitions + result.pruned) as f64);
    }
    expect_known_answer(f, horizon, &result)
}

/// The frame overflows iff `depth < writes`; the shortest overflow is
/// `depth + 1` writes of letter 0 (BFS and the lex-minimized BMC model
/// both pick the least letter at every step). A bounded query sees it
/// only within its horizon.
fn expect_known_answer(f: &Fixture, horizon: Option<usize>, r: &CheckResult) -> Result<(), String> {
    let overflow = f.depth < f.writes && horizon.is_none_or(|h| h > f.depth);
    if r.holds == overflow {
        return Err(format!(
            "depth {} under {}-write frames (horizon {horizon:?}): holds={}, expected {}",
            f.depth, f.writes, r.holds, !overflow
        ));
    }
    if overflow {
        let cx = r.counterexample.as_ref().ok_or("violation without a counterexample")?;
        let first = &f.alphabet.letters()[0];
        if cx.len() != f.depth + 1 || cx.letters().iter().any(|l| l != first) {
            return Err(format!("unexpected counterexample of length {}", cx.len()));
        }
    }
    Ok(())
}
