//! `design_flow`: the paper's validation flow as a user runs it, one
//! generated pipeline design per op, through eight public calls:
//! type-check → simulate → analyze → estimate → desynchronize → explicit
//! check → BMC check → federated deploy.

use polysig::analyze::{analyze_with_scenario, ChannelBound, ProveOptions};
use polysig::gals::estimate::{estimate_buffer_sizes, EstimationOptions};
use polysig::gals::runtime::{run_federated, FederateSpec, FederatedOptions};
use polysig::gals::{desynchronize, DesyncOptions};
use polysig::lang::{check_program, lexer::tokenize, pretty_program, Program, Role};
use polysig::sim::{Scenario, Simulator};
use polysig::verify::alphabet::Letter;
use polysig::verify::{
    check, Alphabet, Backend, CheckOptions, EnvAutomaton, Property, VerifyError,
};
use polysig_gen::{generate_case, GenConfig, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::{closed_loop, shuffle, splitmix64, Phase, Plan, Workload};

/// Seed of the design corpus. The corpus is the same for every `--seed`,
/// which only orders the visits: this generator's designs cost 1.5 to
/// 200 ms each, and with a corpus drawn per seed the median op moved by a
/// quarter from one seed to the next.
pub const CORPUS: u64 = 0xC0_8905;
/// Designs in the corpus. Their cost is heavy-tailed (median about 21 ms,
/// a few at 200 to 270 ms), so the metrics come from whole passes over
/// it (`Workload::PASS`): a partial pass would weigh the designs it
/// happened to reach, and the seed decides which. The percentiles rank
/// each design's median latency, so the tail is the same design's
/// whether a run makes two passes or three.
const POOL: usize = 256;
/// Seeded visiting orders, one per pass over the corpus.
const PASSES: usize = 4;
/// Warm-up designs run by each set-up (drawn apart from the corpus).
const WARMUP: usize = 12;

/// One generated design, rendered to source before timing.
pub struct Design {
    pub source: String,
    pub program: Program,
    pub scenario: Scenario,
    pub est: Scenario,
}

pub struct Inputs {
    pool: Vec<Design>,
    /// Indices into `pool`, a seeded permutation per pass.
    order: Vec<usize>,
    warmup: Vec<Design>,
}

pub struct State {
    next: u64,
}

pub struct DesignFlow;

/// The `i`-th pipeline design of stream `stream` of the corpus.
pub fn design(stream: u64, i: u64) -> Design {
    let mut rng = StdRng::seed_from_u64(splitmix64(CORPUS ^ splitmix64(stream << 32 | i)));
    let case = generate_case(&mut rng, &GenConfig::default(), Shape::Pipeline);
    Design {
        source: pretty_program(&case.program),
        program: case.program,
        scenario: case.scenario,
        est: case.est_scenario.expect("pipeline cases carry an estimation scenario"),
    }
}

impl Workload for DesignFlow {
    type Inputs = Inputs;
    type State = State;
    const COUNT_OPS: usize = 24;
    const TIMING_DEPENDENT: &'static [&'static str] =
        &["federated.stall_events", "federated.stalled_ms", "federated.max_occupancy"];
    const PASS: usize = POOL;

    fn generate(seed: u64, _seconds: f64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x0064_666c_6f77));
        let mut order = Vec::with_capacity(PASSES * POOL);
        for _ in 0..PASSES {
            let mut pass: Vec<usize> = (0..POOL).collect();
            shuffle(&mut pass, &mut rng);
            order.extend(pass);
        }
        Inputs {
            pool: (0..POOL as u64).map(|i| design(0, i)).collect(),
            order,
            warmup: (0..WARMUP as u64).map(|i| design(1, i)).collect(),
        }
    }

    fn input_of(inputs: &Inputs, op: u64) -> usize {
        inputs.order[op as usize % inputs.order.len()]
    }

    fn setup(inputs: &Inputs) -> Result<State, String> {
        let mut tracer = Tracer::off(std::time::Instant::now());
        for (i, d) in inputs.warmup.iter().enumerate() {
            flow(d, &mut tracer).map_err(|e| format!("warm-up design {i}: {e}"))?;
        }
        Ok(State { next: 0 })
    }

    fn measure(state: &mut State, inputs: &Inputs, plan: Plan, tracer: &mut Tracer) -> Phase {
        let Inputs { pool, order, .. } = inputs;
        let (phase, next) = closed_loop(state.next, u64::MAX, plan, tracer, |i, t| {
            flow(&pool[order[i as usize % order.len()]], t)
        });
        state.next = next;
        phase
    }
}

/// One op: the whole flow on one design, every output checked.
fn flow(d: &Design, t: &mut Tracer) -> Result<(), String> {
    // 1. lang: parse + resolve + type-check the rendered source
    let program = t.span("lang", || check_program(&d.source)).map_err(|e| format!("lang: {e}"))?;
    if program != d.program {
        return Err("lang: the parsed program differs from the generated one".into());
    }
    if t.enabled() {
        t.add("lang.tokens", tokenize(&d.source).map_or(0, |v| v.len()) as f64);
    }

    // 2. sim: the synchronous reference run
    let (reference, compiled) = t
        .span("sim", || {
            let mut sim = Simulator::for_program(&program)?;
            let compiled = sim.reactor().is_compiled();
            sim.run(&d.scenario).map(|run| (run, compiled))
        })
        .map_err(|e| format!("sim: {e}"))?;
    t.add("sim.runs", 1.0);
    t.add("sim.compiled", f64::from(u8::from(compiled)));
    t.add("sim.reactions", reference.steps as f64);

    // 3. analyze, with the estimation scenario's rate bounds
    let analysis =
        t.span("analyze", || analyze_with_scenario(&program, &d.est, &ProveOptions::default()));
    t.add("analyze.diagnostics", analysis.diagnostics.len() as f64);

    // 4. estimate buffer sizes
    let report = t
        .span("estimate", || estimate_buffer_sizes(&program, &d.est, &EstimationOptions::default()))
        .map_err(|e| format!("estimate: {e}"))?;
    t.add("estimate.runs", 1.0);
    t.add("estimate.rounds", report.iterations() as f64);
    t.add("estimate.converged", f64::from(u8::from(report.converged)));
    // the static prover is the estimator's independent reference: an exact
    // bound is the converged size, an upper bound dominates it
    if let Some(bounds) = &analysis.bounds {
        for ch in &analysis.channels {
            let bound = bounds.bound_of(&ch.signal);
            t.add("analyze.channels", 1.0);
            let proven =
                matches!(bound, ChannelBound::Exact { .. } | ChannelBound::UpperBound { .. });
            t.add("analyze.proven", f64::from(u8::from(proven)));
            let size = report.size_of(&ch.signal);
            match (bound, size, report.converged) {
                (ChannelBound::Exact { depth }, Some(s), true) if s != depth => {
                    return Err(format!(
                        "analyze: exact bound {depth} but estimated {s} for `{}`",
                        ch.signal
                    ));
                }
                (ChannelBound::UpperBound { depth }, Some(s), true) if s > depth => {
                    return Err(format!(
                        "analyze: upper bound {depth} below estimated {s} for `{}`",
                        ch.signal
                    ));
                }
                (ChannelBound::Unbounded, _, true) => {
                    return Err(format!(
                        "analyze: `{}` proven unbounded but estimation converged",
                        ch.signal
                    ));
                }
                _ => {}
            }
        }
    }

    // 5. desynchronize at the estimated sizes; like the estimator itself,
    // without the endochrony gate (the flow check in step 8 covers it)
    let options =
        DesyncOptions { sizes: report.final_sizes.clone(), ..DesyncOptions::default() }.lenient();
    let gals = t
        .span("desync", || desynchronize(&program, &options))
        .map_err(|e| format!("desync: {e}"))?;
    t.add("desync.channels", gals.channels.len() as f64);

    // 6-7. "never <ch>_alarm" under the scenario's cycle automaton, by both
    // engines, up to min(len, 10) reactions
    let mut letters: Vec<Letter> = Vec::new();
    for step in d.est.iter() {
        if !letters.contains(step) {
            letters.push(step.clone());
        }
    }
    let mut alphabet = Alphabet::from_letters(letters).map_err(|e| format!("alphabet: {e}"))?;
    let sequence: Vec<Letter> = d.est.iter().cloned().collect();
    let env = EnvAutomaton::cycle(&mut alphabet, &sequence);
    let depth = d.est.len().min(10);
    for ch in &gals.channels {
        let property = Property::never_true(ch.alarm_signal.clone());
        let explicit = t
            .span("reach", || {
                check(
                    &gals.program,
                    &alphabet,
                    &property,
                    &CheckOptions {
                        max_depth: Some(depth),
                        env: Some(env.clone()),
                        ..CheckOptions::default()
                    },
                )
            })
            .map_err(|e| format!("reach: {e}"))?;
        t.add("reach.states", explicit.states_explored as f64);
        t.add("reach.transitions", explicit.transitions as f64);
        t.add("reach.pruned", explicit.pruned as f64);
        t.add("reach.expanded", (explicit.transitions + explicit.pruned) as f64);
        // the estimated sizes passed a clean simulated round of this very
        // scenario, and the cycle automaton replays it: no alarm can fire
        if report.converged && !explicit.holds {
            return Err(format!("reach: `{}` fires at the estimated size", ch.alarm_signal));
        }
        let symbolic = t.span("bmc", || {
            check(
                &gals.program,
                &alphabet,
                &property,
                &CheckOptions {
                    env: Some(env.clone()),
                    backend: Backend::Bmc { depth },
                    ..CheckOptions::default()
                },
            )
        });
        t.add("bmc.depth", depth as f64);
        match symbolic {
            Ok(s) => {
                if s.holds != explicit.holds {
                    return Err(format!(
                        "bmc: verdict {} against explicit {}",
                        s.holds, explicit.holds
                    ));
                }
                let letters = |r: &polysig::verify::CheckResult| {
                    r.counterexample.as_ref().map(|c| c.letters().to_vec())
                };
                if letters(&s) != letters(&explicit) {
                    return Err("bmc: counterexample differs from the explicit one".into());
                }
            }
            Err(VerifyError::BmcUnsupported { .. }) => t.add("bmc.unsupported", 1.0),
            Err(e) => return Err(format!("bmc: {e}")),
        }
    }

    // 8. deploy as federates at the estimated capacities; output flows
    // must equal the synchronous reference (Kahn network)
    let steps = d.scenario.len();
    let federates: Vec<FederateSpec> = program
        .components
        .iter()
        .enumerate()
        .map(|(j, c)| {
            if j == 0 {
                FederateSpec::new(c.name.clone(), steps).with_environment(d.scenario.clone())
            } else {
                FederateSpec::new(c.name.clone(), 4 * steps + 8).data_driven()
            }
        })
        .collect();
    let fed_options = FederatedOptions::from_report(&report);
    let run = t
        .span("federated", || run_federated(&program, federates, &fed_options))
        .map_err(|e| format!("federated: {e}"))?;
    if run.teardown.spawned != run.teardown.joined {
        return Err("federated: teardown leaked threads".into());
    }
    t.add("federated.reactions", run.total_reactions() as f64);
    for c in run.channels.values() {
        t.add("federated.pushes", c.pushes as f64);
        t.add("federated.stall_events", c.stall_events as f64);
        t.add("federated.stalled_ms", c.stalled.as_secs_f64() * 1e3);
        t.max("federated.max_occupancy", c.max_occupancy as f64);
    }
    for c in &program.components {
        for decl in c.decls.iter().filter(|x| x.role == Role::Output) {
            if run.flow(&c.name, &decl.name) != reference.flow(&decl.name) {
                return Err(format!(
                    "federated: flow of `{}` differs from the simulation",
                    decl.name
                ));
            }
        }
    }
    Ok(())
}
