//! Section 5.2: iterative buffer-size estimation.
//!
//! "Designers can start with a set of behaviors and a rough guess of the
//! needed buffer size and use the instrumented FIFO network to find the
//! right estimation … by simulating the behavior of the design for a given
//! environment, observing the values in the counters, incrementing the
//! buffer size by these values, and iterating the simulation till no alarm
//! is raised."
//!
//! [`estimate_buffer_sizes`] runs exactly that loop: desynchronize with the
//! current sizes and the Figure-4 instrumentation, simulate the given
//! environment, read each channel's max-consecutive-miss register and alarm
//! count, grow the buffers, and repeat until a run raises no alarm (or a
//! cap is hit).
//!
//! ## The incremental engine
//!
//! Consecutive rounds differ only in FIFO depths, so by default
//! ([`EstimationOptions::incremental`]) the loop avoids repeating work the
//! rounds share:
//!
//! * the desynchronization skeleton is derived once per loop via
//!   [`DesyncCache`] and each round's network assembled from clones;
//! * each round compiles straight to a [`Reactor`] and is measured on dense
//!   per-instant environments — alarms and miss registers are read off the
//!   reaction outputs directly, skipping the full trace recording a
//!   [`Simulator`] run would do;
//! * compiled rounds are memoized by their depth vector, so an ensemble
//!   worker revisiting the same sizes (every scenario starts at the same
//!   depths) reuses the compiled reactor;
//! * when a round only *grew* buffers, the next round resumes from the
//!   instant of the earliest write attempt on any grown channel instead of
//!   replaying the whole prefix — see `DESIGN.md` §9 for the soundness
//!   argument and the conditions that force a cold start.
//!
//! The incremental engine is observationally identical to the plain loop
//! (`incremental: false`): same [`EstimationReport`], field for field — the
//! differential suite in `tests/differential.rs` holds it to that.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use polysig_lang::Program;
use polysig_sim::{DenseEnv, Reactor, ReactorState, Scenario, Simulator};
use polysig_tagged::hash::FxHashMap;
use polysig_tagged::{SigId, SigName, Value};

use crate::desync::{desynchronize, DesyncCache, DesyncOptions, Desynchronized};
use crate::error::GalsError;
use crate::nfifo::fifo_component_name;

/// How to grow a channel that missed writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GrowthPolicy {
    /// Grow by the max-consecutive-miss register (the paper's rule).
    #[default]
    ByMaxMiss,
    /// Double the size (classic geometric growth — an ablation point).
    Doubling,
}

/// Options for the estimation loop.
#[derive(Debug, Clone)]
pub struct EstimationOptions {
    /// Starting depth for every channel.
    pub initial_size: usize,
    /// Give up after this many simulate-grow rounds.
    pub max_iterations: usize,
    /// Give up when any channel would exceed this depth.
    pub max_size: usize,
    /// Growth rule.
    pub growth: GrowthPolicy,
    /// Worker threads for [`estimate_buffer_sizes_ensemble`] (a single
    /// loop is inherently sequential round-to-round, so
    /// [`estimate_buffer_sizes`] ignores this). Per-scenario results are
    /// identical for every value. Defaults to the detected parallelism
    /// (`POLYSIG_TEST_THREADS` overrides it).
    pub threads: usize,
    /// Use the incremental engine (cached desynchronization, dense
    /// measurement, warm-started rounds — see the module docs). The report
    /// is identical either way; `false` forces the plain
    /// desynchronize-simulate-grow loop, kept as the reference
    /// implementation the differential tests compare against.
    pub incremental: bool,
    /// Statically proven sufficient depths (the `polysig-analyze` rate-bound
    /// prover's output, via `StaticBounds::warm_start`). A proven channel
    /// starts at its proven depth (clamped to ≥ 1) instead of
    /// [`EstimationOptions::initial_size`] and is reported with
    /// [`Provenance::Static`]; when *every* channel is proven the loop
    /// returns without simulating a single round. A proven channel that
    /// still alarms — a wrong proof — is grown like any other and its
    /// provenance flips to [`Provenance::Dynamic`] (the safety valve).
    pub proven: BTreeMap<SigName, usize>,
}

impl Default for EstimationOptions {
    fn default() -> Self {
        EstimationOptions {
            initial_size: 1,
            max_iterations: 32,
            max_size: 4096,
            growth: GrowthPolicy::ByMaxMiss,
            threads: crossbeam::pool::default_threads(),
            incremental: true,
            proven: BTreeMap::new(),
        }
    }
}

/// Where a channel's final depth came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Found (or corrected) by the simulate-and-grow loop.
    Dynamic,
    /// Supplied via [`EstimationOptions::proven`] and never contradicted by
    /// a simulated round.
    Static,
}

/// One simulate-and-measure round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimationIteration {
    /// Sizes used in this round.
    pub sizes: BTreeMap<SigName, usize>,
    /// Alarm-true events observed per channel.
    pub alarms: BTreeMap<SigName, usize>,
    /// Final value of each channel's max-consecutive-miss register.
    pub max_miss: BTreeMap<SigName, usize>,
}

impl EstimationIteration {
    /// `true` iff no channel raised an alarm.
    pub fn is_clean(&self) -> bool {
        self.alarms.values().all(|&n| n == 0)
    }
}

/// The outcome of the estimation loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimationReport {
    /// `true` iff the last round raised no alarm.
    pub converged: bool,
    /// Every round, in order (the last one is the clean run when
    /// converged).
    pub history: Vec<EstimationIteration>,
    /// The sizes of the final round.
    pub final_sizes: BTreeMap<SigName, usize>,
    /// Where each channel's final depth came from: [`Provenance::Static`]
    /// for depths taken on faith from [`EstimationOptions::proven`] and
    /// never contradicted, [`Provenance::Dynamic`] for everything the loop
    /// itself established.
    pub provenance: BTreeMap<SigName, Provenance>,
}

impl EstimationReport {
    /// Number of simulate-grow rounds executed.
    pub fn iterations(&self) -> usize {
        self.history.len()
    }

    /// The estimated size of one channel.
    pub fn size_of(&self, signal: &SigName) -> Option<usize> {
        self.final_sizes.get(signal).copied()
    }
}

/// Runs the Section-5.2 estimation loop for `program` under the environment
/// `scenario` (which must drive the *desynchronized* program's inputs: the
/// original external inputs, each channel's `<x>_rd` read pattern, and the
/// master `tick`).
///
/// # Errors
///
/// Surfaces transformation and simulation errors. A loop that hits the
/// iteration or size cap returns `Ok` with `converged == false` — inspect
/// the report's history to see the divergence.
///
/// ```
/// use polysig_gals::estimate::{estimate_buffer_sizes, EstimationOptions};
/// use polysig_lang::parse_program;
/// use polysig_sim::{PeriodicInputs, ScenarioGenerator};
/// use polysig_tagged::ValueType;
///
/// // producer emits every tick, consumer reads every 2nd tick: any finite
/// // buffer eventually overflows on a long run, but on a short run the
/// // loop finds the size covering the backlog.
/// let p = parse_program(
///     "process P { input a: int; output x: int; x := a; } \
///      process Q { input x: int; output y: int; y := x; }",
/// )?;
/// let steps = 8;
/// let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
///     .generate(steps)
///     .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 2, 1).generate(steps))
///     .zip_union(&polysig_sim::generator::master_clock("tick", steps));
/// let report = estimate_buffer_sizes(&p, &scenario, &EstimationOptions::default())?;
/// assert!(report.converged);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn estimate_buffer_sizes(
    program: &Program,
    scenario: &Scenario,
    options: &EstimationOptions,
) -> Result<EstimationReport, GalsError> {
    if options.incremental {
        estimate_with_ctx(&mut EstimationCtx::new(program)?, scenario, options)
    } else {
        estimate_cold(program, scenario, options)
    }
}

/// A reusable estimation handle: the desynchronization skeleton
/// ([`DesyncCache`]) and the compiled-round memo survive across calls, so
/// a server estimating the same program under many scenarios pays the
/// skeleton derivation once. Each call observes exactly what a fresh
/// [`estimate_buffer_sizes`] call would — the incremental engine's
/// round-for-round equivalence contract (fuzzed by the `EstimateEquiv`
/// and `ServeEquiv` oracles) is what makes the reuse invisible.
pub struct Estimator {
    program: Program,
    ctx: EstimationCtx,
}

impl Estimator {
    /// Derives the skeleton for `program`.
    ///
    /// # Errors
    ///
    /// Surfaces the desynchronization errors [`DesyncCache::new`] raises.
    pub fn new(program: &Program) -> Result<Estimator, GalsError> {
        Ok(Estimator { program: program.clone(), ctx: EstimationCtx::new(program)? })
    }

    /// Runs one Section-5.2 estimation, reusing the cached skeleton when
    /// `options.incremental` (the default); a non-incremental request
    /// falls through to the cold reference loop.
    ///
    /// # Errors
    ///
    /// As [`estimate_buffer_sizes`].
    pub fn estimate(
        &mut self,
        scenario: &Scenario,
        options: &EstimationOptions,
    ) -> Result<EstimationReport, GalsError> {
        if options.incremental {
            estimate_with_ctx(&mut self.ctx, scenario, options)
        } else {
            estimate_cold(&self.program, scenario, options)
        }
    }
}

/// Per-channel starting depths paired with where each one came from.
type SeededSizes = (BTreeMap<SigName, usize>, BTreeMap<SigName, Provenance>);

/// Seeds every channel's starting depth and provenance: proven channels use
/// their proven depth (≥ 1) and start `Static`, the rest use
/// `options.initial_size` and start `Dynamic`.
///
/// # Errors
///
/// [`GalsError::UnknownChannel`] if `options.proven` names a signal that is
/// not a channel.
fn seed_sizes<'a>(
    channels: impl Iterator<Item = &'a SigName>,
    options: &EstimationOptions,
) -> Result<SeededSizes, GalsError> {
    let initial = options.initial_size.max(1);
    let mut sizes = BTreeMap::new();
    let mut provenance = BTreeMap::new();
    for c in channels {
        match options.proven.get(c) {
            Some(&d) => {
                sizes.insert(c.clone(), d.max(1));
                provenance.insert(c.clone(), Provenance::Static);
            }
            None => {
                sizes.insert(c.clone(), initial);
                provenance.insert(c.clone(), Provenance::Dynamic);
            }
        }
    }
    if let Some(bad) = options.proven.keys().find(|k| !sizes.contains_key(*k)) {
        return Err(GalsError::UnknownChannel { signal: bad.clone() });
    }
    Ok((sizes, provenance))
}

/// `true` iff every channel (and there is at least one) was seeded from a
/// static proof — the loop can skip simulation entirely.
fn all_proven(provenance: &BTreeMap<SigName, Provenance>) -> bool {
    !provenance.is_empty() && provenance.values().all(|&p| p == Provenance::Static)
}

/// The reference loop: desynchronize from scratch and simulate through a
/// [`Simulator`] every round. The incremental engine must match this
/// observation for observation.
fn estimate_cold(
    program: &Program,
    scenario: &Scenario,
    options: &EstimationOptions,
) -> Result<EstimationReport, GalsError> {
    // the size-1 probe that discovers the channels is built instrumented:
    // when the loop starts at depth 1 (the default) it *is* round 1's
    // transform, so it is reused rather than discarded
    let probe = desynchronize(
        program,
        &DesyncOptions {
            sizes: BTreeMap::new(),
            default_size: 1,
            instrument: true,
            enforce_endochrony: false,
        },
    )?;
    let (mut sizes, mut provenance) =
        seed_sizes(probe.channels.iter().map(|c| &c.spec.signal), options)?;
    if all_proven(&provenance) {
        return Ok(EstimationReport {
            converged: true,
            history: Vec::new(),
            final_sizes: sizes,
            provenance,
        });
    }
    let mut probe = sizes.values().all(|&s| s == 1).then_some(probe);

    let mut history = Vec::new();
    for _ in 0..options.max_iterations {
        let d = match probe.take() {
            Some(d) => d,
            None => desynchronize(
                program,
                &DesyncOptions {
                    sizes: sizes.clone(),
                    default_size: 1,
                    instrument: true,
                    enforce_endochrony: false,
                },
            )?,
        };
        let iteration = measure(&d, scenario, &sizes)?;
        let clean = iteration.is_clean();
        let max_miss = iteration.max_miss.clone();
        history.push(iteration);
        if clean {
            return Ok(EstimationReport {
                converged: true,
                final_sizes: sizes,
                history,
                provenance,
            });
        }
        // grow the channels that missed; a proven channel that alarms loses
        // its static provenance (the proof was wrong for this environment)
        let mut capped = false;
        for (signal, miss) in &max_miss {
            if *miss == 0 {
                continue;
            }
            let size = sizes.get_mut(signal).expect("channel seeded");
            *size = match options.growth {
                GrowthPolicy::ByMaxMiss => *size + miss,
                GrowthPolicy::Doubling => (*size * 2).max(*size + 1),
            };
            provenance.insert(signal.clone(), Provenance::Dynamic);
            if *size > options.max_size {
                capped = true;
            }
        }
        if capped {
            return Ok(EstimationReport {
                converged: false,
                final_sizes: sizes,
                history,
                provenance,
            });
        }
    }
    Ok(EstimationReport { converged: false, final_sizes: sizes, history, provenance })
}

/// Dense signal ids of one channel's observables, resolved against a
/// compiled round's interner (ids are *not* stable across rounds: deeper
/// FIFOs intern extra stage signals).
struct ChannelIds {
    /// The producer-side write signal (`x_in`) — a write attempt is this
    /// signal being present.
    in_id: SigId,
    /// The alarm output (true = rejected write).
    alarm_id: SigId,
    /// The max-consecutive-miss register output.
    maxmiss_id: SigId,
}

/// One fully-elaborated round: the desynchronized network compiled to a
/// reactor, plus each channel's signal ids.
struct CompiledRound {
    reactor: Reactor,
    ids: Vec<ChannelIds>,
}

/// What one measured round observed, in channel order.
struct RoundObs {
    /// Alarm-true events per channel.
    alarms: Vec<usize>,
    /// Final max-consecutive-miss register value per channel.
    max_miss: Vec<usize>,
    /// Per channel: the instant of its first write attempt together with
    /// the register file as it stood *before* that instant (`None` = the
    /// channel never saw a write). The next round resumes from the earliest
    /// of these over its grown channels.
    first_write: Vec<Option<(usize, Box<[Value]>)>>,
}

/// The donor state a warm start transplants from: the previous round's
/// depth vector, register layout and first-write records. Spans and initial
/// values are copied out of the previous reactor so the donor stays valid
/// even if the compiled-round cache evicts it.
struct PrevRound {
    key: Vec<usize>,
    spans: Vec<(String, usize, usize)>,
    initial: Vec<Value>,
    first_write: Vec<Option<(usize, Box<[Value]>)>>,
}

/// A planned warm start for one round.
struct WarmPlan {
    /// First instant to actually simulate; `[0, start)` is inherited.
    start: usize,
    /// The new reactor's register file at `start`, transplanted from the
    /// donor.
    registers: Box<[Value]>,
    /// First-write records for channels that already wrote inside the
    /// shared prefix, their snapshots re-expressed in the new layout.
    carried: Vec<Option<(usize, Box<[Value]>)>>,
}

/// Compiled rounds kept per context before the memo is wholesale cleared.
/// Estimation loops visit few distinct depth vectors (an ensemble worker
/// revisits mostly the early ones), so a small bound with dumb eviction is
/// plenty — the bound only guards pathological non-converging ensembles.
const MAX_COMPILED_ROUNDS: usize = 64;

/// Per-loop (or per-ensemble-worker) state of the incremental engine.
struct EstimationCtx {
    cache: DesyncCache,
    /// Channel signals, fixing the channel order all dense vectors use.
    signals: Vec<SigName>,
    /// `Fifo_<x>` component name per channel (the register spans to swap on
    /// growth).
    fifo_names: Vec<String>,
    /// Compiled rounds memoized by depth vector (in `signals` order).
    compiled: FxHashMap<Vec<usize>, CompiledRound>,
    /// Warm starts allowed? False when the source program declares names in
    /// the generated channel namespace — such a program could read the
    /// channel machinery, voiding the prefix-equivalence argument.
    warm_ok: bool,
}

impl EstimationCtx {
    fn new(program: &Program) -> Result<EstimationCtx, GalsError> {
        let cache = DesyncCache::new(program, true)?;
        let signals: Vec<SigName> = cache.signals().cloned().collect();
        let fifo_names = signals.iter().map(|s| fifo_component_name(s.as_str())).collect();
        let warm_ok = !cache.has_generated_name_collision();
        Ok(EstimationCtx { cache, signals, fifo_names, compiled: FxHashMap::default(), warm_ok })
    }

    /// The compiled round for one depth vector, building it on a miss.
    fn round(
        &mut self,
        sizes: &BTreeMap<SigName, usize>,
        key: &[usize],
    ) -> Result<&mut CompiledRound, GalsError> {
        if !self.compiled.contains_key(key) {
            if self.compiled.len() >= MAX_COMPILED_ROUNDS {
                self.compiled.clear();
            }
            let d = self.cache.build(sizes, 1)?;
            let reactor = Reactor::for_program(&d.program)?;
            let ids = d
                .channels
                .iter()
                .map(|ch| {
                    let id = |s: &SigName| {
                        reactor.sig_id(s.as_str()).expect("channel signal is interned")
                    };
                    ChannelIds {
                        in_id: id(&ch.in_signal),
                        alarm_id: id(&ch.alarm_signal),
                        maxmiss_id: id(ch.maxmiss_signal.as_ref().expect("instrumented build")),
                    }
                })
                .collect();
            self.compiled.insert(key.to_vec(), CompiledRound { reactor, ids });
        }
        Ok(self.compiled.get_mut(key).expect("just inserted"))
    }
}

/// The incremental estimation loop. Same observable behavior as
/// [`estimate_cold`], round for round.
fn estimate_with_ctx(
    ctx: &mut EstimationCtx,
    scenario: &Scenario,
    options: &EstimationOptions,
) -> Result<EstimationReport, GalsError> {
    let signals = ctx.signals.clone();
    let fifo_names = ctx.fifo_names.clone();
    let warm_ok = ctx.warm_ok;
    let (mut sizes, mut provenance) = seed_sizes(signals.iter(), options)?;
    if all_proven(&provenance) {
        return Ok(EstimationReport {
            converged: true,
            history: Vec::new(),
            final_sizes: sizes,
            provenance,
        });
    }

    let mut history = Vec::new();
    let mut prev: Option<PrevRound> = None;
    for _ in 0..options.max_iterations {
        let key: Vec<usize> = signals.iter().map(|s| sizes[s]).collect();
        let round = ctx.round(&sizes, &key)?;
        let dense = round.reactor.dense_scenario(scenario)?;
        let plan = if warm_ok {
            prev.as_ref().and_then(|p| plan_warm_start(p, &key, &fifo_names, &round.reactor))
        } else {
            None
        };
        let obs = measure_round(round, &dense, plan)?;
        let iteration = EstimationIteration {
            sizes: sizes.clone(),
            alarms: signals.iter().cloned().zip(obs.alarms.iter().copied()).collect(),
            max_miss: signals.iter().cloned().zip(obs.max_miss.iter().copied()).collect(),
        };
        let clean = iteration.is_clean();
        history.push(iteration);
        if clean {
            return Ok(EstimationReport {
                converged: true,
                final_sizes: sizes,
                history,
                provenance,
            });
        }
        prev = Some(PrevRound {
            key,
            spans: round.reactor.register_spans().to_vec(),
            initial: round.reactor.initial_registers().to_vec(),
            first_write: obs.first_write,
        });
        // grow the channels that missed; a proven channel that alarms loses
        // its static provenance (the proof was wrong for this environment)
        let mut capped = false;
        for (signal, &miss) in signals.iter().zip(&obs.max_miss) {
            if miss == 0 {
                continue;
            }
            let size = sizes.get_mut(signal).expect("channel seeded");
            *size = match options.growth {
                GrowthPolicy::ByMaxMiss => *size + miss,
                GrowthPolicy::Doubling => (*size * 2).max(*size + 1),
            };
            provenance.insert(signal.clone(), Provenance::Dynamic);
            if *size > options.max_size {
                capped = true;
            }
        }
        if capped {
            return Ok(EstimationReport {
                converged: false,
                final_sizes: sizes,
                history,
                provenance,
            });
        }
    }
    Ok(EstimationReport { converged: false, final_sizes: sizes, history, provenance })
}

/// Decides whether the new round (depth vector `key`, compiled to
/// `reactor`) can resume from `prev` instead of starting cold, and builds
/// the transplanted state if so.
///
/// Soundness (DESIGN.md §9): an untouched FIFO is observationally
/// depth-independent — until its first write attempt its outputs and
/// registers are what an empty FIFO of *any* depth produces. So up to
/// `start` = the earliest first write attempt on any *grown* channel, the
/// old and new networks behave identically, and the old round's register
/// file at `start` is the new round's — modulo the grown FIFOs' registers,
/// which are still at their initial values (validated here; any mismatch
/// falls back to a cold start rather than trusting the assumption).
fn plan_warm_start(
    prev: &PrevRound,
    key: &[usize],
    fifo_names: &[String],
    reactor: &Reactor,
) -> Option<WarmPlan> {
    let mut grown = Vec::new();
    for (i, (&new, &old)) in key.iter().zip(&prev.key).enumerate() {
        match new.cmp(&old) {
            // a shrunken channel invalidates the prefix argument wholesale
            Ordering::Less => return None,
            Ordering::Greater => grown.push(i),
            Ordering::Equal => {}
        }
    }
    if grown.is_empty() {
        return None;
    }
    let mut start = usize::MAX;
    let mut donor: Option<&[Value]> = None;
    for &i in &grown {
        // a grown channel must have alarmed, hence written; `None` here
        // means the bookkeeping lost its first write — start cold
        let (t, regs) = prev.first_write[i].as_ref()?;
        if *t < start {
            start = *t;
            donor = Some(regs);
        }
    }
    if start == 0 {
        return None;
    }
    let grown_fifos: Vec<&str> = grown.iter().map(|&i| fifo_names[i].as_str()).collect();
    let registers = transplant(prev, donor?, reactor, &grown_fifos)?;
    // channels that first wrote inside the shared prefix keep their record
    // (the new round will not replay those instants), snapshots
    // re-expressed in the new register layout
    let mut carried: Vec<Option<(usize, Box<[Value]>)>> = vec![None; key.len()];
    for (slot, fw) in carried.iter_mut().zip(&prev.first_write) {
        if let Some((t, regs)) = fw {
            if *t < start {
                *slot = Some((*t, transplant(prev, regs, reactor, &grown_fifos)?));
            }
        }
    }
    Some(WarmPlan { start, registers, carried })
}

/// Re-expresses a donor register file in the new reactor's layout:
/// unchanged components copy their span verbatim; grown FIFOs keep the new
/// initial block, *provided* the donor still had them at their initial
/// values (i.e. genuinely untouched). Any structural surprise returns
/// `None` — the caller starts cold.
fn transplant(
    prev: &PrevRound,
    old_regs: &[Value],
    reactor: &Reactor,
    grown_fifos: &[&str],
) -> Option<Box<[Value]>> {
    let new_spans = reactor.register_spans();
    if prev.spans.len() != new_spans.len() {
        return None;
    }
    let mut regs: Vec<Value> = reactor.initial_registers().to_vec();
    for ((oname, ostart, olen), (nname, nstart, nlen)) in prev.spans.iter().zip(new_spans) {
        if oname != nname {
            return None;
        }
        if grown_fifos.contains(&nname.as_str()) {
            if old_regs[*ostart..*ostart + *olen] != prev.initial[*ostart..*ostart + *olen] {
                return None;
            }
        } else {
            if olen != nlen {
                return None;
            }
            regs[*nstart..*nstart + *nlen].copy_from_slice(&old_regs[*ostart..*ostart + *olen]);
        }
    }
    Some(regs.into_boxed_slice())
}

/// Runs one round on dense environments, cold (`plan: None`) or resuming a
/// warm plan, and reads the observables straight off each reaction's
/// output.
///
/// Observation equivalence with the cold [`measure`]: a warm prefix
/// contributes no alarms (non-grown channels had none all round, grown ones
/// had not yet written) and holds every miss register at 0, so counting
/// from `start` with zeroed accumulators is exact.
fn measure_round(
    round: &mut CompiledRound,
    dense: &[DenseEnv],
    plan: Option<WarmPlan>,
) -> Result<RoundObs, GalsError> {
    let nch = round.ids.len();
    let (start, mut first_write) = match plan {
        Some(WarmPlan { start, registers, carried }) => {
            round.reactor.restore(&ReactorState::new(registers, start));
            (start, carried)
        }
        None => {
            round.reactor.reset();
            (0, vec![None; nch])
        }
    };
    let mut alarms = vec![0usize; nch];
    let mut max_miss = vec![0i64; nch];
    let mut pending = first_write.iter().filter(|f| f.is_none()).count();
    for (k, env) in dense.iter().enumerate().skip(start) {
        // registers as they stand before this instant: the donor state a
        // later round resumes from if some channel first writes now
        let snap: Option<Box<[Value]>> =
            (pending > 0).then(|| round.reactor.registers().to_vec().into_boxed_slice());
        let out = round.reactor.react_dense(env)?;
        for (i, ids) in round.ids.iter().enumerate() {
            if first_write[i].is_none() && out.get(ids.in_id).is_some() {
                first_write[i] = Some((k, snap.clone().expect("snapshot taken while pending")));
                pending -= 1;
            }
            if out.get(ids.alarm_id) == Some(Value::TRUE) {
                alarms[i] += 1;
            }
            if let Some(v) = out.get(ids.maxmiss_id).and_then(|v| v.as_int()) {
                max_miss[i] = v;
            }
        }
    }
    Ok(RoundObs {
        alarms,
        max_miss: max_miss.into_iter().map(|v| v.max(0) as usize).collect(),
        first_write,
    })
}

/// The outcome of an ensemble estimation: one report per scenario plus the
/// per-channel worst case over the whole ensemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleReport {
    /// One [`EstimationReport`] per input scenario, in input order.
    pub reports: Vec<EstimationReport>,
    /// Per channel, the largest final size any scenario demanded — the
    /// sizing that covers the whole ensemble.
    pub merged_sizes: BTreeMap<SigName, usize>,
    /// `true` iff every scenario's loop converged.
    pub converged: bool,
}

/// Scenarios per worker below which fanning out isn't worth the spawn
/// latency (each scenario already amortizes several desynchronize +
/// simulate rounds).
const MIN_SCENARIOS_PER_CHUNK: usize = 1;

/// Runs the Section-5.2 estimation loop once per scenario and merges the
/// results: the paper's "set of behaviors" workflow.
///
/// Scenarios are independent, so the loops are fanned out across
/// `options.threads` scoped workers (chunked contiguously, results merged
/// in input order) — every report, and therefore the merged sizing, is
/// identical for every thread count. An error aborts the whole ensemble,
/// surfacing the earliest-indexed scenario's failure.
pub fn estimate_buffer_sizes_ensemble(
    program: &Program,
    scenarios: &[Scenario],
    options: &EstimationOptions,
) -> Result<EnsembleReport, GalsError> {
    let outs = crossbeam::pool::map_chunks(
        options.threads,
        scenarios,
        MIN_SCENARIOS_PER_CHUNK,
        |_start, chunk| -> Result<Vec<EstimationReport>, GalsError> {
            if options.incremental {
                // one skeleton + compiled-round memo per worker: every
                // scenario starts from the same depth vector, so later
                // scenarios in the chunk hit the compiled cache
                let mut ctx = EstimationCtx::new(program)?;
                chunk.iter().map(|s| estimate_with_ctx(&mut ctx, s, options)).collect()
            } else {
                chunk.iter().map(|s| estimate_cold(program, s, options)).collect()
            }
        },
    );
    let mut reports = Vec::with_capacity(scenarios.len());
    for out in outs {
        reports.extend(out?);
    }
    let mut merged_sizes: BTreeMap<SigName, usize> = BTreeMap::new();
    for report in &reports {
        for (signal, &size) in &report.final_sizes {
            let slot = merged_sizes.entry(signal.clone()).or_insert(size);
            *slot = (*slot).max(size);
        }
    }
    let converged = reports.iter().all(|r| r.converged);
    Ok(EnsembleReport { reports, merged_sizes, converged })
}

/// Simulates one instrumented round and collects alarms and miss registers.
fn measure(
    d: &Desynchronized,
    scenario: &Scenario,
    sizes: &BTreeMap<SigName, usize>,
) -> Result<EstimationIteration, GalsError> {
    let mut sim = Simulator::for_program(&d.program)?;
    let run = sim.run(scenario)?;
    let mut alarms = BTreeMap::new();
    let mut max_miss = BTreeMap::new();
    for ch in &d.channels {
        let alarm_count = run.flow(&ch.alarm_signal).iter().filter(|v| **v == Value::TRUE).count();
        alarms.insert(ch.spec.signal.clone(), alarm_count);
        let register = ch
            .maxmiss_signal
            .as_ref()
            .and_then(|s| run.flow(s).last().and_then(|v| v.as_int()))
            .unwrap_or(0);
        max_miss.insert(ch.spec.signal.clone(), register.max(0) as usize);
    }
    Ok(EstimationIteration { sizes: sizes.clone(), alarms, max_miss })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;
    use polysig_sim::generator::master_clock;
    use polysig_sim::{BurstyInputs, PeriodicInputs, ScenarioGenerator};
    use polysig_tagged::ValueType;

    fn pipe() -> Program {
        parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x; }",
        )
        .unwrap()
    }

    /// writer every tick, reader every `rd_period` ticks
    fn env(steps: usize, write_period: usize, rd_period: usize) -> Scenario {
        PeriodicInputs::new("a", ValueType::Int, write_period, 0)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, rd_period, 1).generate(steps))
            .zip_union(&master_clock("tick", steps))
    }

    #[test]
    fn matched_rates_converge_immediately() {
        // write every 2, read every 2: one-place buffering suffices
        let report =
            estimate_buffer_sizes(&pipe(), &env(24, 2, 2), &EstimationOptions::default()).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations(), 1);
        assert_eq!(report.size_of(&"x".into()), Some(1));
    }

    #[test]
    fn rate_mismatch_grows_buffers() {
        // write every tick, read every 3rd tick over a short horizon:
        // backlog grows, the loop must enlarge the buffer
        let report =
            estimate_buffer_sizes(&pipe(), &env(12, 1, 3), &EstimationOptions::default()).unwrap();
        assert!(report.converged, "history: {:#?}", report.history);
        assert!(report.iterations() > 1);
        assert!(report.size_of(&"x".into()).unwrap() > 1);
        // final round is clean
        assert!(report.history.last().unwrap().is_clean());
        // earlier rounds raised alarms
        assert!(!report.history[0].is_clean());
    }

    #[test]
    fn bursts_need_buffers_matching_burst_length() {
        let steps = 40;
        let scenario = BurstyInputs::new("a", ValueType::Int, 4, 10)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 2, 0).generate(steps))
            .zip_union(&master_clock("tick", steps));
        let report =
            estimate_buffer_sizes(&pipe(), &scenario, &EstimationOptions::default()).unwrap();
        assert!(report.converged);
        let n = report.size_of(&"x".into()).unwrap();
        assert!(n >= 2, "4-bursts drained every 2 ticks need at least 2 places, got {n}");
    }

    #[test]
    fn doubling_policy_also_converges() {
        let opts = EstimationOptions { growth: GrowthPolicy::Doubling, ..Default::default() };
        let report = estimate_buffer_sizes(&pipe(), &env(12, 1, 3), &opts).unwrap();
        assert!(report.converged);
    }

    #[test]
    fn writer_only_workload_converges_at_write_count() {
        // writer always, reader never: on a finite run the loop settles on
        // a buffer holding every write (an infinite run would diverge)
        let steps = 30;
        let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
            .generate(steps)
            .zip_union(&master_clock("tick", steps));
        let report =
            estimate_buffer_sizes(&pipe(), &scenario, &EstimationOptions::default()).unwrap();
        assert!(report.converged);
        assert_eq!(report.size_of(&"x".into()), Some(steps));
    }

    #[test]
    fn size_cap_reports_divergence() {
        // same workload, but the cap is below the needed depth: the loop
        // must give up and say so
        let steps = 30;
        let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
            .generate(steps)
            .zip_union(&master_clock("tick", steps));
        let opts = EstimationOptions { max_size: 8, ..Default::default() };
        let report = estimate_buffer_sizes(&pipe(), &scenario, &opts).unwrap();
        assert!(!report.converged);
        let final_size = report.final_sizes[&SigName::from("x")];
        assert!(final_size > 8, "growth should have tripped the cap, got {final_size}");
        assert!(!report.history.is_empty());
    }

    #[test]
    fn ensemble_merges_worst_case_and_is_thread_count_invariant() {
        // three read rates: the merged sizing must cover the slowest reader
        let scenarios = vec![env(24, 2, 2), env(12, 1, 3), env(18, 1, 2)];
        let seq = estimate_buffer_sizes_ensemble(
            &pipe(),
            &scenarios,
            &EstimationOptions { threads: 1, ..Default::default() },
        )
        .unwrap();
        assert!(seq.converged);
        assert_eq!(seq.reports.len(), 3);
        let worst = seq.reports.iter().map(|r| r.final_sizes[&SigName::from("x")]).max().unwrap();
        assert_eq!(seq.merged_sizes[&SigName::from("x")], worst);
        // per-scenario reports equal the single-scenario entry point
        for (s, r) in scenarios.iter().zip(&seq.reports) {
            assert_eq!(
                r,
                &estimate_buffer_sizes(&pipe(), s, &EstimationOptions::default()).unwrap()
            );
        }
        for threads in [2, 4, 8] {
            let par = estimate_buffer_sizes_ensemble(
                &pipe(),
                &scenarios,
                &EstimationOptions { threads, ..Default::default() },
            )
            .unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    /// Writer starting at `wphase` (then every tick), reader every
    /// `rd_period` from instant 0 — a nonzero `wphase` delays the first
    /// write attempt, which is what lets a warm start skip a prefix.
    fn phased_env(steps: usize, wphase: usize, rd_period: usize) -> Scenario {
        PeriodicInputs::new("a", ValueType::Int, 1, wphase)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, rd_period, 0).generate(steps))
            .zip_union(&master_clock("tick", steps))
    }

    #[test]
    fn incremental_matches_cold_reference() {
        let cold_opts = EstimationOptions { incremental: false, ..Default::default() };
        for scenario in [env(24, 2, 2), env(12, 1, 3), phased_env(16, 3, 4), phased_env(30, 5, 2)] {
            let warm = estimate_buffer_sizes(&pipe(), &scenario, &Default::default()).unwrap();
            let cold = estimate_buffer_sizes(&pipe(), &scenario, &cold_opts).unwrap();
            assert_eq!(warm, cold);
        }
    }

    #[test]
    fn warm_start_plan_engages_at_first_write_instant() {
        // drive the internals by hand: round 1 at depth 1, then check the
        // grown round's plan resumes at the first write attempt (instant 3)
        let scenario = phased_env(16, 3, 4);
        let mut ctx = EstimationCtx::new(&pipe()).unwrap();
        assert!(ctx.warm_ok);

        let sizes1: BTreeMap<SigName, usize> = [(SigName::from("x"), 1)].into();
        let round1 = ctx.round(&sizes1, &[1]).unwrap();
        let dense = round1.reactor.dense_scenario(&scenario).unwrap();
        let obs = measure_round(round1, &dense, None).unwrap();
        let (t, _) = obs.first_write[0].as_ref().expect("the writer wrote");
        assert_eq!(*t, 3);
        let miss = obs.max_miss[0];
        assert!(miss > 0, "depth 1 must overflow under this workload");
        let prev = PrevRound {
            key: vec![1],
            spans: round1.reactor.register_spans().to_vec(),
            initial: round1.reactor.initial_registers().to_vec(),
            first_write: obs.first_write,
        };

        let key2 = vec![1 + miss];
        let sizes2: BTreeMap<SigName, usize> = [(SigName::from("x"), 1 + miss)].into();
        let round2 = ctx.round(&sizes2, &key2).unwrap();
        let plan = plan_warm_start(&prev, &key2, &[fifo_component_name("x")], &round2.reactor)
            .expect("growth after a delayed first write must warm start");
        assert_eq!(plan.start, 3);
        assert_eq!(plan.registers.len(), round2.reactor.register_count());

        // a shrink, an equal key, or a zero-instant prefix must refuse
        assert!(
            plan_warm_start(&prev, &[0], &[fifo_component_name("x")], &round2.reactor).is_none()
        );
        assert!(
            plan_warm_start(&prev, &[1], &[fifo_component_name("x")], &round2.reactor).is_none()
        );
    }

    #[test]
    fn transplant_rejects_structural_mismatches() {
        // exercise every cold-fallback branch of `transplant` directly: a
        // donor that disagrees with the new reactor's layout in any way must
        // return None (the loop then starts cold) rather than guess
        let mut ctx = EstimationCtx::new(&pipe()).unwrap();
        let sizes1: BTreeMap<SigName, usize> = [(SigName::from("x"), 1)].into();
        let (spans, initial) = {
            let r1 = ctx.round(&sizes1, &[1]).unwrap();
            (r1.reactor.register_spans().to_vec(), r1.reactor.initial_registers().to_vec())
        };
        let sizes2: BTreeMap<SigName, usize> = [(SigName::from("x"), 3)].into();
        let fifo = fifo_component_name("x");
        let fifo_span = spans
            .iter()
            .find(|(n, _, len)| *n == fifo && *len > 0)
            .cloned()
            .expect("the FIFO component has registers");
        let round2 = ctx.round(&sizes2, &[3]).unwrap();
        let prev = |spans: Vec<(String, usize, usize)>, initial: Vec<Value>| PrevRound {
            key: vec![1],
            spans,
            initial,
            first_write: vec![None],
        };

        // healthy donor at initial values: accepted
        let healthy = prev(spans.clone(), initial.clone());
        assert!(transplant(&healthy, &initial, &round2.reactor, &[fifo.as_str()]).is_some());

        // span-count mismatch: donor recorded one span fewer
        let mut fewer = spans.clone();
        fewer.pop();
        assert!(transplant(
            &prev(fewer, initial.clone()),
            &initial,
            &round2.reactor,
            &[fifo.as_str()]
        )
        .is_none());

        // component-name mismatch in one span
        let mut renamed = spans.clone();
        renamed[0].0 = "NotAComponent".to_string();
        assert!(transplant(
            &prev(renamed, initial.clone()),
            &initial,
            &round2.reactor,
            &[fifo.as_str()]
        )
        .is_none());

        // span-length mismatch: the grown FIFO's span differs between
        // depths, so failing to list it as grown trips the length check
        assert!(transplant(&healthy, &initial, &round2.reactor, &[]).is_none());

        // grown FIFO whose donor registers are NOT at their initial values:
        // the "genuinely untouched" precondition fails
        let mut touched = initial.clone();
        touched[fifo_span.1] = Value::Int(99);
        assert!(
            transplant(&healthy, &touched, &round2.reactor, &[fifo.as_str()]).is_none(),
            "a written-to grown FIFO must force a cold start"
        );
    }

    #[test]
    fn missing_first_write_record_refuses_warm_start() {
        // a grown channel whose first-write bookkeeping is empty cannot
        // anchor a resume point: the plan must refuse
        let mut ctx = EstimationCtx::new(&pipe()).unwrap();
        let sizes1: BTreeMap<SigName, usize> = [(SigName::from("x"), 1)].into();
        let (spans, initial) = {
            let r1 = ctx.round(&sizes1, &[1]).unwrap();
            (r1.reactor.register_spans().to_vec(), r1.reactor.initial_registers().to_vec())
        };
        let prev = PrevRound { key: vec![1], spans, initial, first_write: vec![None] };
        let sizes2: BTreeMap<SigName, usize> = [(SigName::from("x"), 2)].into();
        let round2 = ctx.round(&sizes2, &[2]).unwrap();
        assert!(
            plan_warm_start(&prev, &[2], &[fifo_component_name("x")], &round2.reactor).is_none()
        );
    }

    #[test]
    fn shrunken_depth_between_loops_stays_cold_and_matches() {
        // run the public loop at initial_size 4 then 1 against the same
        // context-free entry point: each must match its own cold reference
        // (the depth drop between the two calls shares no warm state)
        let scenario = phased_env(16, 3, 4);
        for initial_size in [4usize, 1] {
            let opts = EstimationOptions { initial_size, ..Default::default() };
            let cold = EstimationOptions { incremental: false, ..opts.clone() };
            assert_eq!(
                estimate_buffer_sizes(&pipe(), &scenario, &opts).unwrap(),
                estimate_buffer_sizes(&pipe(), &scenario, &cold).unwrap(),
                "initial_size={initial_size}"
            );
        }
    }

    #[test]
    fn generated_namespace_collision_disables_warm_start_but_matches() {
        // `x_probe` sits in the channel's generated namespace: the engine
        // must refuse warm starts yet still produce the reference report
        let p = parse_program(
            "process P { input a: int; output x: int; local x_probe: int; \
                         x := a; x_probe := x; } \
             process Q { input x: int; output y: int; y := x; }",
        )
        .unwrap();
        assert!(!EstimationCtx::new(&p).unwrap().warm_ok);
        let scenario = phased_env(16, 3, 4);
        let warm = estimate_buffer_sizes(&p, &scenario, &Default::default()).unwrap();
        let cold = estimate_buffer_sizes(
            &p,
            &scenario,
            &EstimationOptions { incremental: false, ..Default::default() },
        )
        .unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn nondefault_initial_size_matches_cold() {
        let opts = EstimationOptions { initial_size: 2, ..Default::default() };
        let cold_opts = EstimationOptions { initial_size: 2, incremental: false, ..opts.clone() };
        let scenario = phased_env(20, 2, 3);
        assert_eq!(
            estimate_buffer_sizes(&pipe(), &scenario, &opts).unwrap(),
            estimate_buffer_sizes(&pipe(), &scenario, &cold_opts).unwrap(),
        );
    }

    #[test]
    fn all_proven_channels_skip_simulation_entirely() {
        // prove x at the depth the dynamic loop would find: zero rounds,
        // same final sizes, provenance Static
        let scenario = env(12, 1, 3);
        let plain = estimate_buffer_sizes(&pipe(), &scenario, &Default::default()).unwrap();
        assert!(plain.converged);
        let depth = plain.size_of(&"x".into()).unwrap();
        for incremental in [true, false] {
            let opts = EstimationOptions {
                proven: [(SigName::from("x"), depth)].into(),
                incremental,
                ..Default::default()
            };
            let warm = estimate_buffer_sizes(&pipe(), &scenario, &opts).unwrap();
            assert!(warm.converged);
            assert_eq!(warm.iterations(), 0, "all-proven must not simulate");
            assert_eq!(warm.final_sizes, plain.final_sizes);
            assert_eq!(warm.provenance[&SigName::from("x")], Provenance::Static);
        }
        assert_eq!(plain.provenance[&SigName::from("x")], Provenance::Dynamic);
    }

    #[test]
    fn wrong_proof_falls_back_to_growth_and_flips_provenance() {
        // "prove" the first channel of a 3-stage pipeline at depth 1 under
        // a workload needing more, leaving the second channel unproven so
        // the loop actually simulates: the bogus proof must be caught by
        // the alarms, grown past, and reported Dynamic
        let p = parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x; } \
             process R { input y: int; output z: int; z := y; }",
        )
        .unwrap();
        let steps = 12;
        let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 3, 1).generate(steps))
            .zip_union(&PeriodicInputs::new("y_rd", ValueType::Bool, 1, 0).generate(steps))
            .zip_union(&master_clock("tick", steps));
        let plain = estimate_buffer_sizes(&p, &scenario, &Default::default()).unwrap();
        assert!(plain.converged);
        let needed = plain.size_of(&"x".into()).unwrap();
        assert!(needed > 1);
        for incremental in [true, false] {
            let opts = EstimationOptions {
                proven: [(SigName::from("x"), 1)].into(),
                incremental,
                ..Default::default()
            };
            let report = estimate_buffer_sizes(&p, &scenario, &opts).unwrap();
            assert!(report.converged);
            assert_eq!(report.final_sizes, plain.final_sizes);
            assert_eq!(report.provenance[&SigName::from("x")], Provenance::Dynamic);
            assert!(report.iterations() >= 2);
        }
    }

    #[test]
    fn proven_depth_above_need_converges_in_one_round_when_not_all_proven() {
        // a two-channel pipeline with only the first channel proven: the
        // proven one starts deep and stays Static, the other is estimated
        let p = parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x; } \
             process R { input y: int; output z: int; z := y; }",
        )
        .unwrap();
        let steps = 12;
        let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 3, 1).generate(steps))
            .zip_union(&PeriodicInputs::new("y_rd", ValueType::Bool, 1, 0).generate(steps))
            .zip_union(&master_clock("tick", steps));
        let plain = estimate_buffer_sizes(&p, &scenario, &Default::default()).unwrap();
        assert!(plain.converged);
        let x_depth = plain.size_of(&"x".into()).unwrap();
        for incremental in [true, false] {
            let opts = EstimationOptions {
                proven: [(SigName::from("x"), x_depth)].into(),
                incremental,
                ..Default::default()
            };
            let warm = estimate_buffer_sizes(&p, &scenario, &opts).unwrap();
            assert!(warm.converged);
            assert_eq!(warm.final_sizes, plain.final_sizes);
            assert!(warm.iterations() < plain.iterations(), "warm start must skip rounds");
            assert_eq!(warm.provenance[&SigName::from("x")], Provenance::Static);
            assert_eq!(warm.provenance[&SigName::from("y")], Provenance::Dynamic);
        }
    }

    #[test]
    fn proven_zero_depth_is_clamped_to_one() {
        let scenario = env(24, 2, 2);
        let opts =
            EstimationOptions { proven: [(SigName::from("x"), 0)].into(), ..Default::default() };
        let report = estimate_buffer_sizes(&pipe(), &scenario, &opts).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations(), 0);
        assert_eq!(report.size_of(&"x".into()), Some(1));
    }

    #[test]
    fn proven_unknown_channel_is_rejected() {
        for incremental in [true, false] {
            let opts = EstimationOptions {
                proven: [(SigName::from("nope"), 2)].into(),
                incremental,
                ..Default::default()
            };
            let err = estimate_buffer_sizes(&pipe(), &env(8, 2, 2), &opts).unwrap_err();
            assert!(
                matches!(err, GalsError::UnknownChannel { signal } if signal.as_str() == "nope")
            );
        }
    }

    #[test]
    fn proven_reports_match_between_engines() {
        // field-for-field equality cold vs incremental with a mixed proven
        // map (the EstimateEquiv oracle's contract, extended to provenance)
        let scenario = env(12, 1, 3);
        for proven_depth in [1usize, 3, 6] {
            let mk = |incremental| EstimationOptions {
                proven: [(SigName::from("x"), proven_depth)].into(),
                incremental,
                ..Default::default()
            };
            let warm = estimate_buffer_sizes(&pipe(), &scenario, &mk(true)).unwrap();
            let cold = estimate_buffer_sizes(&pipe(), &scenario, &mk(false)).unwrap();
            assert_eq!(warm, cold, "proven_depth={proven_depth}");
        }
    }

    #[test]
    fn estimated_size_is_sufficient_but_honest() {
        // verify the paper's guarantee: for the *simulated* behaviors, the
        // estimated size raises no alarm
        let scenario = env(18, 1, 2);
        let report =
            estimate_buffer_sizes(&pipe(), &scenario, &EstimationOptions::default()).unwrap();
        assert!(report.converged);
        let n = report.size_of(&"x".into()).unwrap();
        // re-simulate at size n: clean; at size n-1 (if any): alarms
        let clean = desynchronize(&pipe(), &DesyncOptions::with_size(n).instrumented()).unwrap();
        let mut sim = Simulator::for_program(&clean.program).unwrap();
        let run = sim.run(&scenario).unwrap();
        assert!(run.flow(&"x_alarm".into()).iter().all(|v| *v != Value::TRUE));
        if n > 1 {
            let tight =
                desynchronize(&pipe(), &DesyncOptions::with_size(n - 1).instrumented()).unwrap();
            let mut sim = Simulator::for_program(&tight.program).unwrap();
            let run = sim.run(&scenario).unwrap();
            assert!(run.flow(&"x_alarm".into()).contains(&Value::TRUE));
        }
    }
}
