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
//! ## The cached engine
//!
//! Consecutive rounds differ only in FIFO depths, so [`estimate_buffer_sizes`]
//! avoids repeating the work the rounds share:
//!
//! * the desynchronization skeleton is derived once per loop via
//!   [`DesyncCache`], and each round elaborates the cache's own components
//!   in place: only a channel that grew gets a new FIFO component, and
//!   nothing is cloned into a round [`Program`];
//! * each round compiles straight to a [`Reactor`] and is measured on dense
//!   per-instant environments from instant 0 — alarms and miss registers
//!   are read off the reaction outputs directly, skipping the full trace
//!   recording a [`Simulator`] run would do;
//! * compiled rounds are memoized by their depth vector, so an ensemble
//!   worker revisiting the same sizes (every scenario starts at the same
//!   depths) resets and reuses the compiled reactor.
//!
//! The cached engine is observationally identical to the plain
//! desynchronize-and-simulate loop, [`estimate_buffer_sizes_reference`]:
//! same [`EstimationReport`], field for field — the differential suite in
//! `tests/differential.rs` holds it to that.

use std::collections::BTreeMap;

use polysig_lang::Program;
use polysig_sim::{Reactor, Scenario, Simulator};
use polysig_tagged::hash::FxHashMap;
use polysig_tagged::{SigId, SigName, Value};

use crate::desync::{desynchronize, DesyncCache, DesyncOptions, Desynchronized};
use crate::error::GalsError;

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
    /// identical for every value. Defaults to the process's available
    /// parallelism (1 under `taskset -c 0`).
    pub threads: usize,
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
    Estimator::new(program)?.estimate(scenario, options)
}

/// A reusable estimation handle: the desynchronization skeleton
/// ([`DesyncCache`]) and the compiled-round memo survive across calls, so
/// a server estimating the same program under many scenarios pays the
/// skeleton derivation once. Each call observes exactly what a fresh
/// [`estimate_buffer_sizes`] call would, because every round resets its
/// reactor and measures from instant 0 — the `EstimateEquiv` and
/// `ServeEquiv` oracles fuzz that.
pub struct Estimator {
    cache: DesyncCache,
    /// Channel signals, fixing the channel order all dense vectors use.
    signals: Vec<SigName>,
    /// Compiled rounds memoized by depth vector (in `signals` order).
    compiled: FxHashMap<Vec<usize>, CompiledRound>,
}

/// Compiled rounds kept per [`Estimator`] before the memo is wholesale
/// cleared. Estimation loops visit few distinct depth vectors (an ensemble
/// worker revisits mostly the early ones), so a small bound with dumb
/// eviction is plenty — the bound only guards pathological non-converging
/// ensembles.
const MAX_COMPILED_ROUNDS: usize = 64;

impl Estimator {
    /// Derives the skeleton for `program`.
    ///
    /// # Errors
    ///
    /// Surfaces the desynchronization errors [`DesyncCache::new`] raises.
    pub fn new(program: &Program) -> Result<Estimator, GalsError> {
        let cache = DesyncCache::new(program, true)?;
        let signals = cache.signals().cloned().collect();
        Ok(Estimator { cache, signals, compiled: FxHashMap::default() })
    }

    /// Runs one Section-5.2 estimation on the cached skeleton. Same
    /// observable behavior as [`estimate_buffer_sizes_reference`], round
    /// for round.
    ///
    /// # Errors
    ///
    /// As [`estimate_buffer_sizes`].
    pub fn estimate(
        &mut self,
        scenario: &Scenario,
        options: &EstimationOptions,
    ) -> Result<EstimationReport, GalsError> {
        let signals = self.signals.clone();
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
        for _ in 0..options.max_iterations {
            let obs = self.round(&sizes)?.measure(scenario)?;
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
            // grow the channels that missed; a proven channel that alarms
            // loses its static provenance (the proof was wrong for this
            // environment)
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

    /// The compiled round for one size map, building it on a miss.
    fn round(&mut self, sizes: &BTreeMap<SigName, usize>) -> Result<&mut CompiledRound, GalsError> {
        let key: Vec<usize> = self.signals.iter().map(|s| sizes[s]).collect();
        if !self.compiled.contains_key(&key) {
            if self.compiled.len() >= MAX_COMPILED_ROUNDS {
                self.compiled.clear();
            }
            let reactor = Reactor::for_components(&self.cache.components(sizes, 1)?)?;
            let id = |s: &SigName| reactor.sig_id(s.as_str()).expect("channel signal is interned");
            let ids = self
                .cache
                .channels
                .iter()
                .map(|ch| {
                    let maxmiss = ch.maxmiss_signal.as_ref().expect("instrumented build");
                    (id(&ch.alarm_signal), id(maxmiss))
                })
                .collect();
            self.compiled.insert(key.clone(), CompiledRound { reactor, ids });
        }
        Ok(self.compiled.get_mut(&key).expect("just inserted"))
    }
}

/// One fully-elaborated round: the desynchronized network compiled to a
/// reactor, plus each channel's alarm and max-consecutive-miss register
/// ids (ids are *not* stable across rounds: deeper FIFOs intern extra
/// stage signals).
struct CompiledRound {
    reactor: Reactor,
    ids: Vec<(SigId, SigId)>,
}

/// What one measured round observed, in channel order.
struct RoundObs {
    /// Alarm-true events per channel.
    alarms: Vec<usize>,
    /// Final max-consecutive-miss register value per channel.
    max_miss: Vec<usize>,
}

impl CompiledRound {
    /// Runs `scenario` densely from instant 0 and reads the observables
    /// straight off each reaction's output.
    fn measure(&mut self, scenario: &Scenario) -> Result<RoundObs, GalsError> {
        let dense = self.reactor.dense_scenario(scenario)?;
        self.reactor.reset();
        let mut alarms = vec![0usize; self.ids.len()];
        let mut max_miss = vec![0i64; self.ids.len()];
        for env in &dense {
            let out = self.reactor.react_dense(env)?;
            for (i, &(alarm_id, maxmiss_id)) in self.ids.iter().enumerate() {
                if out.get(alarm_id) == Some(Value::TRUE) {
                    alarms[i] += 1;
                }
                if let Some(v) = out.get(maxmiss_id).and_then(|v| v.as_int()) {
                    max_miss[i] = v;
                }
            }
        }
        Ok(RoundObs { alarms, max_miss: max_miss.into_iter().map(|v| v.max(0) as usize).collect() })
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
/// [`Simulator`] every round. [`estimate_buffer_sizes`] must match it
/// observation for observation; the differential suite and the
/// `EstimateEquiv` oracle compare the two.
///
/// # Errors
///
/// As [`estimate_buffer_sizes`].
pub fn estimate_buffer_sizes_reference(
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
            // one skeleton + compiled-round memo per worker: every
            // scenario starts from the same depth vector, so later
            // scenarios in the chunk hit the compiled cache
            let mut estimator = Estimator::new(program)?;
            chunk.iter().map(|s| estimator.estimate(s, options)).collect()
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

    type Engine =
        fn(&Program, &Scenario, &EstimationOptions) -> Result<EstimationReport, GalsError>;

    /// The cached engine and the reference loop.
    const ENGINES: [Engine; 2] = [estimate_buffer_sizes, estimate_buffer_sizes_reference];

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
    /// write attempt.
    fn phased_env(steps: usize, wphase: usize, rd_period: usize) -> Scenario {
        PeriodicInputs::new("a", ValueType::Int, 1, wphase)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, rd_period, 0).generate(steps))
            .zip_union(&master_clock("tick", steps))
    }

    #[test]
    fn incremental_matches_cold_reference() {
        for scenario in [env(24, 2, 2), env(12, 1, 3), phased_env(16, 3, 4), phased_env(30, 5, 2)] {
            let warm = estimate_buffer_sizes(&pipe(), &scenario, &Default::default()).unwrap();
            let cold =
                estimate_buffer_sizes_reference(&pipe(), &scenario, &Default::default()).unwrap();
            assert_eq!(warm, cold);
        }
    }

    #[test]
    fn shrunken_depth_between_loops_stays_cold_and_matches() {
        // run the public loop at initial_size 4 then 1 against the same
        // context-free entry point: each must match its own cold reference
        // (the depth drop between the two calls shares no warm state)
        let scenario = phased_env(16, 3, 4);
        for initial_size in [4usize, 1] {
            let opts = EstimationOptions { initial_size, ..Default::default() };
            assert_eq!(
                estimate_buffer_sizes(&pipe(), &scenario, &opts).unwrap(),
                estimate_buffer_sizes_reference(&pipe(), &scenario, &opts).unwrap(),
                "initial_size={initial_size}"
            );
        }
    }

    #[test]
    fn generated_namespace_collision_matches_reference() {
        // `x_probe` sits in the channel's generated namespace: the cached
        // engine must still produce the reference report
        let p = parse_program(
            "process P { input a: int; output x: int; local x_probe: int; \
                         x := a; x_probe := x; } \
             process Q { input x: int; output y: int; y := x; }",
        )
        .unwrap();
        let scenario = phased_env(16, 3, 4);
        let warm = estimate_buffer_sizes(&p, &scenario, &Default::default()).unwrap();
        let cold = estimate_buffer_sizes_reference(&p, &scenario, &Default::default()).unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn nondefault_initial_size_matches_cold() {
        let opts = EstimationOptions { initial_size: 2, ..Default::default() };
        let scenario = phased_env(20, 2, 3);
        assert_eq!(
            estimate_buffer_sizes(&pipe(), &scenario, &opts).unwrap(),
            estimate_buffer_sizes_reference(&pipe(), &scenario, &opts).unwrap(),
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
        for estimate in ENGINES {
            let opts = EstimationOptions {
                proven: [(SigName::from("x"), depth)].into(),
                ..Default::default()
            };
            let warm = estimate(&pipe(), &scenario, &opts).unwrap();
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
        for estimate in ENGINES {
            let opts = EstimationOptions {
                proven: [(SigName::from("x"), 1)].into(),
                ..Default::default()
            };
            let report = estimate(&p, &scenario, &opts).unwrap();
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
        for estimate in ENGINES {
            let opts = EstimationOptions {
                proven: [(SigName::from("x"), x_depth)].into(),
                ..Default::default()
            };
            let warm = estimate(&p, &scenario, &opts).unwrap();
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
        for estimate in ENGINES {
            let opts = EstimationOptions {
                proven: [(SigName::from("nope"), 2)].into(),
                ..Default::default()
            };
            let err = estimate(&pipe(), &env(8, 2, 2), &opts).unwrap_err();
            assert!(
                matches!(err, GalsError::UnknownChannel { signal } if signal.as_str() == "nope")
            );
        }
    }

    #[test]
    fn proven_reports_match_between_engines() {
        // field-for-field equality reference vs cached with a mixed proven
        // map (the EstimateEquiv oracle's contract, extended to provenance)
        let scenario = env(12, 1, 3);
        for proven_depth in [1usize, 3, 6] {
            let opts = EstimationOptions {
                proven: [(SigName::from("x"), proven_depth)].into(),
                ..Default::default()
            };
            let warm = estimate_buffer_sizes(&pipe(), &scenario, &opts).unwrap();
            let cold = estimate_buffer_sizes_reference(&pipe(), &scenario, &opts).unwrap();
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
