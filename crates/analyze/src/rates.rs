//! Static rate-bound inference (`PA004`/`PA005`): proving FIFO depths
//! without running the simulator.
//!
//! Given the environment scenario the estimation loop would simulate, the
//! write and read activation patterns of many channels are *statically
//! determined*: a channel whose producer is entirely scenario-driven (all
//! inputs external) and whose clock the clock calculus ties to one of those
//! inputs writes exactly at that input's presence instants, and every
//! channel's read requests are the scenario's `<x>_rd` values verbatim.
//! With both patterns in hand, the ripple FIFO and its monitor are replayed
//! *abstractly* — a few booleans per stage instead of a compiled reactor —
//! and the simulate-and-grow loop itself is replayed on top, yielding the
//! exact depth the dynamic loop will converge to ([`ChannelBound::Exact`]),
//! or a proof that it will hit its caps ([`ChannelBound::Unbounded`]).
//!
//! Channels further down a pipeline are not scenario-determined (their
//! write instants depend on upstream FIFO occupancy), but a sound *upper
//! bound* still falls out of write counting: under the paper's by-max-miss
//! growth rule the converged depth never exceeds the total number of write
//! attempts (first rejection at depth `s` implies `s` accepted writes, so
//! the register reads at most `W - s` and the grown size stays ≤ `W`; at
//! depth `W` no rejection is reachable at all). Any static over-count of
//! writes — e.g. the number of read requests the upstream channel grants at
//! most — therefore gives [`ChannelBound::UpperBound`]. See `DESIGN.md`
//! §11 for the full argument.
//!
//! When both patterns classify as periodic, the closed-form
//! `polysig_gals::analytic` bounds are consulted for the long-run Lemma-2
//! advisory (a reader slower than the writer overflows any finite buffer on
//! an unbounded horizon), independently of the scenario-horizon replay.

use std::collections::{BTreeMap, BTreeSet};

use polysig_gals::analytic::{steady_state_bound, PeriodicRate};
use polysig_gals::nfifo::{fifo_port, FifoPort};
use polysig_gals::{channel_edges, ChannelSpec, EstimationOptions};
use polysig_lang::{const_guard_source, Program, Role};
use polysig_sim::Scenario;
use polysig_tagged::{SigName, Value};

/// Caps for the replayed estimation loop: the caps of the
/// [`EstimationOptions`] the dynamic loop runs with (by default, its
/// defaults), or `Exact` claims degrade to claims about a
/// differently-capped loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProveOptions {
    /// Starting depth of every channel (the loop clamps to ≥ 1).
    pub initial_size: usize,
    /// Round cap of the replayed loop.
    pub max_iterations: usize,
    /// Depth cap of the replayed loop.
    pub max_size: usize,
}

impl Default for ProveOptions {
    fn default() -> Self {
        (&EstimationOptions::default()).into()
    }
}

impl From<&EstimationOptions> for ProveOptions {
    fn from(o: &EstimationOptions) -> Self {
        ProveOptions {
            initial_size: o.initial_size,
            max_iterations: o.max_iterations,
            max_size: o.max_size,
        }
    }
}

/// What the prover established for one channel, for one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelBound {
    /// The by-max-miss estimation loop converges to exactly this depth on
    /// this scenario (write and read patterns were scenario-determined and
    /// the loop was replayed abstractly).
    Exact {
        /// The converged depth.
        depth: usize,
    },
    /// The loop's converged depth is at most this (write-count dominance;
    /// sound for the by-max-miss growth rule).
    UpperBound {
        /// The bound.
        depth: usize,
    },
    /// The replayed loop provably hits its iteration or size cap: the
    /// dynamic estimation will report `converged: false` on this scenario.
    Unbounded,
    /// Nothing provable statically.
    Unknown,
}

/// How a statically-known activation pattern looks, for diagnostics and
/// the analytic cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatePattern {
    /// No events at all.
    Silent,
    /// One event every `period` instants from `phase` through the horizon.
    Periodic {
        /// Distance between events.
        period: usize,
        /// First event instant.
        phase: usize,
    },
    /// Anything else (bursts, truncated trains, irregular).
    Irregular,
}

impl RatePattern {
    /// Classifies a presence vector.
    pub fn classify(present: &[bool]) -> RatePattern {
        let events: Vec<usize> =
            present.iter().enumerate().filter(|(_, &p)| p).map(|(i, _)| i).collect();
        match events.as_slice() {
            [] => RatePattern::Silent,
            // a single event fixes no period; stay conservative
            [_] => RatePattern::Irregular,
            [first, second, ..] => {
                let period = second - first;
                let regular = events.iter().enumerate().all(|(k, &e)| e == first + k * period);
                // no truncated tail: the next event falls past the horizon
                let complete = events.last().expect("non-empty") + period >= present.len();
                if regular && complete {
                    RatePattern::Periodic { period, phase: *first }
                } else {
                    RatePattern::Irregular
                }
            }
        }
    }

    /// The pattern as a `PeriodicRate`, when periodic.
    pub fn as_periodic(self) -> Option<PeriodicRate> {
        match self {
            RatePattern::Periodic { period, phase } => Some(PeriodicRate { period, phase }),
            _ => None,
        }
    }
}

/// Per-channel verdicts plus the patterns that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticBounds {
    /// One verdict per channel signal.
    pub bounds: BTreeMap<SigName, ChannelBound>,
    /// The write/read patterns of channels whose patterns were
    /// scenario-determined.
    pub patterns: BTreeMap<SigName, (RatePattern, RatePattern)>,
    /// Channels whose periodic rates violate Lemma 2 in the long run
    /// (reader strictly slower than writer): any finite buffer overflows on
    /// an unbounded horizon, whatever the finite-scenario replay said.
    pub steady_state_divergent: BTreeSet<SigName>,
}

impl StaticBounds {
    /// The verdict for one channel ([`ChannelBound::Unknown`] when the
    /// channel was never analyzed).
    pub fn bound_of(&self, signal: &SigName) -> ChannelBound {
        self.bounds.get(signal).copied().unwrap_or(ChannelBound::Unknown)
    }

    /// The proven-exact depths, shaped for `EstimationOptions::proven`:
    /// seeding the estimation loop with these skips every round the proof
    /// already covers, and the loop reports the channels as
    /// `Provenance::Static`. Only `Exact` bounds qualify — warm-starting
    /// from a non-tight upper bound would change the converged sizes.
    pub fn warm_start(&self) -> BTreeMap<SigName, usize> {
        self.bounds
            .iter()
            .filter_map(|(s, b)| match b {
                ChannelBound::Exact { depth } => Some((s.clone(), *depth)),
                _ => None,
            })
            .collect()
    }

    /// Proven depths shaped as *federate channel capacities*: the credit
    /// pool sizes of the federated GALS executor. Unlike
    /// [`StaticBounds::warm_start`], a non-tight [`ChannelBound::UpperBound`]
    /// also qualifies — an over-provisioned credit pool costs memory, never
    /// correctness — and every capacity is floored at one credit (a proven
    /// depth of zero still needs a slot for the value in flight).
    pub fn federate_capacities(&self) -> BTreeMap<SigName, usize> {
        self.minimal_safe_capacities()
    }

    /// The smallest credit capacity per channel that the proof guarantees
    /// stall-free: the proven `Exact`/`UpperBound` depth, floored at one
    /// credit. This is the capacity map `PA009` measures a configured
    /// deployment against, and `FederatedOptions` can consume it directly
    /// (`FederatedOptions::default().with_capacities(...)`). Channels with
    /// `Unbounded`/`Unknown` verdicts are absent — no finite capacity is
    /// provably safe for them.
    pub fn minimal_safe_capacities(&self) -> BTreeMap<SigName, usize> {
        self.bounds
            .iter()
            .filter_map(|(s, b)| match b {
                ChannelBound::Exact { depth } | ChannelBound::UpperBound { depth } => {
                    Some((s.clone(), (*depth).max(1)))
                }
                _ => None,
            })
            .collect()
    }
}

/// The scenario facts the prover extracts once: per-signal presence and
/// true-value vectors over the horizon.
struct ScenarioFacts {
    horizon: usize,
    present: BTreeMap<SigName, Vec<bool>>,
    true_at: BTreeMap<SigName, Vec<bool>>,
}

impl ScenarioFacts {
    fn extract(scenario: &Scenario) -> ScenarioFacts {
        let horizon = scenario.len();
        let mut present: BTreeMap<SigName, Vec<bool>> = BTreeMap::new();
        let mut true_at: BTreeMap<SigName, Vec<bool>> = BTreeMap::new();
        for (t, step) in scenario.iter().enumerate() {
            for (name, value) in step {
                present.entry(name.clone()).or_insert_with(|| vec![false; horizon])[t] = true;
                if *value == Value::TRUE {
                    true_at.entry(name.clone()).or_insert_with(|| vec![false; horizon])[t] = true;
                }
            }
        }
        ScenarioFacts { horizon, present, true_at }
    }

    /// Present *and* true at every instant (the FIFO steps on `tick`'s
    /// value, not just its presence).
    fn always_true(&self, name: &SigName) -> bool {
        self.true_at.get(name).is_some_and(|v| v.iter().all(|&b| b))
    }

    fn presence(&self, name: &SigName) -> Option<&[bool]> {
        self.present.get(name).map(Vec::as_slice)
    }

    /// Present-and-true instants (read requests are sampled by value).
    fn truth(&self, name: &SigName) -> Vec<bool> {
        self.true_at.get(name).cloned().unwrap_or_else(|| vec![false; self.horizon])
    }
}

/// Proves what it can about every channel of `program` under `scenario`
/// (the same environment the estimation loop would simulate: external
/// inputs, `<x>_rd` read requests, master `tick`).
///
/// Never fails: anything unprovable is reported as
/// [`ChannelBound::Unknown`]. Programs that do not resolve, scenarios
/// without a permanent `tick`, or fanned-out channels all degrade to
/// `Unknown` rather than erroring — the lint driver reports those through
/// its own diagnostics.
pub fn prove_bounds(
    program: &Program,
    scenario: &Scenario,
    options: &ProveOptions,
) -> StaticBounds {
    let (channels, fanout) = channel_edges(program);
    prove(program, &channels, !fanout.is_empty(), scenario, options)
}

/// [`prove_bounds`] over the program's already-walked channel edges.
pub(crate) fn prove(
    program: &Program,
    channels: &[ChannelSpec],
    fanned_out: bool,
    scenario: &Scenario,
    options: &ProveOptions,
) -> StaticBounds {
    let mut out = StaticBounds {
        bounds: BTreeMap::new(),
        patterns: BTreeMap::new(),
        steady_state_divergent: BTreeSet::new(),
    };
    for ch in channels {
        out.bounds.insert(ch.signal.clone(), ChannelBound::Unknown);
    }
    // fanned-out programs do not desynchronize at all; nothing to prove
    if fanned_out || polysig_lang::resolve::resolve_program(program).is_err() {
        return out;
    }
    let facts = ScenarioFacts::extract(scenario);
    // the abstract FIFO model steps every instant; that is only the real
    // FIFO's behavior when the master clock is present-and-true throughout
    if facts.horizon == 0 || !facts.always_true(&SigName::from("tick")) {
        return out;
    }
    let external = program.external_inputs();
    let channel_signals: BTreeSet<&SigName> = channels.iter().map(|c| &c.signal).collect();

    let rd_signal = |signal: &SigName| fifo_port(signal.as_str(), FifoPort::Rd);
    for ch in channels {
        let reads = facts.truth(&rd_signal(&ch.signal));
        let read_pattern = RatePattern::classify(&reads);
        let Some(producer) = program.component(&ch.producer) else { continue };
        let clocks = polysig_lang::clock::analyze_component(producer);
        let scenario_driven = producer
            .signals_with_role(Role::Input)
            .all(|d| external.contains(&d.name) && !channel_signals.contains(&d.name));

        // which signal's presence drives the channel's write instants?
        let driver: Option<&SigName> = producer
            .signals_with_role(Role::Input)
            .map(|d| &d.name)
            .find(|i| clocks.equal_clock(&ch.signal, i))
            .or_else(|| {
                producer
                    .defining_equation(&ch.signal)
                    .and_then(|eq| const_guard_source(&eq.rhs))
                    .filter(|s| producer.decl(s).is_some_and(|d| d.role == Role::Input))
            });

        let verdict = match driver {
            Some(input) if scenario_driven => {
                // write instants = the driving input's presence instants
                // (an input the scenario never supplies simply never fires)
                let writes = facts
                    .presence(input)
                    .map(<[bool]>::to_vec)
                    .unwrap_or_else(|| vec![false; facts.horizon]);
                let write_pattern = RatePattern::classify(&writes);
                out.patterns.insert(ch.signal.clone(), (write_pattern, read_pattern));
                if let (Some(w), Some(r)) =
                    (write_pattern.as_periodic(), read_pattern.as_periodic())
                {
                    if steady_state_bound(w, r).is_none() {
                        out.steady_state_divergent.insert(ch.signal.clone());
                    }
                }
                replay_growth_loop(&writes, &reads, options)
            }
            Some(input) => {
                // not scenario-determined, but write attempts are countable:
                // each needs the producer to fire, which its clock ties to
                // `input` — an upstream FIFO grant (≤ one per read request)
                // for channel inputs, a scenario presence otherwise
                let attempts = if channel_signals.contains(input) {
                    facts.truth(&rd_signal(input)).iter().filter(|&&b| b).count()
                } else {
                    facts.presence(input).map_or(0, |v| v.iter().filter(|&&b| b).count())
                };
                // by-max-miss growth never overshoots the total write count
                ChannelBound::UpperBound { depth: options.initial_size.max(attempts).max(1) }
            }
            None => ChannelBound::Unknown,
        };
        out.bounds.insert(ch.signal.clone(), verdict);
    }
    out
}

/// Replays the Section-5.2 simulate-and-grow loop on the abstract FIFO:
/// same growth rule (by max-miss), same caps, same termination conditions
/// as `estimate_buffer_sizes` — but each "round" is [`replay_fifo`] instead
/// of a compiled simulation.
fn replay_growth_loop(writes: &[bool], reads: &[bool], options: &ProveOptions) -> ChannelBound {
    let mut size = options.initial_size.max(1);
    for _ in 0..options.max_iterations {
        let (alarms, maxmiss) = replay_fifo(writes, reads, size);
        if alarms == 0 {
            return ChannelBound::Exact { depth: size };
        }
        size += maxmiss;
        if size > options.max_size {
            return ChannelBound::Unbounded;
        }
    }
    ChannelBound::Unbounded
}

/// The exact abstract model of one `nfifo_component` + `monitor_component`
/// pair at depth `n`, stepped over the horizon with the master clock
/// present-and-true at every instant. `writes[t]` is "`<x>_in` present at
/// `t`", `reads[t]` is "`<x>_rd` present *and true* at `t`". Returns
/// (alarm-true events, final max-miss register) — exactly what
/// `estimate::measure` reads off a simulation.
///
/// The equations mirror `crates/core/src/nfifo.rs` stage for stage:
/// movement ripples back-to-front (`mv_n = rdw ∧ fp_n`, `mv_i = fp_i ∧
/// (¬fp_{i+1} ∨ mv_{i+1})`), a write lands iff stage 1 is free or frees up
/// this very instant, and the monitor counts consecutive rejections into a
/// running maximum.
fn replay_fifo(writes: &[bool], reads: &[bool], n: usize) -> (usize, usize) {
    debug_assert!(n >= 1);
    let mut f = vec![false; n]; // stage occupancy registers
    let mut mv = vec![false; n];
    let mut alarms = 0usize;
    let mut misses = 0i64;
    let mut maxmiss = 0i64;
    for t in 0..writes.len() {
        let fp = f.clone(); // previous occupancy (`fp_i = pre f_i`)
        let inw = writes[t];
        let rdw = t < reads.len() && reads[t];
        mv[n - 1] = rdw && fp[n - 1];
        for i in (0..n - 1).rev() {
            mv[i] = fp[i] && (!fp[i + 1] || mv[i + 1]);
        }
        let put = inw && (!fp[0] || mv[0]);
        let rejected = inw && fp[0] && !mv[0];
        for i in 0..n {
            let incoming = if i == 0 { put } else { mv[i - 1] };
            f[i] = (fp[i] && !mv[i]) || incoming;
        }
        if inw {
            if rejected {
                alarms += 1;
                misses += 1;
            } else {
                misses = 0;
            }
            maxmiss = maxmiss.max(misses);
        }
    }
    (alarms, maxmiss.max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_gals::estimate::{estimate_buffer_sizes, EstimationOptions};
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

    fn env(steps: usize, write_period: usize, rd_period: usize, rd_phase: usize) -> Scenario {
        PeriodicInputs::new("a", ValueType::Int, write_period, 0)
            .generate(steps)
            .zip_union(
                &PeriodicInputs::new("x_rd", ValueType::Bool, rd_period, rd_phase).generate(steps),
            )
            .zip_union(&master_clock("tick", steps))
    }

    #[test]
    fn classify_recognizes_periodic_silent_and_truncated() {
        assert_eq!(RatePattern::classify(&[false; 6]), RatePattern::Silent);
        assert_eq!(
            RatePattern::classify(&[true, false, true, false, true, false]),
            RatePattern::Periodic { period: 2, phase: 0 }
        );
        assert_eq!(
            RatePattern::classify(&[false, true, false, false, true, false]),
            RatePattern::Periodic { period: 3, phase: 1 }
        );
        // truncated train: events stop well before the horizon
        assert_eq!(
            RatePattern::classify(&[true, true, false, false, false, false]),
            RatePattern::Irregular
        );
        // a lone event fixes no period
        assert_eq!(RatePattern::classify(&[true, false, false]), RatePattern::Irregular);
        assert_eq!(RatePattern::classify(&[false, false, true]), RatePattern::Irregular);
    }

    /// The heart of the soundness story: the abstract replay reproduces the
    /// real estimation loop's verdict *exactly*, workload by workload.
    #[test]
    fn replayed_loop_matches_dynamic_estimation_exactly() {
        let cases = [
            env(24, 2, 2, 1),
            env(12, 1, 3, 1),
            env(18, 1, 2, 0),
            env(30, 3, 2, 2),
            env(16, 1, 1, 0),
            env(40, 4, 3, 1),
        ];
        for (i, scenario) in cases.iter().enumerate() {
            let report =
                estimate_buffer_sizes(&pipe(), scenario, &EstimationOptions::default()).unwrap();
            let bounds = prove_bounds(&pipe(), scenario, &ProveOptions::default());
            match bounds.bound_of(&"x".into()) {
                ChannelBound::Exact { depth } => {
                    assert!(report.converged, "case {i}");
                    assert_eq!(Some(depth), report.size_of(&"x".into()), "case {i}");
                }
                other => panic!("case {i}: expected Exact, got {other:?}"),
            }
        }
    }

    #[test]
    fn bursty_writers_are_still_replayed_exactly() {
        let steps = 40;
        let scenario = BurstyInputs::new("a", ValueType::Int, 4, 10)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 2, 0).generate(steps))
            .zip_union(&master_clock("tick", steps));
        let report =
            estimate_buffer_sizes(&pipe(), &scenario, &EstimationOptions::default()).unwrap();
        let bounds = prove_bounds(&pipe(), &scenario, &ProveOptions::default());
        assert_eq!(
            bounds.bound_of(&"x".into()),
            ChannelBound::Exact { depth: report.size_of(&"x".into()).unwrap() }
        );
        // bursty is not periodic: no steady-state claim either way
        assert!(!bounds.steady_state_divergent.contains(&SigName::from("x")));
    }

    #[test]
    fn cap_hitting_workload_is_proven_unbounded() {
        // writer every instant, reader never: the dynamic loop cannot
        // converge below the cap; the prover must predict that
        let steps = 30;
        let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
            .generate(steps)
            .zip_union(&master_clock("tick", steps));
        let tight = ProveOptions { max_size: 8, ..Default::default() };
        let bounds = prove_bounds(&pipe(), &scenario, &tight);
        assert_eq!(bounds.bound_of(&"x".into()), ChannelBound::Unbounded);
        let report = estimate_buffer_sizes(
            &pipe(),
            &scenario,
            &EstimationOptions { max_size: 8, ..Default::default() },
        )
        .unwrap();
        assert!(!report.converged);
    }

    #[test]
    fn steady_state_divergence_is_flagged_for_periodic_rates() {
        // writer every instant, reader every 3rd: finite horizon converges,
        // but the long-run Lemma-2 condition fails
        let scenario = env(12, 1, 3, 1);
        let bounds = prove_bounds(&pipe(), &scenario, &ProveOptions::default());
        assert!(matches!(bounds.bound_of(&"x".into()), ChannelBound::Exact { .. }));
        assert!(bounds.steady_state_divergent.contains(&SigName::from("x")));
        // matched rates: no divergence
        let bounds = prove_bounds(&pipe(), &env(24, 2, 2, 1), &ProveOptions::default());
        assert!(bounds.steady_state_divergent.is_empty());
    }

    #[test]
    fn downstream_channels_get_a_write_count_upper_bound() {
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
        let bounds = prove_bounds(&p, &scenario, &ProveOptions::default());
        assert!(matches!(bounds.bound_of(&"x".into()), ChannelBound::Exact { .. }));
        let ChannelBound::UpperBound { depth } = bounds.bound_of(&"y".into()) else {
            panic!("expected UpperBound for the downstream channel");
        };
        // the bound must actually bound the dynamic estimate
        let report = estimate_buffer_sizes(&p, &scenario, &EstimationOptions::default()).unwrap();
        assert!(report.converged);
        assert!(report.size_of(&"y".into()).unwrap() <= depth);
        // and warm_start only ships the exact bound
        let warm = bounds.warm_start();
        assert_eq!(warm.len(), 1);
        assert!(warm.contains_key(&SigName::from("x")));
    }

    #[test]
    fn missing_tick_or_empty_scenario_yields_unknown() {
        let no_tick = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(8);
        let bounds = prove_bounds(&pipe(), &no_tick, &ProveOptions::default());
        assert_eq!(bounds.bound_of(&"x".into()), ChannelBound::Unknown);
        let bounds = prove_bounds(&pipe(), &Scenario::new(), &ProveOptions::default());
        assert_eq!(bounds.bound_of(&"x".into()), ChannelBound::Unknown);
        // a channel the prover never saw
        assert_eq!(bounds.bound_of(&"nope".into()), ChannelBound::Unknown);
    }

    #[test]
    fn warm_start_report_matches_plain_report() {
        // the integration the bench measures: proven depths seeded into the
        // estimation loop skip every round and land on the same sizes
        let scenario = env(12, 1, 3, 1);
        let bounds = prove_bounds(&pipe(), &scenario, &ProveOptions::default());
        let plain = estimate_buffer_sizes(&pipe(), &scenario, &Default::default()).unwrap();
        let warm = estimate_buffer_sizes(
            &pipe(),
            &scenario,
            &EstimationOptions { proven: bounds.warm_start(), ..Default::default() },
        )
        .unwrap();
        assert_eq!(warm.final_sizes, plain.final_sizes);
        assert_eq!(warm.converged, plain.converged);
        assert!(warm.iterations() < plain.iterations());
        assert_eq!(
            warm.provenance[&SigName::from("x")],
            polysig_gals::estimate::Provenance::Static
        );
    }
}
