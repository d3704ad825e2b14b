//! Federated-deployment analysis: capacity-induced deadlock (`PA008`) and
//! capacity underprovision (`PA009`).
//!
//! The federated runtime (`core::runtime::federated`) couples per-component
//! threads only through bounded SPSC credit channels. A *deployment* choice
//! — which federates run data-driven (one reaction per arriving value) and
//! which poll under an environment schedule — plus the per-channel credit
//! capacities determine whether the federation can reach a configuration
//! where every live federate is blocked inside a channel wait. This module
//! decides that question statically, in three escalating stages:
//!
//! 1. **Structural cycle check** — a directed channel cycle whose every
//!    member is data-driven deadlocks at *any* capacity: each member blocks
//!    receiving its cycle input before its first reaction, so no token ever
//!    enters the cycle (`PA008`, capacity-independent).
//! 2. **Kahn/marked-graph sufficiency** — when every data-driven federate
//!    has a single input channel and every directed cycle passes through a
//!    polling source, the federation is deadlock-free at any capacity ≥ 1:
//!    a data-driven stage drains its sole input once per activation, and a
//!    polling source drains its feedback inputs at the top of every
//!    activation, before its own send, so blocked sends always resolve.
//!    The proof argument is recorded in the report.
//! 3. **Abstract federation replay** — for the remaining topologies
//!    (data-driven joins with several input channels), the federation is
//!    replayed deterministically at micro-op granularity: per-channel
//!    occupancy counters stand in for the FIFOs, and each federate's send
//!    *presence* schedule is derived by solo-simulating its component (see
//!    the soundness restrictions on [`analyze_deployment`]). A replay that
//!    reaches a blocked fixpoint yields `PA008` with the wait-for cycle and
//!    the minimal capacities that resolve it (from an unbounded-capacity
//!    replay's peak occupancies); a replay that runs to quiescence proves
//!    the deployment deadlock-free. Polls are replayed eagerly (the most
//!    token-generous schedule), so a replay deadlock implies a runtime
//!    deadlock under every schedule.
//!
//! `PA009` is independent of deadlock: a channel whose *explicitly
//! configured* capacity sits below the statically proven `Exact`/
//! `UpperBound` FIFO depth ([`StaticBounds::minimal_safe_capacities`]) will
//! stall its producer on every backlog peak. It only fires for plans with
//! explicit capacities — an inferred plan has nothing to audit.

use std::collections::{BTreeMap, BTreeSet};

use polysig_gals::{channel_edges, ChannelSpec};
use polysig_lang::{Component, Expr, Program, Role};
use polysig_sim::{DenseEnv, Reactor, Scenario};
use polysig_tagged::{SigName, Value, ValueType};

use crate::diag::{Diagnostic, LintCode};
use crate::rates::StaticBounds;

/// Replay passes before the engine gives up with an `Unknown` verdict (a
/// backstop far above what any bounded schedule needs: every pass either
/// moves a token, fires a reaction, or terminates the loop).
const MAX_PASSES: usize = 1_000_000;

/// How a program's components are mapped onto federates: who runs
/// data-driven, which environments drive the polling sources, and the
/// credit capacity of every channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeploymentPlan {
    /// Components deployed data-driven (one reaction per arriving value;
    /// like the runtime, the flag only takes effect for components with at
    /// least one input channel).
    pub data_driven: BTreeSet<String>,
    /// Environment schedules for polling (source) federates, keyed by
    /// component name; a source's activation count is its schedule length.
    pub environments: BTreeMap<String, Scenario>,
    /// Explicit per-channel credit capacities.
    pub capacities: BTreeMap<SigName, usize>,
    /// Capacity of channels not named in `capacities`.
    pub default_capacity: usize,
    /// Whether capacities were configured explicitly (only explicit
    /// configurations are audited by `PA009`).
    explicit: bool,
}

impl DeploymentPlan {
    /// The canonical deployment the runtime oracles and the CLI use:
    /// components whose every input arrives over a channel run data-driven;
    /// every other component polls under `scenario` (when given). Channel
    /// capacities default to 1 (the runtime's own default) and are *not*
    /// treated as explicit.
    pub fn canonical(program: &Program, scenario: Option<&Scenario>) -> DeploymentPlan {
        DeploymentPlan::canonical_over(program, &channel_edges(program).0, scenario)
    }

    /// [`DeploymentPlan::canonical`] over the program's already-walked
    /// channel edges.
    pub(crate) fn canonical_over(
        program: &Program,
        chans: &[ChannelSpec],
        scenario: Option<&Scenario>,
    ) -> DeploymentPlan {
        let channel_sigs: BTreeSet<&SigName> = chans.iter().map(|c| &c.signal).collect();
        let mut plan = DeploymentPlan { default_capacity: 1, ..DeploymentPlan::default() };
        for c in &program.components {
            let inputs: Vec<_> = c.signals_with_role(Role::Input).collect();
            let all_channels =
                !inputs.is_empty() && inputs.iter().all(|d| channel_sigs.contains(&d.name));
            if all_channels {
                plan.data_driven.insert(c.name.clone());
            } else if let Some(s) = scenario {
                plan.environments.insert(c.name.clone(), s.clone());
            }
        }
        plan
    }

    /// Marks a component data-driven.
    pub fn driven(mut self, component: impl Into<String>) -> Self {
        self.data_driven.insert(component.into());
        self
    }

    /// Deploys a component as a polling source under `environment`.
    pub fn source(mut self, component: impl Into<String>, environment: Scenario) -> Self {
        let name = component.into();
        self.data_driven.remove(&name);
        self.environments.insert(name, environment);
        self
    }

    /// Sets one channel's capacity explicitly.
    pub fn with_capacity(mut self, signal: impl Into<SigName>, capacity: usize) -> Self {
        self.capacities.insert(signal.into(), capacity.max(1));
        self.explicit = true;
        self
    }

    /// Replaces the capacity map (e.g. with
    /// [`StaticBounds::minimal_safe_capacities`]).
    pub fn with_capacities(mut self, capacities: BTreeMap<SigName, usize>) -> Self {
        self.capacities = capacities;
        self.explicit = true;
        self
    }

    /// Sets the capacity of channels not named in the map.
    pub fn with_default_capacity(mut self, capacity: usize) -> Self {
        self.default_capacity = capacity.max(1);
        self.explicit = true;
        self
    }

    /// The effective capacity of a channel under this plan.
    pub fn capacity_of(&self, signal: &SigName) -> usize {
        self.capacities.get(signal).copied().unwrap_or(self.default_capacity).max(1)
    }

    /// Whether capacities were configured explicitly.
    pub fn is_explicit(&self) -> bool {
        self.explicit
    }
}

/// The deadlock verdict for one deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentVerdict {
    /// The deployment cannot deadlock; `argument` records why (the Kahn
    /// sufficiency condition, or a completed replay).
    DeadlockFree {
        /// The recorded proof argument.
        argument: String,
    },
    /// The deployment can reach a configuration where every federate on
    /// `cycle` waits on the next (`PA008` is emitted alongside).
    DeadlockRisk {
        /// The channels along the wait-for cycle, in order.
        cycle: Vec<SigName>,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The analysis could not decide (the reason names the restriction
    /// that was violated — e.g. `when`-dependent send presence).
    Unknown {
        /// Why no definite verdict was possible.
        reason: String,
    },
}

/// What the deployment pass established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentReport {
    /// The deadlock verdict.
    pub verdict: DeploymentVerdict,
    /// Minimal per-channel capacities that let the replay run to
    /// quiescence (peak occupancies of an unbounded-capacity replay);
    /// populated when a deadlock risk was found and a finite raise fixes
    /// it.
    pub suggested_capacities: BTreeMap<SigName, usize>,
    /// How many channels the deployment wires.
    pub channels: usize,
}

impl DeploymentReport {
    /// `true` iff the verdict is a deadlock-freedom proof.
    pub fn is_deadlock_free(&self) -> bool {
        matches!(self.verdict, DeploymentVerdict::DeadlockFree { .. })
    }
}

/// Analyzes one deployment of `program`: emits `PA008` on a deadlock risk,
/// `PA009` on explicitly underprovisioned channels (when `bounds` carries
/// proven depths), and records the deadlock-freedom argument otherwise.
///
/// Definite verdicts from the replay stage require the send-presence
/// schedules of the federates to be derivable by solo simulation:
/// components with channel inputs must be `when`-free (so presence is
/// value-independent and monotone in input presence), and every polling
/// source with an output channel needs an environment. Deployments outside
/// these restrictions get an honest `Unknown`, never a wrong proof.
pub fn analyze_deployment(
    program: &Program,
    plan: &DeploymentPlan,
    bounds: Option<&StaticBounds>,
) -> (DeploymentReport, Vec<Diagnostic>) {
    let (chans, fanout) = channel_edges(program);
    deployment(program, &chans, !fanout.is_empty(), plan, bounds)
}

/// [`analyze_deployment`] over the program's already-walked channel edges.
pub(crate) fn deployment(
    program: &Program,
    chans: &[ChannelSpec],
    fanned_out: bool,
    plan: &DeploymentPlan,
    bounds: Option<&StaticBounds>,
) -> (DeploymentReport, Vec<Diagnostic>) {
    let mut diagnostics = Vec::new();

    // PA009: audit explicit capacities against proven FIFO depths
    if plan.is_explicit() {
        if let Some(bounds) = bounds {
            let minimal = bounds.minimal_safe_capacities();
            for ch in chans {
                let Some(&min) = minimal.get(&ch.signal) else { continue };
                let cap = plan.capacity_of(&ch.signal);
                if cap < min {
                    diagnostics.push(
                        Diagnostic::new(
                            LintCode::ChannelUnderprovisioned,
                            format!(
                                "channel `{}` ({} → {}) is configured with capacity {cap}, below \
                                 its statically proven FIFO depth {min}: the producer stalls on \
                                 every backlog peak",
                                ch.signal, ch.producer, ch.consumer
                            ),
                        )
                        .in_component(ch.producer.clone())
                        .on_signal(ch.signal.clone())
                        .suggest(format!(
                            "raise the capacity of `{}` to {min} \
                             (`StaticBounds::minimal_safe_capacities`)",
                            ch.signal
                        )),
                    );
                }
            }
        }
    }

    let (verdict, suggested_capacities) = deadlock_verdict(program, plan, chans, fanned_out);
    if let DeploymentVerdict::DeadlockRisk { cycle, reason } = &verdict {
        let mut diag = Diagnostic::new(
            LintCode::FederatedDeadlockRisk,
            format!("the federated deployment can deadlock: {reason}"),
        );
        if let Some(signal) = cycle.first() {
            diag = diag.on_signal(signal.clone());
        }
        let suggestion = if suggested_capacities.is_empty() {
            "deploy at least one federate on the cycle as a polling source (give it an \
             environment), or break the channel cycle"
                .to_string()
        } else {
            let raises: Vec<String> = suggested_capacities
                .iter()
                .filter(|(s, &cap)| plan.capacity_of(s) < cap)
                .map(|(s, cap)| format!("`{s}` ≥ {cap}"))
                .collect();
            format!("raise channel capacities to {}", raises.join(", "))
        };
        diagnostics.push(diag.suggest(suggestion));
    }

    (DeploymentReport { verdict, suggested_capacities, channels: chans.len() }, diagnostics)
}

/// The three-stage deadlock decision; returns the verdict plus suggested
/// capacities (nonempty only for replay-found risks a finite raise fixes).
fn deadlock_verdict(
    program: &Program,
    plan: &DeploymentPlan,
    chans: &[ChannelSpec],
    fanned_out: bool,
) -> (DeploymentVerdict, BTreeMap<SigName, usize>) {
    let none = BTreeMap::new();
    if chans.is_empty() {
        let argument =
            "no cross-component channels: the federation is trivially deadlock-free".to_string();
        return (DeploymentVerdict::DeadlockFree { argument }, none);
    }
    if fanned_out {
        let reason = "fanned-out signals violate the single-producer/single-consumer channel \
                      discipline (PA006); deadlock analysis needs point-to-point channels"
            .to_string();
        return (DeploymentVerdict::Unknown { reason }, none);
    }

    let comp_index: BTreeMap<&str, usize> =
        program.components.iter().enumerate().map(|(i, c)| (c.name.as_str(), i)).collect();
    let in_degree = |name: &str| chans.iter().filter(|c| c.consumer == name).count();
    // the runtime only honors the data-driven flag for federates with at
    // least one input channel; mirror that here
    let is_data_driven = |name: &str| plan.data_driven.contains(name) && in_degree(name) > 0;

    // stage 1: an all-data-driven directed channel cycle deadlocks at any
    // capacity — every member blocks receiving its cycle input before its
    // first reaction, so no token ever enters the cycle
    if let Some(cycle) = data_driven_cycle(program, chans, &is_data_driven) {
        let feds: Vec<String> = cycle
            .iter()
            .filter_map(|s| chans.iter().find(|c| &c.signal == s))
            .map(|c| c.producer.clone())
            .collect();
        let reason = format!(
            "every federate on the channel cycle {} ({}) is data-driven: each blocks receiving \
             its cycle input before its first reaction, so no token ever enters the cycle, at \
             any capacity",
            cycle.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(" → "),
            feds.join(" → "),
        );
        return (DeploymentVerdict::DeadlockRisk { cycle, reason }, none);
    }

    // stage 2: the Kahn/marked-graph sufficiency condition
    let all_single_input = program
        .components
        .iter()
        .filter(|c| is_data_driven(&c.name))
        .all(|c| in_degree(&c.name) <= 1);
    if all_single_input {
        let argument = "Kahn sufficiency: every data-driven federate has a single input channel \
                        (drained once per activation) and every directed channel cycle passes \
                        through a polling source (which drains its feedback inputs at the top of \
                        each activation, before its own send), so every blocked send eventually \
                        resolves and the federation is deadlock-free at any capacity ≥ 1"
            .to_string();
        return (DeploymentVerdict::DeadlockFree { argument }, none);
    }

    // stage 3: abstract federation replay for multi-input joins
    let models = match build_models(program, plan, chans, &comp_index, &is_data_driven) {
        Ok(models) => models,
        Err(reason) => return (DeploymentVerdict::Unknown { reason }, none),
    };
    let mut presence = PresenceOracle::new(program);
    match replay(&models, chans, Some(plan), &mut presence) {
        Err(reason) => (DeploymentVerdict::Unknown { reason }, none),
        Ok(ReplayOutcome::OutOfFuel) => {
            let reason = format!("the federation replay exceeded {MAX_PASSES} scheduler passes");
            (DeploymentVerdict::Unknown { reason }, none)
        }
        Ok(ReplayOutcome::Completed { .. }) => {
            let argument = "abstract federation replay: with send presence derived by solo \
                            simulation and polls replayed eagerly (the most token-generous \
                            schedule), the federation runs to quiescence at the configured \
                            capacities without ever reaching a blocked configuration"
                .to_string();
            (DeploymentVerdict::DeadlockFree { argument }, none)
        }
        Ok(ReplayOutcome::Stuck { cycle, blocked }) => {
            // minimal safe capacities: peak occupancies when nothing blocks
            let suggested = match replay(&models, chans, None, &mut presence) {
                Ok(ReplayOutcome::Completed { peaks }) => {
                    peaks.into_iter().map(|(signal, peak)| (signal, peak.max(1))).collect()
                }
                _ => BTreeMap::new(),
            };
            let reason = format!(
                "the federation replay reaches a fixpoint where {} block forever on the \
                 wait-for cycle {}",
                blocked.iter().map(|f| format!("`{f}`")).collect::<Vec<_>>().join(", "),
                cycle.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(" → "),
            );
            (DeploymentVerdict::DeadlockRisk { cycle, reason }, suggested)
        }
    }
}

/// Finds a directed channel cycle whose every node is data-driven; returns
/// the channel signals along the cycle.
fn data_driven_cycle(
    program: &Program,
    chans: &[ChannelSpec],
    is_data_driven: &dyn Fn(&str) -> bool,
) -> Option<Vec<SigName>> {
    let nodes: Vec<&str> =
        program.components.iter().map(|c| c.name.as_str()).filter(|n| is_data_driven(n)).collect();
    // iterative DFS with an explicit edge stack; only edges between
    // data-driven nodes participate
    let edges = |n: &str| -> Vec<&ChannelSpec> {
        chans.iter().filter(|c| c.producer == n && is_data_driven(&c.consumer)).collect()
    };
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    for &start in &nodes {
        if visited.contains(start) {
            continue;
        }
        // path of (node, channel taken to reach the *next* entry)
        let mut path: Vec<(&str, &SigName)> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<(&str, Vec<&ChannelSpec>)> = vec![(start, edges(start))];
        on_path.insert(start);
        while let Some((node, out)) = stack.last_mut() {
            let node = *node;
            match out.pop() {
                Some(ch) => {
                    let next = ch.consumer.as_str();
                    // resolve the consumer back to its interned name so the
                    // borrow outlives this iteration
                    let next = program
                        .components
                        .iter()
                        .find(|c| c.name == next)
                        .map(|c| c.name.as_str())
                        .unwrap_or(next);
                    if on_path.contains(next) {
                        // cycle: everything on the path from `next` onward
                        let mut cycle: Vec<SigName> = path
                            .iter()
                            .skip_while(|(n, _)| *n != next)
                            .map(|(_, s)| (*s).clone())
                            .collect();
                        cycle.push(ch.signal.clone());
                        return Some(cycle);
                    }
                    if !visited.contains(next) {
                        path.push((node, &ch.signal));
                        on_path.insert(next);
                        stack.push((next, edges(next)));
                    }
                }
                None => {
                    visited.insert(node);
                    on_path.remove(node);
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// the abstract federation replay
// ---------------------------------------------------------------------------

/// How one federate behaves in the replay.
enum FedKind {
    /// Polls its input channels at the top of each activation; sends per
    /// `schedule[k][j]` (presence of out-channel `j` at activation `k`).
    Source { schedule: Vec<Vec<bool>> },
    /// Blocks one receive per live input channel per activation; send
    /// presence is derived per delivered-input pattern.
    DataDriven,
}

/// One federate of the replayed federation.
struct FedModel {
    /// Index into `program.components`.
    comp: usize,
    kind: FedKind,
    /// Channel indices read, in input-declaration order (the runtime's
    /// receive order).
    in_chans: Vec<usize>,
    /// Channel indices written, in output-declaration order (the runtime's
    /// send order).
    out_chans: Vec<usize>,
}

/// Where a federate is blocked (or about to run) inside its activation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Top,
    Recv(usize),
    Send(usize),
}

/// Mutable replay state of one federate.
struct FedState {
    k: usize,
    phase: Phase,
    done: bool,
    any_value: bool,
    in_gone: Vec<bool>,
    /// Which input channels delivered a value this activation (the
    /// presence pattern the reaction fires under).
    delivered: Vec<bool>,
    /// Output presence of the current firing, one flag per out-channel.
    pending: Vec<bool>,
}

/// Mutable replay state of one channel.
struct ChanState {
    cap: Option<usize>,
    occ: usize,
    peak: usize,
}

/// How a replay ended.
enum ReplayOutcome {
    /// Every federate retired; `peaks` records per-channel peak occupancy.
    Completed { peaks: BTreeMap<SigName, usize> },
    /// A blocked fixpoint: `blocked` federates wait forever along `cycle`.
    Stuck { cycle: Vec<SigName>, blocked: Vec<String> },
    /// The pass budget ran out (never observed on bounded schedules; kept
    /// as an honest escape hatch).
    OutOfFuel,
}

/// Builds the replay models, deriving every source's send-presence
/// schedule up front. Fails (→ `Unknown`) when a schedule is underivable.
fn build_models(
    program: &Program,
    plan: &DeploymentPlan,
    chans: &[ChannelSpec],
    comp_index: &BTreeMap<&str, usize>,
    is_data_driven: &dyn Fn(&str) -> bool,
) -> Result<Vec<FedModel>, String> {
    let mut models = Vec::with_capacity(program.components.len());
    for comp in &program.components {
        let in_chans: Vec<usize> = comp
            .signals_with_role(Role::Input)
            .filter_map(|d| {
                chans.iter().position(|c| c.signal == d.name && c.consumer == comp.name)
            })
            .collect();
        let out_chans: Vec<usize> = comp
            .signals_with_role(Role::Output)
            .filter_map(|d| {
                chans.iter().position(|c| c.signal == d.name && c.producer == comp.name)
            })
            .collect();
        let kind = if is_data_driven(&comp.name) {
            if plan.environments.contains_key(&comp.name) {
                return Err(format!(
                    "data-driven federate `{}` has an environment; mixed activation is not \
                     modeled",
                    comp.name
                ));
            }
            FedKind::DataDriven
        } else {
            let env = plan.environments.get(&comp.name);
            if env.is_none() && !out_chans.is_empty() {
                return Err(format!(
                    "polling source `{}` has no environment; its send schedule cannot be \
                     derived",
                    comp.name
                ));
            }
            let in_sigs: Vec<SigName> = in_chans.iter().map(|&i| chans[i].signal.clone()).collect();
            let out_sigs: Vec<SigName> =
                out_chans.iter().map(|&i| chans[i].signal.clone()).collect();
            let schedule = match env {
                Some(env) => source_presence(comp, env, &in_sigs, &out_sigs)?,
                None => Vec::new(),
            };
            FedKind::Source { schedule }
        };
        models.push(FedModel { comp: comp_index[comp.name.as_str()], kind, in_chans, out_chans });
    }
    Ok(models)
}

/// Runs the federation to quiescence or a blocked fixpoint. `plan: None`
/// replays with unbounded capacities (for peak-occupancy suggestions).
fn replay(
    models: &[FedModel],
    chans: &[ChannelSpec],
    plan: Option<&DeploymentPlan>,
    presence: &mut PresenceOracle<'_>,
) -> Result<ReplayOutcome, String> {
    let mut chan_states: Vec<ChanState> = chans
        .iter()
        .map(|c| ChanState { cap: plan.map(|p| p.capacity_of(&c.signal)), occ: 0, peak: 0 })
        .collect();
    let mut fed_states: Vec<FedState> = models
        .iter()
        .map(|m| FedState {
            k: 0,
            phase: Phase::Top,
            done: false,
            any_value: false,
            in_gone: vec![false; m.in_chans.len()],
            delivered: vec![false; m.in_chans.len()],
            pending: Vec::new(),
        })
        .collect();

    for _pass in 0..MAX_PASSES {
        let mut progressed = false;
        for f in 0..models.len() {
            progressed |=
                run_federate(f, models, &mut fed_states, chans, &mut chan_states, presence)?;
        }
        if fed_states.iter().all(|s| s.done) {
            let peaks =
                chans.iter().zip(&chan_states).map(|(c, s)| (c.signal.clone(), s.peak)).collect();
            return Ok(ReplayOutcome::Completed { peaks });
        }
        if !progressed {
            return Ok(stuck_cycle(models, &fed_states, chans));
        }
    }
    Ok(ReplayOutcome::OutOfFuel)
}

/// Advances one federate until it blocks, retires, or completes one
/// activation; `true` iff any state changed (token moved, reaction fired,
/// endpoint observed gone). Capping each pass at one activation keeps the
/// round-robin interleaving close to the runtime's lock-step concurrency,
/// so unbounded-replay peak occupancies approximate the real backlog
/// instead of a whole-schedule drain. (The *verdict* does not depend on
/// the interleaving: blocking SPSC reads and writes with
/// schedule-independent send presence form a bounded Kahn network, whose
/// termination-vs-deadlock outcome is deterministic.)
fn run_federate(
    f: usize,
    models: &[FedModel],
    feds: &mut [FedState],
    chans: &[ChannelSpec],
    chan_states: &mut [ChanState],
    presence: &mut PresenceOracle<'_>,
) -> Result<bool, String> {
    let model = &models[f];
    let mut moved = false;
    loop {
        if feds[f].done {
            return Ok(moved);
        }
        match feds[f].phase {
            Phase::Top => match &model.kind {
                FedKind::Source { schedule } => {
                    if feds[f].k >= schedule.len() {
                        feds[f].done = true;
                        moved = true;
                        continue;
                    }
                    // poll every input channel eagerly, never blocking
                    for &ci in &model.in_chans {
                        if chan_states[ci].occ > 0 {
                            chan_states[ci].occ -= 1;
                            moved = true;
                        }
                    }
                    feds[f].pending = schedule[feds[f].k].clone();
                    feds[f].phase = Phase::Send(0);
                }
                FedKind::DataDriven => {
                    feds[f].any_value = false;
                    feds[f].delivered.fill(false);
                    feds[f].phase = Phase::Recv(0);
                }
            },
            Phase::Recv(start) => {
                let mut i = start;
                let mut blocked = false;
                while i < model.in_chans.len() {
                    let ci = model.in_chans[i];
                    if feds[f].in_gone[i] {
                        i += 1;
                        continue;
                    }
                    if chan_states[ci].occ > 0 {
                        chan_states[ci].occ -= 1;
                        feds[f].any_value = true;
                        feds[f].delivered[i] = true;
                        moved = true;
                        i += 1;
                        continue;
                    }
                    if feds[chan_producer(models, chans, ci)].done {
                        feds[f].in_gone[i] = true;
                        moved = true;
                        i += 1;
                        continue;
                    }
                    blocked = true;
                    break;
                }
                if blocked {
                    feds[f].phase = Phase::Recv(i);
                    return Ok(moved);
                }
                if !feds[f].any_value {
                    // every upstream retired and drained: nothing more
                    // will ever arrive
                    feds[f].done = true;
                    moved = true;
                    continue;
                }
                let delivered: Vec<SigName> = model
                    .in_chans
                    .iter()
                    .zip(&feds[f].delivered)
                    .filter(|(_, d)| **d)
                    .map(|(&ci, _)| chans[ci].signal.clone())
                    .collect();
                let out_sigs: Vec<SigName> =
                    model.out_chans.iter().map(|&ci| chans[ci].signal.clone()).collect();
                match presence.firing(model.comp, &delivered, &out_sigs)? {
                    Some(pending) => {
                        feds[f].pending = pending;
                        feds[f].phase = Phase::Send(0);
                    }
                    None => {
                        // the firing is clock-inconsistent under this
                        // partial delivery: the runtime federate errors
                        // out and retires, and its dropped endpoints
                        // unblock the peers
                        feds[f].done = true;
                    }
                }
                moved = true;
            }
            Phase::Send(start) => {
                let mut j = start;
                let mut blocked = false;
                while j < model.out_chans.len() {
                    let ci = model.out_chans[j];
                    if !feds[f].pending[j] {
                        j += 1;
                        continue;
                    }
                    if feds[chan_consumer(models, chans, ci)].done {
                        // the consumer retired: the send is skipped
                        j += 1;
                        continue;
                    }
                    match chan_states[ci].cap {
                        Some(cap) if chan_states[ci].occ >= cap => {
                            blocked = true;
                            break;
                        }
                        _ => {
                            chan_states[ci].occ += 1;
                            chan_states[ci].peak = chan_states[ci].peak.max(chan_states[ci].occ);
                            moved = true;
                            j += 1;
                        }
                    }
                }
                if blocked {
                    feds[f].phase = Phase::Send(j);
                    return Ok(moved);
                }
                feds[f].k += 1;
                feds[f].phase = Phase::Top;
                return Ok(true); // one activation per pass
            }
        }
    }
}

/// Extracts the wait-for cycle from a blocked fixpoint: follow each stuck
/// federate's wait edge (blocked receive → the channel's producer, blocked
/// send → its consumer) until a federate repeats.
fn stuck_cycle(models: &[FedModel], feds: &[FedState], chans: &[ChannelSpec]) -> ReplayOutcome {
    let blocked: Vec<usize> = (0..feds.len()).filter(|&f| !feds[f].done).collect();
    let wait_edge = |f: usize| -> Option<(usize, usize)> {
        match feds[f].phase {
            Phase::Recv(i) => {
                let ci = models[f].in_chans[i];
                Some((ci, chan_producer(models, chans, ci)))
            }
            Phase::Send(j) => {
                let ci = models[f].out_chans[j];
                Some((ci, chan_consumer(models, chans, ci)))
            }
            Phase::Top => None,
        }
    };
    let start = blocked.first().copied().unwrap_or(0);
    let mut path: Vec<(usize, usize)> = Vec::new(); // (federate, channel)
    let mut seen: Vec<usize> = Vec::new();
    let mut cur = start;
    let cycle = loop {
        let Some((ci, next)) = wait_edge(cur) else {
            break path.iter().map(|&(_, ci)| chans[ci].signal.clone()).collect::<Vec<_>>();
        };
        if let Some(pos) = seen.iter().position(|&f| f == next) {
            path.push((cur, ci));
            break path[pos..].iter().map(|&(_, ci)| chans[ci].signal.clone()).collect();
        }
        seen.push(cur);
        path.push((cur, ci));
        cur = next;
    };
    let blocked_names: Vec<String> =
        blocked.iter().map(|&f| component_name(models, chans, f)).collect();
    ReplayOutcome::Stuck { cycle, blocked: blocked_names }
}

/// The component name behind federate `f` (via any adjacent channel).
fn component_name(models: &[FedModel], chans: &[ChannelSpec], f: usize) -> String {
    if let Some(&ci) = models[f].out_chans.first() {
        return chans[ci].producer.clone();
    }
    if let Some(&ci) = models[f].in_chans.first() {
        return chans[ci].consumer.clone();
    }
    format!("federate #{f}")
}

fn chan_producer(models: &[FedModel], chans: &[ChannelSpec], ci: usize) -> usize {
    (0..models.len())
        .find(|&f| models[f].out_chans.contains(&ci))
        .unwrap_or_else(|| panic!("channel `{}` has a producer federate", chans[ci].signal))
}

fn chan_consumer(models: &[FedModel], chans: &[ChannelSpec], ci: usize) -> usize {
    (0..models.len())
        .find(|&f| models[f].in_chans.contains(&ci))
        .unwrap_or_else(|| panic!("channel `{}` has a consumer federate", chans[ci].signal))
}

// ---------------------------------------------------------------------------
// send-presence derivation
// ---------------------------------------------------------------------------

/// A neutral value of the declared type, for presence-only simulations
/// (legal because `when`-free presence is value-independent).
fn dummy(ty: ValueType) -> Value {
    match ty {
        ValueType::Int => Value::Int(0),
        ValueType::Bool => Value::TRUE,
    }
}

/// `true` iff no equation of the component samples with `when` (so output
/// presence is a monotone function of input presence, independent of
/// values).
fn when_free(comp: &Component) -> bool {
    comp.equations().all(|eq| expr_when_free(&eq.rhs))
}

fn expr_when_free(e: &Expr) -> bool {
    match e {
        Expr::When { .. } => false,
        Expr::Var(_) | Expr::Const(_) => true,
        Expr::Pre { body, .. } => expr_when_free(body),
        Expr::Unary { arg, .. } => expr_when_free(arg),
        Expr::Default { left, right } | Expr::Binary { left, right, .. } => {
            expr_when_free(left) && expr_when_free(right)
        }
    }
}

/// Derives a polling source's send-presence schedule by solo simulation
/// under its environment. With input channels, presence must not depend on
/// the (schedule-dependent) arrival pattern of polled values: the
/// component must be `when`-free, and two bracketing runs — all polled
/// inputs absent vs. all present every activation — must agree; `when`-free
/// presence is monotone in input presence, so agreement at both extremes
/// pins every mixed pattern.
fn source_presence(
    comp: &Component,
    env: &Scenario,
    in_sigs: &[SigName],
    out_sigs: &[SigName],
) -> Result<Vec<Vec<bool>>, String> {
    if !in_sigs.is_empty() && !when_free(comp) {
        return Err(format!(
            "source `{}` polls channels and samples with `when`: its send presence may depend \
             on polled values",
            comp.name
        ));
    }
    let run = |links_present: bool| -> Result<Vec<Vec<bool>>, String> {
        let mut reactor = Reactor::for_component(comp)
            .map_err(|e| format!("source `{}` failed to elaborate: {e}", comp.name))?;
        let n = reactor.signal_count();
        let out_ids: Vec<_> = out_sigs
            .iter()
            .map(|s| reactor.sig_id(s).ok_or_else(|| format!("`{s}` is not interned")))
            .collect::<Result<_, _>>()?;
        let in_ids: Vec<(polysig_tagged::SigId, ValueType)> = in_sigs
            .iter()
            .map(|s| {
                let id = reactor.sig_id(s).ok_or_else(|| format!("`{s}` is not interned"))?;
                let ty = comp.decl(s).map(|d| d.ty).ok_or_else(|| format!("`{s}` undeclared"))?;
                Ok::<_, String>((id, ty))
            })
            .collect::<Result<_, _>>()?;
        let mut buf = DenseEnv::new(n);
        let mut trace = Vec::with_capacity(env.len());
        for step in env.iter() {
            buf.reset(n);
            for (name, value) in step {
                if in_sigs.contains(name) {
                    continue; // channel arrivals are modeled below, not by the scenario
                }
                if let Some(id) = reactor.sig_id(name) {
                    buf.set(id, *value);
                }
            }
            if links_present {
                for &(id, ty) in &in_ids {
                    buf.set(id, dummy(ty));
                }
            }
            match reactor.react_dense(&buf) {
                Ok(present) => {
                    trace.push(out_ids.iter().map(|&id| present.get(id).is_some()).collect())
                }
                Err(e) => {
                    return Err(format!("solo simulation of source `{}` failed: {e}", comp.name))
                }
            }
        }
        Ok(trace)
    };
    let absent = run(false)?;
    if in_sigs.is_empty() {
        return Ok(absent);
    }
    let present = run(true)?;
    if absent != present {
        return Err(format!(
            "send presence of source `{}` depends on the arrival pattern of its polled \
             channels",
            comp.name
        ));
    }
    Ok(absent)
}

/// Lazily derives and caches a data-driven federate's per-firing output
/// presence, one entry per delivered-input pattern (the live set shrinks
/// as producers retire).
struct PresenceOracle<'p> {
    program: &'p Program,
    /// `None` = the firing is clock-inconsistent under that delivery
    /// pattern (the federate faults).
    cache: BTreeMap<(usize, Vec<SigName>), Option<Vec<bool>>>,
}

impl<'p> PresenceOracle<'p> {
    fn new(program: &'p Program) -> Self {
        PresenceOracle { program, cache: BTreeMap::new() }
    }

    /// Output presence of one firing of component `comp` with exactly
    /// `delivered` inputs present, or `Ok(None)` when the firing is
    /// clock-inconsistent under that pattern (the runtime federate would
    /// error out and retire). Requires `when`-freeness and presence
    /// constant across firings (register state must not shift clocks).
    fn firing(
        &mut self,
        comp: usize,
        delivered: &[SigName],
        out_sigs: &[SigName],
    ) -> Result<Option<Vec<bool>>, String> {
        let key = (comp, delivered.to_vec());
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit.clone());
        }
        let component = &self.program.components[comp];
        if !when_free(component) {
            return Err(format!(
                "data-driven federate `{}` samples with `when`: its send presence may depend \
                 on channel values",
                component.name
            ));
        }
        let mut reactor = Reactor::for_component(component)
            .map_err(|e| format!("federate `{}` failed to elaborate: {e}", component.name))?;
        let n = reactor.signal_count();
        let out_ids: Vec<_> = out_sigs
            .iter()
            .map(|s| reactor.sig_id(s).ok_or_else(|| format!("`{s}` is not interned")))
            .collect::<Result<Vec<_>, _>>()?;
        let in_ids: Vec<(polysig_tagged::SigId, ValueType)> = delivered
            .iter()
            .map(|s| {
                let id = reactor.sig_id(s).ok_or_else(|| format!("`{s}` is not interned"))?;
                let ty =
                    component.decl(s).map(|d| d.ty).ok_or_else(|| format!("`{s}` undeclared"))?;
                Ok::<_, String>((id, ty))
            })
            .collect::<Result<_, _>>()?;
        let mut buf = DenseEnv::new(n);
        let mut first: Option<Vec<bool>> = None;
        for firing in 0..4 {
            buf.reset(n);
            for &(id, ty) in &in_ids {
                buf.set(id, dummy(ty));
            }
            let presence: Vec<bool> = match reactor.react_dense(&buf) {
                Ok(present) => out_ids.iter().map(|&id| present.get(id).is_some()).collect(),
                Err(_) if firing == 0 => {
                    // clock-inconsistent under this delivery: the runtime
                    // federate errors out on its first such firing
                    self.cache.insert(key, None);
                    return Ok(None);
                }
                Err(e) => {
                    // a firing that works once and then faults is
                    // register-state-dependent: no constant presence
                    return Err(format!(
                        "send presence of federate `{}` varies across firings ({e})",
                        component.name
                    ));
                }
            };
            match &first {
                None => first = Some(presence),
                Some(reference) if *reference != presence => {
                    return Err(format!(
                        "send presence of federate `{}` varies across firings",
                        component.name
                    ));
                }
                Some(_) => {}
            }
        }
        let presence = first.unwrap_or_default();
        self.cache.insert(key, Some(presence.clone()));
        Ok(Some(presence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;
    use polysig_sim::{PeriodicInputs, ScenarioGenerator};

    fn pipe() -> Program {
        parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x; }",
        )
        .unwrap()
    }

    /// A producer with two channels into one join consumer, where `y` only
    /// flows on every second activation: at capacity 1 on `x`, the
    /// producer blocks sending `x` while the join still waits for `y`.
    fn rate_mismatch_join() -> Program {
        parse_program(
            "process S { input a: int, b: int; output x: int, y: int; \
                         x := a; y := b; } \
             process J { input x: int, y: int; output z: int; z := x + y; }",
        )
        .unwrap()
    }

    fn join_env(steps: usize) -> Scenario {
        // `a` every instant, `b` every second instant: `x` outpaces `y`
        PeriodicInputs::new("a", ValueType::Int, 1, 0)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("b", ValueType::Int, 2, 0).generate(steps))
    }

    #[test]
    fn chains_are_deadlock_free_by_kahn_sufficiency() {
        let p = pipe();
        let plan = DeploymentPlan::canonical(&p, None);
        assert!(plan.data_driven.contains("Q"));
        assert!(!plan.data_driven.contains("P"));
        let (report, diags) = analyze_deployment(&p, &plan, None);
        assert!(report.is_deadlock_free(), "{:?}", report.verdict);
        assert!(diags.is_empty(), "{diags:?}");
        let DeploymentVerdict::DeadlockFree { argument } = &report.verdict else { unreachable!() };
        assert!(argument.contains("Kahn"), "{argument}");
    }

    #[test]
    fn all_data_driven_cycle_is_flagged_capacity_independently() {
        let p = parse_program(
            "process A { input f: int; output x: int; x := f + 1; } \
             process B { input x: int; output f: int; f := pre 0 x; }",
        )
        .unwrap();
        let plan = DeploymentPlan::default().driven("A").driven("B").with_default_capacity(4);
        let (report, diags) = analyze_deployment(&p, &plan, None);
        let DeploymentVerdict::DeadlockRisk { cycle, reason } = &report.verdict else {
            panic!("expected a deadlock risk, got {:?}", report.verdict);
        };
        assert_eq!(cycle.len(), 2);
        assert!(reason.contains("data-driven"), "{reason}");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::FederatedDeadlockRisk);
    }

    #[test]
    fn rate_mismatched_join_deadlocks_at_capacity_one_with_a_suggestion() {
        let p = rate_mismatch_join();
        let plan = DeploymentPlan::canonical(&p, Some(&join_env(12)));
        assert!(plan.data_driven.contains("J"));
        let (report, diags) = analyze_deployment(&p, &plan, None);
        let DeploymentVerdict::DeadlockRisk { cycle, .. } = &report.verdict else {
            panic!("expected a deadlock risk, got {:?}", report.verdict);
        };
        assert!(!cycle.is_empty());
        // the unbounded replay pins the fix: x needs room for the backlog
        let suggested = report.suggested_capacities.get(&SigName::from("x")).copied();
        assert!(suggested.is_some_and(|c| c > 1), "suggested {suggested:?}");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].render().contains("PA008"));
    }

    #[test]
    fn the_suggested_capacities_make_the_join_deadlock_free() {
        let p = rate_mismatch_join();
        let base = DeploymentPlan::canonical(&p, Some(&join_env(12)));
        let (risky, _) = analyze_deployment(&p, &base, None);
        let fixed = base.with_capacities(risky.suggested_capacities.clone());
        let (report, diags) = analyze_deployment(&p, &fixed, None);
        assert!(report.is_deadlock_free(), "{:?}", report.verdict);
        let DeploymentVerdict::DeadlockFree { argument } = &report.verdict else { unreachable!() };
        assert!(argument.contains("replay"), "{argument}");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pa009_audits_explicit_capacities_against_proven_depths() {
        use crate::rates::{prove_bounds, ProveOptions};
        use polysig_sim::generator::master_clock;
        let p = pipe();
        let steps = 24;
        let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 3, 2).generate(steps))
            .zip_union(&master_clock("tick", steps));
        let bounds = prove_bounds(&p, &scenario, &ProveOptions::default());
        let min = bounds.minimal_safe_capacities();
        let Some(&need) = min.get(&SigName::from("x")) else {
            panic!("no proven depth for x: {:?}", bounds.bounds)
        };
        assert!(need > 1, "the slow reader forces a real backlog, got {need}");

        // explicit capacity below the proven depth → PA009
        let plan = DeploymentPlan::canonical(&p, None).with_capacity("x", 1);
        let (_, diags) = analyze_deployment(&p, &plan, Some(&bounds));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::ChannelUnderprovisioned);
        assert!(diags[0].render().contains("PA009"));

        // the minimal safe capacities themselves are clean
        let plan = DeploymentPlan::canonical(&p, None).with_capacities(min);
        let (_, diags) = analyze_deployment(&p, &plan, Some(&bounds));
        assert!(diags.is_empty(), "{diags:?}");

        // an inferred (non-explicit) plan is never audited
        let plan = DeploymentPlan::canonical(&p, None);
        let (_, diags) = analyze_deployment(&p, &plan, Some(&bounds));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn sources_without_an_environment_yield_unknown_for_joins() {
        let p = rate_mismatch_join();
        let plan = DeploymentPlan::canonical(&p, None);
        let (report, diags) = analyze_deployment(&p, &plan, None);
        let DeploymentVerdict::Unknown { reason } = &report.verdict else {
            panic!("expected unknown, got {:?}", report.verdict);
        };
        assert!(reason.contains("environment"), "{reason}");
        assert!(diags.is_empty(), "an honest unknown emits no diagnostic");
    }

    #[test]
    fn when_sampling_blocks_definite_replay_verdicts() {
        let p = parse_program(
            "process S { input a: int, b: int; output x: int, y: int; \
                         x := a; y := b; } \
             process J { input x: int, y: int; output z: int; \
                         z := (x when (x > 0)) default y; }",
        )
        .unwrap();
        let plan = DeploymentPlan::canonical(&p, Some(&join_env(8)));
        let (report, _) = analyze_deployment(&p, &plan, None);
        let DeploymentVerdict::Unknown { reason } = &report.verdict else {
            panic!("expected unknown, got {:?}", report.verdict);
        };
        assert!(reason.contains("when"), "{reason}");
    }

    #[test]
    fn channel_free_programs_are_trivially_deadlock_free() {
        let p = parse_program("process P { input a: int; output x: int; x := a + 1; }").unwrap();
        let plan = DeploymentPlan::canonical(&p, None);
        let (report, diags) = analyze_deployment(&p, &plan, None);
        assert!(report.is_deadlock_free());
        assert_eq!(report.channels, 0);
        assert!(diags.is_empty());
    }
}
