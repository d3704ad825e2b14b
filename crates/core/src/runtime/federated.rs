//! The federated GALS executor: one compiled federate per component.
//!
//! This is the deployment the paper's validation story is *for*. Each
//! component becomes a **federate** — an OS thread executing the
//! component's compiled reaction plan ([`Reactor`] auto-compiles to
//! bytecode and falls back to the interpreter, exactly as in the
//! single-threaded runtimes) — and the federates are coupled by nothing
//! but bounded FIFO channels whose capacity is a credit pool sized from
//! static analysis ([`FederatedOptions::from_report`] takes
//! `estimate_buffer_sizes` output; proven `StaticBounds` depths work the
//! same way). A producer out of credit blocks; a consumer in data-driven
//! mode blocks for input. A small RTI coordinates the rest: a start
//! barrier so no channel sees traffic before every federate is
//! elaborated, a shutdown flag that drains the federation when any
//! federate fails, streaming per-channel occupancy sampling, and a
//! join-everything teardown that provably leaks no thread.
//!
//! Flow equivalence (the paper's Theorems 1–2) is what makes the result
//! meaningful: for endochronous components behind single-producer/
//! single-consumer FIFOs, the per-signal flows observed here equal the
//! synchronous simulation's flows *regardless of the nondeterministic
//! thread interleaving* — the Kahn-network argument. The `FederatedFlow`
//! conformance oracle in `crates/gen` checks exactly that on thousands of
//! generated programs.
//!
//! Hot-path discipline (PR 1): federate loops run entirely on dense
//! [`SigId`]-indexed slots — input steps are precomputed `DenseEnv`s
//! loaded with one slice copy, flow recording appends into id-indexed
//! vectors, and name-keyed maps appear only in the final report. In soak
//! mode ([`FederatedOptions::soak`]) flow recording is off entirely and
//! the streaming counters are the only observation channel, so memory
//! stays flat over millions of instants.
//!
//! [`SigId`]: polysig_tagged::SigId

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use polysig_lang::{Program, Role};
use polysig_sim::{DenseEnv, Reactor, Scenario};
use polysig_tagged::{SigId, SigName, Value};

use crate::error::GalsError;
use crate::estimate::EstimationReport;
use crate::partition::channels_of_program;
use crate::runtime::channel::{
    fed_channel, ChannelCounters, ChannelMonitor, FedReceiver, FedSender, RecvOutcome, SendOutcome,
};
use crate::runtime::record::FlowRecorder;
use crate::runtime::rti::{FederateCtx, JoinStats, Rti};

/// Poll slice for blocked sends and receives: how promptly a stalled
/// federate notices the shutdown flag.
pub const STALL_POLL: Duration = Duration::from_millis(1);

/// Configuration of one federate.
#[derive(Debug, Clone)]
pub struct FederateSpec {
    /// The component's name in the program.
    pub name: String,
    /// Activation budget: at most this many reactions.
    pub activations: usize,
    /// Environment inputs per activation (indexed by activation number).
    pub environment: Scenario,
    /// Data-driven activation: instead of polling, each activation *blocks*
    /// until every live in-link delivers a value — one reaction per arriving
    /// input, and the federate retires early once every upstream producer is
    /// gone and drained. The natural mode for interior pipeline stages;
    /// meaningless (and ignored) for federates without in-links.
    pub data_driven: bool,
}

impl FederateSpec {
    /// A source-style federate: `activations` reactions driven by its own
    /// local clock, polling in-links without blocking.
    pub fn new(name: impl Into<String>, activations: usize) -> FederateSpec {
        FederateSpec {
            name: name.into(),
            activations,
            environment: Scenario::new(),
            data_driven: false,
        }
    }

    /// Adds environment inputs (one entry per activation).
    pub fn with_environment(mut self, environment: Scenario) -> FederateSpec {
        self.environment = environment;
        self
    }

    /// Switches to data-driven activation (see [`FederateSpec::data_driven`]).
    pub fn data_driven(mut self) -> FederateSpec {
        self.data_driven = true;
        self
    }
}

/// Options of a federated run.
#[derive(Debug, Clone)]
pub struct FederatedOptions {
    /// Per-channel capacities (the credit pools). Channels not named here
    /// use [`FederatedOptions::default_capacity`].
    pub capacities: BTreeMap<SigName, usize>,
    /// Capacity for channels without an explicit entry (min 1).
    pub default_capacity: usize,
    /// Record per-signal flows (off in soak mode: the streaming counters
    /// become the only observation, and memory stays flat).
    pub record_flows: bool,
    /// When set, the RTI samples every channel's occupancy at this cadence
    /// while the federation runs.
    pub sample_every: Option<Duration>,
    /// When set, the RTI runs a stall watchdog at this cadence: if every
    /// live federate is blocked in a channel wait and no token moves across
    /// two consecutive windows, the federation is declared deadlocked — the
    /// watchdog raises the shutdown flag (every federate unwinds at its
    /// next poll slice) and the run's [`WatchdogReport`] names the stalled
    /// channels. Pick a cadence well above [`STALL_POLL`] (≥ 10×) so a
    /// federate retiring on a gone peer is never mistaken for a deadlock.
    pub watchdog: Option<Duration>,
}

impl Default for FederatedOptions {
    fn default() -> FederatedOptions {
        FederatedOptions {
            capacities: BTreeMap::new(),
            default_capacity: 1,
            record_flows: true,
            sample_every: None,
            watchdog: None,
        }
    }
}

impl FederatedOptions {
    /// Capacities from a buffer-estimation report: each channel's credit
    /// pool is its estimated bound (floored at one credit).
    pub fn from_report(report: &EstimationReport) -> FederatedOptions {
        FederatedOptions {
            capacities: report
                .final_sizes
                .iter()
                .map(|(name, size)| (name.clone(), (*size).max(1)))
                .collect(),
            ..FederatedOptions::default()
        }
    }

    /// Sets one channel's capacity.
    pub fn with_capacity(mut self, signal: impl Into<SigName>, capacity: usize) -> Self {
        self.capacities.insert(signal.into(), capacity.max(1));
        self
    }

    /// Capacities from statically proven bounds — the shape
    /// `StaticBounds::minimal_safe_capacities` returns. Channels absent
    /// from the map fall back to [`FederatedOptions::default_capacity`].
    pub fn with_proven_capacities(mut self, capacities: BTreeMap<SigName, usize>) -> Self {
        self.capacities = capacities.into_iter().map(|(s, c)| (s, c.max(1))).collect();
        self
    }

    /// Sets the capacity used by channels without an explicit entry.
    pub fn with_default_capacity(mut self, capacity: usize) -> Self {
        self.default_capacity = capacity.max(1);
        self
    }

    /// Soak mode: no flow recording (counters are the observation).
    pub fn soak(mut self) -> Self {
        self.record_flows = false;
        self
    }

    /// Enables occupancy sampling at the given cadence.
    pub fn with_sampling(mut self, every: Duration) -> Self {
        self.sample_every = Some(every);
        self
    }

    /// Enables the RTI stall watchdog at the given cadence (see
    /// [`FederatedOptions::watchdog`]).
    pub fn with_watchdog(mut self, every: Duration) -> Self {
        self.watchdog = Some(every);
        self
    }
}

/// Per-federate execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederateStats {
    /// Reactions performed (≤ the activation budget; less when the federate
    /// retired early or was interrupted).
    pub reactions: usize,
    /// `true` when the federate ran its compiled static schedule rather
    /// than the interpreter.
    pub compiled: bool,
}

/// One streamed occupancy sample, taken while the federation was running.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySample {
    /// Time since the federation started.
    pub at: Duration,
    /// Queue occupancy per channel at that moment.
    pub occupancy: BTreeMap<SigName, u64>,
}

/// What the RTI stall watchdog observed (present iff
/// [`FederatedOptions::watchdog`] was set).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// `true` iff the watchdog declared the federation deadlocked and
    /// raised the shutdown flag.
    pub fired: bool,
    /// When it fired, measured from the start barrier's release.
    pub at: Option<Duration>,
    /// The channels with a blocked endpoint at firing time — the wait-for
    /// cycle's edges, as observed live.
    pub stalled: Vec<SigName>,
}

/// Result of a federated run.
#[derive(Debug, Clone, Default)]
pub struct FederatedRun {
    /// `flows[component][signal]` = values in activation order (empty maps
    /// in soak mode).
    pub flows: BTreeMap<String, BTreeMap<SigName, Vec<Value>>>,
    /// Exact post-join counters per channel: pushes, pops, stall events,
    /// stalled wall-clock time, max occupancy.
    pub channels: BTreeMap<SigName, ChannelCounters>,
    /// Per-federate statistics.
    pub federates: BTreeMap<String, FederateStats>,
    /// Occupancy samples streamed during the run (empty unless
    /// [`FederatedOptions::sample_every`] was set).
    pub samples: Vec<OccupancySample>,
    /// The stall watchdog's observations (`None` when it was not enabled).
    pub watchdog: Option<WatchdogReport>,
    /// Thread teardown accounting (`spawned == joined` always holds).
    pub teardown: JoinStats,
    /// Wall-clock time from the start barrier's release to the last join.
    pub elapsed: Duration,
}

impl FederatedRun {
    /// The flow one federate observed/produced on one signal.
    pub fn flow(&self, component: &str, signal: &SigName) -> Vec<Value> {
        self.flows.get(component).and_then(|m| m.get(signal)).cloned().unwrap_or_default()
    }

    /// Total reactions across all federates.
    pub fn total_reactions(&self) -> usize {
        self.federates.values().map(|s| s.reactions).sum()
    }

    /// Total values pushed across all channels.
    pub fn total_events(&self) -> u64 {
        self.channels.values().map(|c| c.pushes).sum()
    }

    /// `true` iff the stall watchdog declared the federation deadlocked.
    pub fn deadlocked(&self) -> bool {
        self.watchdog.as_ref().is_some_and(|w| w.fired)
    }
}

/// What one federate thread reports back.
type FederateReport = (FederateStats, BTreeMap<SigName, Vec<Value>>);

/// One federate, fully elaborated on the caller's thread (so every static
/// error surfaces before anything is spawned).
struct PreparedFederate {
    name: String,
    activations: usize,
    data_driven: bool,
    reactor: Reactor,
    env_steps: Vec<DenseEnv>,
    out_links: Vec<(SigId, FedSender)>,
    in_links: Vec<(SigId, FedReceiver)>,
}

/// Runs the program's components as federates on OS threads, coupled only
/// by bounded credit channels, under RTI coordination.
///
/// Every component of the program that appears in `federates` is run;
/// channels whose producer or consumer is not among the federates simply
/// never carry traffic (their endpoints are dropped before the start
/// barrier, which downstream data-driven federates observe as a retired
/// producer).
///
/// # Errors
///
/// Static errors (unknown component, a component named by two specs,
/// multi-consumer signal, an environment naming a signal the component does
/// not intern) surface before any thread is spawned. A reaction error
/// inside a federate raises the shutdown flag — draining the rest of the
/// federation — and is returned after every thread is joined.
pub fn run_federated(
    program: &Program,
    federates: Vec<FederateSpec>,
    options: &FederatedOptions,
) -> Result<FederatedRun, GalsError> {
    let chans = channels_of_program(program)?;

    // channel endpoints + coordinator-side monitors
    let mut senders: BTreeMap<SigName, FedSender> = BTreeMap::new();
    let mut receivers: BTreeMap<SigName, FedReceiver> = BTreeMap::new();
    let mut monitors: Vec<(SigName, ChannelMonitor)> = Vec::with_capacity(chans.len());
    for c in &chans {
        let capacity =
            options.capacities.get(&c.signal).copied().unwrap_or(options.default_capacity).max(1);
        let (tx, rx) = fed_channel(capacity);
        monitors.push((c.signal.clone(), tx.monitor()));
        senders.insert(c.signal.clone(), tx);
        receivers.insert(c.signal.clone(), rx);
    }

    // elaborate every federate before spawning anything
    let mut prepared: Vec<PreparedFederate> = Vec::with_capacity(federates.len());
    for spec in federates {
        if prepared.iter().any(|p| p.name == spec.name) {
            return Err(GalsError::DuplicateFederate { component: spec.name });
        }
        let comp = program
            .component(&spec.name)
            .ok_or_else(|| GalsError::UnknownSignal { signal: SigName::from(spec.name.as_str()) })?
            .clone();
        let reactor = Reactor::for_component(&comp)?;
        let out_links: Vec<(SigId, FedSender)> = comp
            .signals_with_role(Role::Output)
            .filter_map(|d| {
                let tx = senders.remove(&d.name)?;
                let id = reactor.sig_id(&d.name).expect("declared signal is interned");
                Some((id, tx))
            })
            .collect();
        let in_links: Vec<(SigId, FedReceiver)> = comp
            .signals_with_role(Role::Input)
            .filter_map(|d| {
                let rx = receivers.remove(&d.name)?;
                let id = reactor.sig_id(&d.name).expect("declared signal is interned");
                Some((id, rx))
            })
            .collect();
        let env_steps = reactor.dense_scenario(&spec.environment)?;
        prepared.push(PreparedFederate {
            name: spec.name,
            activations: spec.activations,
            data_driven: spec.data_driven,
            reactor,
            env_steps,
            out_links,
            in_links,
        });
    }
    // endpoints of channels no federate serves retire here, before the
    // start barrier: their peers observe a gone endpoint, never a hang
    drop(senders);
    drop(receivers);

    let record_flows = options.record_flows;
    let mut rti: Rti<Result<FederateReport, GalsError>> = Rti::new(prepared.len());
    let started = Instant::now();
    for fed in prepared {
        let name = fed.name.clone();
        rti.spawn(name, move |ctx| run_federate(fed, ctx, record_flows));
    }

    // stream occupancy samples while the federation runs, and (when the
    // watchdog is armed) check for a federation-wide permanent stall
    let mut samples = Vec::new();
    let mut watchdog = options.watchdog.map(|_| WatchdogReport::default());
    match options.watchdog {
        None => rti.wait_sampling(options.sample_every, || {
            samples.push(OccupancySample {
                at: started.elapsed(),
                occupancy: monitors.iter().map(|(n, m)| (n.clone(), m.occupancy())).collect(),
            });
        }),
        Some(check_every) => {
            let cadence = options.sample_every.map_or(check_every, |s| s.min(check_every));
            let report = watchdog.as_mut().expect("armed above");
            let mut next_sample = options.sample_every;
            let mut next_check = check_every;
            let mut last_traffic: Option<u64> = None;
            let mut stuck_streak = 0u32;
            rti.wait_sampling(Some(cadence), || {
                let now = started.elapsed();
                if let Some(due) = next_sample {
                    if now >= due {
                        next_sample = Some(due + options.sample_every.expect("set with due"));
                        samples.push(OccupancySample {
                            at: now,
                            occupancy: monitors
                                .iter()
                                .map(|(n, m)| (n.clone(), m.occupancy()))
                                .collect(),
                        });
                    }
                }
                if now < next_check || report.fired {
                    return;
                }
                next_check = now + check_every;
                // a deadlock reads as: every live federate blocked inside a
                // channel wait AND zero tokens moved since the last check —
                // sustained over two consecutive windows, so a federate
                // momentarily between a gone peer and its wakeup (a window
                // of one STALL_POLL slice) can never trip it
                let live = rti.live_count();
                let waiting: usize = monitors.iter().map(|(_, m)| m.waiting_ends()).sum();
                let traffic: u64 = monitors.iter().map(|(_, m)| m.traffic()).sum();
                let stuck = live > 0 && waiting >= live && last_traffic == Some(traffic);
                last_traffic = Some(traffic);
                stuck_streak = if stuck { stuck_streak + 1 } else { 0 };
                if stuck_streak >= 2 {
                    report.fired = true;
                    report.at = Some(now);
                    report.stalled = monitors
                        .iter()
                        .filter(|(_, m)| m.waiting_ends() > 0)
                        .map(|(n, _)| n.clone())
                        .collect();
                    rti.request_shutdown();
                }
            });
        }
    }

    let (results, teardown) = rti.join_all();
    let elapsed = started.elapsed();
    let mut run = FederatedRun { samples, watchdog, teardown, elapsed, ..FederatedRun::default() };
    for (name, m) in monitors {
        run.channels.insert(name, m.snapshot());
    }
    for (name, result) in results {
        let (stats, flows) = result?;
        run.federates.insert(name.clone(), stats);
        run.flows.insert(name, flows);
    }
    Ok(run)
}

/// The body of one federate thread: the dense activation loop.
fn run_federate(
    fed: PreparedFederate,
    ctx: FederateCtx,
    record_flows: bool,
) -> Result<FederateReport, GalsError> {
    let PreparedFederate { mut reactor, env_steps, out_links, in_links, .. } = fed;
    let n_sigs = reactor.signal_count();
    let data_driven = fed.data_driven && !in_links.is_empty();
    let mut recorder = record_flows.then(|| FlowRecorder::new(reactor.signal_names().to_vec()));
    let mut in_gone = vec![false; in_links.len()];
    let mut out_gone = vec![false; out_links.len()];
    let mut in_buf = DenseEnv::new(n_sigs);
    let mut stats = FederateStats { reactions: 0, compiled: reactor.is_compiled() };

    ctx.start();
    let result = (|| -> Result<(), GalsError> {
        'activations: for k in 0..fed.activations {
            if ctx.shutdown_requested() {
                break;
            }
            // load this activation's environment step with one slice copy
            match env_steps.get(k) {
                Some(step) => in_buf.assign_from(step),
                None => in_buf.reset(n_sigs),
            }
            if data_driven {
                // block per live in-link: one reaction per arriving input
                let mut any_value = false;
                for (i, (id, rx)) in in_links.iter().enumerate() {
                    if in_gone[i] {
                        continue;
                    }
                    match rx.recv(STALL_POLL, ctx.shutdown_flag()) {
                        RecvOutcome::Value(v) => {
                            in_buf.set(*id, v);
                            any_value = true;
                        }
                        RecvOutcome::ProducerGone => in_gone[i] = true,
                        RecvOutcome::Interrupted => break 'activations,
                    }
                }
                if !any_value {
                    // every upstream is retired and drained: nothing more
                    // will ever arrive, so the budget's remainder is moot
                    break;
                }
                if ctx.shutdown_requested() {
                    // teardown raced our blocking receives: a peer's dropped
                    // endpoint can surface as ProducerGone after the shutdown
                    // flag is up, and reacting to that partial delivery would
                    // report a spurious clock mismatch
                    break;
                }
            } else {
                for (id, rx) in &in_links {
                    if let Some(v) = rx.try_recv() {
                        in_buf.set(*id, v);
                    }
                }
            }
            let present = reactor.react_dense(&in_buf)?;
            stats.reactions += 1;
            if let Some(rec) = recorder.as_mut() {
                rec.record(present);
            }
            for (i, (id, tx)) in out_links.iter().enumerate() {
                if out_gone[i] {
                    continue;
                }
                let Some(value) = present.get(*id) else { continue };
                match tx.send(value, STALL_POLL, ctx.shutdown_flag()) {
                    SendOutcome::Sent => {}
                    SendOutcome::ConsumerGone => out_gone[i] = true,
                    SendOutcome::Interrupted => break 'activations,
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        // drain the federation: peers unblock at their next poll slice
        ctx.request_shutdown();
        return Err(e);
    }
    Ok((stats, recorder.map(FlowRecorder::into_named).unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;
    use polysig_sim::{PeriodicInputs, ScenarioGenerator};
    use polysig_tagged::ValueType;

    fn pipe() -> Program {
        parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x + 100; }",
        )
        .unwrap()
    }

    fn env(n: usize) -> Scenario {
        PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(n)
    }

    #[test]
    fn data_driven_chain_delivers_every_value_in_order() {
        let n = 200;
        let run = run_federated(
            &pipe(),
            vec![
                FederateSpec::new("P", n).with_environment(env(n)),
                // generous budget; data-driven retires when P is done
                FederateSpec::new("Q", 10 * n).data_driven(),
            ],
            &FederatedOptions::default().with_capacity("x", 4),
        )
        .unwrap();
        let sent = run.flow("P", &"x".into());
        let received = run.flow("Q", &"x".into());
        assert_eq!(sent.len(), n);
        // data-driven + credit backpressure: *exact* delivery, not a prefix
        assert_eq!(sent, received);
        let y = run.flow("Q", &"y".into());
        assert_eq!(y.len(), n);
        assert!(y.iter().zip(&sent).all(|(y, x)| y.as_int() == x.as_int().map(|v| v + 100)));
        // channel accounting agrees
        let x = &run.channels[&SigName::from("x")];
        assert_eq!((x.pushes, x.pops), (n as u64, n as u64));
        assert!(x.drained());
        assert!(x.max_occupancy <= 4, "capacity respected, got {}", x.max_occupancy);
        assert_eq!(run.teardown.spawned, 2);
        assert_eq!(run.teardown.joined, 2);
        // both federates compiled their plans (simple arithmetic cones)
        assert!(run.federates.values().all(|s| s.compiled));
    }

    #[test]
    fn capacity_one_is_fully_serialized_yet_lossless() {
        let n = 64;
        let run = run_federated(
            &pipe(),
            vec![
                FederateSpec::new("P", n).with_environment(env(n)),
                FederateSpec::new("Q", 10 * n).data_driven(),
            ],
            &FederatedOptions::default(), // default_capacity = 1
        )
        .unwrap();
        assert_eq!(run.flow("P", &"x".into()), run.flow("Q", &"x".into()));
        assert_eq!(run.channels[&SigName::from("x")].max_occupancy, 1);
    }

    #[test]
    fn soak_mode_streams_counters_without_recording() {
        let n = 500;
        let run = run_federated(
            &pipe(),
            vec![
                FederateSpec::new("P", n).with_environment(env(n)),
                FederateSpec::new("Q", 10 * n).data_driven(),
            ],
            &FederatedOptions::default().with_capacity("x", 8).soak(),
        )
        .unwrap();
        // no flows recorded...
        assert!(run.flows.values().all(BTreeMap::is_empty));
        // ...but the counters carry the whole story
        let x = &run.channels[&SigName::from("x")];
        assert_eq!((x.pushes, x.pops), (n as u64, n as u64));
        assert_eq!(run.federates["P"].reactions, n);
        assert_eq!(run.total_events(), n as u64);
    }

    #[test]
    fn zero_activation_consumer_retires_the_producer_without_deadlock() {
        let n = 50;
        let run = run_federated(
            &pipe(),
            vec![FederateSpec::new("P", n).with_environment(env(n)), FederateSpec::new("Q", 0)],
            &FederatedOptions::default().with_capacity("x", 2),
        )
        .unwrap();
        // P keeps reacting; its sends hit ConsumerGone and are discarded
        assert_eq!(run.federates["P"].reactions, n);
        assert_eq!(run.federates["Q"].reactions, 0);
        assert_eq!(run.teardown.joined, 2);
    }

    #[test]
    fn missing_consumer_federate_is_a_retired_endpoint_not_a_hang() {
        let n = 30;
        // Q is not federated at all: x's receiver drops before the barrier
        let run = run_federated(
            &pipe(),
            vec![FederateSpec::new("P", n).with_environment(env(n))],
            &FederatedOptions::default(),
        )
        .unwrap();
        assert_eq!(run.federates["P"].reactions, n);
    }

    #[test]
    fn reaction_error_drains_the_federation_and_surfaces() {
        // feed a bool into an int expression: the reaction errors mid-run
        let bad = Scenario::new()
            .on("a", Value::Int(1))
            .tick()
            .on("a", Value::Int(2))
            .tick()
            .on("a", Value::TRUE)
            .tick();
        let err = run_federated(
            &pipe(),
            vec![
                FederateSpec::new("P", 10).with_environment(bad),
                FederateSpec::new("Q", 1000).data_driven(),
            ],
            &FederatedOptions::default(),
        );
        assert!(err.is_err(), "the type error must surface");
    }

    #[test]
    fn sampling_streams_occupancy_during_the_run() {
        let n = 400;
        let run = run_federated(
            &pipe(),
            vec![
                FederateSpec::new("P", n).with_environment(env(n)),
                FederateSpec::new("Q", 10 * n).data_driven(),
            ],
            &FederatedOptions::default()
                .with_capacity("x", 4)
                .with_sampling(Duration::from_micros(200)),
        )
        .unwrap();
        assert!(!run.samples.is_empty(), "at least one sample lands");
        for s in &run.samples {
            assert!(s.occupancy.contains_key(&SigName::from("x")));
        }
    }

    #[test]
    fn watchdog_fires_on_an_all_data_driven_cycle() {
        // A and B both block receiving their cycle input before their first
        // reaction: no token ever enters the cycle, at any capacity
        let p = parse_program(
            "process A { input f: int; output x: int; x := f + 1; } \
             process B { input x: int; output f: int; f := pre 0 x; }",
        )
        .unwrap();
        let run = run_federated(
            &p,
            vec![
                FederateSpec::new("A", 100).data_driven(),
                FederateSpec::new("B", 100).data_driven(),
            ],
            &FederatedOptions::default()
                .with_capacity("x", 4)
                .with_capacity("f", 4)
                .with_watchdog(Duration::from_millis(20)),
        )
        .unwrap();
        assert!(run.deadlocked(), "the watchdog must declare the cycle dead");
        let report = run.watchdog.as_ref().unwrap();
        assert!(report.fired && report.at.is_some());
        // both cycle edges had a blocked endpoint at firing time
        assert!(report.stalled.contains(&SigName::from("f")), "{:?}", report.stalled);
        // the shutdown drained the federation: every thread joined, no
        // reaction ever fired
        assert_eq!(run.teardown.joined, 2);
        assert_eq!(run.total_reactions(), 0);
    }

    #[test]
    fn watchdog_stays_quiet_on_a_completing_run() {
        let n = 300;
        let run = run_federated(
            &pipe(),
            vec![
                FederateSpec::new("P", n).with_environment(env(n)),
                FederateSpec::new("Q", 10 * n).data_driven(),
            ],
            &FederatedOptions::default()
                .with_capacity("x", 2)
                .with_watchdog(Duration::from_millis(20)),
        )
        .unwrap();
        assert!(!run.deadlocked());
        let report = run.watchdog.as_ref().unwrap();
        assert!(!report.fired && report.at.is_none() && report.stalled.is_empty());
        // the run still delivered everything
        assert_eq!(run.flow("P", &"x".into()), run.flow("Q", &"x".into()));
    }

    #[test]
    fn duplicate_federate_fails_before_spawning() {
        let n = 20;
        let err = run_federated(
            &pipe(),
            vec![
                FederateSpec::new("P", n).with_environment(env(n)),
                FederateSpec::new("Q", 10 * n).data_driven(),
                FederateSpec::new("Q", 10 * n).data_driven(),
            ],
            &FederatedOptions::default(),
        )
        .expect_err("a component named twice must be rejected");
        assert_eq!(err, GalsError::DuplicateFederate { component: "Q".into() });
    }

    #[test]
    fn unknown_component_fails_before_spawning() {
        let err = run_federated(
            &pipe(),
            vec![FederateSpec::new("Nope", 1)],
            &FederatedOptions::default(),
        );
        assert!(err.is_err());
    }
}
