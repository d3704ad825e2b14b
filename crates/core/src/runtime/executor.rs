//! Deterministic single-threaded GALS executor.
//!
//! Runs each component of a program as its own [`polysig_sim::Reactor`] on
//! its own [`ClockModel`], coupled only by [`RuntimeChannel`]s over the
//! program's cross-component dependencies. Global time is a discrete
//! reference axis (the paper's tag set); components listed earlier in the
//! program react first within one instant, so a value produced at instant
//! `t` is visible to a consumer activating at the same `t` — matching the
//! same-instant handover the synchronous model allows.

use std::collections::BTreeMap;

use polysig_lang::{Program, Role};
use polysig_sim::{DenseEnv, Reactor, Scenario};
use polysig_tagged::{Behavior, SigId, SigName, Tag, Value};

use crate::error::GalsError;
use crate::partition::channels_of_program;
use crate::policy::ChannelPolicy;
use crate::runtime::channel::{ChannelStats, PushOutcome, RuntimeChannel};
use crate::runtime::clock::ClockModel;

/// Per-component configuration for the executor.
#[derive(Debug, Clone)]
pub struct ComponentSpec {
    /// The component's name in the program.
    pub name: String,
    /// Its local clock.
    pub clock: ClockModel,
    /// Inputs driven by this component's own environment, indexed by
    /// *activation count* (not global time): the k-th entry of the scenario
    /// feeds the component's k-th activation.
    pub environment: Scenario,
}

impl ComponentSpec {
    /// A component on a periodic clock with no local environment inputs.
    pub fn periodic(name: impl Into<String>, period: u64) -> Self {
        ComponentSpec {
            name: name.into(),
            clock: ClockModel::periodic(period),
            environment: Scenario::new(),
        }
    }

    /// Sets the local environment scenario.
    #[must_use]
    pub fn with_environment(mut self, environment: Scenario) -> Self {
        self.environment = environment;
        self
    }

    /// Sets the clock model.
    #[must_use]
    pub fn with_clock(mut self, clock: ClockModel) -> Self {
        self.clock = clock;
        self
    }
}

/// The observable outcome of a GALS execution.
#[derive(Debug, Clone)]
pub struct GalsRun {
    /// Per component: the behavior over its signals on the global time
    /// axis.
    pub behaviors: BTreeMap<String, Behavior>,
    /// Per channel signal: traffic statistics.
    pub channel_stats: BTreeMap<SigName, ChannelStats>,
    /// Activations that were masked by the blocking policy, per component.
    pub masked: BTreeMap<String, usize>,
    /// Per channel signal: queue occupancy sampled after every global
    /// instant — the series the estimation experiments plot.
    pub occupancy: BTreeMap<SigName, Vec<usize>>,
    /// Global instants executed.
    pub horizon: u64,
}

impl GalsRun {
    /// The flow a component produced on one of its signals.
    pub fn flow(&self, component: &str, signal: &SigName) -> Vec<Value> {
        self.behaviors
            .get(component)
            .and_then(|b| b.trace(signal))
            .map(|t| t.values())
            .unwrap_or_default()
    }
}

/// One component's runtime state: its reactor plus channel endpoints
/// resolved, at build time, to `(local SigId, channel index)` pairs — the
/// per-instant exchange loop never looks anything up by name.
#[derive(Debug)]
struct ComponentState {
    spec: ComponentSpec,
    reactor: Reactor,
    /// Channel-fed inputs: reactor-local id ← channel index.
    in_links: Vec<(SigId, usize)>,
    /// Channel-fed outputs: reactor-local id → channel index.
    out_links: Vec<(SigId, usize)>,
}

/// The single-threaded GALS executor.
#[derive(Debug)]
pub struct GalsExecutor {
    components: Vec<ComponentState>,
    /// Channels addressed by index; names live on the channels themselves
    /// and are only consulted when reports are assembled.
    channels: Vec<RuntimeChannel>,
}

impl GalsExecutor {
    /// Builds an executor for `program`: one reactor per component, one
    /// channel per cross-component dependency (capacity per
    /// `capacities`, default 1 for bounded policies).
    ///
    /// # Errors
    ///
    /// Surfaces language errors and the single-consumer restriction;
    /// every component of the program must have a spec.
    pub fn new(
        program: &Program,
        specs: Vec<ComponentSpec>,
        policy: ChannelPolicy,
        capacities: &BTreeMap<SigName, usize>,
    ) -> Result<GalsExecutor, GalsError> {
        let chans = channels_of_program(program)?;
        let mut channels: Vec<RuntimeChannel> = Vec::with_capacity(chans.len());
        let mut channel_index: BTreeMap<SigName, usize> = BTreeMap::new();
        for c in &chans {
            let cap = capacities.get(&c.signal).copied().unwrap_or(1);
            channel_index.insert(c.signal.clone(), channels.len());
            channels.push(RuntimeChannel::new(c.signal.clone(), Some(cap), policy));
        }

        let mut components = Vec::new();
        for spec in specs {
            let comp = program.component(&spec.name).ok_or_else(|| GalsError::UnknownSignal {
                signal: SigName::from(spec.name.as_str()),
            })?;
            let reactor = Reactor::for_component(comp)?;
            // resolve channel endpoints to (local id, channel index) once
            let resolve = |role: Role| -> Vec<(SigId, usize)> {
                comp.signals_with_role(role)
                    .filter_map(|d| {
                        let ci = *channel_index.get(&d.name)?;
                        let id = reactor.sig_id(&d.name).expect("declared signal is interned");
                        Some((id, ci))
                    })
                    .collect()
            };
            let in_links = resolve(Role::Input);
            let out_links = resolve(Role::Output);
            components.push(ComponentState { spec, reactor, in_links, out_links });
        }
        Ok(GalsExecutor { components, channels })
    }

    /// Runs the system for `horizon` global instants.
    ///
    /// # Errors
    ///
    /// Surfaces reaction errors of any component.
    pub fn run(&mut self, horizon: u64) -> Result<GalsRun, GalsError> {
        // precompute activation sets, dense environment steps and name
        // tables; reset counters — all boundary work, once per run
        let mut activation_sets: Vec<Vec<u64>> = Vec::new();
        let mut env_steps: Vec<Vec<DenseEnv>> = Vec::new();
        let mut name_tables: Vec<Vec<SigName>> = Vec::new();
        for c in &mut self.components {
            activation_sets.push(c.spec.clock.activations(horizon));
            c.reactor.reset();
            env_steps.push(c.reactor.dense_scenario(&c.spec.environment)?);
            name_tables.push(c.reactor.signal_names().to_vec());
        }
        let mut activation_index = vec![0usize; self.components.len()];
        let mut behaviors: BTreeMap<String, Behavior> = self
            .components
            .iter()
            .map(|c| {
                let mut b = Behavior::new();
                for n in c.reactor.signal_names() {
                    b.declare(n.clone());
                }
                (c.spec.name.clone(), b)
            })
            .collect();
        let mut masked_counts = vec![0usize; self.components.len()];
        let mut occupancy_series: Vec<Vec<usize>> =
            self.channels.iter().map(|_| Vec::with_capacity(horizon as usize)).collect();
        let mut in_buf = DenseEnv::default();

        for t in 0..horizon {
            for (k, c) in self.components.iter_mut().enumerate() {
                // an activation masked at its scheduled instant stays due
                // until it can fire (the producer's clock is stretched, in
                // the paper's terms — not skipped)
                let due = activation_sets[k].get(activation_index[k]).is_some_and(|&at| at <= t);
                if !due {
                    continue;
                }
                // blocking policy: mask the activation when any outbound
                // channel is full (Section 5.2's clock masking)
                let blocked = c.out_links.iter().any(|&(_, ci)| {
                    let ch = &self.channels[ci];
                    ch.policy() == ChannelPolicy::Blocking && ch.is_full()
                });
                if blocked {
                    masked_counts[k] += 1;
                    // the activation is deferred, not skipped: local inputs
                    // stay aligned with activation count
                    continue;
                }
                let idx = activation_index[k];
                activation_index[k] += 1;

                // assemble inputs: local environment + one value per
                // non-empty inbound channel
                in_buf.reset(c.reactor.signal_count());
                if let Some(step) = env_steps[k].get(idx) {
                    for (id, v) in step.iter() {
                        in_buf.set(id, v);
                    }
                }
                for &(id, ci) in &c.in_links {
                    if let Some(v) = self.channels[ci].pop() {
                        in_buf.set(id, v);
                    }
                }

                let present = c.reactor.react_dense(&in_buf)?;
                let behavior = behaviors.get_mut(&c.spec.name).expect("seeded");
                let names = &name_tables[k];
                for (id, value) in present.iter() {
                    behavior.push_event(names[id.index()].clone(), Tag::new(t + 1), value);
                }
                // route outputs into outbound channels
                for &(id, ci) in &c.out_links {
                    if let Some(v) = present.get(id) {
                        let outcome = self.channels[ci].push(v);
                        debug_assert!(
                            outcome != PushOutcome::WouldBlock,
                            "blocking mask should have prevented this push"
                        );
                    }
                }
            }

            for (ci, ch) in self.channels.iter().enumerate() {
                occupancy_series[ci].push(ch.occupancy());
            }
        }

        let masked = self
            .components
            .iter()
            .zip(&masked_counts)
            .map(|(c, &m)| (c.spec.name.clone(), m))
            .collect();
        let occupancy = self
            .channels
            .iter()
            .zip(occupancy_series)
            .map(|(ch, series)| (ch.name().clone(), series))
            .collect();
        Ok(GalsRun {
            behaviors,
            channel_stats: self.channels.iter().map(|ch| (ch.name().clone(), ch.stats())).collect(),
            masked,
            occupancy,
            horizon,
        })
    }
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
             process Q { input x: int; output y: int; y := x; }",
        )
        .unwrap()
    }

    fn producer_env(n: usize) -> Scenario {
        PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(n)
    }

    #[test]
    fn matched_clocks_deliver_every_value() {
        let mut ex = GalsExecutor::new(
            &pipe(),
            vec![
                ComponentSpec::periodic("P", 2).with_environment(producer_env(10)),
                ComponentSpec::periodic("Q", 2)
                    .with_clock(ClockModel::Periodic { period: 2, phase: 1 }),
            ],
            ChannelPolicy::Lossy,
            &BTreeMap::new(),
        )
        .unwrap();
        let run = ex.run(20).unwrap();
        let sent = run.flow("P", &"x".into());
        let received = run.flow("Q", &"x".into());
        assert_eq!(sent.len(), 10);
        assert_eq!(received, sent);
        assert_eq!(run.channel_stats[&SigName::from("x")].drops, 0);
    }

    #[test]
    fn slow_consumer_with_lossy_channel_drops_in_order() {
        // producer every tick, consumer every 3 ticks, capacity 1
        let mut ex = GalsExecutor::new(
            &pipe(),
            vec![
                ComponentSpec::periodic("P", 1).with_environment(producer_env(30)),
                ComponentSpec::periodic("Q", 3),
            ],
            ChannelPolicy::Lossy,
            &BTreeMap::new(),
        )
        .unwrap();
        let run = ex.run(30).unwrap();
        let stats = run.channel_stats[&SigName::from("x")];
        assert!(stats.drops > 0);
        // received values are a subsequence of sent values (order kept)
        let sent = run.flow("P", &"x".into());
        let received = run.flow("Q", &"x".into());
        let mut it = sent.iter();
        for r in &received {
            assert!(it.any(|s| s == r), "received {r} out of order");
        }
    }

    #[test]
    fn blocking_policy_is_lossless() {
        let mut ex = GalsExecutor::new(
            &pipe(),
            vec![
                ComponentSpec::periodic("P", 1).with_environment(producer_env(30)),
                ComponentSpec::periodic("Q", 3),
            ],
            ChannelPolicy::Blocking,
            &BTreeMap::new(),
        )
        .unwrap();
        let run = ex.run(30).unwrap();
        let stats = run.channel_stats[&SigName::from("x")];
        assert_eq!(stats.drops, 0);
        assert!(run.masked["P"] > 0, "producer should have been masked");
        // everything received is a prefix of everything sent
        let sent = run.flow("P", &"x".into());
        let received = run.flow("Q", &"x".into());
        assert_eq!(&sent[..received.len()], received.as_slice());
        // the producer is throttled to the consumer's rate, not stalled
        // forever: the consumer activates 10 times over 30 instants
        assert!(received.len() >= 8, "consumer should keep draining, got {}", received.len());
    }

    #[test]
    fn unbounded_policy_never_loses_nor_masks() {
        let mut ex = GalsExecutor::new(
            &pipe(),
            vec![
                ComponentSpec::periodic("P", 1).with_environment(producer_env(24)),
                ComponentSpec::periodic("Q", 4),
            ],
            ChannelPolicy::Unbounded,
            &BTreeMap::new(),
        )
        .unwrap();
        let run = ex.run(24).unwrap();
        let stats = run.channel_stats[&SigName::from("x")];
        assert_eq!(stats.drops, 0);
        assert_eq!(run.masked["P"], 0);
        assert!(stats.max_occupancy > 1);
        let sent = run.flow("P", &"x".into());
        let received = run.flow("Q", &"x".into());
        assert_eq!(&sent[..received.len()], received.as_slice());
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let mut caps = BTreeMap::new();
        caps.insert(SigName::from("x"), 3);
        let mut ex = GalsExecutor::new(
            &pipe(),
            vec![
                ComponentSpec::periodic("P", 1).with_environment(producer_env(40)),
                ComponentSpec::periodic("Q", 2),
            ],
            ChannelPolicy::Lossy,
            &caps,
        )
        .unwrap();
        let run = ex.run(40).unwrap();
        assert!(run.channel_stats[&SigName::from("x")].max_occupancy <= 3);
    }

    #[test]
    fn jittered_clocks_still_preserve_flow_order() {
        let mut ex = GalsExecutor::new(
            &pipe(),
            vec![
                ComponentSpec::periodic("P", 2)
                    .with_environment(producer_env(20))
                    .with_clock(ClockModel::Jittered { period: 2, jitter: 1, seed: 9 }),
                ComponentSpec::periodic("Q", 2).with_clock(ClockModel::Jittered {
                    period: 2,
                    jitter: 1,
                    seed: 10,
                }),
            ],
            ChannelPolicy::Unbounded,
            &BTreeMap::new(),
        )
        .unwrap();
        let run = ex.run(40).unwrap();
        let sent = run.flow("P", &"x".into());
        let received = run.flow("Q", &"x".into());
        assert!(!received.is_empty());
        assert_eq!(&sent[..received.len()], received.as_slice());
    }

    #[test]
    fn occupancy_series_tracks_queue_growth() {
        let mut ex = GalsExecutor::new(
            &pipe(),
            vec![
                ComponentSpec::periodic("P", 1).with_environment(producer_env(12)),
                ComponentSpec::periodic("Q", 4),
            ],
            ChannelPolicy::Unbounded,
            &BTreeMap::new(),
        )
        .unwrap();
        let run = ex.run(12).unwrap();
        let series = &run.occupancy[&SigName::from("x")];
        assert_eq!(series.len(), 12);
        // producer 4× faster: occupancy trends upward
        assert!(series.last().unwrap() > series.first().unwrap());
        // the peak matches the recorded max statistic
        assert_eq!(
            *series.iter().max().unwrap(),
            run.channel_stats[&SigName::from("x")].max_occupancy
        );
    }

    #[test]
    fn unknown_component_rejected() {
        let err = GalsExecutor::new(
            &pipe(),
            vec![ComponentSpec::periodic("Ghost", 1)],
            ChannelPolicy::Lossy,
            &BTreeMap::new(),
        )
        .unwrap_err();
        assert!(matches!(err, GalsError::UnknownSignal { .. }));
    }
}
