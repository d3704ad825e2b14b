//! The desynchronization transformation (Figure 3, Theorem 1).
//!
//! Given a program of synchronously composed components, every explicit
//! data dependency `P →x Q` is cut: the producer's `x` is renamed to
//! `x_in`, the consumer's to `x_out`, and a FIFO component (Section 5.1's
//! chain of one-place buffers) is inserted between them — exactly the
//! `(P[x_P/x] ∥ Q[x_Q/x]) ∥s nFifo_{x_P→x_Q}` network of Theorems 1 and 2.
//! After the cut the producer and consumer share no variables besides the
//! global master `tick`; their synchronization is carried solely by the
//! channel, so their clocks can be relaxed independently — the GALS model.
//!
//! The consumer's read requests (`x_rd`) become fresh *inputs* of the
//! transformed program: in the synchronous validation model the
//! environment supplies each component's local activation pattern, which is
//! how the paper models unknown relative clock rates inside one synchronous
//! framework.

use std::collections::BTreeMap;

use polysig_lang::{Component, Program};
use polysig_tagged::hash::FxHashMap;
use polysig_tagged::SigName;

use crate::error::GalsError;
use crate::instrument::monitor_component;
use crate::nfifo::{fifo_port, nfifo_component, FifoPort};
use crate::partition::{channels_of_program, ChannelSpec};

/// Options for [`desynchronize`].
#[derive(Debug, Clone)]
pub struct DesyncOptions {
    /// Buffer depth per channel; channels not listed use
    /// [`DesyncOptions::default_size`].
    pub sizes: BTreeMap<SigName, usize>,
    /// Depth for channels without an explicit entry.
    pub default_size: usize,
    /// Also insert the Figure-4 monitor (miss counter + max register) per
    /// channel.
    pub instrument: bool,
    /// Reject components classified [`NonDeterministic`] by the endochrony
    /// analysis (`true` by default) — the precondition Theorem 1 needs
    /// before desynchronization preserves flows. Opt out with
    /// [`DesyncOptions::lenient`] to transform such programs anyway, e.g.
    /// when flows are validated dynamically afterwards.
    ///
    /// [`NonDeterministic`]: polysig_lang::Endochrony::NonDeterministic
    pub enforce_endochrony: bool,
}

impl Default for DesyncOptions {
    fn default() -> Self {
        DesyncOptions {
            sizes: BTreeMap::new(),
            default_size: 1,
            instrument: false,
            enforce_endochrony: true,
        }
    }
}

impl DesyncOptions {
    /// Uniform buffer depth, no instrumentation.
    pub fn with_size(n: usize) -> Self {
        DesyncOptions { default_size: n, ..DesyncOptions::default() }
    }

    /// Enables the Figure-4 instrumentation.
    #[must_use]
    pub fn instrumented(mut self) -> Self {
        self.instrument = true;
        self
    }

    /// Sets the depth of one channel.
    #[must_use]
    pub fn size_of(mut self, signal: impl Into<SigName>, n: usize) -> Self {
        self.sizes.insert(signal.into(), n);
        self
    }

    /// Disables the endochrony gate: non-deterministic components are
    /// transformed without complaint.
    #[must_use]
    pub fn lenient(mut self) -> Self {
        self.enforce_endochrony = false;
        self
    }
}

/// One inserted channel: the original dependency plus the generated signal
/// names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelInstance {
    /// The original dependency.
    pub spec: ChannelSpec,
    /// Buffer depth used.
    pub size: usize,
    /// The producer-side signal (`x_P` of Theorem 1).
    pub in_signal: SigName,
    /// The consumer-side signal (`x_Q`).
    pub out_signal: SigName,
    /// The fresh read-request input.
    pub rd_signal: SigName,
    /// The alarm output (true = rejected write).
    pub alarm_signal: SigName,
    /// The ok output (true = accepted write).
    pub ok_signal: SigName,
    /// The occupancy output.
    pub count_signal: SigName,
    /// The stage-1-occupied output (the clock-masking indicator).
    pub full_signal: SigName,
    /// The max-consecutive-miss register (present iff instrumented).
    pub maxmiss_signal: Option<SigName>,
}

/// A desynchronized program: the transformed network plus channel metadata.
#[derive(Debug, Clone)]
pub struct Desynchronized {
    /// The transformed program: renamed components + FIFO components
    /// (+ monitors when instrumented).
    pub program: Program,
    /// One entry per cut dependency.
    pub channels: Vec<ChannelInstance>,
}

impl Desynchronized {
    /// Finds a channel by its original signal name.
    pub fn channel(&self, signal: &SigName) -> Option<&ChannelInstance> {
        self.channels.iter().find(|c| &c.spec.signal == signal)
    }

    /// Builds the channel-driving half of an environment: the master `tick`
    /// at every instant and every channel's read request every
    /// `read_period` instants. Zip it with the producer inputs:
    ///
    /// ```
    /// use polysig_gals::{desynchronize, DesyncOptions};
    /// use polysig_lang::parse_program;
    /// use polysig_sim::{PeriodicInputs, ScenarioGenerator};
    /// use polysig_tagged::ValueType;
    ///
    /// let p = parse_program(
    ///     "process P { input a: int; output x: int; x := a; } \
    ///      process Q { input x: int; output y: int; y := x; }",
    /// )?;
    /// let d = desynchronize(&p, &DesyncOptions::with_size(2))?;
    /// let env = PeriodicInputs::new("a", ValueType::Int, 2, 0)
    ///     .generate(16)
    ///     .zip_union(&d.driver_scenario(16, 2));
    /// assert_eq!(env.len(), 16);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn driver_scenario(&self, steps: usize, read_period: usize) -> polysig_sim::Scenario {
        use polysig_sim::{generator::master_clock, PeriodicInputs, ScenarioGenerator};
        let mut s = master_clock("tick", steps);
        for ch in &self.channels {
            s = s.zip_union(
                &PeriodicInputs::new(
                    ch.rd_signal.clone(),
                    polysig_tagged::ValueType::Bool,
                    read_period,
                    0,
                )
                .generate(steps),
            );
        }
        s
    }
}

/// Applies the desynchronization transformation to every cross-component
/// dependency of `program`.
///
/// # Errors
///
/// * anything [`channels_of_program`] rejects (unresolved program,
///   multi-consumer signals);
/// * [`GalsError::UnknownChannel`] if `options.sizes` names a signal that is
///   not a cross-component dependency;
/// * [`GalsError::NonEndochronous`] if a component has several independent
///   master clocks (Theorem 1's determinism precondition) and
///   [`DesyncOptions::enforce_endochrony`] is set (the default).
///
/// ```
/// use polysig_gals::{desynchronize, DesyncOptions};
/// use polysig_lang::parse_program;
///
/// let p = parse_program(
///     "process P { input a: int; output x: int; x := a + 1; } \
///      process Q { input x: int; output y: int; y := x * 2; }",
/// )?;
/// let d = desynchronize(&p, &DesyncOptions::with_size(2))?;
/// assert_eq!(d.channels.len(), 1);
/// assert_eq!(d.program.components.len(), 3); // P', Q', Fifo_x
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn desynchronize(
    program: &Program,
    options: &DesyncOptions,
) -> Result<Desynchronized, GalsError> {
    if options.enforce_endochrony {
        for c in &program.components {
            if let polysig_lang::Endochrony::NonDeterministic { masters } =
                polysig_lang::classify_endochrony(c)
            {
                return Err(GalsError::NonEndochronous { component: c.name.clone(), masters });
            }
        }
    }
    DesyncCache::new(program, options.instrument)?.build(&options.sizes, options.default_size)
}

/// Builds desynchronized programs for many size maps without re-deriving
/// the shared skeleton.
///
/// [`desynchronize`] derives the channel specs, renames the producer and
/// consumer components and fabricates every FIFO (and monitor) on each
/// call. The Section-5.2 estimation loop calls it once per round with only
/// the FIFO depths changed, so the cache splits the work: the *skeleton* —
/// specs, renamed components, monitors, channel signal names — is derived
/// once at construction. Each round's components are lent out of the
/// cache by reference, fabricating a FIFO component only for `(channel,
/// depth)` pairs never seen before; [`DesyncCache::build`] clones them
/// into a [`Desynchronized`] program.
///
/// `build` produces exactly what [`desynchronize`] produces for the same
/// options ([`desynchronize`] is itself a one-shot cache).
///
/// ```
/// use polysig_gals::{desynchronize, DesyncCache, DesyncOptions};
/// use polysig_lang::parse_program;
///
/// let p = parse_program(
///     "process P { input a: int; output x: int; x := a + 1; } \
///      process Q { input x: int; output y: int; y := x * 2; }",
/// )?;
/// let mut cache = DesyncCache::new(&p, false)?;
/// let d2 = cache.build(&[("x".into(), 2)].into(), 1)?;
/// let d3 = cache.build(&[("x".into(), 3)].into(), 1)?;
/// assert_eq!(d2.program, desynchronize(&p, &DesyncOptions::with_size(2))?.program);
/// assert_eq!(d3.channels[0].size, 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DesyncCache {
    /// The transformed program's name (`<original>_gals`).
    name: String,
    /// Renamed original components, in original order.
    skeleton: Vec<Component>,
    /// Channel metadata with the generated signal names; the `size` field
    /// is a placeholder filled in per build.
    pub(crate) channels: Vec<ChannelInstance>,
    /// Insert the Figure-4 monitors?
    instrument: bool,
    /// One monitor per channel (empty when not instrumenting).
    monitors: Vec<Component>,
    /// Memoized FIFO components keyed by `(channel index, depth)`.
    fifos: FxHashMap<(usize, usize), Component>,
}

impl DesyncCache {
    /// Derives the skeleton: channel specs, renamed producer/consumer
    /// components and (when `instrument` is set) the per-channel monitors.
    ///
    /// # Errors
    ///
    /// Anything [`channels_of_program`] rejects (unresolved program,
    /// multi-consumer signals).
    pub fn new(program: &Program, instrument: bool) -> Result<DesyncCache, GalsError> {
        let specs = channels_of_program(program)?;
        let mut components: BTreeMap<String, Component> =
            program.components.iter().map(|c| (c.name.clone(), c.clone())).collect();
        let mut channels = Vec::new();

        for spec in specs {
            let port = |p: FifoPort| fifo_port(spec.signal.as_str(), p);
            let (in_signal, out_signal) = (port(FifoPort::In), port(FifoPort::Out));

            // rename producer's output x → x_in, consumer's input x → x_out
            let producer = components
                .get(&spec.producer)
                .expect("producer exists by construction")
                .rename_signal(&spec.signal, &in_signal);
            components.insert(spec.producer.clone(), producer);
            let consumer = components
                .get(&spec.consumer)
                .expect("consumer exists by construction")
                .rename_signal(&spec.signal, &out_signal);
            components.insert(spec.consumer.clone(), consumer);

            channels.push(ChannelInstance {
                rd_signal: port(FifoPort::Rd),
                alarm_signal: port(FifoPort::Alarm),
                ok_signal: port(FifoPort::Ok),
                count_signal: port(FifoPort::Count),
                full_signal: port(FifoPort::Full),
                maxmiss_signal: instrument.then(|| port(FifoPort::MaxMiss)),
                spec,
                size: 0, // placeholder; every build fills it in
                in_signal,
                out_signal,
            });
        }

        let skeleton: Vec<Component> = program
            .components
            .iter()
            .map(|c| components.remove(&c.name).expect("component preserved"))
            .collect();
        let monitors: Vec<Component> = if instrument {
            channels.iter().map(|ch| monitor_component(ch.spec.signal.as_str())).collect()
        } else {
            Vec::new()
        };

        Ok(DesyncCache {
            name: format!("{}_gals", program.name),
            skeleton,
            channels,
            instrument,
            monitors,
            fifos: FxHashMap::default(),
        })
    }

    /// The original signal of every channel, in channel order.
    pub fn signals(&self) -> impl Iterator<Item = &SigName> {
        self.channels.iter().map(|c| &c.spec.signal)
    }

    /// The desynchronized program's components for one size map (channels
    /// not in `sizes` use `default_size`), borrowed from the cache in
    /// program order: the skeleton, then each channel's FIFO and, when
    /// instrumenting, its monitor.
    ///
    /// # Errors
    ///
    /// [`GalsError::UnknownChannel`] if `sizes` names a signal that is not
    /// a cut dependency.
    pub(crate) fn components(
        &mut self,
        sizes: &BTreeMap<SigName, usize>,
        default_size: usize,
    ) -> Result<Vec<&Component>, GalsError> {
        for named in sizes.keys() {
            if !self.channels.iter().any(|c| &c.spec.signal == named) {
                return Err(GalsError::UnknownChannel { signal: named.clone() });
            }
        }
        let depth =
            |ch: &ChannelInstance| sizes.get(&ch.spec.signal).copied().unwrap_or(default_size);
        for (i, ch) in self.channels.iter().enumerate() {
            let size = depth(ch);
            self.fifos
                .entry((i, size))
                .or_insert_with(|| nfifo_component(ch.spec.signal.as_str(), size));
        }
        let mut out: Vec<&Component> = self.skeleton.iter().collect();
        for (i, ch) in self.channels.iter().enumerate() {
            out.push(&self.fifos[&(i, depth(ch))]);
            if self.instrument {
                out.push(&self.monitors[i]);
            }
        }
        Ok(out)
    }

    /// Assembles the desynchronized program for one size map (channels not
    /// in `sizes` use `default_size`).
    ///
    /// # Errors
    ///
    /// [`GalsError::UnknownChannel`] if `sizes` names a signal that is not
    /// a cut dependency.
    pub fn build(
        &mut self,
        sizes: &BTreeMap<SigName, usize>,
        default_size: usize,
    ) -> Result<Desynchronized, GalsError> {
        let components = self.components(sizes, default_size)?.into_iter().cloned().collect();
        let channels = self
            .channels
            .iter()
            .map(|ch| ChannelInstance {
                size: sizes.get(&ch.spec.signal).copied().unwrap_or(default_size),
                ..ch.clone()
            })
            .collect();
        Ok(Desynchronized { program: Program { name: self.name.clone(), components }, channels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::{parse_program, Role};

    fn sample() -> Program {
        parse_program(
            "process P { input a: int; output x: int; x := a + 1; } \
             process Q { input x: int; output y: int; y := x * 2; }",
        )
        .unwrap()
    }

    #[test]
    fn produces_theorem1_network_structure() {
        let d = desynchronize(&sample(), &DesyncOptions::with_size(2)).unwrap();
        assert_eq!(d.program.components.len(), 3);

        let p = d.program.component("P").unwrap();
        let q = d.program.component("Q").unwrap();
        // producer and consumer no longer share x…
        let shared = d.program.shared_signals("P", "Q");
        assert!(shared.is_empty(), "P' and Q' must be variable-disjoint, got {shared:?}");
        // …they talk only through the FIFO
        assert!(p.decl(&"x_in".into()).is_some_and(|dd| dd.role == Role::Output));
        assert!(q.decl(&"x_out".into()).is_some_and(|dd| dd.role == Role::Input));
        let fifo = d.program.component("Fifo_x").unwrap();
        assert!(fifo.decl(&"x_in".into()).is_some_and(|dd| dd.role == Role::Input));
        assert!(fifo.decl(&"x_out".into()).is_some_and(|dd| dd.role == Role::Output));
    }

    #[test]
    fn transformed_program_still_resolves() {
        let d = desynchronize(&sample(), &DesyncOptions::with_size(1)).unwrap();
        assert!(polysig_lang::resolve::resolve_program(&d.program).is_ok());
        assert!(polysig_lang::types::check_program(&d.program).is_ok());
    }

    #[test]
    fn read_requests_become_external_inputs() {
        let d = desynchronize(&sample(), &DesyncOptions::default()).unwrap();
        let inputs = d.program.external_inputs();
        assert!(inputs.contains("x_rd"));
        assert!(inputs.contains("a"));
        assert!(inputs.contains("tick"));
    }

    #[test]
    fn instrumentation_adds_monitor() {
        let d = desynchronize(&sample(), &DesyncOptions::with_size(1).instrumented()).unwrap();
        assert_eq!(d.program.components.len(), 4);
        assert!(d.program.component("Monitor_x").is_some());
        assert_eq!(d.channels[0].maxmiss_signal.as_ref().map(|s| s.as_str()), Some("x_maxmiss"));
        assert!(polysig_lang::resolve::resolve_program(&d.program).is_ok());
    }

    #[test]
    fn per_channel_sizes_and_lookup() {
        let d = desynchronize(&sample(), &DesyncOptions::default().size_of("x", 5)).unwrap();
        let ch = d.channel(&"x".into()).unwrap();
        assert_eq!(ch.size, 5);
        assert_eq!(ch.rd_signal.as_str(), "x_rd");
        assert!(d.channel(&"nope".into()).is_none());
    }

    #[test]
    fn unknown_channel_in_options_rejected() {
        let err =
            desynchronize(&sample(), &DesyncOptions::default().size_of("ghost", 2)).unwrap_err();
        assert!(matches!(err, GalsError::UnknownChannel { .. }));
    }

    #[test]
    fn cache_builds_match_fresh_desynchronize_exactly() {
        let p = parse_program(
            "process A { input a: int; output x: int; x := a; } \
             process B { input x: int; output y: int; y := x + 1; } \
             process C { input y: int; output z: int; z := y * 2; }",
        )
        .unwrap();
        let mut cache = DesyncCache::new(&p, true).unwrap();
        // several rounds with changing sizes, including a repeat that hits
        // the FIFO memo
        for sizes in [vec![("x", 1), ("y", 1)], vec![("x", 3), ("y", 1)], vec![("x", 3), ("y", 2)]]
        {
            let map: BTreeMap<SigName, usize> =
                sizes.iter().map(|(s, n)| (SigName::from(*s), *n)).collect();
            let opts = DesyncOptions { sizes: map.clone(), instrument: true, ..Default::default() };
            let fresh = desynchronize(&p, &opts).unwrap();
            let cached = cache.build(&map, 1).unwrap();
            assert_eq!(cached.program, fresh.program);
            assert_eq!(cached.channels, fresh.channels);
        }
    }

    #[test]
    fn chain_of_three_components_gets_two_fifos() {
        let p = parse_program(
            "process A { input a: int; output x: int; x := a; } \
             process B { input x: int; output y: int; y := x + 1; } \
             process C { input y: int; output z: int; z := y * 2; }",
        )
        .unwrap();
        let d = desynchronize(&p, &DesyncOptions::with_size(1)).unwrap();
        assert_eq!(d.channels.len(), 2);
        assert_eq!(d.program.components.len(), 5);
        assert!(d.program.component("Fifo_x").is_some());
        assert!(d.program.component("Fifo_y").is_some());
    }
}
