//! # `polysig-analyze` — static analysis for GALS designs
//!
//! A whole-program static pass over resolved Signal programs, establishing
//! *before any simulation* the properties the rest of the pipeline
//! otherwise discovers dynamically:
//!
//! * **endochrony** ([`endochrony`], `PA001`/`PA002`) — Theorem 1's silent
//!   precondition: each component's reactions must be determined by its
//!   input flows for desynchronization to preserve them;
//! * **causality** ([`causality`], `PA003`) — instantaneous dependency
//!   cycles across the channel edges a desynchronization would cut, which
//!   deadlock the blocking `∥→,a` composition;
//! * **rate bounds** ([`rates`], `PA004`/`PA005`) — per-channel FIFO depths
//!   proven by replaying the ripple FIFO and the simulate-and-grow loop
//!   abstractly against a scenario, feeding
//!   `EstimationOptions::proven` so the dynamic loop skips the rounds the
//!   proof already covers;
//! * **channel discipline** (`PA006`) — the paper's
//!   single-producer/single-consumer restriction;
//! * **static schedulability** (`PA007`) — an informational note per
//!   component: whether it lowers to a compiled static schedule, and at
//!   how many ops (endochronous components always do; the rest run on the
//!   micro-step interpreter);
//! * **federated deadlock risk** ([`federated`], `PA008`) — whether a
//!   deployment of the components onto federate threads coupled by bounded
//!   credit channels can reach a configuration where every live federate
//!   blocks inside a channel wait; deadlock-free topologies get the proof
//!   argument recorded in the report's [`DeploymentReport`];
//! * **channel capacity audit** ([`federated`], `PA009`) — explicitly
//!   configured channel capacities sitting below the statically proven
//!   FIFO depth ([`StaticBounds::minimal_safe_capacities`]), which stall
//!   the producer on every backlog peak;
//! * **dead signals** ([`dead`], `PA010`) — equations whose value never
//!   reaches an output, channel, or checked property, and inputs no
//!   equation reads.
//!
//! The analyzer models channels the way desynchronization does: the
//! cross-component edges come from [`polysig_gals::channel_edges`] (the
//! tolerant form of `channels_of_program`, which reports fan-out instead
//! of refusing it) and a channel's read-request port from
//! [`polysig_gals::nfifo::fifo_port`]. [`analyze_program`] and
//! [`analyze_with_scenario`] are two entry points into one pass that walks
//! the channels once and computes every finding once.
//!
//! Findings come back as data: a structured [`AnalysisReport`] of
//! stable-coded [`Diagnostic`]s. The `polysig-lint` binary renders them
//! for humans, or as JSON through the `polysig-serve` codec, and exits
//! non-zero on deny-level findings.
//!
//! ## Example
//!
//! ```
//! use polysig_analyze::{analyze_program, LintLevel};
//!
//! let p = polysig_lang::parse_program(
//!     "process P { input a: int; output x: int; x := a + 1; } \
//!      process Q { input x: int; output y: int; y := x * 2; }",
//! )?;
//! let report = analyze_program(&p);
//! assert!(report.worst_level() < LintLevel::Warn); // clean design
//! # Ok::<(), polysig_lang::LangError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causality;
pub mod dead;
pub mod diag;
pub mod endochrony;
pub mod federated;
pub mod lints;
pub mod rates;

use std::collections::BTreeMap;

use polysig_gals::{channel_edges, ChannelSpec};
use polysig_lang::{Endochrony, Program};
use polysig_sim::Scenario;

pub use diag::{Diagnostic, LintCode, LintLevel};
pub use federated::{analyze_deployment, DeploymentPlan, DeploymentReport, DeploymentVerdict};
pub use lints::{LintConfig, Waiver};
pub use rates::{ChannelBound, ProveOptions, RatePattern, StaticBounds};

/// Re-exported entry point of the rate-bound prover.
pub use rates::prove_bounds;

/// Everything one analysis run established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Every finding, in emission order: endochrony, causality and
    /// fan-out; a `PA004` note per channel when there is no scenario;
    /// schedule notes and dead signals; the rate findings when there is a
    /// scenario; and the deployment findings.
    pub diagnostics: Vec<Diagnostic>,
    /// The endochrony verdict per component.
    pub endochrony: BTreeMap<String, Endochrony>,
    /// The cross-component channels, one per producer→consumer edge (a
    /// fanned-out signal yields one per consumer).
    pub channels: Vec<ChannelSpec>,
    /// The rate prover's verdicts, when a scenario was supplied
    /// ([`analyze_with_scenario`]).
    pub bounds: Option<StaticBounds>,
    /// The federated-deployment verdict for the canonical deployment
    /// (data-driven iff every input arrives over a channel).
    pub deployment: Option<DeploymentReport>,
}

impl AnalysisReport {
    /// The most severe level among non-waived findings
    /// ([`LintLevel::Allow`] for a clean report).
    pub fn worst_level(&self) -> LintLevel {
        self.diagnostics
            .iter()
            .filter(|d| d.waived.is_none())
            .map(|d| d.level)
            .max()
            .unwrap_or(LintLevel::Allow)
    }

    /// Non-waived findings at a given level.
    pub fn count_at(&self, level: LintLevel) -> usize {
        self.diagnostics.iter().filter(|d| d.waived.is_none() && d.level == level).count()
    }

    /// `true` iff no non-waived finding warns or denies.
    pub fn is_clean(&self) -> bool {
        self.worst_level() < LintLevel::Warn
    }

    /// Applies a configuration (level overrides + waivers) to every
    /// finding.
    pub fn configure(&mut self, config: &LintConfig) {
        config.apply(&mut self.diagnostics);
    }
}

/// Runs every structural analysis (no scenario needed): endochrony,
/// causality, channel discipline, and a `PA004` note per channel whose
/// bound therefore stays unknown.
pub fn analyze_program(program: &Program) -> AnalysisReport {
    analyze(program, None)
}

/// [`analyze_program`] plus the scenario-aware rate analysis: channels get
/// proven bounds where possible instead of `PA004` notes, channels the
/// replayed loop proves divergent get a `PA005`, and the deployment
/// verdict runs with the scenario driving the polling sources and the
/// proven bounds available to the capacity audit.
pub fn analyze_with_scenario(
    program: &Program,
    scenario: &Scenario,
    options: &ProveOptions,
) -> AnalysisReport {
    analyze(program, Some((scenario, options)))
}

/// The one analysis pass behind both entry points: walks the channels
/// once and emits every finding once, in [`AnalysisReport::diagnostics`]'
/// order.
fn analyze(program: &Program, scenario: Option<(&Scenario, &ProveOptions)>) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let endochrony = endochrony::check(program, &mut diagnostics);
    let (channels, fanout) = channel_edges(program);
    causality::check(program, &channels, &mut diagnostics);
    for (signal, consumers) in &fanout {
        diagnostics.push(
            Diagnostic::new(
                LintCode::MultiConsumerSignal,
                format!(
                    "signal `{signal}` is consumed by {} components ({}): desynchronization \
                     requires single-producer/single-consumer channels",
                    consumers.len(),
                    consumers.join(", ")
                ),
            )
            .on_signal(signal.clone())
            .suggest("insert an explicit fork component and give each consumer its own copy"),
        );
    }
    if scenario.is_none() {
        for ch in &channels {
            diagnostics.push(
                Diagnostic::new(
                    LintCode::ChannelBoundUnknown,
                    format!(
                        "channel `{}` ({} → {}): FIFO bound not established statically",
                        ch.signal, ch.producer, ch.consumer
                    ),
                )
                .on_signal(ch.signal.clone())
                .suggest(
                    "provide a scenario to `prove_bounds`/`analyze_with_scenario`, or size the \
                     channel with the dynamic estimation loop",
                ),
            );
        }
    }
    for c in &program.components {
        let Ok(reactor) = polysig_sim::Reactor::for_component(c) else {
            continue; // elaboration failures are reported by other passes
        };
        let diag = match reactor.compiled_op_count() {
            Some(ops) => Diagnostic::new(
                LintCode::StaticSchedule,
                format!(
                    "component lowers to a static schedule of {ops} ops: reactions run \
                     linearly, without micro-step fixpoints"
                ),
            ),
            None => Diagnostic::new(
                LintCode::StaticSchedule,
                format!(
                    "component has no static schedule{}: reactions run on the micro-step \
                     interpreter",
                    reactor.lower_failure().map(|why| format!(" ({why})")).unwrap_or_default()
                ),
            )
            .suggest(
                "root the clock hierarchy in the inputs (see PA001/PA002) so the schedule \
                 becomes a static total order",
            ),
        };
        diagnostics.push(diag.in_component(c.name.clone()));
    }
    dead::check(program, &mut diagnostics);
    let bounds = scenario.map(|(scenario, options)| {
        let bounds = rates::prove(program, &channels, !fanout.is_empty(), scenario, options);
        rate_findings(&channels, &bounds, &mut diagnostics);
        bounds
    });
    // the scenario drives the polling sources (so the replay stage can
    // decide topologies a scenario-free pass leaves unknown), and the
    // proven bounds feed the capacity audit
    let plan = DeploymentPlan::canonical_over(program, &channels, scenario.map(|(s, _)| s));
    let (deployment, deploy_diags) =
        federated::deployment(program, &channels, !fanout.is_empty(), &plan, bounds.as_ref());
    diagnostics.extend(deploy_diags);
    AnalysisReport { diagnostics, endochrony, channels, bounds, deployment: Some(deployment) }
}

/// A `PA005` per channel the replayed loop proves divergent and a `PA004`
/// per channel whose bound stays unknown under the scenario.
fn rate_findings(channels: &[ChannelSpec], bounds: &StaticBounds, out: &mut Vec<Diagnostic>) {
    for ch in channels {
        match bounds.bound_of(&ch.signal) {
            ChannelBound::Exact { .. } | ChannelBound::UpperBound { .. } => {}
            ChannelBound::Unbounded => {
                let mut msg = format!(
                    "channel `{}` ({} → {}): the estimation loop provably hits its caps on \
                     this scenario — writes outpace reads beyond any finite buffer",
                    ch.signal, ch.producer, ch.consumer
                );
                if bounds.steady_state_divergent.contains(&ch.signal) {
                    msg.push_str(" (and the periodic rates violate Lemma 2 in the long run)");
                }
                out.push(
                    Diagnostic::new(LintCode::ChannelRateUnbounded, msg)
                        .on_signal(ch.signal.clone())
                        .suggest("slow the producer, speed up the reader, or bound the workload"),
                );
            }
            ChannelBound::Unknown => {
                out.push(
                    Diagnostic::new(
                        LintCode::ChannelBoundUnknown,
                        format!(
                            "channel `{}` ({} → {}): FIFO bound not established statically \
                             for this scenario",
                            ch.signal, ch.producer, ch.consumer
                        ),
                    )
                    .on_signal(ch.signal.clone())
                    .suggest("size the channel with the dynamic estimation loop"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;
    use polysig_sim::generator::master_clock;
    use polysig_sim::{PeriodicInputs, ScenarioGenerator};
    use polysig_tagged::{SigName, ValueType};

    fn pipe() -> Program {
        parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x; }",
        )
        .unwrap()
    }

    #[test]
    fn clean_pipeline_reports_only_the_bound_note() {
        let report = analyze_program(&pipe());
        assert!(report.is_clean());
        // PA004 for `x`, plus a PA007 schedule note per component
        assert_eq!(report.count_at(LintLevel::Allow), 3);
        assert_eq!(
            report.diagnostics.iter().filter(|d| d.code == LintCode::StaticSchedule).count(),
            2
        );
        assert_eq!(report.channels.len(), 1);
        assert_eq!(report.endochrony.len(), 2);
        assert!(report.bounds.is_none());
        assert_eq!(report.diagnostics[0].code, LintCode::ChannelBoundUnknown);
        assert!(report.diagnostics[1].message.contains("static schedule of"));
        assert_eq!(report.endochrony["P"], Endochrony::Endochronous);
        assert_eq!(report.count_at(LintLevel::Deny), 0);
    }

    #[test]
    fn the_no_schedule_note_says_why() {
        // `s`'s clock is a free superset of `set`'s: nothing decided
        // witnesses it
        let p = parse_program(
            "process R { input set: int; output s: int; s := set default (pre 0 s); }",
        )
        .unwrap();
        let report = analyze_program(&p);
        let note = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::StaticSchedule)
            .expect("a PA007 note per component");
        assert_eq!(
            note.message,
            "component has no static schedule (`s` has no clock witness once every other \
             equation is placed): reactions run on the micro-step interpreter"
        );
    }

    #[test]
    fn scenario_analysis_replaces_the_note_with_a_proof() {
        let steps = 24;
        let scenario = PeriodicInputs::new("a", ValueType::Int, 2, 0)
            .generate(steps)
            .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 2, 1).generate(steps))
            .zip_union(&master_clock("tick", steps));
        let report = analyze_with_scenario(&pipe(), &scenario, &ProveOptions::default());
        // only the informational PA007 schedule notes remain
        assert!(
            report.diagnostics.iter().all(|d| d.code == LintCode::StaticSchedule),
            "{:?}",
            report.diagnostics
        );
        let bounds = report.bounds.as_ref().unwrap();
        assert!(matches!(bounds.bound_of(&"x".into()), ChannelBound::Exact { depth: 1 }));
    }

    #[test]
    fn divergent_scenario_fires_pa005() {
        let steps = 30;
        let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
            .generate(steps)
            .zip_union(&master_clock("tick", steps));
        let tight = ProveOptions { max_size: 8, ..Default::default() };
        let report = analyze_with_scenario(&pipe(), &scenario, &tight);
        assert_eq!(report.count_at(LintLevel::Warn), 1);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::ChannelRateUnbounded)
            .expect("PA005 fired");
        assert_eq!(d.signal, Some(SigName::from("x")));
        assert!(!report.is_clean());
    }

    #[test]
    fn configure_applies_levels_and_waivers() {
        let p = parse_program(
            "process P { input a: int, b: int; output x: int, y: int; x := a; y := b; }",
        )
        .unwrap();
        let mut report = analyze_program(&p);
        assert_eq!(report.worst_level(), LintLevel::Deny);
        let mut cfg = LintConfig::new();
        cfg.load_waivers("PA001 P  clock race is exercised on purpose\n").unwrap();
        report.configure(&cfg);
        assert!(report.is_clean());
        assert!(report.diagnostics[0].waived.is_some());
        assert_eq!(report.diagnostics.iter().filter(|d| d.waived.is_some()).count(), 1);
    }

    #[test]
    fn multi_consumer_fires_pa006_and_keeps_analyzing() {
        let p = parse_program(
            "process A { input a: int; output x: int; x := a; } \
             process B { input x: int; output y: int; y := x; } \
             process C { input x: int; output z: int; z := x; }",
        )
        .unwrap();
        let report = analyze_program(&p);
        assert_eq!(report.count_at(LintLevel::Deny), 1);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::MultiConsumerSignal)
            .expect("PA006 fired");
        assert!(d.message.contains("B, C"));
        // endochrony still ran for every component
        assert_eq!(report.endochrony.len(), 3);
    }
}
