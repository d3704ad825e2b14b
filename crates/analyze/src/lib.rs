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
//! * **channel discipline** ([`channels`], `PA006`) — the paper's
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
//! Findings come back as a structured [`AnalysisReport`] of stable-coded
//! [`Diagnostic`]s; the `polysig-lint` binary renders them for humans or as
//! JSON and exits non-zero on deny-level findings.
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
pub mod channels;
pub mod dead;
pub mod diag;
pub mod endochrony;
pub mod federated;
pub mod lints;
pub mod rates;

use std::collections::BTreeMap;

use polysig_lang::{Endochrony, Program};
use polysig_sim::Scenario;

pub use channels::Channel;
pub use diag::{Diagnostic, LintCode, LintLevel};
pub use federated::{analyze_deployment, DeploymentPlan, DeploymentReport, DeploymentVerdict};
pub use lints::{LintConfig, Waiver};
pub use rates::{ChannelBound, ProveOptions, RatePattern, StaticBounds};

/// Re-exported entry point of the rate-bound prover.
pub use rates::prove_bounds;

/// Everything one analysis run established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Every finding, in emission order (endochrony, causality, channels,
    /// rates).
    pub diagnostics: Vec<Diagnostic>,
    /// The endochrony verdict per component.
    pub endochrony: BTreeMap<String, Endochrony>,
    /// The discovered cross-component channels.
    pub channels: Vec<Channel>,
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

    /// The report as one JSON object (diagnostics, summary counts, and the
    /// per-component endochrony verdicts).
    pub fn to_json(&self) -> String {
        let mut obj = diag::JsonObject::new();
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        obj.push_raw("diagnostics", &format!("[{}]", diags.join(",")));
        let mut summary = diag::JsonObject::new();
        summary.push_num("deny", self.count_at(LintLevel::Deny));
        summary.push_num("warn", self.count_at(LintLevel::Warn));
        summary.push_num("allow", self.count_at(LintLevel::Allow));
        summary.push_num("waived", self.diagnostics.iter().filter(|d| d.waived.is_some()).count());
        obj.push_raw("summary", &summary.finish());
        let mut endo = diag::JsonObject::new();
        for (component, verdict) in &self.endochrony {
            let name = match verdict {
                Endochrony::Endochronous => "endochronous",
                Endochrony::Endochronizable { .. } => "endochronizable",
                Endochrony::NonDeterministic { .. } => "non-deterministic",
            };
            endo.push_str(component, name);
        }
        obj.push_raw("endochrony", &endo.finish());
        if let Some(deployment) = &self.deployment {
            obj.push_raw("deployment", &deployment.to_json());
        }
        obj.finish()
    }
}

/// Runs every structural analysis (no scenario needed): endochrony,
/// causality, channel discipline, and a `PA004` note per channel whose
/// bound therefore stays unknown.
pub fn analyze_program(program: &Program) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let endochrony = endochrony::check(program, &mut diagnostics);
    let (channels, fanout) = channels::discover(program);
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
    let plan = DeploymentPlan::canonical(program, None);
    let (deployment, deploy_diags) = analyze_deployment(program, &plan, None);
    diagnostics.extend(deploy_diags);
    AnalysisReport { diagnostics, endochrony, channels, bounds: None, deployment: Some(deployment) }
}

/// [`analyze_program`] plus the scenario-aware rate analysis: `PA004`
/// notes are upgraded to proven bounds where possible, and channels the
/// replayed loop proves divergent get a `PA005`.
pub fn analyze_with_scenario(
    program: &Program,
    scenario: &Scenario,
    options: &ProveOptions,
) -> AnalysisReport {
    let mut report = analyze_program(program);
    let bounds = prove_bounds(program, scenario, options);
    report.diagnostics.retain(|d| d.code != LintCode::ChannelBoundUnknown);
    for ch in &report.channels {
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
                report.diagnostics.push(
                    Diagnostic::new(LintCode::ChannelRateUnbounded, msg)
                        .on_signal(ch.signal.clone())
                        .suggest("slow the producer, speed up the reader, or bound the workload"),
                );
            }
            ChannelBound::Unknown => {
                report.diagnostics.push(
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
    // re-run the deployment pass with the scenario driving the polling
    // sources (the replay stage can now decide topologies the scenario-free
    // pass left unknown) and the proven bounds available to the capacity
    // audit
    let plan = DeploymentPlan::canonical(program, Some(scenario));
    report.diagnostics.retain(|d| d.code != LintCode::FederatedDeadlockRisk);
    let (deployment, deploy_diags) = analyze_deployment(program, &plan, Some(&bounds));
    report.diagnostics.extend(deploy_diags);
    report.deployment = Some(deployment);
    report.bounds = Some(bounds);
    report
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
        let json = report.to_json();
        assert!(json.contains("\"PA004\""));
        assert!(json.contains("\"PA007\""));
        assert!(json.contains("static schedule of"));
        assert!(json.contains("\"P\":\"endochronous\""));
        assert!(json.contains("\"deny\":0"));
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
        assert!(report.to_json().contains("\"waived\":1"));
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
