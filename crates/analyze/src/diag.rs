//! Structured diagnostics: stable codes, severities, locations, rendering.
//!
//! Every finding of the analyzer is a [`Diagnostic`] carrying a stable
//! [`LintCode`] (`PA0xx`), an effective [`LintLevel`], the component/signal
//! it anchors to, a one-line message and an optional suggested fix. The
//! codes are append-only: a code is never renumbered or reused, so waiver
//! files and CI configurations stay valid across releases.

use std::fmt;

use polysig_tagged::SigName;

/// How a lint's findings are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Recorded in the report but not a failure (informational).
    Allow,
    /// Shown as a warning; fails under `--deny warnings`.
    Warn,
    /// A hard failure: `polysig-lint` exits non-zero.
    Deny,
}

impl LintLevel {
    /// The lowercase name used in JSON output and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        }
    }

    /// Parses a CLI/JSON level name.
    pub fn parse(s: &str) -> Option<LintLevel> {
        match s {
            "allow" => Some(LintLevel::Allow),
            "warn" => Some(LintLevel::Warn),
            "deny" => Some(LintLevel::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The stable lint registry. Codes are append-only; see each variant's
/// documentation for the property it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// `PA001` — a component's clock hierarchy has several independent
    /// master clocks: its reactions are not determined by its input flows,
    /// so desynchronization need not preserve them (Theorem 1's silent
    /// precondition).
    NonDeterministicClocks,
    /// `PA002` — a component's clock tree is rooted, but the root is an
    /// internal/output clock rather than an input: deterministic once the
    /// master is driven, but the environment cannot see when to activate it
    /// (endochronizable, not endochronous).
    EndochronizableComponent,
    /// `PA003` — an instantaneous dependency cycle, possibly through
    /// channel signals across components: the blocking `∥→,a` composition
    /// deadlocks on it.
    CausalityCycle,
    /// `PA004` — a channel whose FIFO bound could not be established
    /// statically (informational; run the estimation loop or provide a
    /// scenario to `prove_bounds`).
    ChannelBoundUnknown,
    /// `PA005` — a channel statically proven to overflow every finite
    /// buffer (Lemma 2's rate-matching condition fails for every `n`).
    ChannelRateUnbounded,
    /// `PA006` — a shared signal with more than one consumer, outside the
    /// paper's single-producer/single-consumer channel discipline.
    MultiConsumerSignal,
    /// `PA007` — informational: whether the component lowers to a static
    /// schedule (the compiled execution plan), and how many ops it takes.
    /// Endochronous components always do (Theorem 1); a component that does
    /// not runs on the micro-step interpreter instead.
    StaticSchedule,
    /// `PA008` — the federated deployment can deadlock: a cycle in the
    /// wait-for relation of the federate network whose total credit is
    /// insufficient for the statically-inferred rate pattern (the
    /// marked-graph/Kahn sufficiency argument fails on the cycle).
    FederatedDeadlockRisk,
    /// `PA009` — a channel's configured credit capacity is below the
    /// statically proven `Exact`/`UpperBound` FIFO depth, so the producer
    /// will stall on it under the proven rate pattern.
    ChannelUnderprovisioned,
    /// `PA010` — a dead signal or equation: its value never reaches a
    /// channel, a register, an output, or a checked property, so the
    /// equation computes into the void.
    DeadSignal,
}

impl LintCode {
    /// Every registered lint, in code order.
    pub const ALL: [LintCode; 10] = [
        LintCode::NonDeterministicClocks,
        LintCode::EndochronizableComponent,
        LintCode::CausalityCycle,
        LintCode::ChannelBoundUnknown,
        LintCode::ChannelRateUnbounded,
        LintCode::MultiConsumerSignal,
        LintCode::StaticSchedule,
        LintCode::FederatedDeadlockRisk,
        LintCode::ChannelUnderprovisioned,
        LintCode::DeadSignal,
    ];

    /// The stable `PA0xx` code.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::NonDeterministicClocks => "PA001",
            LintCode::EndochronizableComponent => "PA002",
            LintCode::CausalityCycle => "PA003",
            LintCode::ChannelBoundUnknown => "PA004",
            LintCode::ChannelRateUnbounded => "PA005",
            LintCode::MultiConsumerSignal => "PA006",
            LintCode::StaticSchedule => "PA007",
            LintCode::FederatedDeadlockRisk => "PA008",
            LintCode::ChannelUnderprovisioned => "PA009",
            LintCode::DeadSignal => "PA010",
        }
    }

    /// The human-readable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::NonDeterministicClocks => "non-deterministic-clocks",
            LintCode::EndochronizableComponent => "endochronizable-component",
            LintCode::CausalityCycle => "causality-cycle",
            LintCode::ChannelBoundUnknown => "channel-bound-unknown",
            LintCode::ChannelRateUnbounded => "channel-rate-unbounded",
            LintCode::MultiConsumerSignal => "multi-consumer-signal",
            LintCode::StaticSchedule => "static-schedule",
            LintCode::FederatedDeadlockRisk => "federated-deadlock-risk",
            LintCode::ChannelUnderprovisioned => "channel-underprovisioned",
            LintCode::DeadSignal => "dead-signal",
        }
    }

    /// One-line registry description.
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::NonDeterministicClocks => {
                "component has several independent master clocks (not endochronous)"
            }
            LintCode::EndochronizableComponent => {
                "component is deterministic only once an internal master clock is driven"
            }
            LintCode::CausalityCycle => "instantaneous dependency cycle (deadlocks composition)",
            LintCode::ChannelBoundUnknown => "channel FIFO bound not statically provable",
            LintCode::ChannelRateUnbounded => "channel provably overflows every finite buffer",
            LintCode::MultiConsumerSignal => "shared signal has more than one consumer",
            LintCode::StaticSchedule => {
                "whether the component compiles to a static schedule (and its op count)"
            }
            LintCode::FederatedDeadlockRisk => {
                "federate network has a wait-for cycle with insufficient credit (can deadlock)"
            }
            LintCode::ChannelUnderprovisioned => {
                "channel capacity below the statically proven FIFO depth"
            }
            LintCode::DeadSignal => {
                "signal never reaches a channel, register, output or checked property"
            }
        }
    }

    /// The level a lint reports at unless reconfigured.
    pub fn default_level(self) -> LintLevel {
        match self {
            LintCode::NonDeterministicClocks => LintLevel::Deny,
            LintCode::EndochronizableComponent => LintLevel::Warn,
            LintCode::CausalityCycle => LintLevel::Deny,
            LintCode::ChannelBoundUnknown => LintLevel::Allow,
            LintCode::ChannelRateUnbounded => LintLevel::Warn,
            LintCode::MultiConsumerSignal => LintLevel::Deny,
            LintCode::StaticSchedule => LintLevel::Allow,
            LintCode::FederatedDeadlockRisk => LintLevel::Deny,
            LintCode::ChannelUnderprovisioned => LintLevel::Deny,
            LintCode::DeadSignal => LintLevel::Warn,
        }
    }

    /// Parses a `PA0xx` code or kebab-case name.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.as_str() == s || c.name() == s)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// The effective level after configuration and waivers.
    pub level: LintLevel,
    /// The component the finding anchors to, when there is one.
    pub component: Option<String>,
    /// The signal the finding anchors to, when there is one.
    pub signal: Option<SigName>,
    /// The one-line explanation.
    pub message: String,
    /// A suggested fix, when the analyzer has one.
    pub suggestion: Option<String>,
    /// The waiver justification, when a waiver file downgraded this
    /// finding to [`LintLevel::Allow`].
    pub waived: Option<String>,
}

impl Diagnostic {
    /// A finding at its code's default level.
    pub fn new(code: LintCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            level: code.default_level(),
            component: None,
            signal: None,
            message: message.into(),
            suggestion: None,
            waived: None,
        }
    }

    /// Anchors the finding to a component.
    #[must_use]
    pub fn in_component(mut self, name: impl Into<String>) -> Diagnostic {
        self.component = Some(name.into());
        self
    }

    /// Anchors the finding to a signal.
    #[must_use]
    pub fn on_signal(mut self, name: impl Into<SigName>) -> Diagnostic {
        self.signal = Some(name.into());
        self
    }

    /// Attaches a suggested fix.
    #[must_use]
    pub fn suggest(mut self, fix: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(fix.into());
        self
    }

    /// The `component/signal` location string used in human output.
    pub fn location(&self) -> String {
        match (&self.component, &self.signal) {
            (Some(c), Some(s)) => format!("{c}/{s}"),
            (Some(c), None) => c.clone(),
            (None, Some(s)) => s.to_string(),
            (None, None) => "program".to_string(),
        }
    }

    /// Renders the finding in the `code level [location] message` shape.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} {} [{}] {}",
            self.code,
            if self.waived.is_some() { "waived" } else { self.level.as_str() },
            self.location(),
            self.message
        );
        if let Some(fix) = &self.suggestion {
            out.push_str("\n  = help: ");
            out.push_str(fix);
        }
        if let Some(why) = &self.waived {
            out.push_str("\n  = waived: ");
            out.push_str(why);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_stay_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for code in LintCode::ALL {
            assert!(seen.insert(code.as_str()), "duplicate code {code}");
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
            assert_eq!(LintCode::parse(code.name()), Some(code));
            assert!(!code.summary().is_empty());
        }
        assert_eq!(LintCode::parse("PA999"), None);
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(LintLevel::Allow < LintLevel::Warn);
        assert!(LintLevel::Warn < LintLevel::Deny);
        for l in [LintLevel::Allow, LintLevel::Warn, LintLevel::Deny] {
            assert_eq!(LintLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(LintLevel::parse("forbid"), None);
    }

    #[test]
    fn render_shows_location_help_and_waiver() {
        let d = Diagnostic::new(LintCode::NonDeterministicClocks, "two masters")
            .in_component("P")
            .on_signal("x")
            .suggest("synchronize them");
        let text = d.render();
        assert!(text.starts_with("PA001 deny [P/x] two masters"));
        assert!(text.contains("= help: synchronize them"));
        let mut waived = d.clone();
        waived.waived = Some("known benign".into());
        assert!(waived.render().contains("PA001 waived"));
        assert!(waived.render().contains("= waived: known benign"));
    }
}
