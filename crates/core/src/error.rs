//! Error type for the GALS transformation and runtime layers.

use std::fmt;

use polysig_tagged::SigName;

/// Errors from desynchronization, estimation and the GALS runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GalsError {
    /// A static language error.
    Lang(polysig_lang::LangError),
    /// A simulation error.
    Sim(polysig_sim::SimError),
    /// A shared signal with more than one consumer (the paper's
    /// single-producer/single-consumer restriction below Theorem 2).
    MultiConsumer {
        /// The fanned-out signal.
        signal: SigName,
        /// Its consumers.
        consumers: Vec<String>,
    },
    /// A channel named in a configuration does not exist in the program.
    UnknownChannel {
        /// The unknown signal.
        signal: SigName,
    },
    /// The estimation loop hit its iteration or size cap before the alarms
    /// disappeared (the workload's rate mismatch is unbounded — Lemma 2's
    /// condition fails for every finite `n`).
    EstimationDiverged {
        /// Iterations performed.
        iterations: usize,
        /// Sizes reached per channel when giving up.
        sizes: Vec<(SigName, usize)>,
    },
    /// A runtime component tried to use a signal the executor does not know.
    UnknownSignal {
        /// The unknown signal.
        signal: SigName,
    },
    /// A federated run names the same component in two federate specs; each
    /// component's channel endpoints can serve only one federate.
    DuplicateFederate {
        /// The component named twice.
        component: String,
    },
    /// A component's clock hierarchy has several independent master clocks,
    /// so its reactions are not determined by its input flows —
    /// the endochrony precondition Theorem 1 needs before desynchronization
    /// preserves flows. Opt out with [`crate::DesyncOptions::lenient`].
    NonEndochronous {
        /// The offending component.
        component: String,
        /// One representative signal per independent master clock.
        masters: Vec<SigName>,
    },
}

impl fmt::Display for GalsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GalsError::Lang(e) => write!(f, "{e}"),
            GalsError::Sim(e) => write!(f, "{e}"),
            GalsError::MultiConsumer { signal, consumers } => write!(
                f,
                "signal `{signal}` is consumed by {} components ({}); insert an explicit fork",
                consumers.len(),
                consumers.join(", ")
            ),
            GalsError::UnknownChannel { signal } => {
                write!(f, "no channel for signal `{signal}` in the program")
            }
            GalsError::EstimationDiverged { iterations, sizes } => {
                write!(f, "buffer estimation did not converge after {iterations} iterations (")?;
                for (i, (s, n)) in sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}={n}")?;
                }
                write!(f, ")")
            }
            GalsError::UnknownSignal { signal } => {
                write!(f, "executor does not know signal `{signal}`")
            }
            GalsError::DuplicateFederate { component } => {
                write!(f, "component `{component}` is federated more than once")
            }
            GalsError::NonEndochronous { component, masters } => {
                write!(
                    f,
                    "component `{component}` is not endochronous: independent master clocks "
                )?;
                for (i, m) in masters.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{m}`")?;
                }
                write!(
                    f,
                    "; its reactions are not determined by input flows, so desynchronization \
                     may not preserve them (DesyncOptions::lenient() skips this check)"
                )
            }
        }
    }
}

impl std::error::Error for GalsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GalsError::Lang(e) => Some(e),
            GalsError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<polysig_lang::LangError> for GalsError {
    fn from(e: polysig_lang::LangError) -> Self {
        GalsError::Lang(e)
    }
}

impl From<polysig_sim::SimError> for GalsError {
    fn from(e: polysig_sim::SimError) -> Self {
        GalsError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let errs: Vec<GalsError> = vec![
            GalsError::MultiConsumer {
                signal: "x".into(),
                consumers: vec!["B".into(), "C".into()],
            },
            GalsError::UnknownChannel { signal: "x".into() },
            GalsError::EstimationDiverged { iterations: 10, sizes: vec![("x".into(), 64)] },
            GalsError::UnknownSignal { signal: "x".into() },
            GalsError::DuplicateFederate { component: "Q".into() },
            GalsError::NonEndochronous {
                component: "P".into(),
                masters: vec!["y".into(), "z".into()],
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_preserve_messages() {
        let lang = polysig_lang::LangError::MultipleWriters {
            name: "x".into(),
            components: ("A".into(), "B".into()),
        };
        let g: GalsError = lang.clone().into();
        assert_eq!(g.to_string(), lang.to_string());
        assert!(std::error::Error::source(&g).is_some());
    }
}
