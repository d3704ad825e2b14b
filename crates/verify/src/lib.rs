//! # `polysig-verify` — model checking and differential validation
//!
//! The validation half of the paper's methodology (Section 5.2):
//!
//! > "Verification of the desynchronized design consists of checking that no
//! > alarm signal is raised. In case of failing to prove this, the error
//! > trace may help us finding the input sequence resulting in alarm. This
//! > input can be added to our simulation data."
//!
//! * [`alphabet`] — finite input alphabets: every combination of
//!   present/absent inputs over a finite value domain, optionally shaped by
//!   an environment automaton (periodic writers/readers, bursts);
//! * [`prop`] — the properties a query checks: a closed set of three
//!   shapes over one signal ("never true", "never present", "in range"),
//!   plain data that both checkers compile;
//! * [`reach`] — explicit-state breadth-first reachability over a program's
//!   `pre`-register state space, checking a [`Property`] on every reaction
//!   and returning the shortest [`counterexample`] input sequence on
//!   violation — exactly the error trace the estimation loop feeds back
//!   into simulation;
//! * [`bound`] — the maximum an integer signal reaches, a proven buffer
//!   bound when the exploration is exhaustive;
//! * [`bmc`] — symbolic bounded model checking, which answers both queries
//!   when [`CheckOptions::backend`] selects it;
//! * [`equiv`] — differential oracles: run two programs over a scenario
//!   ensemble and compare selected signals for flow-equivalence
//!   (Definition 4, used to validate Theorems 1 and 2 end-to-end).
//!
//! ## Example: a one-place buffer overflows, a counterexample is found
//!
//! ```
//! use polysig_gals::nfifo::nfifo_component;
//! use polysig_lang::Program;
//! use polysig_verify::{alphabet::Alphabet, prop::Property, reach::{check, CheckOptions}};
//!
//! let fifo = Program::single(nfifo_component("ch", 1));
//! let alphabet = Alphabet::exhaustive(&fifo, &[1]).unwrap();
//! let result = check(
//!     &fifo,
//!     &alphabet,
//!     &Property::never_true("ch_alarm"),
//!     &CheckOptions::default(),
//! ).unwrap();
//! assert!(!result.holds);
//! // two back-to-back writes overflow a 1-place buffer
//! assert_eq!(result.counterexample.unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod bmc;
pub mod bound;
pub mod counterexample;
pub mod equiv;
pub mod error;
mod frontier;
pub mod prop;
pub mod reach;

pub use alphabet::{Alphabet, EnvAutomaton};
pub use bmc::Backend;
pub use bound::{max_signal_value, BoundResult};
pub use counterexample::Counterexample;
pub use equiv::{compare_flows, ComparisonReport};
pub use error::VerifyError;
pub use prop::Property;
pub use reach::{check, CheckOptions, CheckResult};
