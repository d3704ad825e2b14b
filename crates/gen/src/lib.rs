//! Generative conformance harness for the polysig workspace.
//!
//! The crate generates well-clocked Signal programs by construction (see
//! [`program`]), checks each sample against a library of differential
//! oracles (see [`oracle`]), and minimizes any failure with a
//! delta-debugging shrinker (see [`shrink`](mod@shrink)). Shrunk failures are rendered
//! in a replayable on-disk format (see [`corpus`]) so fixed bugs stay fixed.
//!
//! Two entry points:
//!
//! - the `fuzz_conformance` integration test in the workspace root, driven
//!   by the `POLYSIG_FUZZ_SEED` / `POLYSIG_FUZZ_CASES` environment
//!   variables, which replays the committed corpus and then samples fresh
//!   cases;
//! - the `fuzz_triage` binary, which re-runs one seed, shrinks the failure,
//!   and prints a ready-to-commit corpus entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod corpus;
pub mod oracle;
pub mod program;
pub mod shrink;

pub use config::{GenConfig, Shape};
pub use corpus::{entry_text, parse_entry, replay, CorpusEntry};
pub use oracle::{check_case, oracles_for, run_oracle, Failure, OracleKind};
pub use program::{external_inputs, generate_case, GenCase};
pub use shrink::{case_size, shrink};

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// A proptest [`Strategy`] that draws whole conformance cases, for use in
/// `proptest!` properties alongside the hand-rolled fuzz driver.
#[derive(Debug, Clone)]
pub struct ArbCase {
    /// Size bounds for the drawn cases.
    pub config: GenConfig,
    /// Which program family to draw from.
    pub shape: Shape,
}

impl ArbCase {
    /// A strategy over `shape` with default size bounds.
    pub fn new(shape: Shape) -> Self {
        ArbCase { config: GenConfig::default(), shape }
    }
}

impl Strategy for ArbCase {
    type Value = GenCase;

    fn generate(&self, rng: &mut TestRng) -> GenCase {
        generate_case(rng, &self.config, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::proptest;

    proptest! {
        #[test]
        fn arb_free_cases_satisfy_their_oracles(case in ArbCase::new(Shape::Free)) {
            if let Err(f) = check_case(&case) {
                panic!("generated free case violated an oracle: {f}");
            }
        }
    }
}
