//! Differential equivalence oracles.
//!
//! Theorems 1 and 2 say the desynchronized network is *flow-equivalent*
//! (Definition 4) to the original synchronous composition on the signals of
//! interest. [`compare_flows`] validates that end-to-end: run the two
//! programs over an ensemble of paired scenarios and compare the value
//! flows of mapped signals — exactly, or up to a consumer-side prefix when
//! messages may still be in flight at the end of the finite run.

use polysig_lang::Program;
use polysig_sim::{Scenario, Simulator};
use polysig_tagged::{SigName, Value};

use crate::error::VerifyError;

/// How the right-hand program's flow may relate to the left's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowRelation {
    /// Flows must be identical (complete delivery).
    Equal,
    /// The right flow must be a prefix of the left flow (in-flight
    /// messages allowed).
    PrefixOfLeft,
}

/// One mismatch found by [`compare_flows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Index into the scenario ensemble.
    pub scenario: usize,
    /// The left program's signal.
    pub left_signal: SigName,
    /// The right program's signal.
    pub right_signal: SigName,
    /// The left flow.
    pub left_flow: Vec<Value>,
    /// The right flow.
    pub right_flow: Vec<Value>,
}

/// The outcome of a differential comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparisonReport {
    /// Scenario pairs executed.
    pub scenarios: usize,
    /// Signal comparisons that matched.
    pub matches: usize,
    /// Every mismatch, with both flows for diagnosis.
    pub mismatches: Vec<Mismatch>,
}

impl ComparisonReport {
    /// `true` iff every comparison matched.
    pub fn all_match(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs `left` and `right` over paired scenarios and compares the flows of
/// the mapped signals under `relation`. Every pair runs on the same two
/// simulators, reset between pairs, and mismatches are reported in
/// scenario order.
///
/// # Errors
///
/// Surfaces elaboration or reaction errors of either program; a reaction
/// error is the first one in scenario order.
pub fn compare_flows(
    left: &Program,
    right: &Program,
    scenario_pairs: &[(Scenario, Scenario)],
    signal_map: &[(SigName, SigName)],
    relation: FlowRelation,
) -> Result<ComparisonReport, VerifyError> {
    // elaborate both programs up front: static errors surface even for an
    // empty ensemble
    let mut left_sim = Simulator::for_program(left)?;
    let mut right_sim = Simulator::for_program(right)?;
    let mut report =
        ComparisonReport { scenarios: scenario_pairs.len(), matches: 0, mismatches: Vec::new() };
    for (scenario, (ls, rs)) in scenario_pairs.iter().enumerate() {
        left_sim.reset();
        right_sim.reset();
        let lrun = left_sim.run(ls)?;
        let rrun = right_sim.run(rs)?;
        for (lsig, rsig) in signal_map {
            let lf = lrun.flow(lsig);
            let rf = rrun.flow(rsig);
            let ok = match relation {
                FlowRelation::Equal => lf == rf,
                FlowRelation::PrefixOfLeft => rf.len() <= lf.len() && lf[..rf.len()] == rf[..],
            };
            if ok {
                report.matches += 1;
            } else {
                report.mismatches.push(Mismatch {
                    scenario,
                    left_signal: lsig.clone(),
                    right_signal: rsig.clone(),
                    left_flow: lf,
                    right_flow: rf,
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_lang::parse_program;
    use polysig_sim::{PeriodicInputs, ScenarioGenerator};
    use polysig_tagged::ValueType;

    fn doubler(name: &str, extra: i64) -> Program {
        parse_program(&format!(
            "process {name} {{ input a: int; output x: int; x := a * 2 + {extra}; }}"
        ))
        .unwrap()
    }

    fn scenarios(n: usize) -> Vec<(Scenario, Scenario)> {
        (0..n)
            .map(|k| {
                let s = PeriodicInputs::new("a", ValueType::Int, 1 + k % 3, k % 2).generate(10);
                (s.clone(), s)
            })
            .collect()
    }

    #[test]
    fn identical_programs_match() {
        let a = doubler("A", 0);
        let b = doubler("B", 0);
        let report =
            compare_flows(&a, &b, &scenarios(5), &[("x".into(), "x".into())], FlowRelation::Equal)
                .unwrap();
        assert!(report.all_match());
        assert_eq!(report.matches, 5);
    }

    #[test]
    fn different_programs_mismatch_with_diagnostics() {
        let a = doubler("A", 0);
        let b = doubler("B", 1);
        let report =
            compare_flows(&a, &b, &scenarios(3), &[("x".into(), "x".into())], FlowRelation::Equal)
                .unwrap();
        assert!(!report.all_match());
        assert_eq!(report.mismatches.len(), 3);
        let m = &report.mismatches[0];
        assert_ne!(m.left_flow, m.right_flow);
        assert_eq!(m.left_flow.len(), m.right_flow.len());
    }

    #[test]
    fn mismatches_carry_their_scenario_index_in_order() {
        let a = doubler("A", 0);
        let b = doubler("B", 1);
        let report =
            compare_flows(&a, &b, &scenarios(16), &[("x".into(), "x".into())], FlowRelation::Equal)
                .unwrap();
        assert_eq!(report.scenarios, 16);
        let indices: Vec<usize> = report.mismatches.iter().map(|m| m.scenario).collect();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_relation_tolerates_lag() {
        // right sees a shorter input scenario → shorter (prefix) flow
        let a = doubler("A", 0);
        let b = doubler("B", 0);
        let long = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(10);
        let short = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(6);
        let pairs = vec![(long, short)];
        let eq = compare_flows(&a, &b, &pairs, &[("x".into(), "x".into())], FlowRelation::Equal)
            .unwrap();
        assert!(!eq.all_match());
        let pre =
            compare_flows(&a, &b, &pairs, &[("x".into(), "x".into())], FlowRelation::PrefixOfLeft)
                .unwrap();
        assert!(pre.all_match());
    }
}
