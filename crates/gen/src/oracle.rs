//! The differential oracle catalogue.
//!
//! Each oracle states a conformance property two independent implementations
//! (or two runs of one implementation under different configurations) must
//! agree on. A generated case passes when every oracle applicable to its
//! shape passes; the first failing oracle is reported with enough context to
//! replay and shrink the case.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use polysig_analyze::{prove_bounds, ChannelBound, ProveOptions};
use polysig_gals::estimate::{
    estimate_buffer_sizes, estimate_buffer_sizes_reference, EstimationOptions,
};
use polysig_gals::{desynchronize, DesyncOptions};
use polysig_lang::resolve::resolve_program;
use polysig_lang::types::check_program;
use polysig_lang::{classify_endochrony, parse_program, pretty_program, Endochrony, Program, Role};
use polysig_sim::{DenseEnv, Reactor, Scenario, SimError, Simulator};
use polysig_tagged::{SigName, Value};
use polysig_verify::alphabet::Letter;
use polysig_verify::equiv::FlowRelation;
use polysig_verify::reach::CheckResult;
use polysig_verify::{
    check, compare_flows, Alphabet, Backend, CheckOptions, EnvAutomaton, Property, VerifyError,
};

use crate::config::Shape;
use crate::program::{external_inputs, GenCase};

/// The conformance properties the harness checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Generated programs must resolve, typecheck and simulate without any
    /// clock error — well-clockedness is a generator invariant, so a
    /// violation is a bug in the generator (or in the analyses it trusts).
    /// Checked arithmetic overflow (`SimError::ValueType`) is a legal
    /// runtime outcome, not a violation.
    WellClocked,
    /// `pretty_program` → `parse_program` must reproduce the program
    /// structurally, and the reparse must still resolve.
    RoundTrip,
    /// The name-keyed `react` and the index-addressed `react_dense` must
    /// agree instant by instant: present sets, values, errors, registers.
    DenseEquiv,
    /// The compiled static-schedule executor and the micro-step interpreter
    /// must agree instant by instant — outputs, registers, error strings —
    /// and resuming either plan from a mid-run checkpoint must replay the
    /// tail bit-identically.
    CompiledEquiv,
    /// Explicit-state checking must return identical results at 1, 2, 4
    /// and 8 worker threads.
    ThreadInvariance,
    /// The symbolic bounded model checker and the explicit breadth-first
    /// checker must agree: explicit-safe within the scenario horizon ⇒ the
    /// SAT unrolling is unsatisfiable at that depth; an explicit
    /// counterexample of length `L` ⇒ SAT at depth `L` with the *same*
    /// lexicographically-least shortest trace (which the backend has
    /// already replayed concretely before reporting). Cases the symbolic
    /// backend cannot encode (`BmcUnsupported`) or where the explicit
    /// checker errors (e.g. overflow paths, which BMC prunes as
    /// infeasible) are skipped, never misjudged. Two legs: the scenario's
    /// cycle, whose forced moves fold the unrolling to constants, and the
    /// same cycle with its first state open to every letter, which leaves
    /// the SAT search and the minimization a real choice.
    BmcEquiv,
    /// The cached estimation engine (`estimate_buffer_sizes`) must produce a
    /// report identical to the reference loop
    /// (`estimate_buffer_sizes_reference`).
    EstimateEquiv,
    /// After desynchronizing with converged estimated sizes, every channel
    /// flow and final output flow of the GALS model must be a prefix of the
    /// synchronous reference flow (Theorems 1–2).
    DesyncFlow,
    /// The federated executor (one compiled federate per component over
    /// bounded credit channels) must reproduce the synchronous reference's
    /// per-signal flows *exactly*, whatever the thread interleaving and
    /// whatever the channel capacities — the runtime half of Theorems 1–2:
    /// endochronous stages behind SPSC FIFOs form a Kahn network, so their
    /// flows are interleaving-independent. Checked at capacity 1 (maximum
    /// serialization) and at statically proven capacities (maximum
    /// concurrency).
    FederatedFlow,
    /// The static analyzer's claims must agree with the dynamic tooling:
    /// `Exact` bounds reproduce the estimation loop's converged sizes,
    /// `UpperBound`s dominate them, `Unbounded` proofs imply the loop hits
    /// its caps, warm-starting from proven bounds leaves the final report
    /// unchanged, and all-endochronous programs simulate deterministically.
    StaticDynamicAgreement,
    /// The serving engine must be a transparent cache: a cold request, a
    /// warm cache hit, and every response of a batched duplicate submission
    /// must carry payloads field-for-field identical to direct library
    /// calls on the same source, scenario and (budget-clamped) options, and
    /// the cold answer and the hit as the server sends them must be byte
    /// for byte the rendering of that direct outcome.
    ServeEquiv,
    /// The static federated-deployment analyzer (`PA008`/`PA009`) must
    /// agree with the live runtime: a deployment the analyzer proves
    /// deadlock-free runs to completion with the stall watchdog silent and
    /// no thread leaked, and (for ring cases) the adversarial
    /// all-data-driven deployment of the *same* program both gets a
    /// `PA008` deadlock verdict and demonstrably stalls the runtime — the
    /// watchdog fires and drains the federation. For pipeline cases the
    /// analyzer's own `minimal_safe_capacities` must audit `PA009`-clean
    /// and complete stall-free at those exact capacities.
    FederatedSafety,
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OracleKind::WellClocked => "WellClocked",
            OracleKind::RoundTrip => "RoundTrip",
            OracleKind::DenseEquiv => "DenseEquiv",
            OracleKind::CompiledEquiv => "CompiledEquiv",
            OracleKind::ThreadInvariance => "ThreadInvariance",
            OracleKind::BmcEquiv => "BmcEquiv",
            OracleKind::EstimateEquiv => "EstimateEquiv",
            OracleKind::DesyncFlow => "DesyncFlow",
            OracleKind::FederatedFlow => "FederatedFlow",
            OracleKind::StaticDynamicAgreement => "StaticDynamicAgreement",
            OracleKind::ServeEquiv => "ServeEquiv",
            OracleKind::FederatedSafety => "FederatedSafety",
        };
        write!(f, "{name}")
    }
}

impl FromStr for OracleKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "WellClocked" => Ok(OracleKind::WellClocked),
            "RoundTrip" => Ok(OracleKind::RoundTrip),
            "DenseEquiv" => Ok(OracleKind::DenseEquiv),
            "CompiledEquiv" => Ok(OracleKind::CompiledEquiv),
            "ThreadInvariance" => Ok(OracleKind::ThreadInvariance),
            "BmcEquiv" => Ok(OracleKind::BmcEquiv),
            "EstimateEquiv" => Ok(OracleKind::EstimateEquiv),
            "DesyncFlow" => Ok(OracleKind::DesyncFlow),
            "FederatedFlow" => Ok(OracleKind::FederatedFlow),
            "StaticDynamicAgreement" => Ok(OracleKind::StaticDynamicAgreement),
            "ServeEquiv" => Ok(OracleKind::ServeEquiv),
            "FederatedSafety" => Ok(OracleKind::FederatedSafety),
            other => Err(format!("unknown oracle `{other}`")),
        }
    }
}

/// A conformance violation: which oracle failed and why.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The violated oracle.
    pub oracle: OracleKind,
    /// Human-readable diagnosis.
    pub message: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.message)
    }
}

impl Failure {
    fn new(oracle: OracleKind, message: impl Into<String>) -> Failure {
        Failure { oracle, message: message.into() }
    }
}

/// The oracles applicable to a shape, in checking order.
pub fn oracles_for(shape: Shape) -> Vec<OracleKind> {
    match shape {
        Shape::Free => vec![
            OracleKind::WellClocked,
            OracleKind::RoundTrip,
            OracleKind::DenseEquiv,
            OracleKind::CompiledEquiv,
            OracleKind::ThreadInvariance,
            OracleKind::BmcEquiv,
        ],
        Shape::Pipeline => vec![
            OracleKind::WellClocked,
            OracleKind::RoundTrip,
            OracleKind::DenseEquiv,
            OracleKind::CompiledEquiv,
            OracleKind::ThreadInvariance,
            OracleKind::BmcEquiv,
            OracleKind::EstimateEquiv,
            OracleKind::DesyncFlow,
            OracleKind::FederatedFlow,
            OracleKind::StaticDynamicAgreement,
            OracleKind::ServeEquiv,
            OracleKind::FederatedSafety,
        ],
        Shape::Ring => vec![
            OracleKind::WellClocked,
            OracleKind::RoundTrip,
            OracleKind::DenseEquiv,
            OracleKind::CompiledEquiv,
            OracleKind::ThreadInvariance,
            OracleKind::BmcEquiv,
            OracleKind::FederatedSafety,
        ],
    }
}

/// Runs every oracle applicable to the case's shape; returns the first
/// failure.
///
/// # Errors
///
/// A [`Failure`] naming the violated oracle.
pub fn check_case(case: &GenCase) -> Result<(), Failure> {
    for kind in oracles_for(case.shape) {
        run_oracle(kind, case)?;
    }
    Ok(())
}

/// Runs one oracle.
///
/// # Errors
///
/// A [`Failure`] naming the violated oracle.
pub fn run_oracle(kind: OracleKind, case: &GenCase) -> Result<(), Failure> {
    match kind {
        OracleKind::WellClocked => well_clocked(case),
        OracleKind::RoundTrip => round_trip(case),
        OracleKind::DenseEquiv => dense_equiv(case),
        OracleKind::CompiledEquiv => compiled_equiv(case),
        OracleKind::ThreadInvariance => thread_invariance(case),
        OracleKind::BmcEquiv => bmc_equiv(case),
        OracleKind::EstimateEquiv => estimate_equiv(case),
        OracleKind::DesyncFlow => desync_flow(case),
        OracleKind::FederatedFlow => federated_flow(case),
        OracleKind::StaticDynamicAgreement => static_dynamic_agreement(case),
        OracleKind::ServeEquiv => serve_equiv(case),
        OracleKind::FederatedSafety => federated_safety(case),
    }
}

// ---------------------------------------------------------------------------

fn well_clocked(case: &GenCase) -> Result<(), Failure> {
    let k = OracleKind::WellClocked;
    resolve_program(&case.program).map_err(|e| Failure::new(k, format!("resolve: {e}")))?;
    check_program(&case.program).map_err(|e| Failure::new(k, format!("typecheck: {e}")))?;
    let mut sim = Simulator::for_program(&case.program)
        .map_err(|e| Failure::new(k, format!("elaborate: {e}")))?;
    match sim.run(&case.scenario) {
        Ok(_) | Err(SimError::ValueType { .. }) => Ok(()),
        Err(e) => Err(Failure::new(k, format!("clock-incorrect simulation: {e}"))),
    }
}

fn round_trip(case: &GenCase) -> Result<(), Failure> {
    let k = OracleKind::RoundTrip;
    let printed = pretty_program(&case.program);
    let reparsed = parse_program(&printed)
        .map_err(|e| Failure::new(k, format!("printout failed to reparse: {e}\n{printed}")))?;
    if reparsed != case.program {
        return Err(Failure::new(k, format!("reparsed program differs structurally:\n{printed}")));
    }
    resolve_program(&reparsed)
        .map_err(|e| Failure::new(k, format!("reparsed program fails resolution: {e}")))?;
    Ok(())
}

fn dense_equiv(case: &GenCase) -> Result<(), Failure> {
    let k = OracleKind::DenseEquiv;
    let mut legacy = Reactor::for_program(&case.program)
        .map_err(|e| Failure::new(k, format!("elaborate: {e}")))?;
    let mut dense = Reactor::for_program(&case.program)
        .map_err(|e| Failure::new(k, format!("elaborate: {e}")))?;
    let names = dense.signal_names().to_vec();
    let n = dense.signal_count();
    let mut env = DenseEnv::new(n);

    for (i, step) in case.scenario.iter().enumerate() {
        let legacy_out = legacy.react(step);
        env.reset(n);
        for (name, value) in step {
            let Some(id) = dense.sig_id(name) else {
                return Err(Failure::new(k, format!("scenario drives unknown signal `{name}`")));
            };
            env.set(id, *value);
        }
        match (legacy_out, dense.react_dense(&env)) {
            (Ok(l), Ok(d)) => {
                let d: Vec<(SigName, Value)> =
                    d.iter().map(|(id, v)| (names[id.index()].clone(), v)).collect();
                if l != d {
                    return Err(Failure::new(
                        k,
                        format!("present sets diverge at instant {i}: react {l:?}, dense {d:?}"),
                    ));
                }
            }
            (Err(l), Err(d)) => {
                if l.to_string() != d.to_string() {
                    return Err(Failure::new(
                        k,
                        format!("errors diverge at instant {i}: react `{l}`, dense `{d}`"),
                    ));
                }
            }
            (l, d) => {
                return Err(Failure::new(
                    k,
                    format!(
                        "one path rejected instant {i}: react {:?}, dense {:?}",
                        l.map(|_| "accepted"),
                        d.map(|_| "accepted")
                    ),
                ));
            }
        }
        if legacy.registers() != dense.registers() {
            return Err(Failure::new(k, format!("register files diverge after instant {i}")));
        }
    }
    Ok(())
}

/// One instant's outcome, normalized for bit-level comparison.
type Outcome = Result<Vec<(polysig_tagged::SigId, Value)>, String>;

fn react_outcome(r: &mut Reactor, env: &DenseEnv) -> Outcome {
    match r.react_dense(env) {
        Ok(out) => Ok(out.iter().collect()),
        Err(e) => Err(e.to_string()),
    }
}

fn compiled_equiv(case: &GenCase) -> Result<(), Failure> {
    let k = OracleKind::CompiledEquiv;
    let mut compiled = Reactor::for_program(&case.program)
        .map_err(|e| Failure::new(k, format!("elaborate: {e}")))?;
    let mut interp = Reactor::for_program_interpreted(&case.program)
        .map_err(|e| Failure::new(k, format!("elaborate: {e}")))?;
    let n = compiled.signal_count();
    let mut env = DenseEnv::new(n);

    // checkpoint both plans mid-run; the tail is recorded and must replay
    // bit-identically from the restored states
    let mid = case.scenario.len() / 2;
    let mut parked = None;
    let mut tail: Vec<Outcome> = Vec::new();

    for (i, step) in case.scenario.iter().enumerate() {
        if i == mid {
            parked = Some((compiled.snapshot(), interp.snapshot()));
        }
        env.reset(n);
        for (name, value) in step {
            let Some(id) = compiled.sig_id(name) else {
                return Err(Failure::new(k, format!("scenario drives unknown signal `{name}`")));
            };
            env.set(id, *value);
        }
        let c = react_outcome(&mut compiled, &env);
        let j = react_outcome(&mut interp, &env);
        if c != j {
            return Err(Failure::new(
                k,
                format!("plans diverge at instant {i}: compiled {c:?}, interpreted {j:?}"),
            ));
        }
        if compiled.registers() != interp.registers() {
            return Err(Failure::new(k, format!("register files diverge after instant {i}")));
        }
        if compiled.snapshot() != interp.snapshot() {
            return Err(Failure::new(k, format!("snapshots diverge after instant {i}")));
        }
        if parked.is_some() {
            tail.push(c);
        }
    }

    // resume: replaying the tail from the mid-run checkpoint must reproduce
    // the recorded outcomes exactly, on both plans
    if let Some((c_state, i_state)) = parked {
        compiled.restore(&c_state);
        interp.restore(&i_state);
        for (off, step) in case.scenario.iter().skip(mid).enumerate() {
            env.reset(n);
            for (name, value) in step {
                env.set(compiled.sig_id(name).unwrap(), *value);
            }
            let c = react_outcome(&mut compiled, &env);
            let j = react_outcome(&mut interp, &env);
            if c != tail[off] || j != tail[off] {
                return Err(Failure::new(
                    k,
                    format!(
                        "checkpoint replay diverges at instant {}: recorded {:?}, \
                         compiled {c:?}, interpreted {j:?}",
                        mid + off,
                        tail[off]
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// The property checked by the thread-invariance oracle: a bool output is
/// never true if one exists, otherwise an int output stays in range.
fn invariance_property(program: &Program) -> Option<Property> {
    let mut int_out = None;
    for c in &program.components {
        for d in &c.decls {
            if d.role != Role::Output {
                continue;
            }
            match d.ty {
                polysig_tagged::ValueType::Bool => {
                    return Some(Property::never_true(d.name.clone()))
                }
                polysig_tagged::ValueType::Int if int_out.is_none() => {
                    int_out = Some(d.name.clone());
                }
                _ => {}
            }
        }
    }
    int_out.map(|n| Property::always_in_range(n, -50, 50))
}

fn thread_invariance(case: &GenCase) -> Result<(), Failure> {
    let k = OracleKind::ThreadInvariance;
    if case.scenario.is_empty() {
        return Ok(());
    }

    // explicit-state checking over the scenario's letters, any letter at
    // any step, must be identical at every thread count; without an
    // environment automaton a layer grows as the letters multiply, so the
    // frontier splits it across workers, and the tight caps keep each leg
    // small (a leg that reaches `max_states` compares its abort)
    if let Some(property) = invariance_property(&case.program) {
        let mut letters: Vec<Letter> = Vec::new();
        for step in case.scenario.iter() {
            if !letters.contains(step) {
                letters.push(step.clone());
            }
        }
        if let Ok(alphabet) = Alphabet::from_letters(letters) {
            let run = |threads: usize| {
                check(
                    &case.program,
                    &alphabet,
                    &property,
                    &CheckOptions {
                        max_states: 256,
                        max_depth: Some(case.scenario.len().min(3)),
                        threads,
                        ..Default::default()
                    },
                )
            };
            let reference = run(1);
            for threads in [2usize, 4, 8] {
                match (&reference, run(threads)) {
                    (Ok(a), Ok(b)) => {
                        if let Some(field) = check_results_differ(a, &b) {
                            return Err(Failure::new(
                                k,
                                format!("check() diverges at {threads} threads on `{field}`"),
                            ));
                        }
                    }
                    (Err(a), Err(b)) => {
                        if a.to_string() != b.to_string() {
                            return Err(Failure::new(
                                k,
                                format!(
                                    "check() errors diverge at {threads} threads: `{a}` vs `{b}`"
                                ),
                            ));
                        }
                    }
                    (a, b) => {
                        return Err(Failure::new(
                            k,
                            format!(
                                "check() verdict/error split at {threads} threads: 1 thread {}, \
                                 {threads} threads {}",
                                describe(a),
                                describe(&b)
                            ),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// How one leg of [`OracleKind::BmcEquiv`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmcLeg {
    /// Both engines answered, and agreed.
    Compared,
    /// The symbolic backend cannot encode the case (`BmcUnsupported`).
    Unsupported,
    /// The explicit checker erred, so there is nothing to compare with.
    ExplicitError,
}

fn bmc_equiv(case: &GenCase) -> Result<(), Failure> {
    bmc_equiv_legs(case).map(|_| ())
}

/// Cross-validates the symbolic BMC backend against the explicit checker
/// on the scenario cycled as an environment automaton, at the scenario's
/// own depth: the two engines must agree on the verdict, and on a
/// violation the symbolic trace (already concretely replayed by the
/// backend) must equal the explicit BFS counterexample letter for letter.
/// The second leg opens the cycle's first state to every letter of the
/// alphabet. A synchronous ring never lowers (its merged clock is a cycle
/// through `default`), so ring cases run both legs on the ring's depth-1
/// desynchronized network instead, with every channel read at every
/// instant. Returns how each leg ended (none for a case without a
/// scenario or an invariance property).
///
/// # Errors
///
/// A [`Failure`] when the engines disagree or the symbolic backend errs.
pub fn bmc_equiv_legs(case: &GenCase) -> Result<Vec<BmcLeg>, Failure> {
    if case.scenario.is_empty() {
        return Ok(Vec::new());
    }
    let network = match case.shape {
        Shape::Ring => {
            let d = desynchronize(&case.program, &DesyncOptions::with_size(1).lenient())
                .map_err(|e| Failure::new(OracleKind::BmcEquiv, format!("desync: {e}")))?;
            let scenario = d.driver_scenario(case.scenario.len(), 1).zip_union(&case.scenario);
            Some((d.program, scenario))
        }
        _ => None,
    };
    let (program, scenario) = match &network {
        Some((p, s)) => (p, s),
        None => (&case.program, &case.scenario),
    };
    let Some(property) = invariance_property(program) else { return Ok(Vec::new()) };
    let mut letters: Vec<Letter> = Vec::new();
    for step in scenario.iter() {
        if !letters.contains(step) {
            letters.push(step.clone());
        }
    }
    let Ok(mut alphabet) = Alphabet::from_letters(letters) else { return Ok(Vec::new()) };
    let sequence: Vec<Letter> = scenario.iter().cloned().collect();
    let cycle = EnvAutomaton::cycle(&mut alphabet, &sequence);
    let mut open = cycle.clone();
    let successor = cycle.moves(0).map(|(_, to)| to).next().expect("a cycle state has a move");
    for li in 0..alphabet.len() {
        if open.moves(0).all(|(l, _)| l != li) {
            open.allow(0, li, successor);
        }
    }
    // both engines are cut at the same horizon, so the comparison stays
    // exact; capping bounds the cost of unrolling long scenarios
    let depth = scenario.len().min(10);
    [("cycle", cycle), ("open cycle", open)]
        .into_iter()
        .map(|(leg, env)| bmc_leg(leg, program, &alphabet, &property, env, depth))
        .collect()
}

fn bmc_leg(
    leg: &str,
    program: &Program,
    alphabet: &Alphabet,
    property: &Property,
    env: EnvAutomaton,
    depth: usize,
) -> Result<BmcLeg, Failure> {
    let k = OracleKind::BmcEquiv;
    let explicit = match check(
        program,
        alphabet,
        property,
        &CheckOptions {
            max_states: 50_000,
            max_depth: Some(depth),
            env: Some(env.clone()),
            threads: 1,
            ..Default::default()
        },
    ) {
        Ok(r) => r,
        // explicit errors (overflow paths, state caps) have no symbolic
        // analogue — BMC prunes erroring paths as infeasible — so the
        // verdicts are incomparable, not wrong
        Err(_) => return Ok(BmcLeg::ExplicitError),
    };

    let symbolic = match check(
        program,
        alphabet,
        property,
        &CheckOptions { env: Some(env), backend: Backend::Bmc { depth }, ..Default::default() },
    ) {
        Ok(r) => r,
        Err(VerifyError::BmcUnsupported { .. }) => return Ok(BmcLeg::Unsupported),
        Err(e) => return Err(Failure::new(k, format!("{leg}: symbolic backend failed: {e}"))),
    };

    if explicit.holds != symbolic.holds {
        return Err(Failure::new(
            k,
            format!(
                "{leg}: verdicts diverge at depth {depth}: explicit holds={}, symbolic holds={}",
                explicit.holds, symbolic.holds
            ),
        ));
    }
    if !explicit.holds {
        let e = explicit.counterexample.as_ref().expect("explicit violation carries a trace");
        let s = symbolic.counterexample.as_ref().expect("symbolic violation carries a trace");
        if e.letters() != s.letters() {
            return Err(Failure::new(
                k,
                format!(
                    "{leg}: counterexamples diverge at depth {depth}:\n  explicit {e}\n  \
                     symbolic {s}"
                ),
            ));
        }
    }
    Ok(BmcLeg::Compared)
}

fn check_results_differ(a: &CheckResult, b: &CheckResult) -> Option<&'static str> {
    if a.holds != b.holds {
        return Some("holds");
    }
    if a.counterexample != b.counterexample {
        return Some("counterexample");
    }
    if a.states_explored != b.states_explored {
        return Some("states_explored");
    }
    if a.transitions != b.transitions {
        return Some("transitions");
    }
    if a.pruned != b.pruned {
        return Some("pruned");
    }
    if a.depth_bounded != b.depth_bounded {
        return Some("depth_bounded");
    }
    None
}

fn describe<T, E: fmt::Display>(r: &Result<T, E>) -> String {
    match r {
        Ok(_) => "Ok".to_string(),
        Err(e) => format!("Err({e})"),
    }
}

fn estimate_equiv(case: &GenCase) -> Result<(), Failure> {
    let k = OracleKind::EstimateEquiv;
    let Some(est) = &case.est_scenario else { return Ok(()) };
    let opts = EstimationOptions { threads: 1, ..Default::default() };
    let cold = estimate_buffer_sizes_reference(&case.program, est, &opts);
    let inc = estimate_buffer_sizes(&case.program, est, &opts);
    match (cold, inc) {
        (Ok(a), Ok(b)) => {
            if a != b {
                Err(Failure::new(
                    k,
                    format!(
                        "cached report differs from the reference: reference {} rounds \
                         (converged {}), cached {} rounds (converged {}); reference sizes {:?}, \
                         cached sizes {:?}",
                        a.iterations(),
                        a.converged,
                        b.iterations(),
                        b.converged,
                        a.final_sizes,
                        b.final_sizes
                    ),
                ))
            } else {
                Ok(())
            }
        }
        (Err(a), Err(b)) => {
            if a.to_string() != b.to_string() {
                Err(Failure::new(
                    k,
                    format!("engines fail differently: reference `{a}`, cached `{b}`"),
                ))
            } else {
                Ok(())
            }
        }
        (a, b) => Err(Failure::new(
            k,
            format!(
                "engines disagree on success: reference {}, cached {}",
                describe(&a),
                describe(&b)
            ),
        )),
    }
}

/// Keeps only the named signals of each step.
fn project(s: &Scenario, keep: &[SigName]) -> Scenario {
    let mut out = Scenario::new();
    for step in s.iter() {
        let filtered: BTreeMap<SigName, Value> =
            step.iter().filter(|(n, _)| keep.contains(n)).map(|(n, v)| (n.clone(), *v)).collect();
        out.push_step(filtered);
    }
    out
}

fn desync_flow(case: &GenCase) -> Result<(), Failure> {
    let k = OracleKind::DesyncFlow;
    let Some(est) = &case.est_scenario else { return Ok(()) };

    let keep: Vec<SigName> = external_inputs(&case.program).into_iter().map(|(n, _)| n).collect();
    let left_scn = project(est, &keep);
    // the oracle is vacuous when the synchronous reference itself errors
    // (e.g. checked-arithmetic overflow)
    let Ok(mut sync_sim) = Simulator::for_program(&case.program) else {
        return Err(Failure::new(k, "synchronous program failed to elaborate".to_string()));
    };
    if sync_sim.run(&left_scn).is_err() {
        return Ok(());
    }

    let opts = EstimationOptions { threads: 1, ..Default::default() };
    let Ok(report) = estimate_buffer_sizes(&case.program, est, &opts) else {
        // estimation errors are judged by the EstimateEquiv oracle
        return Ok(());
    };
    if !report.converged {
        return Ok(());
    }

    let d = desynchronize(
        &case.program,
        &DesyncOptions {
            sizes: report.final_sizes.clone(),
            default_size: 1,
            instrument: false,
            enforce_endochrony: false,
        },
    )
    .map_err(|e| Failure::new(k, format!("desynchronize failed with converged sizes: {e}")))?;

    let mut map: Vec<(SigName, SigName)> =
        d.channels.iter().map(|ch| (ch.spec.signal.clone(), ch.out_signal.clone())).collect();
    let channel_names: Vec<SigName> = map.iter().map(|(l, _)| l.clone()).collect();
    for c in &case.program.components {
        for decl in &c.decls {
            if decl.role == Role::Output && !channel_names.contains(&decl.name) {
                map.push((decl.name.clone(), decl.name.clone()));
            }
        }
    }

    let pairs = vec![(left_scn, est.clone())];
    let report = compare_flows(&case.program, &d.program, &pairs, &map, FlowRelation::PrefixOfLeft)
        .map_err(|e| Failure::new(k, format!("GALS model failed to simulate: {e}")))?;
    match report.mismatches.first() {
        Some(m) => Err(Failure::new(
            k,
            format!(
                "GALS flow is not a prefix of the synchronous flow for \
                 ({} -> {}): sync {:?}, gals {:?}",
                m.left_signal, m.right_signal, m.left_flow, m.right_flow
            ),
        )),
        None => Ok(()),
    }
}

/// The runtime half of Theorems 1–2: deploy the pipeline as compiled
/// federates over bounded credit channels and demand per-signal flow
/// *equality* with the synchronous reference.
///
/// Equality (not just prefix) holds because the generator's pipeline
/// stages are flow functions of their single channel input — stage 0
/// replays the writer scenario activation-for-activation, and every later
/// stage runs data-driven (one reaction per arriving value), so the
/// federation is a Kahn network whose flows are determined by the input
/// flows alone. The check runs twice — capacity 1 (every channel fully
/// serialized, the producer stalls constantly) and statically proven
/// capacities (maximal slack) — because different capacities induce very
/// different interleavings, and the flows must not care.
fn federated_flow(case: &GenCase) -> Result<(), Failure> {
    use polysig_gals::runtime::{run_federated, FederateSpec, FederatedOptions};

    let k = OracleKind::FederatedFlow;
    // the oracle is vacuous when the synchronous reference itself errors
    // (e.g. checked-arithmetic overflow)
    let Ok(mut sync_sim) = Simulator::for_program(&case.program) else {
        return Err(Failure::new(k, "synchronous program failed to elaborate".to_string()));
    };
    let Ok(reference) = sync_sim.run(&case.scenario) else {
        return Ok(());
    };

    let steps = case.scenario.len();
    let federates = || -> Vec<FederateSpec> {
        case.program
            .components
            .iter()
            .enumerate()
            .map(|(j, c)| {
                if j == 0 {
                    // the source stage replays the writer scenario
                    // activation-for-activation
                    FederateSpec::new(c.name.clone(), steps).with_environment(case.scenario.clone())
                } else {
                    // interior stages react once per arriving value and
                    // retire when upstream drains; the budget is slack
                    FederateSpec::new(c.name.clone(), 4 * steps + 8).data_driven()
                }
            })
            .collect()
    };

    // capacity variants: 1 (fully serialized) and statically proven depths
    // (maximal slack); when no scenario is available for the prover, a flat
    // default of 2 still changes every interleaving
    let proven = case.est_scenario.as_ref().map(|est| FederatedOptions {
        capacities: prove_bounds(&case.program, est, &ProveOptions::default())
            .federate_capacities(),
        default_capacity: 2,
        ..FederatedOptions::default()
    });
    let variants = [
        FederatedOptions::default(),
        proven.unwrap_or_else(|| FederatedOptions::default().with_default_capacity(2)),
    ];

    for options in &variants {
        let run = run_federated(&case.program, federates(), options).map_err(|e| {
            Failure::new(
                k,
                format!(
                    "federated run failed (capacities {:?}, default {}): {e}",
                    options.capacities, options.default_capacity
                ),
            )
        })?;
        if run.teardown.spawned != run.teardown.joined {
            return Err(Failure::new(
                k,
                format!(
                    "teardown leaked threads: spawned {}, joined {}",
                    run.teardown.spawned, run.teardown.joined
                ),
            ));
        }
        for c in &case.program.components {
            for d in c.decls.iter().filter(|d| d.role == Role::Output) {
                let fed = run.flow(&c.name, &d.name);
                let sync = reference.flow(&d.name);
                if fed != sync {
                    return Err(Failure::new(
                        k,
                        format!(
                            "flow of `{}` (component `{}`, capacities {:?}, default {}) \
                             diverges from the synchronous reference:\n  sync {:?}\n  fed  {:?}",
                            d.name, c.name, options.capacities, options.default_capacity, sync, fed
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

fn federated_safety(case: &GenCase) -> Result<(), Failure> {
    use polysig_analyze::{analyze_deployment, DeploymentPlan};
    use polysig_gals::runtime::{run_federated, FederateSpec, FederatedOptions};
    use std::time::Duration;

    let k = OracleKind::FederatedSafety;
    let steps = case.scenario.len();
    let watchdog = Duration::from_millis(20);

    // --- positive half: the canonical deployment is proven deadlock-free
    // and the live runtime completes with the stall watchdog silent -------
    let plan = DeploymentPlan::canonical(&case.program, Some(&case.scenario));
    let (report, diags) = analyze_deployment(&case.program, &plan, None);
    if !report.is_deadlock_free() {
        return Err(Failure::new(
            k,
            format!("canonical deployment not proven deadlock-free: {:?}", report.verdict),
        ));
    }
    if !diags.is_empty() {
        return Err(Failure::new(k, format!("canonical deployment raised diagnostics: {diags:?}")));
    }

    let specs = |all_data_driven: bool| -> Vec<FederateSpec> {
        case.program
            .components
            .iter()
            .map(|c| {
                if all_data_driven || plan.data_driven.contains(&c.name) {
                    FederateSpec::new(c.name.clone(), 4 * steps + 8).data_driven()
                } else {
                    FederateSpec::new(c.name.clone(), steps).with_environment(case.scenario.clone())
                }
            })
            .collect()
    };

    // pipeline cases additionally pin the analyzer's own capacity
    // suggestions: `minimal_safe_capacities` must audit PA009-clean and the
    // runtime must complete stall-free at exactly those capacities
    let mut options = FederatedOptions::default().with_watchdog(watchdog);
    if let Some(est) = &case.est_scenario {
        let bounds = prove_bounds(&case.program, est, &ProveOptions::default());
        let minimal = bounds.minimal_safe_capacities();
        let audited = plan.clone().with_capacities(minimal.clone());
        let (_, audit) = analyze_deployment(&case.program, &audited, Some(&bounds));
        if !audit.is_empty() {
            return Err(Failure::new(
                k,
                format!("minimal_safe_capacities fails its own PA009 audit: {audit:?}"),
            ));
        }
        options = options.with_proven_capacities(minimal);
    }
    let run = run_federated(&case.program, specs(false), &options)
        .map_err(|e| Failure::new(k, format!("deadlock-free deployment failed to run: {e}")))?;
    if run.teardown.spawned != run.teardown.joined {
        return Err(Failure::new(
            k,
            format!(
                "teardown leaked threads: spawned {}, joined {}",
                run.teardown.spawned, run.teardown.joined
            ),
        ));
    }
    if run.deadlocked() {
        return Err(Failure::new(
            k,
            format!(
                "analyzer proved the deployment deadlock-free but the watchdog fired: {:?}",
                run.watchdog
            ),
        ));
    }

    // --- negative half (ring cases): the all-data-driven deployment of the
    // same program must get a PA008 verdict AND demonstrably stall --------
    if case.shape == Shape::Ring {
        let adversarial = case
            .program
            .components
            .iter()
            .fold(DeploymentPlan::default(), |p, c| p.driven(c.name.clone()));
        let (report, diags) = analyze_deployment(&case.program, &adversarial, None);
        if report.is_deadlock_free() {
            return Err(Failure::new(
                k,
                "all-data-driven ring wrongly proven deadlock-free".to_string(),
            ));
        }
        if !diags.iter().any(|d| d.render().contains("PA008")) {
            return Err(Failure::new(
                k,
                format!("all-data-driven ring raised no PA008: {:?}", report.verdict),
            ));
        }
        let stalled = run_federated(&case.program, specs(true), &options).map_err(|e| {
            Failure::new(k, format!("adversarial run errored instead of stalling: {e}"))
        })?;
        if !stalled.deadlocked() {
            return Err(Failure::new(
                k,
                "analyzer flagged a deadlock but the adversarial run completed without the \
                 watchdog firing"
                    .to_string(),
            ));
        }
        if stalled.teardown.spawned != stalled.teardown.joined {
            return Err(Failure::new(
                k,
                "the fired watchdog failed to drain the federation".to_string(),
            ));
        }
    }
    Ok(())
}

/// Output flows of one fresh simulation run, or `None` when the run itself
/// fails (a legal outcome judged by other oracles).
fn output_flows(program: &Program, scenario: &Scenario) -> Option<Vec<(SigName, Vec<Value>)>> {
    let mut sim = Simulator::for_program(program).ok()?;
    let run = sim.run(scenario).ok()?;
    Some(
        program
            .components
            .iter()
            .flat_map(|c| c.decls.iter())
            .filter(|d| d.role == Role::Output)
            .map(|d| (d.name.clone(), run.flow(&d.name)))
            .collect(),
    )
}

fn static_dynamic_agreement(case: &GenCase) -> Result<(), Failure> {
    let k = OracleKind::StaticDynamicAgreement;
    let Some(est) = &case.est_scenario else { return Ok(()) };

    // (a) the endochrony verdict must agree with observable determinism:
    // when every component is endochronous, two fresh runs under the same
    // input flows produce identical output flows
    let all_endochronous = case
        .program
        .components
        .iter()
        .all(|c| matches!(classify_endochrony(c), Endochrony::Endochronous));
    if all_endochronous {
        if let (Some(a), Some(b)) = (
            output_flows(&case.program, &case.scenario),
            output_flows(&case.program, &case.scenario),
        ) {
            if a != b {
                return Err(Failure::new(
                    k,
                    "all components are endochronous, yet two runs under identical inputs \
                     produced different output flows"
                        .to_string(),
                ));
            }
        }
    }

    // (b) the static bounds must agree with the dynamic estimation loop
    let bounds = prove_bounds(&case.program, est, &ProveOptions::default());
    let opts = EstimationOptions { threads: 1, ..Default::default() };
    let Ok(dynamic) = estimate_buffer_sizes(&case.program, est, &opts) else {
        // estimation errors are judged by the EstimateEquiv oracle
        return Ok(());
    };
    for (signal, bound) in &bounds.bounds {
        let size = dynamic.final_sizes.get(signal).copied();
        match bound {
            ChannelBound::Exact { depth } => {
                if !dynamic.converged {
                    return Err(Failure::new(
                        k,
                        format!(
                            "static proof says `{signal}` converges at depth {depth}, but the \
                             dynamic loop did not converge"
                        ),
                    ));
                }
                if size != Some(*depth) {
                    return Err(Failure::new(
                        k,
                        format!(
                            "static exact bound for `{signal}` is {depth}, dynamic loop \
                             converged at {size:?}"
                        ),
                    ));
                }
            }
            ChannelBound::UpperBound { depth } => {
                if dynamic.converged && size.is_some_and(|s| s > *depth) {
                    return Err(Failure::new(
                        k,
                        format!(
                            "static upper bound for `{signal}` is {depth}, dynamic loop \
                             converged above it at {size:?}"
                        ),
                    ));
                }
            }
            ChannelBound::Unbounded => {
                if dynamic.converged {
                    return Err(Failure::new(
                        k,
                        format!(
                            "`{signal}` is proven unbounded, yet the dynamic loop converged \
                             at {size:?}"
                        ),
                    ));
                }
            }
            ChannelBound::Unknown => {}
        }
    }

    // (c) warm-starting from the proven bounds must not change the outcome:
    // same final sizes and verdict, no additional rounds
    let proven = bounds.warm_start();
    if dynamic.converged && !proven.is_empty() {
        match estimate_buffer_sizes(
            &case.program,
            est,
            &EstimationOptions { threads: 1, proven, ..Default::default() },
        ) {
            Ok(warm) => {
                if warm.final_sizes != dynamic.final_sizes || warm.converged != dynamic.converged {
                    return Err(Failure::new(
                        k,
                        format!(
                            "warm-started estimation changed the outcome: plain {:?} \
                             (converged {}), warm {:?} (converged {})",
                            dynamic.final_sizes,
                            dynamic.converged,
                            warm.final_sizes,
                            warm.converged
                        ),
                    ));
                }
                if warm.iterations() > dynamic.iterations() {
                    return Err(Failure::new(
                        k,
                        format!(
                            "warm start ran more rounds than the plain loop ({} > {})",
                            warm.iterations(),
                            dynamic.iterations()
                        ),
                    ));
                }
            }
            Err(e) => {
                return Err(Failure::new(k, format!("warm-started estimation failed: {e}")));
            }
        }
    }
    Ok(())
}

/// The serving engine is a transparent cache: cold execution, a warm
/// cache hit, and batched duplicate submission must all return payloads
/// field-for-field identical to direct library calls with the same
/// (budget-clamped) options the engine derives for the request. On the
/// wire, the cold answer and the hit must be byte for byte the rendering
/// of a response carrying that direct outcome.
fn serve_equiv(case: &GenCase) -> Result<(), Failure> {
    use polysig::serve::engine::{Engine, EngineConfig};
    use polysig::serve::proto::{
        Outcome, ParseSummary, PipelineReport, Request, RequestKind, Response,
    };
    use polysig::serve::Served;
    use polysig_analyze::{analyze_program, analyze_with_scenario};
    use polysig_gals::Estimator;
    use std::sync::Arc;

    let k = OracleKind::ServeEquiv;
    let source = pretty_program(&case.program);
    let engine = Engine::new(EngineConfig::default());
    let mut req = Request::new(1, RequestKind::Pipeline, source.clone());
    req.scenario = case.est_scenario.as_ref().map(Scenario::to_text);

    // cold execution, then a warm cache hit, both as the server sends them
    let cold_wire = engine.submit_wire(&req);
    let hit_req = Request { id: 2, ..req.clone() };
    let hit_wire = engine.submit_wire(&hit_req);
    // the typed hit path: identical payload
    let warm = engine.submit(&req);
    if warm.served != Served::Hit {
        return Err(Failure::new(k, format!("repeat submission served {:?}", warm.served)));
    }
    // batched duplicates: one execution, identical payloads throughout
    let batch: Vec<Request> = (0..4).map(|i| Request { id: 10 + i, ..req.clone() }).collect();
    for resp in engine.submit_many(&batch, 4) {
        if resp.outcome != warm.outcome {
            return Err(Failure::new(k, "batched duplicate returned a different payload"));
        }
    }
    let stats = engine.stats();
    if stats.executed != 1 {
        return Err(Failure::new(
            k,
            format!("{} executions for one request key (want 1)", stats.executed),
        ));
    }

    // the reference: direct library calls on the same source and options
    let source_error =
        |stage: &str, e: String| Outcome::SourceError { stage: stage.into(), message: e };
    let scenario = req
        .scenario
        .as_deref()
        .map(Scenario::from_text)
        .transpose()
        .map_err(|e| Failure::new(k, format!("scenario does not round-trip: {e}")))?;
    let expected = match polysig_lang::check_program(&source) {
        Err(e) => source_error("resolve", e.to_string()),
        Ok(program) => {
            let analysis = match &scenario {
                Some(s) => analyze_with_scenario(&program, s, &ProveOptions::default()),
                None => analyze_program(&program),
            };
            let estimation = scenario.as_ref().map(|s| {
                Estimator::new(&program)
                    .and_then(|mut est| est.estimate(s, &engine.estimation_options(&req)))
            });
            match estimation.transpose() {
                Err(e) => source_error("estimate", e.to_string()),
                Ok(estimation) => Outcome::Pipeline(Box::new(PipelineReport {
                    parse: ParseSummary::of(&program),
                    analysis,
                    estimation,
                    check: None,
                })),
            }
        }
    };
    if *warm.outcome != expected {
        return Err(Failure::new(
            k,
            format!(
                "served payload differs from direct library calls:\nserved   {:?}\nexpected {:?}",
                warm.outcome, expected
            ),
        ));
    }
    let expected = Arc::new(expected);
    for (wire, id, served) in [(cold_wire, 1, Served::Cold), (hit_wire, 2, Served::Hit)] {
        let want = Response { id, served, outcome: Arc::clone(&expected) }.to_json();
        if wire != want {
            return Err(Failure::new(
                k,
                format!(
                    "{served:?} answer on the wire differs from the direct outcome's \
                     rendering:\nserved   {wire}\nexpected {want}"
                ),
            ));
        }
    }
    Ok(())
}
