//! The serving engine: content-hash caching, single-flight coalescing,
//! and per-request budgets around the parse→resolve→lint→estimate→check
//! pipeline.
//!
//! ## Cache keying
//!
//! Every request is addressed by a SHA-256 over (kind, *normalized*
//! source, scenario, property, estimation params) — each field
//! length-prefixed so the encoding is injective. Normalization collapses
//! whitespace runs, so reformatting a program re-uses its cache entries;
//! nothing semantic is erased. `threads` is deliberately *excluded*: the
//! checker and estimator are thread-invariant by contract (fuzzed by the
//! `ThreadInvariance` oracle), so thread count cannot change an answer.
//!
//! Two caches share the configured byte budget: a **result cache**
//! (terminal [`Outcome`]s by request key, each with its payload text
//! rendered once on the miss, so a hit on the wire is one copy of bytes)
//! and a **program cache** (resolved [`Program`]s plus their reusable
//! [`Estimator`] skeleton, by source key). Only successful outcomes are cached — errors and budget
//! breaches are cheap to recompute and must not shadow a later fix.
//!
//! ## Single-flight
//!
//! A request whose key is already being computed does not recompute: it
//! registers as a waiter and receives the winner's outcome verbatim
//! (`served: "coalesced"`). Distinct keys run concurrently on the
//! caller's threads ([`Engine::submit_many`] fans a batch across a worker
//! pool).
//!
//! ## Budgets
//!
//! Deterministic caps come first: scenario length is admitted against
//! `Budget::max_instants` before any simulation, estimation growth is
//! clamped to `Budget::{max_rounds, max_fifo_depth}`, and the checker
//! runs under `Budget::max_states` (a `StateCapExceeded` becomes a
//! structured [`Outcome::BudgetExceeded`]). The wall-clock timeout is a
//! cooperative backstop polled between stages.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use polysig_analyze::{analyze_program, analyze_with_scenario, AnalysisReport, ProveOptions};
use polysig_gals::budget::{Breach, Budget, Stopwatch};
use polysig_gals::cache::{ByteLru, CacheStats, ContentHash, Sha256};
use polysig_gals::{EstimationOptions, EstimationReport, Estimator};
use polysig_lang::ast::Program;
use polysig_lang::check_program;
use polysig_sim::Scenario;
use polysig_verify::{check, Alphabet, CheckOptions, Property, VerifyError};

use super::proto::{
    render_payload, write_envelope, CheckSummary, Outcome, ParseSummary, PipelineReport, Request,
    RequestKind, Response, Served,
};

/// Integer alphabet the `check` stage explores. Part of the protocol
/// contract: the `ServeEquiv` oracle reproduces direct calls with the
/// same letters.
pub const CHECK_INT_VALUES: &[i64] = &[0, 1];

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Byte budget for the result cache.
    pub result_cache_bytes: usize,
    /// Byte budget for the resolved-program cache.
    pub program_cache_bytes: usize,
    /// Default worker threads handed to the estimator/checker when a
    /// request does not pin its own, and the most a request may pin
    /// (`0` = detected parallelism).
    pub threads: usize,
    /// Per-request resource caps.
    pub budget: Budget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            result_cache_bytes: 48 << 20,
            program_cache_bytes: 16 << 20,
            threads: 0,
            budget: Budget::default(),
        }
    }
}

/// A resolved program plus the reusable estimation skeleton.
struct ProgramEntry {
    program: Program,
    parse: ParseSummary,
    /// Lazily built on the first estimate request; the `DesyncCache`
    /// skeleton and compiled-round memo inside survive across requests.
    estimator: Mutex<Option<Estimator>>,
}

/// A request's answer: the outcome and its payload as JSON text. The
/// result cache holds these, so the text is rendered once, on the miss.
struct Answer {
    outcome: Arc<Outcome>,
    payload: String,
}

impl Answer {
    fn new(outcome: Outcome) -> Arc<Answer> {
        let payload = render_payload(&outcome);
        Arc::new(Answer { outcome: Arc::new(outcome), payload })
    }
}

struct Inner {
    results: ByteLru<ContentHash, Arc<Answer>>,
    programs: ByteLru<ContentHash, Arc<ProgramEntry>>,
    inflight: HashMap<ContentHash, Vec<mpsc::Sender<Arc<Answer>>>>,
    coalesced: u64,
    budget_breaches: u64,
    executed: u64,
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Result-cache counters.
    pub results: CacheStats,
    /// Program-cache counters.
    pub programs: CacheStats,
    /// Requests answered by another request's in-flight computation.
    pub coalesced: u64,
    /// Requests that ended in [`Outcome::BudgetExceeded`].
    pub budget_breaches: u64,
    /// Requests that actually executed the pipeline (cold path).
    pub executed: u64,
}

/// The serving engine. Shared across connection/worker threads behind an
/// [`Arc`]; all state is internally synchronized.
pub struct Engine {
    config: EngineConfig,
    inner: Mutex<Inner>,
}

impl Engine {
    /// An engine with `config`.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            inner: Mutex::new(Inner {
                results: ByteLru::new(config.result_cache_bytes),
                programs: ByteLru::new(config.program_cache_bytes),
                inflight: HashMap::new(),
                coalesced: 0,
                budget_breaches: 0,
                executed: 0,
            }),
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let inner = self.inner.lock().expect("engine lock");
        EngineStats {
            results: inner.results.stats(),
            programs: inner.programs.stats(),
            coalesced: inner.coalesced,
            budget_breaches: inner.budget_breaches,
            executed: inner.executed,
        }
    }

    /// Whitespace-run normalization — the equivalence the source half of
    /// the cache key quotients by.
    pub fn normalize(source: &str) -> String {
        source.split_whitespace().collect::<Vec<_>>().join(" ")
    }

    /// Absorbs [`Engine::normalize`]`(source)` as one length-prefixed
    /// field without materializing the normalized string — the hit path
    /// runs this on every request, so it must not allocate.
    fn normalized_field(h: &mut Sha256, source: &str) {
        let mut len = 0u64;
        for tok in source.split_whitespace() {
            len += tok.len() as u64 + 1;
        }
        h.update(&len.saturating_sub(1).to_le_bytes());
        let mut sep: &[u8] = b"";
        for tok in source.split_whitespace() {
            h.update(sep);
            h.update(tok.as_bytes());
            sep = b" ";
        }
    }

    /// The content key addressing `req`'s cache entry.
    pub fn request_key(&self, req: &Request) -> ContentHash {
        let mut h = Sha256::new();
        h.field(req.kind.as_str().as_bytes());
        Engine::normalized_field(&mut h, &req.source);
        h.field(req.scenario.as_deref().unwrap_or("").as_bytes());
        h.field(req.property.as_deref().unwrap_or("").as_bytes());
        let p = &req.params;
        let opt = |v: Option<usize>| v.map_or(-1i64, |x| x as i64).to_le_bytes();
        h.field(&opt(p.initial_size));
        h.field(&opt(p.max_iterations));
        h.field(&opt(p.max_size));
        h.finish()
    }

    fn source_key(source: &str) -> ContentHash {
        let mut h = Sha256::new();
        Engine::normalized_field(&mut h, source);
        h.finish()
    }

    /// The estimation options `req` runs under — the request's knobs over
    /// the library defaults, clamped to the budget. Public so the
    /// `ServeEquiv` oracle can reproduce direct calls exactly.
    pub fn estimation_options(&self, req: &Request) -> EstimationOptions {
        let mut o = EstimationOptions::default();
        if let Some(v) = req.params.initial_size {
            o.initial_size = v;
        }
        if let Some(v) = req.params.max_iterations {
            o.max_iterations = v;
        }
        if let Some(v) = req.params.max_size {
            o.max_size = v;
        }
        let b = &self.config.budget;
        o.max_iterations = o.max_iterations.min(b.max_rounds);
        o.max_size = o.max_size.min(b.max_fifo_depth);
        o.threads = self.effective_threads(req);
        o
    }

    /// The check options `req` runs under. Public for oracle parity.
    pub fn check_options(&self, req: &Request) -> CheckOptions {
        CheckOptions {
            max_states: self.config.budget.max_states,
            threads: self.effective_threads(req),
            ..CheckOptions::default()
        }
    }

    /// The request's `threads`, capped at the server's own default: the
    /// count comes off the wire, and the checker spawns workers from it.
    fn effective_threads(&self, req: &Request) -> usize {
        let cap = match self.config.threads {
            0 => crossbeam::pool::default_threads(),
            n => n,
        };
        match req.threads {
            0 => cap,
            n => n.min(cap),
        }
    }

    /// Serves one request: result-cache hit, coalesce onto an identical
    /// in-flight computation, or execute cold.
    pub fn submit(&self, req: &Request) -> Response {
        let (served, answer) = self.answer(req);
        Response { id: req.id, served, outcome: Arc::clone(&answer.outcome) }
    }

    /// Serves one request like [`Engine::submit`] and returns the response
    /// document the server sends, byte for byte `submit(req).to_json()`.
    /// The payload text comes from the cache entry, so a hit renders
    /// nothing: it copies the cached bytes into a fresh envelope.
    pub fn submit_wire(&self, req: &Request) -> String {
        let (served, answer) = self.answer(req);
        write_envelope(req.id, served, &answer.outcome, &answer.payload)
    }

    fn answer(&self, req: &Request) -> (Served, Arc<Answer>) {
        let key = self.request_key(req);
        {
            let mut inner = self.inner.lock().expect("engine lock");
            if let Some(answer) = inner.results.get(&key) {
                return (Served::Hit, Arc::clone(answer));
            }
            if let Some(waiters) = inner.inflight.get_mut(&key) {
                let (tx, rx) = mpsc::channel();
                waiters.push(tx);
                inner.coalesced += 1;
                drop(inner);
                let answer = rx.recv().unwrap_or_else(|_| {
                    Answer::new(Outcome::SourceError {
                        stage: "serve".into(),
                        message: "in-flight computation dropped".into(),
                    })
                });
                return (Served::Coalesced, answer);
            }
            inner.inflight.insert(key, Vec::new());
        }
        // rendered here, outside the lock, and never again for this key
        let answer = Answer::new(self.execute(req));
        {
            let mut inner = self.inner.lock().expect("engine lock");
            inner.executed += 1;
            if matches!(&*answer.outcome, Outcome::BudgetExceeded { .. }) {
                inner.budget_breaches += 1;
            }
            if cacheable(&answer.outcome) {
                let cost = outcome_cost(&answer.outcome) + answer.payload.len();
                inner.results.insert(key, Arc::clone(&answer), cost);
            }
            let waiters = inner.inflight.remove(&key).unwrap_or_default();
            for w in waiters {
                let _ = w.send(Arc::clone(&answer));
            }
        }
        (Served::Cold, answer)
    }

    /// Fans `requests` across `threads` workers (same-keyed requests
    /// coalesce); responses come back in request order.
    ///
    /// Each worker claims the next unanswered index from a shared cursor,
    /// so a slow request never holds back the rest of the batch.
    pub fn submit_many(&self, requests: &[Request], threads: usize) -> Vec<Response> {
        let threads = threads.max(1).min(requests.len().max(1));
        if threads == 1 {
            return requests.iter().map(|r| self.submit(r)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut answered: Vec<(usize, Response)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(req) = requests.get(i) else { break done };
                            done.push((i, self.submit(req)));
                        }
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("submit worker panicked")).collect()
        });
        answered.sort_unstable_by_key(|&(i, _)| i);
        answered.into_iter().map(|(_, resp)| resp).collect()
    }

    /// Resolves (or re-uses) the program entry for `source`.
    //
    // These helpers run only on a cache miss, where one full analysis
    // dwarfs moving an `Outcome` by value; the cached copy is behind an
    // `Arc` anyway.
    #[allow(clippy::result_large_err)]
    fn program_entry(&self, source: &str) -> Result<Arc<ProgramEntry>, Outcome> {
        let key = Engine::source_key(source);
        {
            let mut inner = self.inner.lock().expect("engine lock");
            if let Some(entry) = inner.programs.get(&key) {
                return Ok(Arc::clone(entry));
            }
        }
        let program = check_program(source).map_err(|e| Outcome::SourceError {
            stage: "resolve".into(),
            message: e.to_string(),
        })?;
        let entry = Arc::new(ProgramEntry {
            parse: ParseSummary::of(&program),
            program,
            estimator: Mutex::new(None),
        });
        let cost = program_cost(&entry);
        let mut inner = self.inner.lock().expect("engine lock");
        inner.programs.insert(key, Arc::clone(&entry), cost);
        Ok(entry)
    }

    fn execute(&self, req: &Request) -> Outcome {
        let budget = self.config.budget;
        let sw = Stopwatch::start(&budget);
        let entry = match self.program_entry(&req.source) {
            Ok(e) => e,
            Err(out) => return out,
        };
        let scenario = match &req.scenario {
            Some(text) => match Scenario::from_text(text) {
                Ok(s) => Some(s),
                Err(message) => return Outcome::SourceError { stage: "scenario".into(), message },
            },
            None => None,
        };
        if let Some(s) = &scenario {
            if let Err(b) = budget.admit_instants(s.len()) {
                return breach(b);
            }
        }
        if let Err(b) = sw.check("resolve") {
            return breach(b);
        }
        match req.kind {
            RequestKind::Parse => Outcome::Parsed(entry.parse.clone()),
            RequestKind::Lint => match self.run_lint(&entry, scenario.as_ref()) {
                Ok(a) => Outcome::Analysis(a),
                Err(out) => out,
            },
            RequestKind::Estimate => match self.run_estimate(req, &entry, scenario.as_ref(), &sw) {
                Ok(e) => Outcome::Estimation(e),
                Err(out) => out,
            },
            RequestKind::Check => match self.run_check(req, &entry, &sw) {
                Ok(c) => Outcome::Checked(c),
                Err(out) => out,
            },
            RequestKind::Pipeline => {
                let analysis = match self.run_lint(&entry, scenario.as_ref()) {
                    Ok(a) => a,
                    Err(out) => return out,
                };
                if let Err(b) = sw.check("lint") {
                    return breach(b);
                }
                let estimation = match scenario.as_ref() {
                    Some(_) => match self.run_estimate(req, &entry, scenario.as_ref(), &sw) {
                        Ok(e) => Some(e),
                        Err(out) => return out,
                    },
                    None => None,
                };
                let check_summary = match req.property.as_deref() {
                    Some(_) => match self.run_check(req, &entry, &sw) {
                        Ok(c) => Some(c),
                        Err(out) => return out,
                    },
                    None => None,
                };
                Outcome::Pipeline(Box::new(PipelineReport {
                    parse: entry.parse.clone(),
                    analysis,
                    estimation,
                    check: check_summary,
                }))
            }
        }
    }

    #[allow(clippy::result_large_err)]
    fn run_lint(
        &self,
        entry: &ProgramEntry,
        scenario: Option<&Scenario>,
    ) -> Result<AnalysisReport, Outcome> {
        Ok(match scenario {
            Some(s) => analyze_with_scenario(&entry.program, s, &ProveOptions::default()),
            None => analyze_program(&entry.program),
        })
    }

    #[allow(clippy::result_large_err)]
    fn run_estimate(
        &self,
        req: &Request,
        entry: &ProgramEntry,
        scenario: Option<&Scenario>,
        sw: &Stopwatch,
    ) -> Result<EstimationReport, Outcome> {
        let scenario = scenario.ok_or_else(|| Outcome::SourceError {
            stage: "estimate".into(),
            message: "estimation requires a scenario".into(),
        })?;
        sw.check("estimate").map_err(breach)?;
        let options = self.estimation_options(req);
        let mut guard = entry.estimator.lock().expect("estimator lock");
        if guard.is_none() {
            *guard = Some(Estimator::new(&entry.program).map_err(|e| Outcome::SourceError {
                stage: "estimate".into(),
                message: e.to_string(),
            })?);
        }
        guard
            .as_mut()
            .expect("just initialized")
            .estimate(scenario, &options)
            .map_err(|e| Outcome::SourceError { stage: "estimate".into(), message: e.to_string() })
    }

    #[allow(clippy::result_large_err)]
    fn run_check(
        &self,
        req: &Request,
        entry: &ProgramEntry,
        sw: &Stopwatch,
    ) -> Result<CheckSummary, Outcome> {
        let signal = req.property.as_deref().ok_or_else(|| Outcome::SourceError {
            stage: "check".into(),
            message: "check requires a `property` signal".into(),
        })?;
        sw.check("check").map_err(breach)?;
        let alphabet = Alphabet::exhaustive(&entry.program, CHECK_INT_VALUES)
            .map_err(|e| Outcome::SourceError { stage: "check".into(), message: e.to_string() })?;
        let property = Property::never_true(signal);
        match check(&entry.program, &alphabet, &property, &self.check_options(req)) {
            Ok(r) => Ok(CheckSummary::of(&r)),
            Err(VerifyError::StateCapExceeded { cap }) => Err(breach(Breach::States { cap })),
            Err(e) => Err(Outcome::SourceError { stage: "check".into(), message: e.to_string() }),
        }
    }
}

fn breach(b: Breach) -> Outcome {
    Outcome::BudgetExceeded { reason: b.to_string() }
}

/// Only successful analyses are worth keeping.
fn cacheable(outcome: &Outcome) -> bool {
    !matches!(outcome, Outcome::SourceError { .. } | Outcome::BudgetExceeded { .. })
}

// ---------------------------------------------------------------------------
// Byte accounting. These are *reported* sizes: deliberately simple,
// deterministic functions of the payload that the LRU enforces exactly
// (see `gals::cache`). They under-count allocator overhead on purpose —
// what matters is that bigger payloads cost proportionally more.
// ---------------------------------------------------------------------------

fn analysis_cost(a: &AnalysisReport) -> usize {
    let diags: usize = a
        .diagnostics
        .iter()
        .map(|d| {
            96 + d.message.len()
                + d.suggestion.as_deref().map_or(0, str::len)
                + d.component.as_deref().map_or(0, str::len)
        })
        .sum();
    diags + 64 * a.channels.len() + 48 * a.endochrony.len() + 128
}

fn estimation_cost(e: &EstimationReport) -> usize {
    let per_round: usize = 3 * 48 * e.final_sizes.len().max(1) + 32;
    e.history.len() * per_round + 48 * (e.final_sizes.len() + e.provenance.len()) + 64
}

fn outcome_cost(outcome: &Outcome) -> usize {
    match outcome {
        Outcome::Parsed(p) => p.normalized.len() + 64,
        Outcome::Analysis(a) => analysis_cost(a),
        Outcome::Estimation(e) => estimation_cost(e),
        Outcome::Checked(_) => 96,
        Outcome::Pipeline(p) => {
            p.parse.normalized.len()
                + 64
                + analysis_cost(&p.analysis)
                + p.estimation.as_ref().map_or(0, estimation_cost)
                + p.check.as_ref().map_or(0, |_| 96)
        }
        Outcome::SourceError { .. } | Outcome::BudgetExceeded { .. } => 0,
    }
}

fn program_cost(entry: &ProgramEntry) -> usize {
    // source text dominates; the AST and the (lazily built) estimator
    // skeleton are charged as a source-proportional surcharge
    entry.parse.normalized.len() * 4 + 512
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::proto::EstimationParams;

    const PIPE: &str = "process P { input a: int; output x: int; x := a + 1; }\n\
         process Q { input x: int; output y: int; y := x * 2; }\n";

    const SCENARIO: &str = "tick=true a=1\n\
         tick=true a=2\n\
         tick=true x_rd=true\n\
         tick=true a=3 x_rd=true\n\
         tick=true x_rd=true\n\
         tick=true x_rd=true\n";

    fn pipeline_request(id: u64, source: &str) -> Request {
        let mut req = Request::new(id, RequestKind::Pipeline, source);
        req.scenario = Some(SCENARIO.into());
        req
    }

    #[test]
    fn warm_hit_returns_the_identical_payload() {
        let engine = Engine::new(EngineConfig::default());
        let cold = engine.submit(&pipeline_request(1, PIPE));
        assert_eq!(cold.served, Served::Cold);
        assert!(matches!(&*cold.outcome, Outcome::Pipeline(_)), "got {:?}", cold.outcome);
        let warm = engine.submit(&pipeline_request(2, PIPE));
        assert_eq!(warm.served, Served::Hit);
        // field-for-field identical payload, and identical wire bytes
        assert_eq!(warm.outcome, cold.outcome);
        let stats = engine.stats();
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.results.hits, 1);
        assert_eq!(stats.results.insertions, 1);
    }

    #[test]
    fn wire_answers_are_the_rendered_responses() {
        let engine = Engine::new(EngineConfig::default());
        let cold = engine.submit_wire(&pipeline_request(1, PIPE));
        let hit = engine.submit_wire(&pipeline_request(2, PIPE));
        let outcome = engine.submit(&pipeline_request(3, PIPE)).outcome;
        let rendered =
            |id, served| Response { id, served, outcome: Arc::clone(&outcome) }.to_json();
        assert_eq!(cold, rendered(1, Served::Cold));
        assert_eq!(hit, rendered(2, Served::Hit));
        // the cached payload text is charged to the result cache's budget
        let used = engine.inner.lock().expect("engine lock").results.used_bytes();
        assert_eq!(used, outcome_cost(&outcome) + render_payload(&outcome).len());
    }

    #[test]
    fn whitespace_variants_share_one_cache_entry() {
        let engine = Engine::new(EngineConfig::default());
        let a = engine.submit(&pipeline_request(1, PIPE));
        let reformatted = PIPE.replace("; ", ";\n    ");
        let b = engine.submit(&pipeline_request(2, &reformatted));
        assert_eq!(a.served, Served::Cold);
        assert_eq!(b.served, Served::Hit);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn different_estimation_params_never_alias() {
        let engine = Engine::new(EngineConfig::default());
        let base = pipeline_request(1, PIPE);
        let mut sized = pipeline_request(2, PIPE);
        sized.params = EstimationParams { initial_size: Some(2), ..EstimationParams::default() };
        let mut capped = pipeline_request(3, PIPE);
        capped.params = EstimationParams { max_size: Some(2), ..EstimationParams::default() };
        assert_ne!(engine.request_key(&base), engine.request_key(&sized));
        assert_ne!(engine.request_key(&base), engine.request_key(&capped));
        assert_ne!(engine.request_key(&sized), engine.request_key(&capped));
        for req in [&base, &sized, &capped] {
            assert_eq!(engine.submit(req).served, Served::Cold);
        }
        let stats = engine.stats();
        assert_eq!(stats.executed, 3, "three distinct keys, three executions");
        assert_eq!(stats.results.insertions, 3);
        assert_eq!(stats.results.hits, 0);
    }

    #[test]
    fn threads_are_not_part_of_the_key() {
        let engine = Engine::new(EngineConfig::default());
        let mut a = pipeline_request(1, PIPE);
        a.threads = 1;
        let mut b = pipeline_request(2, PIPE);
        b.threads = 4;
        assert_eq!(engine.request_key(&a), engine.request_key(&b));
        let first = engine.submit(&a);
        let second = engine.submit(&b);
        assert_eq!(second.served, Served::Hit);
        assert_eq!(first.outcome, second.outcome);
    }

    #[test]
    fn request_threads_are_capped_at_the_server_default() {
        // only the options are read: nothing runs at this thread count
        let mut req = pipeline_request(1, PIPE);
        req.threads = 1 << 40;
        let pinned = Engine::new(EngineConfig { threads: 3, ..EngineConfig::default() });
        assert_eq!(pinned.check_options(&req).threads, 3);
        assert_eq!(pinned.estimation_options(&req).threads, 3);
        let detected = Engine::new(EngineConfig::default());
        let default = crossbeam::pool::default_threads();
        assert_eq!(detected.check_options(&req).threads, default);
        assert_eq!(detected.estimation_options(&req).threads, default);
        // a request below the cap keeps its own count
        req.threads = 2;
        assert_eq!(pinned.check_options(&req).threads, 2);
    }

    #[test]
    fn duplicate_batch_executes_once() {
        let engine = Engine::new(EngineConfig::default());
        let requests: Vec<Request> = (0..8).map(|i| pipeline_request(i, PIPE)).collect();
        let responses = engine.submit_many(&requests, 4);
        assert_eq!(responses.len(), 8);
        // ids echo back in request order
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.outcome, responses[0].outcome);
        }
        let stats = engine.stats();
        assert_eq!(stats.executed, 1, "identical requests must coalesce or hit");
        let cold = responses.iter().filter(|r| r.served == Served::Cold).count();
        assert_eq!(cold, 1);
        assert_eq!(stats.coalesced + stats.results.hits, 7);
    }

    #[test]
    fn instant_budget_breaches_and_is_not_cached() {
        let mut config = EngineConfig::default();
        config.budget.max_instants = 3;
        let engine = Engine::new(config);
        let req = pipeline_request(1, PIPE); // 6-instant scenario
        for _ in 0..2 {
            let resp = engine.submit(&req);
            assert_eq!(resp.served, Served::Cold, "breaches must not be served from cache");
            assert!(
                matches!(&*resp.outcome, Outcome::BudgetExceeded { reason } if reason.contains("instant")),
                "got {:?}",
                resp.outcome
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.budget_breaches, 2);
        assert_eq!(stats.results.insertions, 0);
    }

    #[test]
    fn state_cap_breach_is_budget_exceeded() {
        let mut config = EngineConfig::default();
        config.budget.max_states = 1;
        let engine = Engine::new(config);
        // a counter: more reachable states than the cap allows
        let acc = "process Acc { input tick: bool; output hit: bool; local n: int, np: int;\n\
             np := (pre 0 n) when tick;\n\
             n := (0 when (np = 3)) default (np + 1);\n\
             n ^= tick; hit := n = 3; }";
        let mut req = Request::new(1, RequestKind::Check, acc);
        req.property = Some("hit".into());
        let resp = engine.submit(&req);
        match &*resp.outcome {
            Outcome::BudgetExceeded { reason } => {
                assert!(reason.contains("state"), "got `{reason}`");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn source_errors_name_their_stage_and_are_not_cached() {
        let engine = Engine::new(EngineConfig::default());
        let bad = Request::new(1, RequestKind::Parse, "process P { input a int; }");
        for _ in 0..2 {
            match &*engine.submit(&bad).outcome {
                Outcome::SourceError { stage, .. } => assert_eq!(stage, "resolve"),
                other => panic!("expected SourceError, got {other:?}"),
            }
        }
        assert_eq!(engine.stats().executed, 2);
        let mut bad_scenario = pipeline_request(2, PIPE);
        bad_scenario.scenario = Some("a=notanumber\n".into());
        match &*engine.submit(&bad_scenario).outcome {
            Outcome::SourceError { stage, .. } => assert_eq!(stage, "scenario"),
            other => panic!("expected SourceError, got {other:?}"),
        }
    }

    #[test]
    fn program_cache_is_shared_across_request_kinds() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(&Request::new(1, RequestKind::Parse, PIPE));
        engine.submit(&Request::new(2, RequestKind::Lint, PIPE));
        engine.submit(&pipeline_request(3, PIPE));
        let stats = engine.stats();
        // three result keys, but only one program resolution
        assert_eq!(stats.executed, 3);
        assert_eq!(stats.programs.insertions, 1);
        assert_eq!(stats.programs.hits, 2);
    }
}
