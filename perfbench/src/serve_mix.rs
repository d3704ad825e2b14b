//! `serve_mix`: an in-process `polysig-serve` server on loopback, driven
//! by one client over one connection.
//!
//! Client and server run on one CPU (`Workload::ONE_CPU`). Set-up warms
//! a hot set of designs. The client then repeats a seeded block of 100
//! pipeline requests: 97 result-cache hits on the hot set, one hot source
//! with a scenario it has not seen (program-cache hit, the cached
//! `Estimator` is reused, then a result-cache write), and two brand-new
//! designs (cold: parse, lint and estimate, then a cache write). The
//! shares put the p50 in the middle of the hit cluster and the p99 in the
//! middle of the new-design cluster, the slowest one.
//!
//! The input pools are sized from `--seconds` for over three times the
//! fastest rate measured; a client that still reaches their end stops
//! there, which shows as lower throughput, never as a failed request.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use polysig::analyze::{analyze_with_scenario, ProveOptions};
use polysig::gals::Estimator;
use polysig::lang::check_program;
use polysig::serve::proto::{Envelope, Outcome, ParseSummary, PipelineReport};
use polysig::serve::server::Client;
use polysig::serve::{
    read_frame, write_frame, Engine, EngineConfig, Request, RequestKind, Response, Served, Server,
};
use polysig::sim::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::design_flow::design;
use crate::trace::Tracer;
use crate::{closed_loop, shuffle, splitmix64, Phase, Plan, Workload};

/// Designs in the hot set.
const HOT: usize = 24;
/// Requests per block: hits, new scenarios for hot sources, new designs.
const BLOCK: usize = 100;
const VARIANTS_PER_BLOCK: usize = 1;
const FRESH_PER_BLOCK: usize = 2;
/// Requests per second that the input pools last for (the fastest run
/// measured made about 940).
const POOL_RATE: f64 = 6_000.0;
/// Requests in the fixed-count phase that `peak_rss_mb` comes from: the
/// resident set grows with every new design the server caches.
const RSS_OPS: usize = 3000;
/// Threads that check the cold answers after the clock stops.
const VERIFIERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Variant,
    Fresh,
}

/// One pipeline request's source and scenario text.
pub struct Job {
    source: String,
    scenario: String,
}

pub struct Inputs {
    seed: u64,
    hot: Vec<Job>,
    /// The hot set's expected payloads, from direct library calls.
    hot_payloads: Vec<String>,
    variants: Vec<Job>,
    fresh: Vec<Job>,
    block: Vec<Kind>,
    /// Blocks that the pools cover.
    blocks: usize,
}

pub struct State {
    engine: Arc<Engine>,
    addr: String,
    shutdown: Arc<AtomicBool>,
    server: Option<JoinHandle<()>>,
    client: Option<Client>,
    next: u64,
}

impl Drop for State {
    fn drop(&mut self) {
        self.client = None;
        self.shutdown.store(true, Ordering::SeqCst);
        // wake the accept loop so it sees the flag
        let _ = TcpStream::connect(&self.addr);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

pub struct ServeMix;

/// A cold answer to verify after the clock stops: the op's kind, index
/// into that kind's pool, and payload.
type Cold = (Kind, usize, String);

fn pipeline_request(id: u64, job: &Job) -> Request {
    let mut req = Request::new(id, RequestKind::Pipeline, job.source.clone());
    req.scenario = Some(job.scenario.clone());
    req
}

/// The payload member of a rendered response (rendering is
/// deterministic, so equal outcomes give equal payload text).
fn payload(text: &str) -> Option<&str> {
    text.find("\"payload\":").map(|i| &text[i..])
}

/// The response the library's own calls predict for `job`, rendered.
fn expected_payload(engine: &Engine, job: &Job) -> Result<String, String> {
    let program = check_program(&job.source).map_err(|e| e.to_string())?;
    let scenario = Scenario::from_text(&job.scenario)?;
    let analysis = analyze_with_scenario(&program, &scenario, &ProveOptions::default());
    let req = pipeline_request(0, job);
    let estimation = Estimator::new(&program)
        .and_then(|mut e| e.estimate(&scenario, &engine.estimation_options(&req)))
        .map_err(|e| e.to_string())?;
    let outcome = Outcome::Pipeline(Box::new(PipelineReport {
        parse: ParseSummary::of(&program),
        analysis,
        estimation: Some(estimation),
        check: None,
    }));
    let text = Response { id: 0, served: Served::Cold, outcome: Arc::new(outcome) }.to_json();
    Ok(payload(&text).expect("responses carry a payload").to_string())
}

/// Rotations of a scenario's steps: new scenarios over the same inputs.
fn rotated(text: &str, by: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let by = by % lines.len().max(1);
    let mut out = String::new();
    for l in lines[by..].iter().chain(&lines[..by]) {
        out.push_str(l);
        out.push('\n');
    }
    out
}

impl Workload for ServeMix {
    type Inputs = Inputs;
    type State = State;
    const COUNT_OPS: usize = 200;
    const RSS_PLAN: Option<Plan> = Some(Plan::Ops { ops: RSS_OPS });
    const ONE_CPU: bool = true;

    fn generate(seed: u64, seconds: f64) -> Inputs {
        // the designs come from the fixed corpus (see `design_flow::CORPUS`);
        // the seed orders the requests
        let job = |stream: u64, i: u64| {
            let d = design(stream, i);
            Job { source: d.source, scenario: d.est.to_text() }
        };
        let hot: Vec<Job> = (0..HOT as u64).map(|i| job(2, i)).collect();
        let reference = Engine::new(EngineConfig::default());
        let hot_payloads = hot
            .iter()
            .map(|j| expected_payload(&reference, j).expect("hot designs estimate cleanly"))
            .collect();
        let want = (seconds * POOL_RATE / BLOCK as f64).ceil() as usize;
        let blocks = want.max(RSS_OPS.div_ceil(BLOCK));
        // every rotation of a hot scenario is new once; past those, stop
        let variants: Vec<Job> = (0..blocks * VARIANTS_PER_BLOCK)
            .map_while(|k| {
                let h = &hot[k % HOT];
                let by = 1 + k / HOT;
                (by < h.scenario.lines().count())
                    .then(|| Job { source: h.source.clone(), scenario: rotated(&h.scenario, by) })
            })
            .collect();
        let blocks = blocks.min(variants.len() / VARIANTS_PER_BLOCK);
        let fresh = (0..(blocks * FRESH_PER_BLOCK) as u64).map(|i| job(3, i)).collect();
        let mut block = vec![Kind::Hit; BLOCK - VARIANTS_PER_BLOCK - FRESH_PER_BLOCK];
        block.extend([Kind::Variant; VARIANTS_PER_BLOCK]);
        block.extend([Kind::Fresh; FRESH_PER_BLOCK]);
        shuffle(&mut block, &mut StdRng::seed_from_u64(splitmix64(seed ^ 0x7365_7276)));
        Inputs { seed, hot, hot_payloads, variants, fresh, block, blocks }
    }

    fn setup(inputs: &Inputs) -> Result<State, String> {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run());
        let mut state = State {
            engine,
            addr: addr.clone(),
            shutdown,
            server: Some(handle),
            client: None,
            next: 0,
        };
        let client = state.client.insert(Client::connect(&addr).map_err(|e| e.to_string())?);
        // warm the hot set: cold runs whose payloads the hits must repeat
        for (h, job) in inputs.hot.iter().enumerate() {
            let (env, text) =
                call(client, &pipeline_request(h as u64, job), &mut Tracer::off(Instant::now()))?;
            if env.served != "cold" || payload(&text) != Some(inputs.hot_payloads[h].as_str()) {
                return Err(format!(
                    "hot design {h}: served {} with an unexpected payload",
                    env.served
                ));
            }
        }
        Ok(state)
    }

    fn measure(state: &mut State, inputs: &Inputs, plan: Plan, tracer: &mut Tracer) -> Phase {
        let before = state.engine.stats();
        let conn = state.client.as_mut().expect("set-up connects the client");
        let end = (inputs.blocks * BLOCK) as u64;
        let mut colds = Vec::new();
        let (mut phase, next) = closed_loop(state.next, end, plan, tracer, |j, t| {
            request(j, conn, inputs, &mut colds, t)
        });
        if next == end {
            println!("the client reached the end of its inputs after {end} requests");
        }
        state.next = next;

        // every cold answer against direct library calls, after the clock
        // stops
        let engine: &Engine = &state.engine;
        let mismatches: Vec<String> = std::thread::scope(|s| {
            let chunks: Vec<_> = colds
                .chunks(colds.len().div_ceil(VERIFIERS).max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        crate::unpin();
                        chunk
                            .iter()
                            .filter_map(|(kind, i, text)| {
                                let job = match kind {
                                    Kind::Variant => &inputs.variants[*i],
                                    _ => &inputs.fresh[*i],
                                };
                                match expected_payload(engine, job) {
                                    Ok(want) if want == *text => None,
                                    other => Some(format!(
                                        "{kind:?} {i}: payload differs from the library's ({})",
                                        other.err().unwrap_or_default()
                                    )),
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            chunks.into_iter().flat_map(|h| h.join().expect("verifier thread")).collect()
        });
        phase.failed += mismatches.len();
        if let Some(m) = mismatches.into_iter().next() {
            phase.first_error.get_or_insert(m);
        }
        let after = engine.stats();
        tracer.add("serve.hits", (after.results.hits - before.results.hits) as f64);
        tracer.add("serve.misses", (after.results.misses - before.results.misses) as f64);
        tracer.add(
            "serve.lookups",
            (after.results.hits + after.results.misses
                - before.results.hits
                - before.results.misses) as f64,
        );
        tracer.add("serve.evictions", (after.results.evictions - before.results.evictions) as f64);
        phase
    }
}

/// The `j`-th request, checked; cold payloads go to `colds`.
fn request(
    j: u64,
    conn: &mut Client,
    inputs: &Inputs,
    colds: &mut Vec<Cold>,
    t: &mut Tracer,
) -> Result<(), String> {
    let kind = inputs.block[j as usize % BLOCK];
    // this op's ordinal among the ops of its kind
    let within = inputs.block[..j as usize % BLOCK].iter().filter(|&&k| k == kind).count();
    let per_block = match kind {
        Kind::Variant => VARIANTS_PER_BLOCK,
        _ => FRESH_PER_BLOCK,
    };
    let nth = j as usize / BLOCK * per_block + within;
    let job = match kind {
        Kind::Hit => {
            let h = (splitmix64(inputs.seed ^ j) % HOT as u64) as usize;
            let (env, text) = call(conn, &pipeline_request(j, &inputs.hot[h]), t)?;
            if env.served != "hit" || payload(&text) != Some(inputs.hot_payloads[h].as_str()) {
                return Err(format!("hot design {h}: served {} with another payload", env.served));
            }
            return Ok(());
        }
        Kind::Variant => &inputs.variants[nth],
        Kind::Fresh => &inputs.fresh[nth],
    };
    let (env, text) = call(conn, &pipeline_request(j, job), t)?;
    if env.served != "cold" {
        return Err(format!("{kind:?} request {nth} served {}", env.served));
    }
    let body = payload(&text).ok_or("response without payload")?.to_string();
    colds.push((kind, nth, body));
    Ok(())
}

/// One request over the wire, with the client-side codec timed apart.
fn call(conn: &mut Client, req: &Request, t: &mut Tracer) -> Result<(Envelope, String), String> {
    let t0 = Instant::now();
    let body = req.to_json();
    let t1 = Instant::now();
    let stream = conn.stream_mut();
    write_frame(stream, body.as_bytes()).map_err(|e| format!("transport: {e}"))?;
    let frame = read_frame(stream)
        .map_err(|e| format!("transport: {e}"))?
        .ok_or("transport: server closed the connection")?;
    let t2 = Instant::now();
    let text = String::from_utf8(frame).map_err(|e| format!("transport: {e}"))?;
    let env = Envelope::from_json(&text)?;
    let t3 = Instant::now();
    if env.id != req.id || env.outcome != "pipeline" {
        return Err(format!("response {} carries outcome {}", env.id, env.outcome));
    }
    t.record("serve.codec", t0, t1);
    t.record("serve.codec", t2, t3);
    t.record(if env.served == "hit" { "serve.hit" } else { "serve.cold" }, t0, t3);
    t.add("serve.codec_ms", ((t1 - t0) + (t3 - t2)).as_secs_f64() * 1e3);
    t.add("serve.requests", 1.0);
    t.add("serve.response_bytes", text.len() as f64);
    Ok((env, text))
}
