//! Serve-path benchmarks: the latency contract behind `polysig-serve`.
//!
//! Four rows, all in-process against [`polysig::serve::Engine`] so the
//! numbers measure the engine (hashing, caching, coalescing, analysis)
//! rather than loopback TCP:
//!
//! * `serve/cold_pipe` — a fresh engine answering the canonical pipeline
//!   request: full parse → analyze → estimate cost, the cache-miss floor;
//! * `serve/warm_hit` — the same request against a warmed engine: the
//!   content-hash hit path (normalize + hash + clone), which the bench
//!   gate holds far below the cold cost;
//! * `serve/wire_hit` — the same hit as a client sees it, minus the
//!   socket: the request frame's text through `Request::from_json`, the
//!   engine's wire path, and the client's `Envelope::from_json`. The gate
//!   holds this far below the cold cost too, so a slow codec shows;
//! * `serve/mixed_c8` — a batch of 8 (4 duplicate warm, 4 unseen cold)
//!   through `submit_many` on 8 workers: the steady-state mix a loaded
//!   server sees.

use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use polysig::serve::loadgen::{cold_source, PIPE_SCENARIO, WARM_SOURCE};
use polysig::serve::proto::Envelope;
use polysig::serve::{Engine, EngineConfig, Request, RequestKind, Response, Served};
use polysig_bench::banner;

fn warm_request(id: u64) -> Request {
    let mut req = Request::new(id, RequestKind::Pipeline, WARM_SOURCE);
    req.scenario = Some(PIPE_SCENARIO.into());
    req
}

fn cold_request(id: u64, variant: usize) -> Request {
    let mut req = Request::new(id, RequestKind::Pipeline, cold_source(variant));
    req.scenario = Some(PIPE_SCENARIO.into());
    req
}

fn bench(c: &mut Criterion) {
    // Pin the behaviors the rows claim to measure before timing them: the
    // first submit is a cold execution, the repeat is a cache hit, a hit on
    // the wire path is the response's own rendering, and a duplicate-heavy
    // batch answers every request.
    let engine = Engine::new(EngineConfig::default());
    let cold = engine.submit(&warm_request(1));
    assert_eq!(cold.served, Served::Cold, "first submit must execute");
    assert_eq!(cold.outcome.tag(), "pipeline", "canonical request must analyze cleanly");
    let warm = engine.submit(&warm_request(2));
    assert_eq!(warm.served, Served::Hit, "repeat submit must hit the cache");
    assert_eq!(warm.outcome, cold.outcome, "hit must return the cold payload");
    let frame = warm_request(3).to_json();
    let wire = engine.submit_wire(&Request::from_json(&frame).expect("the frame decodes"));
    assert_eq!(
        wire,
        Response { id: 3, ..warm.clone() }.to_json(),
        "wire hit must match the render"
    );
    let batch: Vec<Request> = (0..8)
        .map(|i| if i % 2 == 0 { warm_request(i) } else { cold_request(i, i as usize) })
        .collect();
    let answers = engine.submit_many(&batch, 8);
    assert_eq!(answers.len(), 8, "every batched request is answered");
    assert!(answers.iter().all(|r| r.outcome.tag() == "pipeline"));
    banner(
        "E11 / analysis serving",
        &format!(
            "engine after pinning: executed {}, hits {}",
            engine.stats().executed,
            engine.stats().results.hits,
        ),
    );

    let mut group = c.benchmark_group("serve");

    group.bench_function("cold_pipe", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig::default());
            std::hint::black_box(engine.submit(&warm_request(1)))
        })
    });

    {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(&warm_request(1));
        group.bench_function("warm_hit", |b| {
            b.iter(|| std::hint::black_box(engine.submit(&warm_request(2))))
        });
    }

    {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(&warm_request(1));
        let frame = warm_request(2).to_json();
        group.bench_function("wire_hit", |b| {
            b.iter(|| {
                let req = Request::from_json(std::hint::black_box(&frame)).expect("decodes");
                let text = engine.submit_wire(&req);
                std::hint::black_box(Envelope::from_json(&text).expect("decodes"))
            })
        });
    }

    {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(&warm_request(1));
        // unseen cold variants each iteration, so half the batch always
        // misses; the LRU keeps the accumulated results bounded
        let next = AtomicUsize::new(1000);
        group.bench_function("mixed_c8", |b| {
            b.iter(|| {
                let base = next.fetch_add(4, Ordering::Relaxed);
                let batch: Vec<Request> = (0..8u64)
                    .map(|i| {
                        if i % 2 == 0 {
                            warm_request(i)
                        } else {
                            cold_request(i, base + i as usize)
                        }
                    })
                    .collect();
                std::hint::black_box(engine.submit_many(&batch, 8))
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
