//! Deployment: a three-stage GALS pipeline on independent clocks.
//!
//! The end goal of the paper: "deploy [the design] on an asynchronous
//! network preserving all properties of the system proven in the synchronous
//! framework". This example runs a source → filter → sink pipeline twice —
//! once in the deterministic GALS executor with jittered local clocks, once
//! on real OS threads as one federate per component over bounded channels —
//! and checks that the flows stay flow-equivalent (Definition 4) to the
//! synchronous model under the blocking (lossless) channel policy.
//!
//! Run with: `cargo run --example gals_pipeline`

use std::collections::BTreeMap;

use polysig::gals::runtime::{
    run_federated, ClockModel, ComponentSpec, FederateSpec, FederatedOptions, GalsExecutor,
};
use polysig::gals::ChannelPolicy;
use polysig::lang::parse_program;
use polysig::sim::{PeriodicInputs, ScenarioGenerator, Simulator};
use polysig::tagged::ValueType;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(
        "process Source { input sample: int; output x: int; x := sample; } \
         process Filter { input x: int; output y: int; \
             y := (x + (pre 0 x)) when (x /= 0); } \
         process Sink { input y: int; output total: int; \
             total := (pre 0 total) + y; }",
    )?;

    let n = 40;
    let env = PeriodicInputs::new("sample", ValueType::Int, 1, 0).generate(n);

    println!("== deterministic executor, jittered local clocks, blocking channels ==");
    let mut ex = GalsExecutor::new(
        &program,
        vec![
            ComponentSpec::periodic("Source", 2)
                .with_environment(env.clone())
                .with_clock(ClockModel::Jittered { period: 2, jitter: 1, seed: 11 }),
            ComponentSpec::periodic("Filter", 3),
            ComponentSpec::periodic("Sink", 2).with_clock(ClockModel::Random { p: 0.5, seed: 12 }),
        ],
        ChannelPolicy::Blocking,
        &BTreeMap::new(),
    )?;
    let run = ex.run(120)?;
    let sent = run.flow("Source", &"x".into());
    let filtered = run.flow("Filter", &"y".into());
    let received = run.flow("Sink", &"y".into());
    println!(
        "source emitted {} values, filter produced {}, sink consumed {}",
        sent.len(),
        filtered.len(),
        received.len()
    );
    for (sig, st) in &run.channel_stats {
        println!(
            "  channel {sig}: pushes={} pops={} max-occupancy={} masked-producer-activations={}",
            st.pushes,
            st.pops,
            st.max_occupancy,
            run.masked.values().sum::<usize>(),
        );
    }
    // losslessness: the sink's view is a prefix of the filter's output flow
    assert_eq!(&filtered[..received.len()], received.as_slice());
    println!("flow check passed: sink's flow is a prefix of the filter's flow\n");

    println!("== the same pipeline on OS threads: one federate per component ==");
    // the synchronous composition is the reference every deployed flow
    // must reproduce
    let reference = Simulator::for_program(&program)?.run(&env)?;
    let frun = run_federated(
        &program,
        vec![
            FederateSpec::new("Source", n).with_environment(env),
            // downstream stages react once per arriving value and retire
            // once their producer is done and drained
            FederateSpec::new("Filter", n).data_driven(),
            FederateSpec::new("Sink", n).data_driven(),
        ],
        &FederatedOptions::default().with_default_capacity(4),
    )?;
    let tsent = frun.flow("Source", &"x".into());
    let tfiltered = frun.flow("Filter", &"y".into());
    let totals = frun.flow("Sink", &"total".into());
    println!(
        "threads: source {} values, filter {}, sink {}",
        tsent.len(),
        tfiltered.len(),
        totals.len()
    );
    for (sig, c) in &frun.channels {
        println!(
            "  channel {sig}: pushes={} pops={} max-occupancy={} stalled-sends={}",
            c.pushes, c.pops, c.max_occupancy, c.stall_events
        );
    }
    assert_eq!(tsent, reference.flow(&"x".into()));
    assert_eq!(tfiltered, reference.flow(&"y".into()));
    assert_eq!(totals, reference.flow(&"total".into()));
    // the deterministic run stops at its horizon, mid-stream: its source
    // flow is a prefix of the deployed one (Definition 4 on a finite prefix)
    assert_eq!(&tsent[..sent.len()], sent.as_slice());
    println!("flow check passed: every thread-deployed flow equals the synchronous model's");
    Ok(())
}
