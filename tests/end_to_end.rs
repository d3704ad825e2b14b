//! E8 + the paper's "ultimate goal": the full pipeline from synchronous
//! specification to asynchronous deployment.
//!
//! 1. specify a synchronous multi-component program;
//! 2. desynchronize it and size the buffers (Sections 4–5);
//! 3. verify "no alarm" for the target environment (Section 5.2);
//! 4. deploy on independent local clocks (deterministic executor and
//!    federated OS threads) and confirm the deployed flows are
//!    flow-equivalent to the synchronous model — "preserving all properties
//!    of the system proven in the synchronous framework".

use std::collections::BTreeMap;

use polysig::gals::estimate::{estimate_buffer_sizes, EstimationOptions};
use polysig::gals::runtime::{
    run_federated, ClockModel, ComponentSpec, FederateSpec, FederatedOptions, GalsExecutor,
};
use polysig::gals::{desynchronize, ChannelPolicy, DesyncOptions};
use polysig::lang::parse_program;
use polysig::sim::generator::master_clock;
use polysig::sim::{PeriodicInputs, ScenarioGenerator, Simulator};
use polysig::tagged::{SigName, ValueType};

fn program() -> polysig::lang::Program {
    parse_program(
        "process Producer { input a: int; output x: int; x := a + (pre 0 a); } \
         process Consumer { input x: int; output y: int; y := x * 2; }",
    )
    .unwrap()
}

#[test]
fn synchronous_model_to_gals_deployment() {
    let p = program();
    let steps = 24;

    // (1) reference run of the synchronous composition
    let producer_env = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(steps);
    let mut sync_sim = Simulator::for_program(&p).unwrap();
    let sync_run = sync_sim.run(&producer_env).unwrap();
    let reference_y = sync_run.flow(&"y".into());
    assert_eq!(reference_y.len(), steps);

    // (2) size the FIFO for a half-rate consumer over the same writes
    let gals_steps = steps * 4;
    let model_env = producer_env
        .clone()
        .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 2, 0).generate(gals_steps))
        .zip_union(&master_clock("tick", gals_steps));
    let report = estimate_buffer_sizes(&p, &model_env, &EstimationOptions::default()).unwrap();
    assert!(report.converged);
    let size = report.size_of(&"x".into()).unwrap();

    // (3) the sized synchronous GALS model reproduces the reference flow
    let d = desynchronize(&p, &DesyncOptions::with_size(size)).unwrap();
    let mut gals_sim = Simulator::for_program(&d.program).unwrap();
    let gals_run = gals_sim.run(&model_env).unwrap();
    assert_eq!(gals_run.flow(&"y".into()), reference_y, "synchronous GALS model diverged");

    // (4a) deterministic deployment: producer twice as fast as consumer,
    // blocking channels sized as estimated
    let mut caps = BTreeMap::new();
    caps.insert(SigName::from("x"), size);
    let mut ex = GalsExecutor::new(
        &p,
        vec![
            ComponentSpec::periodic("Producer", 1).with_environment(producer_env.clone()),
            ComponentSpec::periodic("Consumer", 2).with_clock(ClockModel::Jittered {
                period: 2,
                jitter: 1,
                seed: 5,
            }),
        ],
        ChannelPolicy::Blocking,
        &caps,
    )
    .unwrap();
    let run = ex.run((steps * 4) as u64).unwrap();
    let deployed_y = run.flow("Consumer", &"y".into());
    assert_eq!(
        &reference_y[..deployed_y.len()],
        deployed_y.as_slice(),
        "deployed flow must be a prefix of the proven synchronous flow"
    );
    assert!(deployed_y.len() >= steps - size, "blocking deployment must deliver almost everything");

    // (4b) thread deployment: one federate per component, the channel's
    // credit pool sized from the estimation report; the data-driven
    // consumer reacts once per arriving value and retires when the producer
    // is done, so it delivers the whole flow, not a prefix
    let frun = run_federated(
        &p,
        vec![
            FederateSpec::new("Producer", steps).with_environment(producer_env),
            FederateSpec::new("Consumer", steps * 20).data_driven(),
        ],
        &FederatedOptions::from_report(&report),
    )
    .unwrap();
    assert_eq!(
        frun.flow("Consumer", &"y".into()),
        reference_y,
        "thread deployment must reproduce the synchronous flow exactly"
    );
    let x = &frun.channels[&SigName::from("x")];
    assert!(
        x.max_occupancy <= size,
        "occupancy {} exceeded the estimated size {size}",
        x.max_occupancy
    );
}

#[test]
fn property_proved_synchronously_survives_deployment() {
    // the property: y values are always even (y = 2x) — proved on the
    // synchronous model by construction, observed intact on every deployment
    let p = program();
    let steps = 30;
    let env = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(steps);

    for (period_p, period_c, policy) in [
        (1u64, 1u64, ChannelPolicy::Blocking),
        (1, 3, ChannelPolicy::Lossy),
        (2, 1, ChannelPolicy::Unbounded),
    ] {
        let mut ex = GalsExecutor::new(
            &p,
            vec![
                ComponentSpec::periodic("Producer", period_p).with_environment(env.clone()),
                ComponentSpec::periodic("Consumer", period_c),
            ],
            policy,
            &BTreeMap::new(),
        )
        .unwrap();
        let run = ex.run(120).unwrap();
        let y = run.flow("Consumer", &"y".into());
        assert!(!y.is_empty());
        assert!(
            y.iter().all(|v| v.as_int().unwrap() % 2 == 0),
            "evenness must survive deployment under {policy}"
        );
    }
}

#[test]
fn lossy_deployment_degrades_but_keeps_order() {
    // under overload with lossy channels the flow is a *subsequence* — the
    // paper's service-level degradation, quantified
    let p = program();
    let steps = 60;
    let env = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(steps);
    let mut ex = GalsExecutor::new(
        &p,
        vec![
            ComponentSpec::periodic("Producer", 1).with_environment(env),
            ComponentSpec::periodic("Consumer", 4),
        ],
        ChannelPolicy::Lossy,
        &BTreeMap::new(),
    )
    .unwrap();
    let run = ex.run(steps as u64).unwrap();
    let sent = run.flow("Producer", &"x".into());
    let got = run.flow("Consumer", &"x".into());
    assert!(got.len() < sent.len(), "overload must lose data under Lossy");
    let mut it = sent.iter();
    for v in &got {
        assert!(it.any(|s| s == v), "losses must preserve order");
    }
    let stats = &run.channel_stats[&SigName::from("x")];
    assert_eq!(stats.pushes + stats.drops, sent.len());
}
