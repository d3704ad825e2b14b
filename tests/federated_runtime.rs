//! Shutdown edges and teardown guarantees of the federated GALS runtime.
//!
//! The federated executor's coordination claims are behavioral, not
//! structural: a consumer retiring mid-send unblocks its producer, a
//! zero-activation federate drains instead of deadlocking its peers, a
//! reaction error tears the whole federation down, and every spawned
//! thread is joined on every path (`teardown.spawned == teardown.joined`
//! is asserted by the runtime itself and re-checked here). The final test
//! is the `POLYSIG_SOAK=1` long-horizon smoke: ≥1M instants across the
//! federation with flow recording off, observed purely through the
//! streaming channel counters.

use polysig::gals::estimate::{estimate_buffer_sizes, EstimationOptions};
use polysig::gals::runtime::{run_federated, FederateSpec, FederatedOptions};
use polysig::lang::{parse_program, Program};
use polysig::sim::generator::master_clock;
use polysig::sim::{PeriodicInputs, Scenario, ScenarioGenerator, Simulator};
use polysig::tagged::{SigName, ValueType};

fn pipe() -> Program {
    parse_program(
        "process P { input a: int; output x: int; x := a + 1; } \
         process Q { input x: int; output y: int; y := x * 2; }",
    )
    .unwrap()
}

fn env(n: usize) -> Scenario {
    PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(n)
}

/// An `n`-stage integer pipeline `a -> s0 -> s1 -> ...` (stage `j` adds 1).
fn chain(stages: usize) -> Program {
    let mut src = String::from("process S0 { input a: int; output s0: int; s0 := a + 1; } ");
    for j in 1..stages {
        src.push_str(&format!(
            "process S{j} {{ input s{}: int; output s{j}: int; s{j} := s{} + 1; }} ",
            j - 1,
            j - 1
        ));
    }
    parse_program(&src).unwrap()
}

#[test]
fn federated_flows_match_the_synchronous_reference() {
    // the paper's validation contract, in miniature: the flows of the
    // federated deployment equal the synchronous simulation's flows,
    // whatever the thread interleaving (the gen-level FederatedFlow oracle
    // checks the same on thousands of generated programs)
    let program = pipe();
    let n = 120;
    let scenario = env(n);
    let mut sim = Simulator::for_program(&program).unwrap();
    let reference = sim.run(&scenario).unwrap();
    for capacity in [1usize, 3] {
        let run = run_federated(
            &program,
            vec![
                FederateSpec::new("P", n).with_environment(scenario.clone()),
                FederateSpec::new("Q", 10 * n).data_driven(),
            ],
            &FederatedOptions::default().with_capacity("x", capacity),
        )
        .unwrap();
        for sig in ["x", "y"] {
            let sig = SigName::from(sig);
            let fed: Vec<_> =
                if sig == SigName::from("x") { run.flow("P", &sig) } else { run.flow("Q", &sig) };
            assert_eq!(fed, reference.flow(&sig), "flow of `{sig}` at capacity {capacity}");
        }
        assert_eq!(run.teardown.spawned, run.teardown.joined);
    }
}

#[test]
fn estimated_capacities_feed_the_federation() {
    // close the loop of Section 5.2: estimated buffer bounds become the
    // federation's channel capacities, and the run is lossless under them
    let program = pipe();
    let steps = 24;
    let scenario = env(steps)
        .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 1, 0).generate(steps))
        .zip_union(&master_clock("tick", steps));
    let report = estimate_buffer_sizes(&program, &scenario, &EstimationOptions::default()).unwrap();
    assert!(report.converged);
    let options = FederatedOptions::from_report(&report);
    assert!(options.capacities[&SigName::from("x")] >= 1);

    let n = 200;
    let run = run_federated(
        &program,
        vec![
            FederateSpec::new("P", n).with_environment(env(n)),
            FederateSpec::new("Q", 10 * n).data_driven(),
        ],
        &options,
    )
    .unwrap();
    let x = &run.channels[&SigName::from("x")];
    assert_eq!((x.pushes, x.pops), (n as u64, n as u64), "lossless under estimated capacity");
    assert!(x.max_occupancy <= options.capacities[&SigName::from("x")]);
}

#[test]
fn consumer_gone_mid_send_unblocks_the_producer() {
    // Q retires after 5 reactions while P still has 95 sends to go and a
    // capacity-1 channel: P is stalled mid-send the moment Q's endpoint
    // drops, must wake with ConsumerGone, and runs out its budget
    let n = 100;
    let run = run_federated(
        &pipe(),
        vec![
            FederateSpec::new("P", n).with_environment(env(n)),
            FederateSpec::new("Q", 5).data_driven(),
        ],
        &FederatedOptions::default(),
    )
    .unwrap();
    assert_eq!(run.federates["P"].reactions, n, "producer ran its full budget");
    let received = run.flow("Q", &"x".into());
    let sent = run.flow("P", &"x".into());
    assert_eq!(received.len(), 5);
    assert_eq!(&sent[..5], received.as_slice(), "what Q saw is a prefix, in order");
    assert_eq!(run.teardown.spawned, 2);
    assert_eq!(run.teardown.joined, 2);
}

#[test]
fn zero_activation_federate_drains_its_neighbors() {
    // the middle stage never activates: upstream sends hit a gone consumer,
    // downstream's data-driven wait sees a gone producer — nobody hangs
    let program = chain(3);
    let n = 60;
    let run = run_federated(
        &program,
        vec![
            FederateSpec::new("S0", n).with_environment(env(n)),
            FederateSpec::new("S1", 0),
            FederateSpec::new("S2", 10 * n).data_driven(),
        ],
        &FederatedOptions::default().with_default_capacity(2),
    )
    .unwrap();
    assert_eq!(run.federates["S0"].reactions, n);
    assert_eq!(run.federates["S1"].reactions, 0);
    assert_eq!(run.federates["S2"].reactions, 0, "nothing ever reaches S2");
    assert_eq!(run.teardown.spawned, 3);
    assert_eq!(run.teardown.joined, 3);
}

#[test]
fn reaction_error_tears_the_federation_down() {
    // a mid-run type error in P must surface as Err (not hang Q, which is
    // blocked in a data-driven wait when the error hits)
    let bad = parse_program(
        "process P { input a: int; output x: int; x := a + 1; } \
         process Q { input x: int; output y: int; y := x * 2; }",
    )
    .unwrap();
    let poisoned = Scenario::new()
        .on("a", polysig::tagged::Value::Int(1))
        .tick()
        .on("a", polysig::tagged::Value::TRUE)
        .tick();
    let err = run_federated(
        &bad,
        vec![
            FederateSpec::new("P", 10).with_environment(poisoned),
            FederateSpec::new("Q", 1000).data_driven(),
        ],
        &FederatedOptions::default(),
    );
    assert!(err.is_err(), "the reaction error must propagate to the caller");
}

#[test]
#[allow(clippy::disallowed_methods, reason = "the soak gate is a test parameter")]
fn soak_long_horizon_streams_counters() {
    // POLYSIG_SOAK=1 gates the long-horizon smoke: ≥1M instants across a
    // 4-federate chain, flow recording off, memory observed only through
    // the streaming counters (CI runs this in its fuzz tier)
    if std::env::var("POLYSIG_SOAK").map(|v| v != "1").unwrap_or(true) {
        eprintln!("skipping soak smoke (set POLYSIG_SOAK=1 to run)");
        return;
    }
    let stages = 4;
    let per_stage = 250_000;
    let program = chain(stages);
    let mut federates = vec![FederateSpec::new("S0", per_stage).with_environment(env(per_stage))];
    for j in 1..stages {
        federates.push(FederateSpec::new(format!("S{j}"), 2 * per_stage).data_driven());
    }
    let run = run_federated(
        &program,
        federates,
        &FederatedOptions::default()
            .with_default_capacity(64)
            .soak()
            .with_sampling(std::time::Duration::from_millis(50)),
    )
    .unwrap();
    assert!(run.total_reactions() >= stages * per_stage, "≥1M instants federation-wide");
    assert!(run.flows.values().all(|m| m.is_empty()), "soak mode records no traces");
    for (name, c) in &run.channels {
        assert_eq!(c.pushes, per_stage as u64, "channel {name} carried every value");
        assert!(c.drained(), "channel {name} drained");
        assert!(c.max_occupancy <= 64, "channel {name} respected its credit pool");
    }
    assert_eq!(run.teardown.spawned, stages);
    assert_eq!(run.teardown.joined, stages);
    let events_per_sec = run.total_events() as f64 / run.elapsed.as_secs_f64();
    eprintln!(
        "soak: {} reactions, {} events in {:?} ({events_per_sec:.0} events/sec), {} samples",
        run.total_reactions(),
        run.total_events(),
        run.elapsed,
        run.samples.len(),
    );
}
