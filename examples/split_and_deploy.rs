//! Full workflow from a *monolithic* synchronous design: graph-partition it
//! into components (Section 3's decomposition), desynchronize the cut,
//! prove the buffer bound by exhaustive exploration (the paper's
//! "automatic proof" future work), and compare against the analytic and
//! simulation-based estimates.
//!
//! Run with: `cargo run --example split_and_deploy`

use polysig::gals::analytic::{periodic_bound, PeriodicRate};
use polysig::gals::estimate::{estimate_buffer_sizes, EstimationOptions};
use polysig::gals::{desynchronize, split_component, suggest_split, DesyncOptions};
use polysig::lang::parse_component;
use polysig::sim::generator::master_clock;
use polysig::sim::{PeriodicInputs, ScenarioGenerator, Simulator};
use polysig::tagged::{Value, ValueType};
use polysig::verify::alphabet::Letter;
use polysig::verify::{max_signal_value, Alphabet, CheckOptions, EnvAutomaton};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One monolithic filter-and-integrate design.
    let whole = parse_component(
        "process Dsp { input sample: int; output out: int; \
         local filtered: int, gained: int; \
         filtered := sample + (pre 0 sample); \
         gained := filtered * 2; \
         out := gained + (pre 0 gained); }",
    )?;

    // 1. partition it (greedy dependency-graph heuristic)
    let assignment = suggest_split(&whole);
    println!("partition: {assignment:?}");
    let split = split_component(&whole, "FrontEnd", "BackEnd", &assignment)?;
    let channels = polysig::gals::channels_of_program(&split)?;
    println!(
        "split into {} components with {} crossing channel(s): {:?}",
        split.components.len(),
        channels.len(),
        channels.iter().map(|c| c.signal.as_str()).collect::<Vec<_>>(),
    );

    // 2. the split is synchronously equivalent to the monolith
    let stimulus = PeriodicInputs::new("sample", ValueType::Int, 1, 0).generate(12);
    let whole_out = Simulator::for_component(&whole)?.run(&stimulus)?.flow(&"out".into());
    let split_out = Simulator::for_program(&split)?.run(&stimulus)?.flow(&"out".into());
    assert_eq!(whole_out, split_out);
    println!("split is synchronously equivalent on {} outputs\n", whole_out.len());

    // 3. desynchronize each crossing and size the buffer three ways
    let channel = channels[0].signal.clone();
    let steps = 32;
    let env = PeriodicInputs::new("sample", ValueType::Int, 1, 0)
        .generate(steps)
        .zip_union(
            &PeriodicInputs::new(format!("{channel}_rd"), ValueType::Bool, 1, 0).generate(steps),
        )
        .zip_union(&master_clock("tick", steps));

    // (a) simulation-based Section-5.2 loop
    let report = estimate_buffer_sizes(&split, &env, &EstimationOptions::default())?;
    assert!(report.converged);
    let estimated = report.size_of(&channel).expect("channel sized");

    // (b) analytic bound for the 1:1 periodic environment
    let analytic = periodic_bound(
        PeriodicRate { period: 1, phase: 0 },
        PeriodicRate { period: 1, phase: 0 },
        steps,
    );

    // (c) exhaustive proof of the occupancy bound on a generous channel
    let generous = desynchronize(&split, &DesyncOptions::with_size(4))?;
    let mut write = Letter::new();
    write.insert("tick".into(), Value::TRUE);
    write.insert("sample".into(), Value::Int(1));
    write.insert(format!("{channel}_rd").as_str().into(), Value::TRUE);
    let seq = vec![write];
    let mut alphabet = Alphabet::from_letters(seq.clone())?;
    let autom = EnvAutomaton::cycle(&mut alphabet, &seq);
    let proved = max_signal_value(
        &generous.program,
        &alphabet,
        &format!("{channel}_count").as_str().into(),
        &CheckOptions { env: Some(autom), max_states: 100_000, ..Default::default() },
    )?;

    println!("buffer sizing for channel `{channel}` (writer 1/tick, reader 1/tick):");
    println!("  simulation-estimated (Section 5.2): {estimated}");
    println!("  analytic ideal bound:               {analytic}");
    println!("  exhaustively proved occupancy:      {:?}", proved.max);
    assert!(estimated >= analytic);
    Ok(())
}
