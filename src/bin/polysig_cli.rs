//! `polysig-cli` — command-line front end for the polysig toolchain.
//!
//! ```text
//! polysig-cli check    FILE              parse + resolve + type-check
//! polysig-cli clocks   FILE              clock classes, hierarchy, endochrony
//! polysig-cli simulate FILE N [SEED]     run N reactions under random inputs
//! polysig-cli simulate FILE @SCENARIO    run a scenario file (name=value lines)
//! polysig-cli desync   FILE [SIZE]       print the desynchronized program
//! polysig-cli estimate FILE N            size buffers for a random environment
//! polysig-cli verify   FILE SIGNAL       prove SIGNAL never true (exhaustive)
//! polysig-cli bmc      FILE SIGNAL [K]   prove SIGNAL never true within K
//!                                        reactions (symbolic, default K=8)
//! polysig-cli dump     FILE N OUT.vcd    simulate N reactions, export VCD
//! polysig-cli federated [STAGES] [N] [CAP] [--ring] [--all-data-driven]
//!                       [--check] [--force]
//!                                        run a STAGES-stage pipeline (or,
//!                                        with --ring, a feedback ring) as
//!                                        compiled federates (N activations
//!                                        each, CAP credits per channel) and
//!                                        print the streaming counters.
//!                                        --check preflights the deployment
//!                                        with the static federated-safety
//!                                        pass and refuses to launch on
//!                                        deny-level PA008/PA009 findings
//!                                        (--force launches anyway, under a
//!                                        watchdog)
//! ```
//!
//! Programs are written in the concrete syntax of `polysig-lang` (see the
//! repository README); every command reads the file, reports errors with
//! positions, and exits non-zero on failure.

use std::process::ExitCode;

use polysig::gals::estimate::{estimate_buffer_sizes, EstimationOptions};
use polysig::gals::report::trace_table;
use polysig::gals::{desynchronize, DesyncOptions};
use polysig::lang::clock::analyze_component;
use polysig::lang::{check_program, pretty_program, DependencyGraph, Program, Role};
use polysig::sim::generator::master_clock;
use polysig::sim::{RandomInputs, Scenario, ScenarioGenerator, Simulator};
use polysig::tagged::ValueType;
use polysig::verify::{check, Alphabet, Backend, CheckOptions, Property};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    check_program(&src).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let usage = "usage: polysig-cli <check|clocks|simulate|desync|estimate|verify|bmc|dump> FILE \
                 [ARGS] | polysig-cli federated [STAGES] [ACTIVATIONS] [CAPACITY]";
    let cmd = args.first().ok_or(usage)?;
    if cmd == "federated" {
        return run_federated_cmd(&args[1..]);
    }
    let file = args.get(1).ok_or(usage)?;
    let program = load(file)?;

    match cmd.as_str() {
        "check" => {
            for c in &program.components {
                let deps = DependencyGraph::of_component(c);
                deps.topological_order().map_err(|e| e.to_string())?;
                println!(
                    "component `{}`: {} signals, {} equations — ok",
                    c.name,
                    c.decls.len(),
                    c.equations().count()
                );
            }
            println!("program `{}` checks", program.name);
            Ok(())
        }
        "clocks" => {
            for c in &program.components {
                let a = analyze_component(c);
                println!("component `{}`:", c.name);
                for class in &a.classes {
                    let members: Vec<&str> = class.members.iter().map(|m| m.as_str()).collect();
                    println!("  clock class {}: {}", class.id, members.join(", "));
                }
                for (sub, sup) in a.edges() {
                    println!("  class {sub} ⊆ class {sup}");
                }
                println!(
                    "  hierarchy {} rooted (endochrony heuristic)",
                    if a.is_rooted() { "IS" } else { "is NOT" }
                );
            }
            Ok(())
        }
        "simulate" => {
            let arg2 = args.get(2).ok_or("simulate needs a step count or @scenario-file")?;
            let scenario = if let Some(path) = arg2.strip_prefix('@') {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                Scenario::from_text(&text)?
            } else {
                let steps: usize = arg2.parse().map_err(|_| "step count must be a number")?;
                let seed: u64 = args.get(3).map(|s| s.parse().unwrap_or(42)).unwrap_or(42);
                random_environment(&program, steps, seed)
            };
            let steps = scenario.len();
            let mut sim = Simulator::for_program(&program).map_err(|e| e.to_string())?;
            let run = sim.run(&scenario).map_err(|e| e.to_string())?;
            let signals: Vec<polysig::tagged::SigName> = program.all_names().into_iter().collect();
            println!("{}", trace_table(&run.behavior, &signals, steps.min(24)));
            println!("{} reactions, {} events", run.steps, run.events);
            Ok(())
        }
        "desync" => {
            let size: usize = args.get(2).map(|s| s.parse().unwrap_or(1)).unwrap_or(1);
            let d = desynchronize(&program, &DesyncOptions::with_size(size).instrumented())
                .map_err(|e| e.to_string())?;
            println!("{}", pretty_program(&d.program));
            eprintln!(
                "-- {} channel(s): {}",
                d.channels.len(),
                d.channels
                    .iter()
                    .map(|c| format!("{} (depth {})", c.spec.signal, c.size))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            Ok(())
        }
        "estimate" => {
            let steps: usize = args
                .get(2)
                .ok_or("estimate needs a step count")?
                .parse()
                .map_err(|_| "step count must be a number")?;
            let probe =
                desynchronize(&program, &DesyncOptions::with_size(1)).map_err(|e| e.to_string())?;
            let mut scenario = random_environment(&program, steps, 42);
            // full-rate read requests and master tick for every channel
            for ch in &probe.channels {
                let rd =
                    polysig::sim::PeriodicInputs::new(ch.rd_signal.clone(), ValueType::Bool, 1, 0)
                        .generate(steps);
                scenario = scenario.zip_union(&rd);
            }
            scenario = scenario.zip_union(&master_clock("tick", steps));
            let report = estimate_buffer_sizes(&program, &scenario, &EstimationOptions::default())
                .map_err(|e| e.to_string())?;
            for (i, round) in report.history.iter().enumerate() {
                println!(
                    "round {i}: sizes {:?}, alarms {:?}",
                    round.sizes.values().collect::<Vec<_>>(),
                    round.alarms.values().collect::<Vec<_>>()
                );
            }
            if report.converged {
                println!("converged: {:?}", report.final_sizes);
                Ok(())
            } else {
                Err("estimation did not converge".into())
            }
        }
        "verify" => {
            let signal = args.get(2).ok_or("verify needs a signal name")?;
            let alphabet = Alphabet::exhaustive(&program, &[0, 1]).map_err(|e| e.to_string())?;
            let property = Property::never_true(signal.as_str());
            let result = check(
                &program,
                &alphabet,
                &property,
                &CheckOptions { max_states: 200_000, ..Default::default() },
            )
            .map_err(|e| e.to_string())?;
            println!(
                "property `{property}`: {} ({} states, {} transitions)",
                if result.holds { "HOLDS" } else { "VIOLATED" },
                result.states_explored,
                result.transitions
            );
            if let Some(cx) = result.counterexample {
                print!("{cx}");
            }
            if result.holds {
                Ok(())
            } else {
                Err("property violated".into())
            }
        }
        "bmc" => {
            let signal = args.get(2).ok_or("bmc needs a signal name")?;
            let depth: usize = args
                .get(3)
                .map(|s| s.parse().map_err(|_| "depth must be a number"))
                .transpose()?
                .unwrap_or(8);
            let alphabet = Alphabet::exhaustive(&program, &[0, 1]).map_err(|e| e.to_string())?;
            let property = Property::never_true(signal.as_str());
            let result = check(
                &program,
                &alphabet,
                &property,
                &CheckOptions { backend: Backend::Bmc { depth }, ..Default::default() },
            )
            .map_err(|e| e.to_string())?;
            if result.holds {
                println!("property `{property}`: HOLDS (bounded to depth {depth})");
                Ok(())
            } else {
                println!("property `{property}`: VIOLATED");
                if let Some(cx) = result.counterexample {
                    print!("{cx}");
                }
                Err("property violated".into())
            }
        }
        "dump" => {
            let steps: usize = args
                .get(2)
                .ok_or("dump needs a step count")?
                .parse()
                .map_err(|_| "step count must be a number")?;
            let out_path = args.get(3).ok_or("dump needs an output path")?;
            let scenario = random_environment(&program, steps, 42);
            let mut sim = Simulator::for_program(&program).map_err(|e| e.to_string())?;
            let run = sim.run(&scenario).map_err(|e| e.to_string())?;
            let signals: Vec<polysig::tagged::SigName> = program.all_names().into_iter().collect();
            let doc = polysig::gals::vcd::to_vcd(&run.behavior, &signals, &program.name);
            std::fs::write(out_path, doc).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
            println!("wrote {out_path} ({} signals, {} reactions)", signals.len(), steps);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{usage}")),
    }
}

/// `polysig-cli federated [STAGES] [ACTIVATIONS] [CAPACITY] [FLAGS]` —
/// deploy a synthetic integer pipeline (or, with `--ring`, a feedback
/// ring whose head merges the delayed loop value with fresh input via
/// `default`) as one compiled federate per stage over bounded credit
/// channels, in soak mode (no trace recording; the streaming counters
/// are the observation), and self-check the outcome. `--check` runs the
/// static federated-deployment pass first and refuses to launch on
/// deny-level findings (PA008 deadlock risk, PA009 underprovision);
/// `--force` overrides the refusal and arms a watchdog so a deadlocked
/// launch still terminates. `--all-data-driven` deploys every federate
/// data-driven (the unsafe ring deployment PA008 exists to catch).
fn run_federated_cmd(args: &[String]) -> Result<(), String> {
    use polysig::analyze::{analyze_deployment, DeploymentPlan, DeploymentVerdict, LintLevel};
    use polysig::gals::runtime::{run_federated, FederateSpec, FederatedOptions};
    use polysig::sim::PeriodicInputs;

    let mut positionals: Vec<usize> = Vec::new();
    let (mut ring, mut all_data_driven, mut check_first, mut force) = (false, false, false, false);
    for arg in args {
        match arg.as_str() {
            "--ring" => ring = true,
            "--all-data-driven" => all_data_driven = true,
            "--check" => check_first = true,
            "--force" => force = true,
            other if other.starts_with("--") => {
                return Err(format!("federated: unknown flag `{other}`"));
            }
            number => positionals
                .push(number.parse().map_err(|_| format!("`{number}` must be a number"))?),
        }
    }
    let stages = positionals.first().copied().unwrap_or(4).max(2);
    let activations = positionals.get(1).copied().unwrap_or(5_000).max(1);
    let capacity = positionals.get(2).copied().unwrap_or(8).max(1);

    // the synthetic topology: a chain of +1 stages, either open (pipeline)
    // or closed through a delayed feedback edge the head merges via `default`
    let mut src = if ring {
        String::from(
            "process S0 { input a: int, f: int; output s0: int; s0 := (f default a) + 1; } ",
        )
    } else {
        String::from("process S0 { input a: int; output s0: int; s0 := a + 1; } ")
    };
    for j in 1..stages {
        let last = j == stages - 1;
        if ring && last {
            src.push_str(&format!(
                "process S{j} {{ input s{}: int; output f: int; f := pre 0 s{}; }} ",
                j - 1,
                j - 1
            ));
        } else {
            src.push_str(&format!(
                "process S{j} {{ input s{}: int; output s{j}: int; s{j} := s{} + 1; }} ",
                j - 1,
                j - 1
            ));
        }
    }
    let program = check_program(&src).map_err(|e| e.to_string())?;

    let env = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(activations);

    if check_first || force {
        // preflight: analyze exactly the deployment we are about to launch
        let plan = if all_data_driven {
            program
                .components
                .iter()
                .fold(DeploymentPlan::default(), |p, c| p.driven(c.name.clone()))
        } else {
            DeploymentPlan::canonical(&program, Some(&env))
        }
        .with_default_capacity(capacity);
        let bounds = if ring {
            None // the bounds prover targets acyclic desynchronizations
        } else {
            let mut probe_env = env.clone();
            let probe =
                desynchronize(&program, &DesyncOptions::with_size(1)).map_err(|e| e.to_string())?;
            for ch in &probe.channels {
                let rd =
                    polysig::sim::PeriodicInputs::new(ch.rd_signal.clone(), ValueType::Bool, 1, 0)
                        .generate(activations);
                probe_env = probe_env.zip_union(&rd);
            }
            probe_env = probe_env.zip_union(&master_clock("tick", activations));
            let mut bounds = polysig::analyze::prove_bounds(
                &program,
                &probe_env,
                &polysig::analyze::ProveOptions::default(),
            );
            // a bound as large as the horizon is vacuous (any channel holds
            // at most one value per instant), so it cannot convict a capacity
            bounds.bounds.retain(|_, b| match b {
                polysig::analyze::ChannelBound::Exact { depth }
                | polysig::analyze::ChannelBound::UpperBound { depth } => *depth < activations,
                _ => true,
            });
            Some(bounds)
        };
        let (report, diags) = analyze_deployment(&program, &plan, bounds.as_ref());
        for d in &diags {
            eprintln!("{}", d.render());
        }
        match &report.verdict {
            DeploymentVerdict::DeadlockFree { argument } => {
                println!("preflight: deadlock-free ({argument})");
            }
            DeploymentVerdict::DeadlockRisk { cycle, reason } => {
                let members: Vec<&str> = cycle.iter().map(|s| s.as_str()).collect();
                println!("preflight: deadlock risk on cycle {} ({reason})", members.join(" -> "));
            }
            DeploymentVerdict::Unknown { reason } => println!("preflight: unknown ({reason})"),
        }
        if !report.suggested_capacities.is_empty() {
            println!("preflight: suggested capacities {:?}", report.suggested_capacities);
        }
        if diags.iter().any(|d| d.level >= LintLevel::Deny) {
            if force {
                eprintln!("preflight: deny-level findings overridden by --force");
            } else {
                return Err(
                    "preflight refused the launch: deny-level findings (re-run with --force to \
                     launch anyway)"
                        .into(),
                );
            }
        }
    }

    let mut federates = Vec::new();
    for (j, c) in program.components.iter().enumerate() {
        if j == 0 && !all_data_driven {
            federates
                .push(FederateSpec::new(c.name.clone(), activations).with_environment(env.clone()));
        } else {
            federates.push(FederateSpec::new(c.name.clone(), 2 * activations + 8).data_driven());
        }
    }
    let mut options = FederatedOptions::default()
        .with_default_capacity(capacity)
        .soak()
        .with_sampling(std::time::Duration::from_millis(200));
    if force || all_data_driven {
        // an overridden (or deliberately unsafe) launch must still terminate
        options = options.with_watchdog(std::time::Duration::from_millis(200));
    }
    let run = run_federated(&program, federates, &options).map_err(|e| e.to_string())?;

    for (name, stats) in &run.federates {
        println!(
            "federate {name}: {} reactions ({})",
            stats.reactions,
            if stats.compiled { "compiled" } else { "interpreted" }
        );
    }
    for (name, c) in &run.channels {
        println!(
            "channel {name}: {} pushed, {} popped, max occupancy {}, {} stall(s) totalling {:?}",
            c.pushes, c.pops, c.max_occupancy, c.stall_events, c.stalled
        );
    }
    println!(
        "{} reactions in {:?} ({:.0} events/sec), {} occupancy sample(s), \
         {} thread(s) spawned / {} joined",
        run.total_reactions(),
        run.elapsed,
        run.total_reactions() as f64 / run.elapsed.as_secs_f64(),
        run.samples.len(),
        run.teardown.spawned,
        run.teardown.joined,
    );

    if run.deadlocked() {
        let stalled: Vec<&str> = run
            .watchdog
            .as_ref()
            .map(|w| w.stalled.iter().map(|s| s.as_str()).collect())
            .unwrap_or_default();
        return Err(format!(
            "federation deadlocked: the watchdog broke a stall on {{{}}}",
            stalled.join(", ")
        ));
    }
    let complete = run.teardown.spawned == run.teardown.joined
        && run.federates[program.components[0].name.as_str()].reactions == activations;
    if ring {
        // the feedback channel legitimately retains values at teardown
        // (its consumer is the head, which retires first), so the pipeline
        // delivery audit does not apply
        if complete {
            println!("OK: the ring ran the head's full budget, every thread joined");
            return Ok(());
        }
        return Err("self-check failed: incomplete ring federation".into());
    }
    let delivered = run.channels.values().all(|c| c.pushes == activations as u64 && c.drained());
    if delivered && complete {
        println!("OK: every value delivered, every thread joined");
        Ok(())
    } else {
        Err("self-check failed: lost values or incomplete federation".into())
    }
}

/// A Bernoulli environment over the program's external inputs (`tick`
/// always on; integers drawn per input with independent seeds).
fn random_environment(program: &Program, steps: usize, seed: u64) -> Scenario {
    let mut scenario = Scenario::new().silence(steps);
    for (k, name) in program.external_inputs().into_iter().enumerate() {
        if name.as_str() == "tick" {
            scenario = scenario.zip_union(&master_clock("tick", steps));
            continue;
        }
        let ty = program
            .components
            .iter()
            .find_map(|c| c.decl(&name))
            .map(|d| d.ty)
            .unwrap_or(ValueType::Int);
        let gen = RandomInputs::new(name, ty, 0.5, seed.wrapping_add(k as u64));
        scenario = scenario.zip_union(&gen.generate(steps));
    }
    let _ = program.components.iter().flat_map(|c| c.signals_with_role(Role::Input));
    scenario
}
