//! Re-runs one fuzz seed, shrinks any failure, and emits a ready-to-commit
//! corpus entry.
//!
//! ```text
//! fuzz_triage --seed 42 [--shape free|pipeline|ring] [--out corpus/entry.case]
//! fuzz_triage --replay corpus/entry.case
//! ```
//!
//! With `--seed`, the case for that seed is generated exactly as the
//! `fuzz_conformance` test would, all applicable oracles run, and on failure
//! the shrunk case is printed (or written to `--out`). With `--replay`, an
//! existing corpus file is parsed and replayed.

use std::process::ExitCode;

use polysig_gen::{
    check_case, entry_text, generate_case, parse_entry, replay, shrink, GenConfig, Shape,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    seed: Option<u64>,
    shape: Shape,
    out: Option<String>,
    replay: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: None, shape: Shape::Free, out: None, replay: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--shape" => args.shape = value("--shape")?.parse()?,
            "--out" => args.out = Some(value("--out")?),
            "--replay" => args.replay = Some(value("--replay")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.seed.is_none() && args.replay.is_none() {
        return Err("pass --seed <n> or --replay <file>".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz_triage: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fuzz_triage: reading {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let entry = match parse_entry(&text) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("fuzz_triage: parsing {path}: {e}");
                return ExitCode::from(2);
            }
        };
        return match replay(&entry) {
            Ok(()) => {
                println!("{path}: all oracles pass");
                ExitCode::SUCCESS
            }
            Err(f) => {
                eprintln!("{path}: {f}");
                ExitCode::FAILURE
            }
        };
    }

    let seed = args.seed.expect("checked in parse_args");
    let mut rng = StdRng::seed_from_u64(seed);
    let case = generate_case(&mut rng, &GenConfig::default(), args.shape);
    match check_case(&case) {
        Ok(()) => {
            println!("seed {seed} ({}): all oracles pass", args.shape);
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("seed {seed} ({}): {f}", args.shape);
            let small = shrink(&case, f.oracle);
            let text = entry_text(f.oracle, &small);
            match &args.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &text) {
                        eprintln!("fuzz_triage: writing {path}: {e}");
                        return ExitCode::from(2);
                    }
                    eprintln!("shrunk corpus entry written to {path}");
                }
                None => print!("{text}"),
            }
            ExitCode::FAILURE
        }
    }
}
