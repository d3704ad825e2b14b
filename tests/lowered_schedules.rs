//! Snapshot of what elaboration produces: for every shipped program and a
//! fixed set of generated designs, the lowered op stream, the reason a
//! program does not lower, and the signal-id order, hashed together into
//! one SHA-256.
//!
//! Elaboration may get faster, but it must keep producing the same
//! schedules and the same ids: a change here means lowering changed, and a
//! change that means to do so updates `EXPECTED` and says why.

use polysig::gals::{desynchronize, hash_bytes, DesyncOptions};
use polysig::lang::{parse_program, Program};
use polysig::sim::Reactor;
use polysig_gen::{generate_case, GenConfig, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The combined hash, recorded before elaboration was rewritten to run in
/// linear time.
const EXPECTED: &str = "02458713ab81a1b1516d761b10faae10feca6bf03b49a2524b04b0ff39c88f5f";

/// splitmix64, deriving the per-case seeds exactly as the conformance
/// fuzzer does.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Appends what elaboration made of `program` to `out`; `true` when it
/// lowered.
fn render(label: &str, program: &Program, out: &mut String) -> bool {
    let r = Reactor::for_program(program).unwrap_or_else(|e| panic!("{label}: {e}"));
    let failure = r.lower_failure().map(ToString::to_string).unwrap_or_default();
    out.push_str(&format!(
        "== {label}\n{:?}\n-- {failure}\n-- {:?}\n",
        r.compiled_schedule(),
        r.signal_names()
    ));
    r.is_compiled()
}

fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sig"))
        .collect();
    paths.sort();
    for path in paths {
        let src = std::fs::read_to_string(&path).unwrap();
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((label, parse_program(&src).unwrap()));
    }
    for (shape, shape_bit) in [(Shape::Pipeline, 1u64 << 32), (Shape::Ring, 2u64 << 32)] {
        for i in 0..64 {
            let seed = splitmix64(1 ^ splitmix64(i | shape_bit));
            let case =
                generate_case(&mut StdRng::seed_from_u64(seed), &GenConfig::default(), shape);
            for d in [1, 4] {
                let options = DesyncOptions::with_size(d).instrumented().lenient();
                let network = desynchronize(&case.program, &options)
                    .unwrap_or_else(|e| panic!("{shape} case {i} at depth {d}: {e}"))
                    .program;
                out.push((format!("{shape} case {i} depth {d}"), network));
            }
            out.push((format!("{shape} case {i}"), case.program));
        }
    }
    out
}

#[test]
fn lowered_schedules_match_the_recorded_snapshot() {
    let mut text = String::new();
    let programs = programs();
    let lowered = programs.iter().filter(|(label, p)| render(label, p, &mut text)).count();
    // every program but the 64 synchronous rings lowers
    assert_eq!((lowered, programs.len()), (323, 387));
    assert_eq!(hash_bytes(text.as_bytes()).to_string(), EXPECTED);
}
