//! The conformance fuzzer: committed-corpus replay followed by a seeded
//! sweep of freshly generated cases, each checked against every applicable
//! differential oracle.
//!
//! Environment knobs (both optional):
//!
//! - `POLYSIG_FUZZ_SEED` — base seed for the sweep (default 1). Per-case
//!   seeds are derived with splitmix64 so runs with different case counts
//!   share a prefix.
//! - `POLYSIG_FUZZ_CASES` — cases per shape (default 64; CI smoke uses 200,
//!   the local acceptance run 1000).
//!
//! A failing case is shrunk before the panic so the message carries a
//! ready-to-commit corpus entry for `corpus/`.

use polysig_gen::oracle::{bmc_equiv_legs, BmcLeg};
use polysig_gen::{
    check_case, entry_text, generate_case, parse_entry, replay, shrink, GenConfig, Shape,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[allow(clippy::disallowed_methods, reason = "the sweep's seed and size are test parameters")]
fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|e| panic!("{name}={v}: {e}")),
        Err(_) => default,
    }
}

/// splitmix64: decorrelates per-case seeds drawn from a sequential counter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn committed_corpus_replays_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|r| r.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no .case files in {}", dir.display());
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let entry =
            parse_entry(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
        if let Err(f) = replay(&entry) {
            panic!("corpus regression {} failed: {f}", path.display());
        }
    }
}

#[test]
fn generated_cases_satisfy_all_oracles() {
    let base = env_u64("POLYSIG_FUZZ_SEED", 1);
    let cases = env_u64("POLYSIG_FUZZ_CASES", 64);
    let config = GenConfig::default();
    for shape in [Shape::Free, Shape::Pipeline, Shape::Ring] {
        for i in 0..cases {
            // Stable per-shape bits keep seeds for the older shapes unchanged
            // as new shapes are appended.
            let shape_bit = match shape {
                Shape::Free => 0u64,
                Shape::Pipeline => 1u64 << 32,
                Shape::Ring => 2u64 << 32,
            };
            let seed = splitmix64(base ^ splitmix64(i | shape_bit));
            let mut rng = StdRng::seed_from_u64(seed);
            let case = generate_case(&mut rng, &config, shape);
            if let Err(f) = check_case(&case) {
                let small = shrink(&case, f.oracle);
                panic!(
                    "case {i} of shape {shape} (base seed {base}, derived seed {seed}) \
                     failed: {f}\n\nshrunk corpus entry (commit under corpus/):\n\n{}",
                    entry_text(f.oracle, &small)
                );
            }
        }
    }
}

/// A skipped `BmcEquiv` leg compares nothing, so a change that made the
/// symbolic backend refuse these programs would pass the sweep above
/// silently. Every generated pipeline lowers to a static schedule, cases
/// 8 and 10 only since lowering retries equations, and so does every
/// ring's depth-1 desynchronized network, which the oracle checks in
/// place of the ring; both legs must compare every case.
#[test]
fn both_bmc_legs_compare_every_pipeline_and_ring_case() {
    for (shape, shape_bit) in [(Shape::Pipeline, 1u64 << 32), (Shape::Ring, 2u64 << 32)] {
        for i in 0..12 {
            let seed = splitmix64(1 ^ splitmix64(i | shape_bit));
            let case =
                generate_case(&mut StdRng::seed_from_u64(seed), &GenConfig::default(), shape);
            let legs = bmc_equiv_legs(&case).unwrap_or_else(|f| panic!("{shape} case {i}: {f}"));
            assert_eq!(legs, [BmcLeg::Compared; 2], "{shape} case {i}");
        }
    }
}
