//! Snapshot of what the static analyzer reports: for every shipped program,
//! a fixed set of generated designs (with and without their estimation
//! scenario, ring designs once more under `programs/ring.waivers`) and a
//! rate-mismatched join whose deployment can deadlock, the report's JSON,
//! its findings, verdicts and bounds, and its channels, hashed together
//! into one SHA-256.
//!
//! The analyzer may get simpler or faster, but it must keep reporting the
//! same findings in the same order and rendering them to the same bytes: a
//! change here means the analysis changed, and a change that means to do
//! so updates `EXPECTED` and says why.

use polysig::analyze::{
    analyze_program, analyze_with_scenario, AnalysisReport, LintConfig, ProveOptions,
};
use polysig::gals::hash_bytes;
use polysig::lang::{parse_program, Program};
use polysig::serve::proto::analysis_json;
use polysig::sim::{PeriodicInputs, Scenario, ScenarioGenerator};
use polysig::tagged::ValueType;
use polysig_gen::{generate_case, GenConfig, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The combined hash, recorded before the analyzer's channel walk, port
/// names and JSON writer moved into `polysig-gals` and the facade.
const EXPECTED: &str = "4f788b470efa0ed8c4a1890612d6530afa507c0e27be718686063417418e6f2b";

/// splitmix64, deriving the per-case seeds exactly as the conformance
/// fuzzer does.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Appends everything `report` established to `out`.
fn render(label: &str, report: &AnalysisReport, out: &mut String) {
    let json = analysis_json(report).render();
    out.push_str(&format!(
        "== {label}\n{json}\n{:?}\n{:?}\n{:?}\n{:?}\n",
        report.diagnostics, report.endochrony, report.bounds, report.deployment
    ));
    for ch in &report.channels {
        out.push_str(&format!("-- {} {} {}\n", ch.signal, ch.producer, ch.consumer));
    }
}

fn shipped_programs() -> Vec<(String, Program)> {
    let mut paths: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sig"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path).unwrap();
            let label = path.file_name().unwrap().to_string_lossy().into_owned();
            (label, parse_program(&src).unwrap())
        })
        .collect()
}

/// A producer with two channels into one join, `x` twice as fast as `y`:
/// at the canonical capacity 1 the deployment can deadlock.
fn rate_mismatched_join() -> (Program, Scenario) {
    let program = parse_program(
        "process S { input a: int, b: int; output x: int, y: int; x := a; y := b; } \
         process J { input x: int, y: int; output z: int; z := x + y; }",
    )
    .unwrap();
    let steps = 12;
    let scenario = PeriodicInputs::new("a", ValueType::Int, 1, 0)
        .generate(steps)
        .zip_union(&PeriodicInputs::new("b", ValueType::Int, 2, 0).generate(steps));
    (program, scenario)
}

#[test]
fn analysis_reports_match_the_recorded_snapshot() {
    let mut text = String::new();
    let options = ProveOptions::default();
    for (label, program) in shipped_programs() {
        render(&label, &analyze_program(&program), &mut text);
    }

    let mut ring_waivers = LintConfig::new();
    ring_waivers
        .load_waivers(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/programs/ring.waivers"))
                .unwrap(),
        )
        .unwrap();
    let mut waived = 0;
    for (shape, shape_bit) in
        [(Shape::Free, 0u64), (Shape::Pipeline, 1u64 << 32), (Shape::Ring, 2u64 << 32)]
    {
        for i in 0..64 {
            let seed = splitmix64(1 ^ splitmix64(i | shape_bit));
            let case =
                generate_case(&mut StdRng::seed_from_u64(seed), &GenConfig::default(), shape);
            let scenario = case.est_scenario.as_ref().unwrap_or(&case.scenario);
            let reports = [
                ("plain", analyze_program(&case.program)),
                ("scenario", analyze_with_scenario(&case.program, scenario, &options)),
            ];
            for (kind, mut report) in reports {
                render(&format!("{shape} case {i} {kind}"), &report, &mut text);
                if shape == Shape::Ring {
                    report.configure(&ring_waivers);
                    waived += report.diagnostics.iter().filter(|d| d.waived.is_some()).count();
                    render(&format!("{shape} case {i} {kind} waived"), &report, &mut text);
                }
            }
        }
    }
    // the ring waivers take effect, so waived findings are rendered
    assert!(waived > 0);

    let (join, env) = rate_mismatched_join();
    render("join plain", &analyze_program(&join), &mut text);
    let report = analyze_with_scenario(&join, &env, &options);
    let deployment = report.deployment.as_ref().unwrap();
    assert!(!deployment.is_deadlock_free() && !deployment.suggested_capacities.is_empty());
    render("join scenario", &report, &mut text);

    assert_eq!(hash_bytes(text.as_bytes()).to_string(), EXPECTED);
}
