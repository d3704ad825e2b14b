//! End-to-end tests of the `polysig-cli` binary.

use std::io::Write;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_polysig_cli"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("polysig_cli_test_{name}_{}.sig", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const ACC: &str = "process Acc { input tick: bool; output n: int; local np: int; \
                   np := (pre 0 n) when tick; \
                   n := (0 when (np = 3)) default (np + 1); n ^= tick; }";

const PIPE: &str = "process P { input a: int; output x: int; x := a + 1; } \
                    process Q { input x: int; output y: int; y := x * 2; }";

#[test]
fn check_accepts_good_programs() {
    let f = write_temp("good", ACC);
    let out = cli().args(["check", f.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("checks"));
}

#[test]
fn check_rejects_bad_programs() {
    let f = write_temp("bad", "process P { output x: int; x := ghost; }");
    let out = cli().args(["check", f.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ghost"));
}

#[test]
fn clocks_reports_rooted_hierarchy() {
    let f = write_temp("clocks", ACC);
    let out = cli().args(["clocks", f.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clock class"));
    assert!(stdout.contains("IS rooted"));
}

#[test]
fn simulate_prints_a_trace_table() {
    let f = write_temp("sim", ACC);
    let out = cli().args(["simulate", f.to_str().unwrap(), "5"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("t1"));
    assert!(stdout.contains("5 reactions"));
}

#[test]
fn desync_prints_the_transformed_program() {
    let f = write_temp("desync", PIPE);
    let out = cli().args(["desync", f.to_str().unwrap(), "2"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("process Fifo_x"));
    assert!(stdout.contains("process Monitor_x"));
    // the output is itself parseable
    assert!(polysig::lang::parse_program(&stdout).is_ok());
}

#[test]
fn estimate_converges_on_the_pipe() {
    let f = write_temp("estimate", PIPE);
    let out = cli().args(["estimate", f.to_str().unwrap(), "16"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("converged"));
}

#[test]
fn verify_holds_and_fails_appropriately() {
    let f = write_temp("verify", ACC);
    // n is an int, never boolean true
    let out = cli().args(["verify", f.to_str().unwrap(), "n"]).output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "property `never n=true`: HOLDS (4 states, 4 transitions)\n"
    );
    // the symbolic backend answers the same query, bounded
    let out = cli().args(["bmc", f.to_str().unwrap(), "n"]).output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "property `never n=true`: HOLDS (bounded to depth 8)\n"
    );

    // a signal that IS sometimes true → violation + counterexample
    let f2 = write_temp(
        "verify2",
        "process T { input tick: bool; output b: bool; b := true when tick; }",
    );
    let out = cli().args(["verify", f2.to_str().unwrap(), "b"]).output().unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (verdict, counterexample) = stdout.split_once('\n').unwrap();
    assert_eq!(verdict, "property `never b=true`: VIOLATED (1 states, 1 transitions)");
    assert!(counterexample.starts_with("counterexample"));
    // …and BMC prints the same counterexample under its own verdict line
    let out = cli().args(["bmc", f2.to_str().unwrap(), "b"]).output().unwrap();
    assert!(!out.status.success());
    let bmc_stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        bmc_stdout.split_once('\n'),
        Some(("property `never b=true`: VIOLATED", counterexample))
    );
}

#[test]
fn unknown_command_reports_usage() {
    let f = write_temp("usage", ACC);
    let out = cli().args(["frobnicate", f.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn simulate_accepts_scenario_files() {
    let out = cli()
        .args([
            "simulate",
            concat!(env!("CARGO_MANIFEST_DIR"), "/programs/one_place_buffer.sig"),
            concat!("@", env!("CARGO_MANIFEST_DIR"), "/programs/one_place_buffer.scn"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 reactions"));
    assert!(stdout.contains("msgout"));
}

#[test]
fn dump_writes_a_vcd_file() {
    let f = write_temp("vcd", ACC);
    let out_path = std::env::temp_dir().join(format!("polysig_cli_{}.vcd", std::process::id()));
    let out = cli()
        .args(["dump", f.to_str().unwrap(), "8", out_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = std::fs::read_to_string(&out_path).unwrap();
    assert!(doc.contains("$enddefinitions"));
    let _ = std::fs::remove_file(out_path);
}
