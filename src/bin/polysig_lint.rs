//! `polysig-lint` — static GALS linter over Signal programs.
//!
//! ```text
//! polysig-lint [OPTIONS] FILE...
//!
//!   --json              machine-readable output (one JSON object per file)
//!   --deny warnings     promote every warn-level lint to deny
//!   --deny CODE         set one lint (by code `PA001` or name) to deny
//!   --warn CODE         set one lint to warn
//!   --allow CODE        set one lint to allow
//!   --waivers FILE      load waivers (`CODE SCOPE JUSTIFICATION` per line)
//!   --scenario FILE     also run the rate-bound prover against a scenario
//! ```
//!
//! Exit status: `0` when every file parses and no non-waived finding is at
//! deny level; `1` otherwise. Parse/resolve/type errors are hard failures.

use std::process::ExitCode;

use polysig::analyze::{
    analyze_program, analyze_with_scenario, AnalysisReport, LintCode, LintConfig, LintLevel,
    ProveOptions,
};
use polysig::lang::check_program;
use polysig::serve::proto::analysis_json;
use polysig::sim::Scenario;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    json: bool,
    config: LintConfig,
    scenario: Option<Scenario>,
    files: Vec<String>,
}

fn parse_level_arg(config: &mut LintConfig, level: LintLevel, value: &str) -> Result<(), String> {
    if level == LintLevel::Deny && value == "warnings" {
        *config = std::mem::take(config).deny_warnings();
        return Ok(());
    }
    let code = LintCode::parse(value)
        .ok_or_else(|| format!("unknown lint `{value}` (expected a PA0xx code or lint name)"))?;
    *config = std::mem::take(config).level(code, level);
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { json: false, config: LintConfig::new(), scenario: None, files: Vec::new() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs an argument"))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny" => parse_level_arg(&mut opts.config, LintLevel::Deny, value_of("--deny")?)?,
            "--warn" => parse_level_arg(&mut opts.config, LintLevel::Warn, value_of("--warn")?)?,
            "--allow" => parse_level_arg(&mut opts.config, LintLevel::Allow, value_of("--allow")?)?,
            "--waivers" => {
                let path = value_of("--waivers")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                opts.config
                    .load_waivers(&text)
                    .map_err(|(line, msg)| format!("{path}:{line}: {msg}"))?;
            }
            "--scenario" => {
                let path = value_of("--scenario")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                opts.scenario = Some(Scenario::from_text(&text)?);
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err("usage: polysig-lint [--json] [--deny warnings|CODE] [--warn CODE] \
                    [--allow CODE] [--waivers FILE] [--scenario FILE] FILE..."
            .into());
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<bool, String> {
    let opts = parse_args(args)?;
    let mut clean = true;
    for path in &opts.files {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let program = check_program(&src).map_err(|e| format!("{path}: {e}"))?;
        let mut report: AnalysisReport = match &opts.scenario {
            Some(s) => analyze_with_scenario(&program, s, &ProveOptions::default()),
            None => analyze_program(&program),
        };
        report.configure(&opts.config);
        if opts.json {
            println!("{}", analysis_json(&report).render());
        } else {
            render_human(path, &report);
        }
        if report.worst_level() >= LintLevel::Deny {
            clean = false;
        }
    }
    Ok(clean)
}

fn render_human(path: &str, report: &AnalysisReport) {
    let interesting: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.waived.is_some() || d.level > LintLevel::Allow)
        .collect();
    if interesting.is_empty() {
        println!(
            "{path}: ok ({} component(s), {} channel(s), {} note(s))",
            report.endochrony.len(),
            report.channels.len(),
            report.count_at(LintLevel::Allow)
        );
        return;
    }
    println!("{path}:");
    for d in interesting {
        println!("  {}", d.render().replace('\n', "\n  "));
    }
    let denies = report.count_at(LintLevel::Deny);
    let warns = report.count_at(LintLevel::Warn);
    if denies + warns > 0 {
        println!("  {denies} error(s), {warns} warning(s)");
    }
}
