//! The `campaign` subcommand surface (`riot campaign run|fuzz|shrink`).
//!
//! Thin, deterministic plumbing over the library: parse flags, call the
//! fuzzer/shrinker, print findings, and — in `fuzz --smoke` — gate CI on
//! the committed reproducers under `tests/campaigns/` still reproducing
//! and still being minimal.

use crate::fuzz::{fuzz_space, run_isolated, weakened_space, Finding};
use crate::program::CampaignProgram;
use crate::shrink::{shrink_to, ShrinkOutcome};
use riot_harness::{FuzzCase, FuzzPlan, HarnessConfig};
use std::path::{Path, PathBuf};

/// The committed-reproducer directory, resolved from this crate's
/// manifest location (`crates/campaign` → two levels up → `tests/campaigns`)
/// so the smoke gate finds it from any working directory.
pub fn reproducer_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .join("tests")
        .join("campaigns")
}

/// CLI usage text (printed by the `riot` binary on a flag error).
pub fn usage() -> &'static str {
    "usage: riot campaign run <file.campaign>\n\
     \x20      riot campaign fuzz [--seed N] [--budget N] [--threads N] [--out FILE] [--smoke]\n\
     \x20      riot campaign shrink <file.campaign> [--out FILE]"
}

fn parse_num(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("{flag}: '{value}' is not a number"))
}

fn load(path: &str) -> Result<CampaignProgram, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    CampaignProgram::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn describe(f: &Finding) -> String {
    match f {
        Finding::Violated {
            monitor,
            verdict,
            first_violation_s,
        } => match first_violation_s {
            Some(t) => format!("violated {monitor} ({}, first at {t:.0}s)", verdict.name()),
            None => format!("violated {monitor} ({})", verdict.name()),
        },
        Finding::Crash { panic } => format!("crash: {panic}"),
    }
}

/// Runs one program and checks its expectations. Returns the findings.
fn run_and_check(
    program: &CampaignProgram,
    config: &HarnessConfig,
) -> Result<Vec<Finding>, String> {
    let findings = run_isolated(program, config);
    for expected in &program.expect {
        if !findings.iter().any(|f| f.matches(expected)) {
            return Err(format!(
                "'{}': expectation not met: {:?} (findings: {:?})",
                program.name, expected, findings
            ));
        }
    }
    Ok(findings)
}

fn cmd_run(file: &str, config: &HarnessConfig) -> Result<(), String> {
    let program = load(file)?;
    println!(
        "campaign '{}': {} vector(s), {} oracle(s), {} expectation(s)",
        program.name,
        program.campaign.len(),
        program.oracles.len(),
        program.expect.len()
    );
    let findings = run_and_check(&program, config)?;
    if findings.is_empty() {
        println!("no findings");
    } else {
        for f in &findings {
            println!("finding: {}", describe(f));
        }
    }
    if !program.expect.is_empty() {
        println!("all {} expectation(s) reproduced", program.expect.len());
    }
    Ok(())
}

/// The findings of one fuzz case row: violation rows carry them directly,
/// crash rows become a single [`Finding::Crash`], clean rows are empty.
fn case_findings(case: &FuzzCase<CampaignProgram, Vec<Finding>>) -> Vec<Finding> {
    match &case.outcome {
        Ok(Some(v)) => v.clone(),
        Ok(None) => Vec::new(),
        Err(e) => vec![Finding::Crash {
            panic: e.panic.clone(),
        }],
    }
}

fn shrink_first_finding(
    program: &CampaignProgram,
    findings: &[Finding],
    config: &HarnessConfig,
) -> Result<ShrinkOutcome, String> {
    let Some(first) = findings.first() else {
        return Err("nothing to shrink: the program produced no findings".into());
    };
    let target = first.expectation();
    let outcome = shrink_to(program, &target, config);
    println!(
        "shrunk '{}' to {} vector(s) in {} eval(s) ({} removed, {} round(s))",
        program.name,
        outcome.program.campaign.len(),
        outcome.stats.evals,
        outcome.stats.removed_vectors,
        outcome.stats.rounds
    );
    Ok(outcome)
}

fn write_out(path: &str, program: &CampaignProgram) -> Result<(), String> {
    std::fs::write(path, program.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("[wrote {path}]");
    Ok(())
}

/// Checks one committed reproducer: parse, reproduce every expectation,
/// and verify the shrinker cannot reduce it further (minimality fixpoint).
fn check_reproducer(path: &Path, config: &HarnessConfig) -> Result<(), String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {shown}: {e}"))?;
    let program = CampaignProgram::parse(&text).map_err(|e| format!("{shown}: {e}"))?;
    let Some(target) = program.expect.first() else {
        return Err(format!(
            "{shown}: a committed reproducer must expect something"
        ));
    };
    let _ = run_and_check(&program, config).map_err(|e| format!("{shown}: {e}"))?;
    let again = shrink_to(&program, target, config);
    if again.program != program {
        return Err(format!(
            "{shown}: not minimal — shrinker reduced it further to:\n{}",
            again.program.render()
        ));
    }
    println!("reproducer ok: {shown}");
    Ok(())
}

/// The `fuzz --smoke` CI gate: every committed reproducer reproduces and
/// is minimal, and a fixed-seed bounded sweep still finds and fully
/// shrinks at least one violation.
fn smoke(seed: u64, budget: usize, config: &HarnessConfig) -> Result<(), String> {
    let dir = reproducer_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "campaign"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no committed reproducers under {}", dir.display()));
    }
    let single = config.clone().threads(1).quiet();
    for path in &paths {
        check_reproducer(path, &single)?;
    }

    let space = weakened_space();
    let plan = FuzzPlan::new(seed, budget);
    let report = fuzz_space(&space, &plan, &config.clone().quiet());
    let found = report.finding_count();
    println!(
        "smoke sweep: {} case(s), {} finding(s), seed {seed}",
        report.executed(),
        found
    );
    if found == 0 {
        return Err(format!(
            "smoke sweep found nothing: seed {seed} / budget {budget} no longer trips an oracle"
        ));
    }
    // Shrink the first finding end-to-end; shrink_to guarantees the result
    // still fails, so success here means the whole loop is healthy.
    let Some(first) = report.cases.iter().find(|c| c.is_finding()) else {
        return Err("smoke sweep: finding_count > 0 but no finding row".into());
    };
    let findings = case_findings(first);
    let outcome = shrink_first_finding(&first.case, &findings, &single)?;
    println!("smoke reproducer:\n{}", outcome.program.render());
    println!("campaign smoke ok ({} reproducer(s) checked)", paths.len());
    Ok(())
}

/// The flags of `campaign fuzz`.
struct FuzzFlags {
    seed: u64,
    /// `--budget`, else 24 cases, or 6 under `--smoke` (a cheap gate).
    budget: usize,
    out: Option<String>,
    smoke: bool,
    config: HarnessConfig,
}

fn fuzz_flags(argv: &[String], config: HarnessConfig) -> Result<FuzzFlags, String> {
    let mut flags = FuzzFlags {
        seed: 7,
        budget: 0,
        out: None,
        smoke: false,
        config,
    };
    let mut budget = None;
    let mut i = 0;
    while let Some(flag) = argv.get(i) {
        let flag = flag.as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--seed" => flags.seed = parse_num("--seed", &value(&mut i)?)?,
            "--budget" => budget = Some(parse_num("--budget", &value(&mut i)?)? as usize),
            "--threads" => {
                let n = parse_num("--threads", &value(&mut i)?)? as usize;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                flags.config = flags.config.threads(n);
            }
            "--out" => flags.out = Some(value(&mut i)?),
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    flags.budget = budget.unwrap_or(if flags.smoke { 6 } else { 24 });
    if flags.budget == 0 {
        return Err("--budget must be at least 1".into());
    }
    Ok(flags)
}

fn cmd_fuzz(flags: FuzzFlags) -> Result<(), String> {
    let config = flags.config;
    if flags.smoke {
        return smoke(flags.seed, flags.budget, &config);
    }

    let space = weakened_space();
    let plan = FuzzPlan::new(flags.seed, flags.budget);
    let report = fuzz_space(&space, &plan, &config.clone().quiet());
    for case in &report.cases {
        match &case.outcome {
            Ok(None) => {}
            Ok(Some(findings)) => {
                println!("case {:04} [{}]:", case.index, case.case.name);
                for f in findings {
                    println!("  {}", describe(f));
                }
            }
            Err(e) => {
                println!("case {:04} [{}]:", case.index, case.case.name);
                println!("  crash: {}", e.panic);
            }
        }
    }
    println!(
        "{} case(s), {} finding(s) ({} violation case(s), {} crash case(s))",
        report.executed(),
        report.finding_count(),
        report.violations().count(),
        report.crashes().count()
    );
    let Some(first) = report.cases.iter().find(|c| c.is_finding()) else {
        println!("no findings to shrink");
        return Ok(());
    };
    let single = config.clone().threads(1).quiet();
    let findings = case_findings(first);
    let outcome = shrink_first_finding(&first.case, &findings, &single)?;
    println!("minimal reproducer:\n{}", outcome.program.render());
    if let Some(path) = &flags.out {
        write_out(path, &outcome.program)?;
    }
    Ok(())
}

fn cmd_shrink(argv: &[String], config: &HarnessConfig) -> Result<(), String> {
    let Some(file) = argv.first() else {
        return Err("shrink: missing <file.campaign>".into());
    };
    let mut out: Option<String> = None;
    let mut i = 1;
    while let Some(flag) = argv.get(i) {
        match flag.as_str() {
            "--out" => {
                i += 1;
                out = Some(
                    argv.get(i)
                        .cloned()
                        .ok_or_else(|| "--out needs a value".to_owned())?,
                );
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    let program = load(file)?;
    let single = config.clone().threads(1).quiet();
    let findings = run_isolated(&program, &single);
    if findings.is_empty() {
        return Err(format!(
            "'{}' produces no findings; nothing to shrink",
            program.name
        ));
    }
    let outcome = shrink_first_finding(&program, &findings, &single)?;
    println!("minimal reproducer:\n{}", outcome.program.render());
    if let Some(path) = &out {
        write_out(path, &outcome.program)?;
    }
    Ok(())
}

/// Entry point for `riot campaign <subcommand> …`. `argv` excludes the
/// leading `campaign` token.
pub fn run_cli(argv: &[String]) -> Result<(), String> {
    let config = HarnessConfig::from_env();
    match argv.first().map(String::as_str) {
        Some("run") => match argv.get(1) {
            Some(file) => cmd_run(file, &config.threads(1).quiet()),
            None => Err("run: missing <file.campaign>".into()),
        },
        Some("fuzz") => cmd_fuzz(fuzz_flags(argv.get(1..).unwrap_or(&[]), config)?),
        Some("shrink") => cmd_shrink(argv.get(1..).unwrap_or(&[]), &config),
        Some(other) => Err(format!("unknown campaign subcommand '{other}'")),
        None => Err("missing campaign subcommand".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Campaign;
    use crate::program::Expectation;

    #[test]
    fn reproducer_dir_is_workspace_rooted() {
        let dir = reproducer_dir();
        assert!(dir.ends_with("tests/campaigns"));
        assert!(!dir.to_string_lossy().contains("crates"));
    }

    #[test]
    fn run_and_check_enforces_expectations() {
        let space = weakened_space();
        let mut p = CampaignProgram::new("calm-but-expecting");
        p.scenario = space.scenario;
        p.oracles = space.oracles.clone();
        p.campaign = Campaign::new();
        p.expect.push(Expectation::Violated {
            monitor: "coverage_safe".to_owned(),
        });
        let config = HarnessConfig::with_threads(1).quiet();
        let err = run_and_check(&p, &config).expect_err("calm run meets no expectation");
        assert!(err.contains("expectation not met"), "{err}");
        p.expect.clear();
        assert!(run_and_check(&p, &config)
            .expect("no expectations")
            .is_empty());
    }

    #[test]
    fn a_budget_flag_is_kept_under_smoke() {
        let budget = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
            fuzz_flags(&argv, HarnessConfig::with_threads(1))
                .expect("valid flags")
                .budget
        };
        assert_eq!(budget(""), 24);
        assert_eq!(budget("--smoke"), 6);
        assert_eq!(budget("--smoke --budget 24"), 24);
        assert_eq!(budget("--budget 3 --smoke"), 3);
    }

    #[test]
    fn cli_rejects_bad_invocations() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        assert!(run_cli(&argv("")).is_err());
        assert!(run_cli(&argv("warp")).is_err());
        assert!(run_cli(&argv("run")).is_err());
        assert!(run_cli(&argv("shrink")).is_err());
        assert!(run_cli(&argv("run /nonexistent/x.campaign")).is_err());
        assert!(run_cli(&argv("fuzz --bogus")).is_err());
        assert!(run_cli(&argv("fuzz --budget 0")).is_err());
        assert!(run_cli(&argv("fuzz --threads 0")).is_err());
        assert!(run_cli(&argv("fuzz --seed")).is_err());
    }
}
