//! `benchmark` — the one benchmark of the riot simulator.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--out <dir>]
//! benchmark --smoke
//! benchmark --compare <base> <new>
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics; `--trace 1` is
//! the separate traced run that measures the layers. Either prints the
//! metrics by name and unit, checks the outputs, writes its result file under
//! `--out`, and ends with one JSON line. See `README.md` beside this file
//! for the metric glossary, the workloads and the measured baseline.

mod clock;
mod compare;
mod digest;
mod drivers;
mod json;
mod layers;
mod reference;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Size, Workload};

const USAGE: &str = "usage:
  benchmark --workload <timers_1e5|mesh_1e3|cloud_churn_1e3|fuzz_sweep> --seed <u64>
            [--seconds <n>] [--trace 0|1] [--out <dir>]
  benchmark --smoke [--out <dir>]
  benchmark --compare <base.json|dir> <new.json|dir>";

/// Where result and trace files go unless `--out` says otherwise: relative to
/// the current directory, never to where the binary was compiled.
const DEFAULT_OUT: &str = "target/benchmark";

/// Measuring time of a run when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 26.0;

enum Mode {
    Run {
        workload: Workload,
        seed: u64,
        seconds: f64,
        traced: bool,
    },
    Smoke,
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<(Mode, PathBuf), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    let mut compare = None;
    let mut out = PathBuf::from(DEFAULT_OUT);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let text = value()?;
                seed = Some(
                    text.parse::<u64>()
                        .map_err(|_| format!("--seed `{text}` is not a u64"))?,
                );
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds `{text}` is not a positive number"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let mode = match (compare, smoke, workload, seed) {
        (Some((base, new)), false, None, None) => Mode::Compare(base, new),
        (None, true, None, None) => Mode::Smoke,
        (None, false, Some(workload), Some(seed)) => Mode::Run {
            workload,
            seed,
            seconds,
            traced,
        },
        _ => return Err(USAGE.to_owned()),
    };
    Ok((mode, out))
}

fn write_file(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[wrote {}]", path.display());
    Ok(())
}

/// Runs one workload once and writes its files; the caller prints.
fn run_once(
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<Report, String> {
    let report = if traced {
        let (report, trace_file) = run::traced(workload, seed, size, seconds);
        let name = format!("trace_{}.json", workload.name());
        write_file(out, &name, &(trace_file.pretty() + "\n"))?;
        report
    } else {
        run::untraced(workload, seed, size, seconds)
    };
    let name = format!(
        "{}_seed{seed}_trace{}.json",
        workload.name(),
        u8::from(traced)
    );
    write_file(out, &name, &(report.result_file().pretty() + "\n"))?;
    Ok(report)
}

fn print_report(report: &Report) {
    println!(
        "{} seed {} ({}): {} ops, {} failed, sim_digest {:016x}",
        report.workload.name(),
        report.seed,
        if report.traced { "traced" } else { "untraced" },
        report.attempted,
        report.failed,
        report.digest
    );
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        println!("  PROBLEM: {p}");
    }
}

/// All four workloads at 1/20 size, untraced and traced; fails unless every
/// name in `BENCHMARK.json` is emitted exactly once, well-formed, with its
/// unit, and every output checks out.
fn smoke(out: &Path) -> Result<bool, String> {
    let spec = compare::load_spec()?;
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let mut ok = spec.workloads == names;
    if !ok {
        println!(
            "FAIL  BENCHMARK.json workloads {:?} are not {names:?}",
            spec.workloads
        );
    }
    for workload in Workload::ALL {
        for (traced, wanted) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let report = run_once(workload, 11, Size::SMOKE, 0.6, traced, out)?;
            let emitted: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let mut problems = compare::name_problems(wanted, &emitted);
            problems.extend(report.problems.iter().cloned());
            println!(
                "{}  {:<16} trace {}  {} metrics, {} ops, {} failed",
                if problems.is_empty() { "ok  " } else { "FAIL" },
                workload.name(),
                u8::from(traced),
                emitted.len(),
                report.attempted,
                report.failed
            );
            for p in &problems {
                println!("      {p}");
            }
            ok &= problems.is_empty() && report.failed == 0;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|(mode, out)| match mode {
        Mode::Run {
            workload,
            seed,
            seconds,
            traced,
        } => {
            let report = run_once(workload, seed, Size::FULL, seconds, traced, &out)?;
            print_report(&report);
            // The contract's last line; a run whose outputs are wrong still
            // reports, with `correct: false`.
            println!("{}", report.result_line().render());
            Ok(true)
        }
        Mode::Smoke => smoke(&out),
        Mode::Compare(base, new) => compare::compare_paths(&base, &new),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let (mode, out) = parse_args(&args(
            "--workload mesh_1e3 --seed 23 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(out, PathBuf::from(DEFAULT_OUT));
        match mode {
            Mode::Run {
                workload,
                seed,
                seconds,
                traced,
            } => {
                assert_eq!((workload, seed, traced), (Workload::Mesh1e3, 23, true));
                assert_eq!(seconds, 10.0);
            }
            _ => panic!("expected a run"),
        }
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload mesh_1e3",
            "--workload mesh_1e3 --seed -1",
            "--workload mesh_1e3 --seed 1 --trace 2",
            "--workload mesh_1e3 --seed 1 --seconds 0",
            "--smoke --seed 1",
            "--compare only_one",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` should be refused");
        }
        assert!(matches!(
            parse_args(&args("--compare a b --out o")),
            Ok((Mode::Compare(..), _))
        ));
    }
}
