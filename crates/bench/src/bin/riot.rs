//! `riot` — scenario runner CLI.
//!
//! Runs a configurable scenario (or all four maturity levels of it) and
//! prints the resilience report. With `--seeds N` every level runs under
//! `N` consecutive seeds and the per-level resilience is reported as
//! mean ± 95% CI; cells execute in parallel on the `riot-harness` worker
//! pool (`--threads N` to pin the worker count). Argument parsing is
//! hand-rolled to keep the dependency set to the offline allowlist.
//!
//! ```text
//! USAGE:
//!   riot [--level ml1|ml2|ml3|ml4 | --all-levels]
//!        [--edges N] [--devices N]            # devices = per edge
//!        [--duration SECS] [--warmup SECS] [--seed N]
//!        [--seeds N]                          # N consecutive seeds per level
//!        [--threads N]                        # harness worker threads
//!        [--suite infrastructure|service|connectivity|governance|mobility|none]
//!        [--roaming N]                        # N roaming devices (geometry walks)
//!        [--trace-tail N]                     # keep + print the last N kernel events
//!        [--stream-summary]                   # attach streaming telemetry, print aggregates
//!        [--json FILE]                        # write results as JSON
//! EXAMPLE:
//!   cargo run -p riot-bench --bin riot -- --all-levels --suite connectivity --seeds 3
//! ```

use riot_bench::suites;
use riot_core::{
    resilience_table, roaming_schedule, MobilitySpec, Scenario, ScenarioResult, ScenarioSpec,
    Stats, StreamSpec, Table,
};
use riot_harness::{Cell, Grid, HarnessConfig};
use riot_model::MaturityLevel;
use riot_sim::{Json, SimDuration, SimRng, ToJson};
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    levels: Vec<MaturityLevel>,
    edges: usize,
    devices_per_edge: usize,
    duration_s: u64,
    warmup_s: u64,
    seed: u64,
    seeds: usize,
    threads: Option<usize>,
    suite: Option<String>,
    roaming: usize,
    trace_tail: Option<usize>,
    stream_summary: bool,
    json: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            levels: vec![MaturityLevel::Ml4],
            edges: 4,
            devices_per_edge: 8,
            duration_s: 120,
            warmup_s: 30,
            seed: 1,
            seeds: 1,
            threads: None,
            suite: None,
            roaming: 0,
            trace_tail: None,
            stream_summary: false,
            json: None,
        }
    }
}

fn usage() -> &'static str {
    "usage: riot [--level ml1|ml2|ml3|ml4 | --all-levels] [--edges N] [--devices N]\n\
     \x20           [--duration SECS] [--warmup SECS] [--seed N] [--seeds N] [--threads N]\n\
     \x20           [--suite infrastructure|service|connectivity|governance|mobility|none]\n\
     \x20           [--roaming N] [--trace-tail N] [--stream-summary] [--json FILE]\n\
     \x20      riot campaign run|fuzz|shrink … (see `riot campaign` for details)"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--level" => {
                let v = value(&mut i, "--level")?;
                args.levels = vec![match v.to_ascii_lowercase().as_str() {
                    "ml1" => MaturityLevel::Ml1,
                    "ml2" => MaturityLevel::Ml2,
                    "ml3" => MaturityLevel::Ml3,
                    "ml4" => MaturityLevel::Ml4,
                    other => return Err(format!("unknown level '{other}'")),
                }];
            }
            "--all-levels" => args.levels = MaturityLevel::ALL.to_vec(),
            "--edges" => args.edges = num(&value(&mut i, "--edges")?)?,
            "--devices" => args.devices_per_edge = num(&value(&mut i, "--devices")?)?,
            "--duration" => args.duration_s = num(&value(&mut i, "--duration")?)? as u64,
            "--warmup" => args.warmup_s = num(&value(&mut i, "--warmup")?)? as u64,
            "--seed" => args.seed = num(&value(&mut i, "--seed")?)? as u64,
            "--seeds" => args.seeds = num(&value(&mut i, "--seeds")?)?,
            "--threads" => args.threads = Some(num(&value(&mut i, "--threads")?)?),
            "--roaming" => args.roaming = num(&value(&mut i, "--roaming")?)?,
            "--trace-tail" => args.trace_tail = Some(num(&value(&mut i, "--trace-tail")?)?),
            "--stream-summary" => args.stream_summary = true,
            "--suite" => {
                let v = value(&mut i, "--suite")?;
                args.suite = if v == "none" { None } else { Some(v) };
            }
            "--json" => args.json = Some(value(&mut i, "--json")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if args.edges == 0 || args.devices_per_edge == 0 {
        return Err("need at least one edge and one device".into());
    }
    if args.warmup_s >= args.duration_s {
        return Err("--warmup must be shorter than --duration".into());
    }
    if args.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if args.threads == Some(0) {
        return Err("--threads must be at least 1".into());
    }
    if args.trace_tail == Some(0) {
        return Err("--trace-tail must be at least 1".into());
    }
    Ok(args)
}

fn num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("'{s}' is not a number"))
}

fn build_spec(args: &Args, level: MaturityLevel, seed: u64) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::new(format!("cli/{level}"), level, seed);
    spec.edges = args.edges;
    spec.devices_per_edge = args.devices_per_edge;
    spec.duration = SimDuration::from_secs(args.duration_s);
    spec.warmup = SimDuration::from_secs(args.warmup_s);
    if let Some(name) = &args.suite {
        spec.disruptions = suites::all(&spec)
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| format!("unknown suite '{name}'"))?;
    }
    if args.roaming > 0 {
        let mobility = MobilitySpec {
            roamers: args.roaming,
            ..MobilitySpec::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let (roam, _) = roaming_schedule(&spec, &mobility, &mut rng);
        spec.disruptions.merge(roam);
    }
    spec.trace_tail = args.trace_tail;
    if args.stream_summary {
        spec.streams = StreamSpec::standard();
    }
    // Typed spec validation: report the error instead of letting
    // Scenario::build panic inside a harness cell.
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The campaign subsystem has its own flag grammar; dispatch before the
    // scenario flag parser sees the positional token.
    if argv.first().map(String::as_str) == Some("campaign") {
        let rest = argv.get(1..).unwrap_or(&[]);
        return match riot_campaign::run_cli(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{}", riot_campaign::usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut config = HarnessConfig::from_env();
    if let Some(n) = args.threads {
        config = config.threads(n);
    }

    // Declare the level × seed grid. Specs are validated up front so a
    // bad suite name fails before any cell runs.
    let mut grid: Grid<ScenarioResult> = Grid::new();
    for &level in &args.levels {
        println!(
            "running {level}: {} edges x {} devices, {}s ({}s warmup), seeds {}..{}{}",
            args.edges,
            args.devices_per_edge,
            args.duration_s,
            args.warmup_s,
            args.seed,
            args.seed + args.seeds as u64 - 1,
            args.suite
                .as_deref()
                .map(|s| format!(", suite '{s}'"))
                .unwrap_or_default(),
        );
        for s in 0..args.seeds as u64 {
            let seed = args.seed + s;
            let spec = match build_spec(&args, level, seed) {
                Ok(s) => s,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(2);
                }
            };
            grid.cell(
                Cell::new(format!("cli/{level}/s{seed}"), seed, move || {
                    Scenario::build(spec).run()
                })
                .param("level", level),
            );
        }
    }
    let report = grid.run(&config);
    report.report_failures();
    let failed = report.error_count();

    // Detail table for the first seed of every level (the only seed when
    // --seeds 1, preserving the classic output).
    let first: Vec<ScenarioResult> = report
        .cells
        .iter()
        .filter(|rec| rec.seed == args.seed)
        .filter_map(|rec| rec.outcome.as_ref().ok().cloned())
        .collect();
    println!();
    println!("{}", resilience_table(&first).render());

    // Multi-seed aggregation: per-level mean ± 95% CI across seeds.
    if args.seeds > 1 {
        let by_level = |metric: fn(&ScenarioResult) -> f64| {
            report.seed_stats(
                |rec| {
                    rec.outcome
                        .as_ref()
                        .map(|r| r.level)
                        .unwrap_or(MaturityLevel::Ml1)
                },
                metric,
            )
        };
        let overall = by_level(|r| r.report.overall_resilience);
        let avail = by_level(|r| r.requirement_resilience("availability").unwrap_or(1.0));
        let latency = by_level(|r| r.requirement_resilience("latency").unwrap_or(1.0));
        let mut agg = Table::new(&[
            "level",
            "seeds",
            "overall R (mean ±CI)",
            "avail R (mean ±CI)",
            "latency R (mean ±CI)",
        ]);
        let cell = |stats: Option<&Stats>| stats.map(Stats::display3).unwrap_or_else(|| "-".into());
        for &level in &args.levels {
            let n = overall.get(&level).map(|s| s.n).unwrap_or(0);
            agg.row(vec![
                level.to_string(),
                n.to_string(),
                cell(overall.get(&level)),
                cell(avail.get(&level)),
                cell(latency.get(&level)),
            ]);
        }
        println!("aggregate over {} seeds per level:\n", args.seeds);
        println!("{}", agg.render());
    }

    // With --trace-tail N every cell kept a bounded ring of its last N
    // kernel events; print them as JSON lines, grouped per cell.
    if args.trace_tail.is_some() {
        println!();
        for rec in &report.cells {
            if let Ok(result) = &rec.outcome {
                println!(
                    "trace tail for {} ({} events):",
                    rec.id,
                    result.trace_tail.len()
                );
                for line in result.trace_tail_lines() {
                    println!("{line}");
                }
            }
        }
    }

    // With --stream-summary every cell ran the windowed-telemetry pipeline;
    // print the bounded aggregates as a table, grouped per cell (mirrors
    // the --trace-tail presentation above).
    if args.stream_summary {
        println!();
        for rec in &report.cells {
            let Ok(result) = &rec.outcome else { continue };
            println!("stream summary for {}:", rec.id);
            let mut t = Table::new(&["stream", "count", "mean", "p50", "p95", "p99", "flows"]);
            for row in &result.streams {
                let stat =
                    |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
                let flows = if row.flows.is_empty() {
                    "-".to_owned()
                } else {
                    row.flows
                        .iter()
                        .map(|(name, n)| format!("{name}={n}"))
                        .collect::<Vec<String>>()
                        .join(" ")
                };
                t.row(vec![
                    row.name.clone(),
                    row.count.to_string(),
                    stat(row.stats.map(|s| s.mean)),
                    stat(row.quantiles.map(|q| q.p50)),
                    stat(row.quantiles.map(|q| q.p95)),
                    stat(row.quantiles.map(|q| q.p99)),
                    flows,
                ]);
            }
            println!("{}", t.render());
        }
    }

    if let Some(path) = &args.json {
        let results: Vec<&ScenarioResult> = report.values().collect();
        // Stream rows are excluded from the default rendering (artifact
        // byte-identity); --stream-summary is the explicit opt-in that
        // appends them to each result object.
        let json = if args.stream_summary {
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        let mut obj = r.to_json();
                        if let Json::Obj(pairs) = &mut obj {
                            pairs.push(("streams".to_owned(), r.streams.to_json()));
                        }
                        obj
                    })
                    .collect(),
            )
            .pretty()
        } else {
            results.to_json().pretty()
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("[wrote {path}]");
    }
    if failed > 0 {
        eprintln!("error: {failed} cell(s) failed");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse_args(&argv("")).unwrap();
        assert_eq!(a.levels, vec![MaturityLevel::Ml4]);
        assert_eq!(a.edges, 4);
        assert_eq!(a.seeds, 1);
        assert_eq!(a.threads, None);
        let a = parse_args(&argv("--level ml2 --edges 3 --devices 5 --seed 9")).unwrap();
        assert_eq!(a.levels, vec![MaturityLevel::Ml2]);
        assert_eq!(a.edges, 3);
        assert_eq!(a.devices_per_edge, 5);
        assert_eq!(a.seed, 9);
        let a = parse_args(&argv("--all-levels --suite service")).unwrap();
        assert_eq!(a.levels.len(), 4);
        assert_eq!(a.suite.as_deref(), Some("service"));
        let a = parse_args(&argv("--suite none")).unwrap();
        assert!(a.suite.is_none());
        let a = parse_args(&argv("--seeds 5 --threads 2")).unwrap();
        assert_eq!(a.seeds, 5);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.trace_tail, None);
        let a = parse_args(&argv("--trace-tail 16")).unwrap();
        assert_eq!(a.trace_tail, Some(16));
    }

    #[test]
    fn trace_tail_reaches_the_spec() {
        let a = parse_args(&argv("--trace-tail 8")).unwrap();
        let spec = build_spec(&a, MaturityLevel::Ml4, a.seed).unwrap();
        assert_eq!(spec.trace_tail, Some(8));
        let a = parse_args(&argv("")).unwrap();
        let spec = build_spec(&a, MaturityLevel::Ml4, a.seed).unwrap();
        assert_eq!(spec.trace_tail, None);
    }

    #[test]
    fn stream_summary_reaches_the_spec() {
        let a = parse_args(&argv("--stream-summary")).unwrap();
        assert!(a.stream_summary);
        let spec = build_spec(&a, MaturityLevel::Ml4, a.seed).unwrap();
        assert_eq!(spec.streams, StreamSpec::standard(), "the pipeline is on");
        let a = parse_args(&argv("")).unwrap();
        assert!(!a.stream_summary);
        let spec = build_spec(&a, MaturityLevel::Ml4, a.seed).unwrap();
        assert!(spec.streams.is_empty(), "streams are strictly opt-in");
    }

    #[test]
    fn build_spec_surfaces_typed_validation_errors() {
        let mut a = parse_args(&argv("--trace-tail 5")).unwrap();
        a.trace_tail = Some(usize::MAX); // bypass the flag parser's own check
        let err = build_spec(&a, MaturityLevel::Ml4, a.seed).unwrap_err();
        assert!(err.contains("trace_tail"), "{err}");
        // Likewise a zero shape that got past `--edges 0` / `--devices 0`.
        let mut a = parse_args(&argv("")).unwrap();
        a.edges = 0;
        let err = build_spec(&a, MaturityLevel::Ml4, a.seed).unwrap_err();
        assert!(err.contains("edges"), "{err}");
        let mut a = parse_args(&argv("")).unwrap();
        a.devices_per_edge = 0;
        let err = build_spec(&a, MaturityLevel::Ml4, a.seed).unwrap_err();
        assert!(err.contains("devices_per_edge"), "{err}");
        // No flag sets the sample interval; the same `validate` call is
        // what would report a zero one.
        let mut spec = build_spec(&parse_args(&argv("")).unwrap(), MaturityLevel::Ml4, 1).unwrap();
        spec.sample_every = SimDuration::ZERO;
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("sample_every"), "{err}");
        // Nor does a flag name a monitor; one whose formula names an atom
        // no sample values is reported by that call too, not run.
        spec.sample_every = SimDuration::from_secs(1);
        spec.monitors = vec![riot_core::MonitorSpec::new("typo", "G !covrage")];
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("unknown atom 'covrage'"), "{err}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("--level ml9")).is_err());
        assert!(parse_args(&argv("--edges zero")).is_err());
        assert!(parse_args(&argv("--edges")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(parse_args(&argv("--warmup 200 --duration 100")).is_err());
        assert!(parse_args(&argv("--edges 0")).is_err());
        assert!(parse_args(&argv("--seeds 0")).is_err());
        assert!(parse_args(&argv("--threads 0")).is_err());
        assert!(parse_args(&argv("--trace-tail 0")).is_err());
        assert!(parse_args(&argv("--trace-tail")).is_err());
    }

    #[test]
    fn spec_builds_with_suite_and_roaming() {
        let a = parse_args(&argv(
            "--suite connectivity --roaming 3 --edges 4 --devices 4",
        ))
        .unwrap();
        let spec = build_spec(&a, MaturityLevel::Ml4, a.seed).unwrap();
        assert!(!spec.disruptions.is_empty());
        let a = parse_args(&argv("--suite nosuch")).unwrap();
        assert!(build_spec(&a, MaturityLevel::Ml4, a.seed).is_err());
    }
}
