//! The two kinds of run: the untraced run that measures the end-to-end
//! metrics, and the traced run that gathers what the layer metrics are
//! computed from.

use crate::clock::Stopwatch;
use crate::drivers;
use crate::layers::{Measured, TracedRun};
use crate::reference::{reference_ops_per_s, REF_OPS, REF_OPS_PER_REF_SECOND};
use crate::report::{floats, pinned_digest, Checker, Metric, Report};
use crate::stats::{summarize, Summary};
use crate::trace::CountSink;
use crate::workloads::{run_rep, Ablation, Size, Workload};
use riot_sim::Json;
use std::time::Duration;

/// `VmHWM` of this process, in MB (10⁶ bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb * 1024.0 / 1e6
}

fn summary_json(s: Summary) -> Json {
    Json::Obj(vec![
        ("median".into(), Json::Float(s.median)),
        ("q1".into(), Json::Float(s.q1)),
        ("q3".into(), Json::Float(s.q3)),
        ("n".into(), Json::UInt(s.n as u64)),
    ])
}

/// Reference seconds per host second around a rep: how much reference work
/// a host second did just before and just after it, in units of
/// [`REF_OPS_PER_REF_SECOND`]. Host time × this factor is time in reference
/// seconds, which is what cancels the sandbox's wandering speed.
fn ref_factor(ref_before: f64, ref_after: f64) -> f64 {
    (ref_before + ref_after) / 2.0 / REF_OPS_PER_REF_SECOND
}

/// Only full-size runs answer to `expected.json`.
fn checker(workload: Workload, seed: u64, size: Size) -> Checker {
    Checker::new(
        (size == Size::FULL)
            .then(|| pinned_digest(workload, seed))
            .flatten(),
    )
}

/// Timed reps are never fewer than this, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The untraced run: one untimed warm-up rep, then timed reps — each with
/// the reference kernel run before and after it — until `seconds` are used.
pub fn untraced(workload: Workload, seed: u64, size: Size, seconds: f64) -> Report {
    let mut checker = checker(workload, seed, size);
    let warm = run_rep(workload, seed, size, Ablation::None, None);
    checker.rep("warm-up", &warm, true);
    // Read after the first rep, on a heap nothing else has used: later reps
    // raise the high-water mark by however the allocator happens to reuse
    // freed blocks, which differs from run to run (22.6–27.1 MB on
    // `mesh_1e3` for one seed) and says nothing about the simulator.
    let peak_rss_first_rep = peak_rss_mb();

    let mut setup_s = Vec::new();
    let mut per_s = Vec::new();
    let mut per_ref_s = Vec::new();
    let ref_ops = REF_OPS / size.divisor as u64;
    let started = Stopwatch::start();
    let mut refs = vec![reference_ops_per_s(ref_ops)];
    loop {
        let cycle = Stopwatch::start();
        let rep = run_rep(workload, seed, size, Ablation::None, None);
        refs.push(reference_ops_per_s(ref_ops));
        checker.rep(&format!("rep {}", setup_s.len() + 1), &rep, true);
        let run_s = rep.run_ns() as f64 / 1e9;
        let run_ref_s = run_s * ref_factor(refs[refs.len() - 2], refs[refs.len() - 1]);
        setup_s.push(rep.setup_ns as f64 / 1e9);
        per_s.push(rep.device_seconds / run_s);
        per_ref_s.push(rep.device_seconds / run_ref_s);
        // Stop rather than start a rep that would end after the budget.
        let next_ends = started.elapsed() + cycle.elapsed();
        if setup_s.len() >= MIN_REPS && next_ends.as_secs_f64() > seconds {
            break;
        }
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut summaries = Vec::new();
    let mut samples = Vec::new();
    for (name, unit, values) in [
        ("setup_s", "s", &setup_s),
        ("device_s_per_s", "dev_s/s", &per_s),
        ("device_s_per_ref_s", "dev_s/ref_s", &per_ref_s),
    ] {
        let s = summarize(values);
        metrics.push(Metric {
            name,
            unit,
            value: s.median,
        });
        summaries.push((name.to_owned(), summary_json(s)));
        samples.push((name.to_owned(), floats(values)));
    }
    metrics.push(Metric {
        name: "peak_rss_mb",
        unit: "MB",
        value: peak_rss_first_rep,
    });
    samples.push(("ref_ops_per_s".to_owned(), floats(&refs)));

    Report {
        workload,
        seed,
        traced: false,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        digest: checker.first.unwrap_or(0),
        problems: checker.problems,
        detail: vec![
            ("summaries".into(), Json::Obj(summaries)),
            ("samples".into(), Json::Obj(samples)),
            ("peak_rss_mb_at_exit".into(), Json::Float(peak_rss_mb())),
        ],
    }
}

/// The traced run. Every rep but one is untraced: a warm-up, two baselines
/// that bracket the traced rep and the ablation reruns, then the drivers.
/// Returns the report and the trace file.
pub fn traced(workload: Workload, seed: u64, size: Size, seconds: f64) -> (Report, Json) {
    let mut checker = checker(workload, seed, size);
    let started = Stopwatch::start();
    let ref_ops = REF_OPS / size.divisor as u64;
    let mut refs = vec![reference_ops_per_s(ref_ops)];
    let mut rep = |what: &str, ablation: Ablation, sink: Option<&CountSink>| {
        let rep = run_rep(workload, seed, size, ablation, sink);
        refs.push(reference_ops_per_s(ref_ops));
        checker.rep(what, &rep, ablation == Ablation::None);
        Measured {
            factor: ref_factor(refs[refs.len() - 2], refs[refs.len() - 1]),
            rep,
        }
    };

    rep("warm-up", Ablation::None, None);
    let baseline_before = rep("baseline 1", Ablation::None, None);
    let sink = CountSink::default();
    let traced = rep("traced rep", Ablation::None, Some(&sink));
    let ablated = [
        ("data.ablation_share", Ablation::NoReplication),
        ("adapt.ablation_share", Ablation::NoMape),
        ("coord.ablation_share", Ablation::NoCoordination),
        ("core.sample_share", Ablation::NoSampling),
    ]
    .into_iter()
    .filter(|(_, ablation)| ablation.measured_on(workload))
    .map(|(name, ablation)| (name, rep(name, ablation, None)))
    .collect();
    let baseline_after = rep("baseline 2", Ablation::None, None);
    let reps_s = started.elapsed().as_secs_f64();
    let costs = drivers::run_all(workload, size, Duration::from_secs_f64(seconds / 3.0));
    refs.push(reference_ops_per_s(ref_ops));
    eprintln!(
        "[traced run: reps {reps_s:.1} s, drivers {:.1} s]",
        started.elapsed().as_secs_f64() - reps_s
    );

    let run = TracedRun {
        workload,
        seed,
        size,
        baselines: [baseline_before, baseline_after],
        traced,
        ablated,
        counts: sink.lock().map(|c| c.clone()).unwrap_or_default(),
        costs,
        refs,
    };
    checker.problems.extend(run.cross_checks());
    let report = Report {
        workload,
        seed,
        traced: true,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: run.metrics(),
        digest: checker.first.unwrap_or(0),
        problems: checker.problems,
        detail: Vec::new(),
    };
    (report, run.trace_file())
}
