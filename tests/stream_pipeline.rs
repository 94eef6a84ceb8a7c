//! Streaming telemetry pipeline guarantees, end to end:
//!
//! 1. streams are strictly opt-in and passive — the same seed with
//!    `StreamSpec::standard()` enabled publishes a byte-identical artifact
//!    (the eight committed `results/*.json` files are pinned by
//!    `crates/bench/tests/golden_artifacts.rs`);
//! 2. stream aggregates are deterministic across harness worker counts —
//!    1-thread and 4-thread sweeps render byte-identical summary JSON;
//! 3. online sketch percentiles match exact post-hoc percentiles within
//!    the sketch's documented relative value-error bound `α`.

use riot_core::{Scenario, ScenarioResult, ScenarioSpec, StreamSpec};
use riot_harness::{Cell, Grid, HarnessConfig};
use riot_model::{ComponentId, Disruption, DisruptionSchedule, MaturityLevel};
use riot_sim::{Json, QuantileSketch, SimDuration, SimRng, SimTime, ToJson};

/// A faulty, disrupted spec: control traffic, ingest traffic, drops and
/// up/down transitions so every built-in stream kind has work to do.
fn stormy_spec(level: MaturityLevel, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("stream-pipeline", level, seed);
    spec.edges = 3;
    spec.devices_per_edge = 4;
    spec.duration = SimDuration::from_secs(40);
    spec.warmup = SimDuration::from_secs(10);
    let dev = spec.device_id(1, 1);
    spec.disruptions = DisruptionSchedule::new()
        .at(
            SimTime::from_secs(15),
            Disruption::CloudOutage {
                cloud: spec.cloud_id(),
                heal_after: Some(SimDuration::from_secs(8)),
            },
        )
        .at(
            SimTime::from_secs(20),
            Disruption::ComponentFault {
                node: dev,
                component: ComponentId(dev.0 as u32),
            },
        );
    spec
}

fn fingerprint(r: &ScenarioResult) -> String {
    r.to_json().render()
}

#[test]
fn streams_leave_published_artifacts_byte_identical() {
    // Mechanism check, per maturity level: a streams-on run must publish
    // the very bytes a streams-off run publishes — the stream pipeline is
    // a passive bus tap and its rows are additive, so the only allowed
    // difference is the `streams` section itself, which is empty (and
    // unrendered) when no stream is enabled.
    for level in MaturityLevel::ALL {
        let plain = Scenario::build(stormy_spec(level, 29)).run();
        assert!(plain.streams.is_empty(), "no opt-in, no stream rows");

        let mut spec = stormy_spec(level, 29);
        spec.streams = StreamSpec::standard();
        let streamed = Scenario::build(spec).run();
        assert_eq!(
            streamed.streams.len(),
            5,
            "standard() reports five summary rows"
        );

        // Compare the artifacts with the stream rows stripped from the
        // streamed run: everything the streams-off run publishes must be
        // bit-for-bit unchanged.
        let mut stripped = streamed.clone();
        stripped.streams.clear();
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&stripped),
            "{level:?}: enabling streams moved the published artifact"
        );
    }
}

/// Renders the stream summary rows of a four-seed sweep, executed on
/// `threads` harness workers, as one JSON string per cell in grid order.
fn sweep_summaries(threads: usize) -> Vec<String> {
    let mut grid: Grid<String> = Grid::new();
    for seed in [11u64, 12, 13, 14] {
        grid.cell(Cell::new(format!("streams/s{seed}"), seed, move || {
            let mut spec = stormy_spec(MaturityLevel::Ml3, seed);
            spec.streams = StreamSpec::standard();
            let result = Scenario::build(spec).run();
            Json::Arr(result.streams.iter().map(ToJson::to_json).collect()).render()
        }));
    }
    let report = grid.run(&HarnessConfig::with_threads(threads).quiet());
    assert_eq!(report.error_count(), 0, "no cell may fail");
    report.into_values()
}

#[test]
fn stream_aggregates_are_byte_identical_across_worker_counts() {
    // Each cell is an isolated deterministic simulation and the grid
    // merges results in declaration order, so the number of workers must
    // be invisible in the aggregates — byte for byte.
    let serial = sweep_summaries(1);
    let parallel = sweep_summaries(4);
    assert_eq!(serial.len(), 4);
    assert_eq!(serial, parallel, "worker count leaked into stream output");
    for json in &serial {
        assert!(
            json.contains("device.control.latency_ms") && json.contains("activity.transitions"),
            "summary rows missing from {json}"
        );
    }
}

#[test]
fn sketch_percentiles_match_post_hoc_percentiles_within_alpha() {
    // The documented contract (QuantileSketch docs): for samples inside
    // the sized range, every reported quantile is within relative value
    // error α of the exact nearest-rank quantile, where nearest rank is
    // ⌈q·n⌉ over the sorted samples. Exercise it over three shapes —
    // uniform, shifted-exponential (latency-like), and log-uniform across
    // five orders of magnitude — and three seeds each.
    type Draw = fn(&mut SimRng) -> f64;
    let distributions: [(&str, Draw); 3] = [
        ("uniform", |rng| rng.range_f64(0.1, 500.0)),
        // Inverse CDF of the exponential with mean 25, from a draw in (0, 1].
        ("exponential", |rng| {
            -25.0 * (1.0 - rng.range_f64(0.0, 1.0)).ln() + 0.01
        }),
        ("log-uniform", |rng| f64::exp2(rng.range_f64(-3.0, 13.0))),
    ];
    for (name, draw) in distributions {
        for seed in [1u64, 2, 3] {
            let mut rng = SimRng::seed_from(seed);
            let mut sketch = QuantileSketch::for_latency_ms();
            let mut samples = Vec::with_capacity(40_000);
            for _ in 0..40_000 {
                let v = draw(&mut rng);
                sketch.record(v);
                samples.push(v);
            }
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let alpha = sketch.alpha();
            assert!((alpha - 0.01).abs() < 1e-12, "default α is 1%");
            for q in [0.50, 0.95, 0.99] {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let exact = samples[rank - 1];
                let estimate = sketch.quantile(q);
                let rel = (estimate - exact).abs() / exact;
                assert!(
                    rel <= alpha * (1.0 + 1e-9),
                    "{name} seed {seed} p{}: estimate {estimate} vs exact {exact} \
                     (relative error {rel:.5} > α {alpha})",
                    (q * 100.0) as u32
                );
            }
            assert_eq!(sketch.count(), 40_000);
            assert_eq!(sketch.min(), samples[0]);
            assert_eq!(sketch.max(), samples[samples.len() - 1]);
        }
    }
}
