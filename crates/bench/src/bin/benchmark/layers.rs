//! From the raw material of a traced run — reps, observer counts, unit costs,
//! reference timings — to the per-layer metrics, the cross-checks and the
//! trace file.

use crate::report::{floats, Metric};
use crate::stats::{median, percentile, supported_tail};
use crate::trace::{Counts, Kind, Span, SpanLog, Tier};
use crate::workloads::{shape, Rep, Size, Workload};
use riot_sim::Json;

/// A rep with the reference factor (reference seconds per host second)
/// measured around it.
#[derive(Debug)]
pub struct Measured {
    pub rep: Rep,
    pub factor: f64,
}

impl Measured {
    /// Run-phase time in reference seconds.
    fn run_ref_s(&self) -> f64 {
        self.rep.run_ns() as f64 / 1e9 * self.factor
    }

    /// Host seconds inside `Scenario::run`, summed over the rep, in
    /// reference seconds.
    fn core_run_ref_s(&self) -> f64 {
        self.rep.sum(|o| o.times.verdicts - o.times.run) as f64 / 1e9 * self.factor
    }
}

/// Everything a traced run measured.
#[derive(Debug)]
pub struct TracedRun {
    pub workload: Workload,
    pub seed: u64,
    pub size: Size,
    /// The two untraced reps that bracket the traced rep and the reruns.
    pub baselines: [Measured; 2],
    /// The one rep with the counting observer on.
    pub traced: Measured,
    /// Untraced reruns with one switch off, under the share each measures.
    pub ablated: Vec<(&'static str, Measured)>,
    pub counts: Counts,
    /// Unit costs from the drivers, already named and in their units.
    pub costs: Vec<Metric>,
    /// Every reference timing of the run, in order.
    pub refs: Vec<f64>,
}

/// Spans of one rep: the six calls each scenario makes into the layers, under
/// the `harness.grid` span when the harness ran them.
fn spans_of(rep: &Rep) -> SpanLog {
    let mut log = SpanLog::default();
    let grid = rep.grid_ns.map(|(start_ns, end_ns)| {
        log.push(Span {
            name: "harness.grid",
            start_ns,
            end_ns,
            parent: None,
            scenario: 0,
        })
    });
    for (i, o) in rep.outcomes.iter().enumerate() {
        let t = &o.times;
        for (name, start_ns, end_ns) in [
            ("campaign.generate", t.generate, t.compile),
            ("campaign.compile", t.compile, t.build),
            ("core.build", t.build, t.run),
            ("core.run", t.run, t.verdicts),
            ("core.verdicts", t.verdicts, t.render),
            ("core.render", t.render, t.end),
        ] {
            log.push(Span {
                name,
                start_ns,
                end_ns,
                parent: grid,
                scenario: i as u64,
            });
        }
    }
    log
}

fn count(name: &'static str, value: u64) -> Metric {
    Metric {
        name,
        unit: "count",
        value: value as f64,
    }
}

fn ratio(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit: "ratio",
        value,
    }
}

fn timing(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

impl TracedRun {
    fn cost(&self, name: &str) -> f64 {
        self.costs
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value)
    }

    /// Untraced run-phase time in host nanoseconds.
    fn base_run_ns(&self) -> f64 {
        median(&self.baselines.each_ref().map(|b| b.rep.run_ns() as f64))
    }

    /// 1 − rerun ÷ baseline in reference seconds; 0 when the switch was not
    /// rerun on this workload.
    fn ablation_share(&self, name: &str) -> f64 {
        let base = median(&self.baselines.each_ref().map(Measured::run_ref_s));
        self.ablated
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, a)| 1.0 - a.run_ref_s() / base)
    }

    /// The seven shares of the untraced run time: an exactly repeatable
    /// count times a measured unit cost, or an ablation delta.
    fn shares(&self) -> [(&'static str, f64); 7] {
        let rep = &self.traced.rep;
        let run_ns = self.base_run_ns();
        let fuzz = self.workload == Workload::FuzzSweep;
        let queue_ns = self.cost(match self.workload {
            Workload::Timers1e5 => "sim.queue_ns_1e5",
            Workload::Mesh1e3 | Workload::CloudChurn1e3 => "sim.queue_ns_1e3",
            Workload::FuzzSweep => "sim.queue_ns_16",
        });
        // Only `fuzz_sweep` pays for observers in its untraced run.
        let observer_tax_ns = if fuzz {
            (self.cost("sim.observed_ns") - self.cost("sim.pingpong_ns")).max(0.0)
        } else {
            0.0
        };
        let bus_events: u64 = Kind::ALL.iter().map(|&k| self.counts.kind(k)).sum();
        let sim = rep.sum(|o| o.events) as f64 * queue_ns + bus_events as f64 * observer_tax_ns;
        let net = self.counts.kind(Kind::Sent) as f64 * self.cost("net.route_warm_ns")
            + self.counts.cold_routes as f64 * self.cost("net.route_cold_us") * 1e3;
        let formal = if fuzz {
            rep.sum(|o| o.samples) as f64 * self.cost("formal.step_ns")
        } else {
            0.0
        };
        [
            ("sim.est_share", sim / run_ns),
            ("net.est_share", net / run_ns),
            ("formal.est_share", formal / run_ns),
            (
                "data.ablation_share",
                self.ablation_share("data.ablation_share"),
            ),
            (
                "adapt.ablation_share",
                self.ablation_share("adapt.ablation_share"),
            ),
            (
                "coord.ablation_share",
                self.ablation_share("coord.ablation_share"),
            ),
            (
                "core.sample_share",
                self.ablation_share("core.sample_share"),
            ),
        ]
    }

    /// Cell bodies of the last untraced baseline, in ms: the counting
    /// observer is not in them.
    fn case_ms(&self) -> Vec<f64> {
        let [_, last] = &self.baselines;
        last.rep
            .outcomes
            .iter()
            .map(|o| o.times.body_ns() as f64 / 1e6)
            .collect()
    }

    /// `(cell_overhead_us, case_ms_p50, case_ms_p99)`; zeros off the harness.
    fn harness(&self) -> (f64, f64, f64) {
        let [_, last] = &self.baselines;
        let case_ms = self.case_ms();
        match last.rep.grid_ns {
            Some((start, end)) if !case_ms.is_empty() => {
                let bodies_ns = last.rep.sum(|o| o.times.body_ns());
                let overhead_ns = (end - start).saturating_sub(bodies_ns);
                (
                    overhead_ns as f64 / 1e3 / case_ms.len() as f64,
                    percentile(&case_ms, 50.0),
                    percentile(&case_ms, 99.0),
                )
            }
            _ => (0.0, 0.0, 0.0),
        }
    }

    /// Every per-layer metric of `BENCHMARK.json`, once.
    pub fn metrics(&self) -> Vec<Metric> {
        let rep = &self.traced.rep;
        let c = &self.counts;
        let spans = spans_of(rep);
        let (sent, dropped) = (c.kind(Kind::Sent), c.kind(Kind::Dropped));
        let events = rep.sum(|o| o.events);
        let shares = self.shares();
        let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
        let (cell_overhead_us, case_p50, case_p99) = self.harness();
        let base_core_run_ref_s = median(&self.baselines.each_ref().map(Measured::core_run_ref_s));
        let (slowest, fastest) = self
            .refs
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));

        let mut metrics = vec![
            count("sim.events", events),
            count("sim.timer_fired", c.kind(Kind::TimerFired)),
            count("sim.sent", sent),
            count("sim.delivered", c.kind(Kind::Delivered)),
            count("sim.dropped", dropped),
            count("sim.lifecycle", c.kind(Kind::Lifecycle)),
            count("sim.notes", c.kind(Kind::Note)),
            count("sim.measures", c.kind(Kind::Measure)),
            count("sim.peak_inflight_msgs", c.peak_inflight),
            timing(
                "sim.ns_per_event",
                "ns",
                self.base_run_ns() / events.max(1) as f64,
            ),
            count("net.msgs_device_edge", c.by_link[0]),
            count("net.msgs_edge_edge", c.by_link[1]),
            count("net.msgs_edge_cloud", c.by_link[2]),
            count("net.msgs_device_cloud", c.by_link[3]),
            count("net.topology_changes", rep.sum(|o| o.topology_changes)),
            ratio("net.drop_ratio", dropped as f64 / sent.max(1) as f64),
            count("data.ingest_denied", rep.sum(|o| o.ingest_denied)),
            count("adapt.restart_commands", rep.sum(|o| o.restart_commands)),
            count("formal.failed_monitors", rep.sum(|o| o.failed_monitors)),
            count("model.disruption_events", rep.sum(|o| o.disruption_events)),
            timing("harness.cell_overhead_us", "us", cell_overhead_us),
            timing("harness.case_ms_p50", "ms", case_p50),
            timing("harness.case_ms_p99", "ms", case_p99),
            timing("core.build_s", "s", spans.total_s("core.build")),
            timing("core.run_s", "s", spans.total_s("core.run")),
            timing("core.verdict_s", "s", spans.total_s("core.verdicts")),
            timing("core.render_s", "s", spans.total_s("core.render")),
            count("core.device_events", c.tier(Tier::Device)),
            count("core.edge_events", c.tier(Tier::Edge)),
            count("core.cloud_events", c.tier(Tier::Cloud)),
            count("core.failovers", rep.sum(|o| o.failovers)),
            count("core.restarts", rep.sum(|o| o.restarts)),
            count("core.samples", rep.sum(|o| o.samples)),
            ratio("unattributed.share", 1.0 - attributed),
            ratio(
                "trace.overhead_ratio",
                self.traced.core_run_ref_s() / base_core_run_ref_s,
            ),
            count("trace.spans", spans.len() as u64),
            timing("ref.ops_per_s", "1/s", median(&self.refs)),
            ratio("ref.drift_ratio", fastest / slowest),
        ];
        metrics.extend(shares.iter().map(|&(name, value)| ratio(name, value)));
        metrics.extend(self.costs.iter().cloned());
        metrics
    }

    /// What the observer counted against what the results report. (That the
    /// observer left the modelled outcome untouched is the digest check.)
    pub fn cross_checks(&self) -> Vec<String> {
        let rep = &self.traced.rep;
        let c = &self.counts;
        let (sent, delivered, dropped) = (
            c.kind(Kind::Sent),
            c.kind(Kind::Delivered),
            c.kind(Kind::Dropped),
        );
        let mut problems = Vec::new();
        if sent != rep.sum(|o| o.messages_sent) {
            problems.push(format!(
                "observer saw {sent} sends, results report {}",
                rep.sum(|o| o.messages_sent)
            ));
        }
        if dropped != rep.sum(|o| o.messages_dropped) {
            problems.push(format!(
                "observer saw {dropped} drops, results report {}",
                rep.sum(|o| o.messages_dropped)
            ));
        }
        if delivered + dropped > sent {
            problems.push(format!(
                "{delivered} delivered + {dropped} dropped exceeds {sent} sent"
            ));
        }
        problems
    }

    /// `trace_<workload>.json`: the span roll-up and what the per-layer
    /// metrics were computed from.
    pub fn trace_file(&self) -> Json {
        let kind_rows = Kind::ALL
            .iter()
            .zip(&self.counts.by_kind_tier)
            .map(|(kind, tiers)| {
                let row = ["cloud", "edge", "device", "external"]
                    .iter()
                    .zip(tiers)
                    .map(|(tier, &n)| ((*tier).to_owned(), Json::UInt(n)))
                    .collect();
                (kind.name().to_owned(), Json::Obj(row))
            })
            .collect();
        let ablation_rows = self
            .ablated
            .iter()
            .map(|(name, a)| ((*name).to_owned(), Json::Float(a.run_ref_s())))
            .collect();
        let cases = self.case_ms().len();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("seed".into(), Json::UInt(self.seed)),
            (
                "devices".into(),
                Json::UInt(shape(self.workload, self.size).devices() as u64),
            ),
            (
                "scenarios".into(),
                Json::UInt(self.traced.rep.outcomes.len() as u64),
            ),
            ("events_by_kind_and_tier".into(), Json::Obj(kind_rows)),
            (
                "distinct_sender_receiver_pairs".into(),
                Json::UInt(self.counts.pairs),
            ),
            ("cold_routes".into(), Json::UInt(self.counts.cold_routes)),
            (
                "baseline_run_ref_s".into(),
                floats(&self.baselines.each_ref().map(Measured::run_ref_s)),
            ),
            ("ablated_run_ref_s".into(), Json::Obj(ablation_rows)),
            ("reference_ops_per_s".into(), floats(&self.refs)),
            (
                "case_ms".into(),
                Json::Obj(vec![
                    ("n".into(), Json::UInt(cases as u64)),
                    (
                        "supported_tail_percentile".into(),
                        supported_tail(cases).map_or(Json::Null, Json::Float),
                    ),
                ]),
            ),
            ("trace".into(), spans_of(&self.traced.rep).to_json(700)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{PhaseTimes, ScenarioOutcome};

    fn outcome(start: u64, events: u64, sent: u64) -> ScenarioOutcome {
        ScenarioOutcome {
            times: PhaseTimes {
                generate: start,
                compile: start + 10,
                build: start + 20,
                run: start + 100,
                verdicts: start + 1_100,
                render: start + 1_110,
                end: start + 1_200,
            },
            events,
            messages_sent: sent,
            messages_dropped: 1,
            samples: 48,
            ..ScenarioOutcome::default()
        }
    }

    fn measured(wall_ns: u64, outcomes: Vec<ScenarioOutcome>) -> Measured {
        Measured {
            factor: 1.0,
            rep: Rep {
                wall_ns,
                setup_ns: outcomes.iter().map(|o| o.times.setup_ns()).sum(),
                outcomes,
                ..Rep::default()
            },
        }
    }

    fn run(ablated_wall_ns: u64) -> TracedRun {
        let mut counts = Counts::default();
        counts.by_kind_tier[Kind::Sent as usize][Tier::Device as usize] = 5;
        counts.by_kind_tier[Kind::Delivered as usize][Tier::Edge as usize] = 4;
        counts.by_kind_tier[Kind::Dropped as usize][Tier::Edge as usize] = 1;
        counts.cold_routes = 2;
        TracedRun {
            workload: Workload::Mesh1e3,
            seed: 1,
            size: Size::SMOKE,
            baselines: [
                measured(10_100, vec![outcome(0, 100, 5)]),
                measured(10_100, vec![outcome(0, 100, 5)]),
            ],
            traced: measured(12_100, vec![outcome(0, 100, 5)]),
            ablated: vec![(
                "data.ablation_share",
                measured(ablated_wall_ns + 100, vec![outcome(0, 60, 5)]),
            )],
            counts,
            costs: vec![
                Metric {
                    name: "sim.queue_ns_1e3",
                    unit: "ns",
                    value: 20.0,
                },
                Metric {
                    name: "net.route_warm_ns",
                    unit: "ns",
                    value: 10.0,
                },
                Metric {
                    name: "net.route_cold_us",
                    unit: "us",
                    value: 0.5,
                },
            ],
            refs: vec![8e6, 10e6, 9e6],
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        let hits: Vec<_> = metrics.iter().filter(|m| m.name == name).collect();
        assert_eq!(hits.len(), 1, "{name} once");
        hits[0].value
    }

    #[test]
    fn shares_are_counts_times_costs_over_the_untraced_run_time() {
        let m = run(6_000).metrics();
        // Baseline run phase: 10 100 ns wall − 100 ns set-up.
        assert_eq!(value(&m, "sim.ns_per_event"), 100.0);
        assert_eq!(value(&m, "sim.est_share"), 100.0 * 20.0 / 10_000.0);
        assert_eq!(
            value(&m, "net.est_share"),
            (5.0 * 10.0 + 2.0 * 500.0) / 10_000.0
        );
        assert_eq!(value(&m, "data.ablation_share"), 1.0 - 6_000.0 / 10_000.0);
        assert_eq!(value(&m, "adapt.ablation_share"), 0.0, "not rerun: 0");
        assert_eq!(
            value(&m, "formal.est_share"),
            0.0,
            "no monitors off fuzz_sweep"
        );
        let attributed = 0.2 + 0.105 + 0.4;
        assert!((value(&m, "unattributed.share") - (1.0 - attributed)).abs() < 1e-12);
        assert_eq!(value(&m, "trace.overhead_ratio"), 1.0);
        assert_eq!(value(&m, "ref.ops_per_s"), 9e6);
        assert_eq!(value(&m, "ref.drift_ratio"), 1.25);
        assert_eq!(value(&m, "net.drop_ratio"), 0.2);
        assert_eq!(value(&m, "trace.spans"), 6.0);
        assert_eq!(
            value(&m, "harness.case_ms_p99"),
            0.0,
            "no grid off fuzz_sweep"
        );
    }

    #[test]
    fn cross_checks_compare_observer_and_results() {
        let mut r = run(6_000);
        assert!(r.cross_checks().is_empty());
        r.counts.by_kind_tier[Kind::Sent as usize][Tier::Device as usize] = 4;
        let problems = r.cross_checks();
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("observer saw 4 sends, results report 5"));
        assert!(problems[1].contains("exceeds 4 sent"));
    }
}
