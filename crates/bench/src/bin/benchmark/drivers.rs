//! Unit-cost drivers: tight loops over each layer's public functions at the
//! workload's shape. A driver's number times the matching work count from the
//! counting observer, divided by the run time, is that layer's estimated
//! share of the run — counts repeat exactly, so only the unit cost carries
//! host noise, and it is a median of five batches.
//!
//! `adapt` has no driver on purpose: its `String`-keyed knowledge-base API is
//! slated to change, and this directory cannot be edited by the change that
//! does it. Its share comes from the `mape = None` ablation instead.

use crate::clock::Stopwatch;
use crate::report::Metric;
use crate::stats::median;
use crate::workloads::{campaign, shape, Shape, Size, Workload};
use riot_campaign::{
    case_program, generate, mutate_in_place, weakened_space, Campaign, CampaignProgram,
    CampaignSpace, ScenarioParams,
};
use riot_core::standard_domains;
use riot_data::{DataKey, DataMeta, KeySpace, PolicyEngine, ReplicatedStore};
use riot_formal::{OnlineMonitor, Valuation};
use riot_model::{DomainId, MaturityLevel};
use riot_net::{presets, Hierarchy, HierarchySpec, Network};
use riot_sim::{
    ActivityTracker, Ctx, MeasureProbe, Medium, MetricKey, Metrics, Process, ProcessId,
    QuantileSketch, RingTrace, Sim, SimBuilder, SimDuration, SimRng, SimTime, StreamPipeline,
};
use std::hint::black_box;
use std::time::Duration;

/// A cost measured in nanoseconds, reported in nanoseconds.
fn ns(name: &'static str, cost_ns: f64) -> Metric {
    Metric {
        name,
        unit: "ns",
        value: cost_ns,
    }
}

/// A cost measured in nanoseconds, reported in microseconds.
fn us(name: &'static str, cost_ns: f64) -> Metric {
    Metric {
        name,
        unit: "us",
        value: cost_ns / 1e3,
    }
}

/// Batches per driver; the reported cost is their median.
const BATCHES: usize = 5;

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.elapsed())
}

/// Nanoseconds per unit of work. `batch(n)` does about `n` units and returns
/// how many it did and how long the timed part took; the batch size is grown
/// until one batch lasts `target`.
fn unit_cost_ns(target: Duration, mut batch: impl FnMut(u64) -> (u64, Duration)) -> f64 {
    let mut iters = 1u64;
    let per_unit_s = loop {
        let (units, took) = batch(iters);
        if took >= target / 8 || iters >= 1 << 32 {
            break took.as_secs_f64() / units.max(1) as f64;
        }
        iters *= 4;
    };
    let iters = ((target.as_secs_f64() / per_unit_s.max(1e-12)) as u64).max(1);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (units, took) = batch(iters);
            took.as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// [`unit_cost_ns`] for the common case: one unit is one call of `op`, which
/// gets the running call number.
fn per_call_ns(target: Duration, mut op: impl FnMut(u64)) -> f64 {
    let mut calls = 0u64;
    unit_cost_ns(target, |iters| {
        timed(|| {
            for _ in 0..iters {
                op(calls);
                calls += 1;
            }
            iters
        })
    })
}

/// A device-like process: one 500 ms and one 1 s periodic timer (the control
/// and sense periods of `ArchitectureConfig`), started at a random phase.
struct Ticker;

impl Process<()> for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for period_us in [500_000u64, 1_000_000] {
            let phase = ctx.rng().range_u64(1, period_us);
            ctx.schedule(SimDuration::from_micros(phase), period_us);
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: ProcessId, _msg: ()) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, period_us: u64) {
        ctx.schedule(SimDuration::from_micros(period_us), period_us);
    }
}

/// ns per event of a timer-only kernel holding `pending` queue entries.
fn queue_ns(target: Duration, pending: usize) -> f64 {
    let tickers = (pending / 2).max(1);
    let mut sim: Sim<()> = SimBuilder::new(7).expect_processes(tickers).build();
    for _ in 0..tickers {
        sim.add_process(Ticker);
    }
    // Three events per ticker per virtual second; step in slices of about
    // two thousand events so the loop below is not what gets measured.
    let slice = SimDuration::from_micros((2_000_000_000 / (3 * tickers as u64)).max(1_000));
    sim.run_for(SimDuration::from_secs(2));
    unit_cost_ns(target, |iters| {
        timed(|| {
            let mut done = 0;
            while done < iters {
                done += sim.run_for(slice);
            }
            done
        })
    })
}

/// Ping-pong over the ideal medium: kernel dispatch with a two-entry queue.
/// `measure` publishes one latency sample per round trip, like the device
/// control loop.
struct Pinger {
    peer: Option<ProcessId>,
    rounds_left: u64,
    measure: Option<MetricKey>,
}

impl Process<u64> for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: ProcessId, n: u64) {
        if let (Some(key), 1) = (self.measure, n & 1) {
            ctx.measure(key, (n % 97) as f64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.send(from, n + 1);
        }
    }
}

/// ns per event of the ping-pong, bare or under the observers `fuzz_sweep`
/// switches on (a stream pipeline and a 256-entry ring).
fn pingpong_ns(target: Duration, observed: bool) -> f64 {
    unit_cost_ns(target, |iters| {
        let mut sim: Sim<u64> = SimBuilder::new(7).build();
        let measure = observed.then(|| {
            let key = sim.metrics_mut().intern("bench.latency_ms");
            let mut pipeline = StreamPipeline::with_capacity(2);
            pipeline.push(MeasureProbe::new(
                key,
                QuantileSketch::for_latency_ms(),
                SimDuration::from_secs(1),
            ));
            pipeline.push(ActivityTracker::new(2));
            sim.add_observer(pipeline);
            sim.add_observer(RingTrace::new(256));
            key
        });
        let rounds = iters / 2 + 1;
        let ponger = sim.add_process(Pinger {
            peer: None,
            rounds_left: rounds,
            measure,
        });
        sim.add_process(Pinger {
            peer: Some(ponger),
            rounds_left: rounds,
            measure,
        });
        timed(|| sim.run_to_completion())
    })
}

/// ns per counter increment or histogram observation through pre-interned
/// keys. `Metrics` histograms keep every sample, so the recorder is renewed
/// every 2¹⁶ updates (untimed) to keep the driver's memory flat.
fn metrics_ns(target: Duration, observe: bool) -> f64 {
    const CHUNK: u64 = 1 << 16;
    unit_cost_ns(target, |iters| {
        let chunks = iters / CHUNK + 1;
        let mut took = Duration::ZERO;
        for _ in 0..chunks {
            let mut m = Metrics::new();
            let keys = [
                m.intern("sim.msg.sent"),
                m.intern("sim.msg.delivered"),
                m.intern("device.control.timeout"),
                m.intern("edge.ingest.denied"),
            ];
            let hist = m.intern("device.control.latency_ms");
            took += timed(|| {
                for i in 0..CHUNK {
                    if observe {
                        m.observe_key(hist, (i % 97) as f64);
                    } else {
                        m.incr_key(keys[(i % 4) as usize]);
                    }
                }
                black_box(m.counter_key(keys[0]));
            })
            .1;
        }
        (chunks * CHUNK, took)
    })
}

fn rng_draw_ns(target: Duration) -> f64 {
    let mut rng = SimRng::seed_from(7);
    per_call_ns(target, |_| {
        black_box(rng.next_u64());
    })
}

fn net_costs(target: Duration, shape: &Shape, out: &mut Vec<Metric>) {
    let hspec = HierarchySpec {
        edges: shape.edges,
        devices_per_edge: shape.devices_per_edge,
        device_edge: presets::device_edge(),
        edge_cloud: presets::edge_cloud(),
        edge_mesh: Some(presets::edge_edge()),
    };
    let build_ns = per_call_ns(target, |_| {
        black_box(Hierarchy::build(&hspec));
    });
    out.push(us("net.build_us", build_ns));

    // Every device's control path at this maturity level: through its edge
    // to the cloud at ML2, up to its edge otherwise.
    let (mut net, hierarchy) = Hierarchy::build(&hspec);
    let cloud = hierarchy.cloud;
    let via_cloud = shape.level == MaturityLevel::Ml2;
    let pairs: Vec<(ProcessId, ProcessId)> = hierarchy
        .devices
        .iter()
        .zip(&hierarchy.edges)
        .flat_map(|(devs, &edge)| {
            devs.iter()
                .map(move |&d| (d, if via_cloud { cloud } else { edge }))
        })
        .collect();
    let mut rng = SimRng::seed_from(7);
    let mut route = |net: &mut Network, (from, to): (ProcessId, ProcessId)| {
        black_box(Medium::<()>::route(
            net,
            SimTime::ZERO,
            from,
            to,
            &(),
            &mut rng,
        ));
    };
    for &pair in &pairs {
        route(&mut net, pair);
    }
    let warm_ns = per_call_ns(target, |i| route(&mut net, pairs[i as usize % pairs.len()]));
    out.push(ns("net.route_warm_ns", warm_ns));

    // A topology change empties the route cache; the first message of every
    // pair afterwards resolves its route again. Only those first routes are
    // timed, a chunk of distinct pairs per invalidation.
    let edge0 = hierarchy.edges[0];
    let chunk = pairs.len().min(64);
    let mut next = 0usize;
    let cold_ns = unit_cost_ns(target, |iters| {
        let mut done = 0u64;
        let mut took = Duration::ZERO;
        while done < iters {
            net.cut_link(edge0, cloud);
            net.restore_link(edge0, cloud);
            let ((), t) = timed(|| {
                for k in 0..chunk {
                    route(&mut net, pairs[(next + k) % pairs.len()]);
                }
            });
            next += chunk;
            took += t;
            done += chunk as u64;
        }
        (done, took)
    });
    out.push(us("net.route_cold_us", cold_ns));
}

/// Store operations with as many keys as an edge has devices.
fn data_costs(target: Duration, shape: &Shape, out: &mut Vec<Metric>) {
    let registry = standard_domains();
    let space = KeySpace::new();
    let keys: Vec<DataKey> = (0..shape.devices_per_edge.max(1))
        .map(|i| space.intern(&format!("dev{i}/reading")))
        .collect();
    let city = DomainId(0);
    let store = |replica| {
        ReplicatedStore::with_keys(replica, city, PolicyEngine::governed(), space.clone())
    };
    let mut src = store(1);
    let mut dst = store(2);
    let mut clock_us = 1u64;
    let mut tick = || {
        clock_us += 1_000;
        SimTime::from_micros(clock_us)
    };
    let fill = |src: &mut ReplicatedStore, now: SimTime| {
        for (i, &key) in keys.iter().enumerate() {
            let meta = DataMeta::operational(city, now);
            src.ingest_key(key, i as f64, meta, &registry, now);
        }
    };

    let ingest_ns = unit_cost_ns(target, |iters| {
        let rounds = iters / keys.len() as u64 + 1;
        timed(|| {
            for _ in 0..rounds {
                fill(&mut src, tick());
            }
            rounds * keys.len() as u64
        })
    });
    out.push(ns("data.ingest_ns", ingest_ns));

    let sync_out_ns = per_call_ns(target, |_| {
        black_box(src.sync_out(city, &registry, SimTime::ZERO));
    });
    out.push(us("data.sync_out_us", sync_out_ns));

    // Every pushed entry is newer than what the receiver holds, so each
    // `on_sync` applies the whole store — the steady state of anti-entropy
    // between sense periods.
    let on_sync_ns = unit_cost_ns(target, |iters| {
        let mut took = Duration::ZERO;
        for _ in 0..iters {
            let now = tick();
            fill(&mut src, now);
            let msg = src.sync_out(city, &registry, SimTime::ZERO);
            took += timed(|| black_box(dst.on_sync(msg, &registry, now))).1;
        }
        (iters, took)
    });
    out.push(us("data.on_sync_us", on_sync_ns));

    let now = tick();
    let staleness_ns = per_call_ns(target, |i| {
        black_box(dst.staleness_secs_key(keys[i as usize % keys.len()], now));
    });
    out.push(ns("data.staleness_ns", staleness_ns));
}

/// The three LTL oracles of `weakened_space()`: parse cost per bank, and
/// cost per `step_valuation` over runs of 48 samples (one fuzz scenario).
fn formal_costs(target: Duration, out: &mut Vec<Metric>) {
    let oracles = weakened_space().oracles;
    let bank = || {
        let mut bank = OnlineMonitor::new("sat");
        for o in &oracles {
            bank.watch(&o.name, &o.formula)
                .expect("weakened_space oracles parse");
        }
        bank
    };
    let parse_ns = per_call_ns(target, |_| {
        black_box(bank());
    });
    out.push(us("formal.parse_us", parse_ns));

    let proto = bank();
    let mut calm = Valuation::EMPTY;
    for name in ["coverage", "availability"] {
        calm.set(proto.atoms().lookup(name).expect("oracle atom"), true);
    }
    let step_ns = unit_cost_ns(target, |iters| {
        let runs = iters / 48 + 1;
        let mut took = Duration::ZERO;
        for _ in 0..runs {
            let mut bank = proto.clone();
            took += timed(|| {
                for step in 0..48u64 {
                    // One disrupted sample in sixteen, so the recovery
                    // oracles keep obligations open.
                    let state = if step % 16 == 15 {
                        Valuation::EMPTY
                    } else {
                        calm
                    };
                    bank.step_valuation(SimTime::from_secs(step), state);
                }
                black_box(bank.samples());
            })
            .1;
        }
        (runs * 48, took)
    });
    out.push(ns("formal.step_ns", step_ns));
}

fn campaign_costs(target: Duration, workload: Workload, shape: &Shape, out: &mut Vec<Metric>) {
    let (space, programs): (CampaignSpace, Vec<CampaignProgram>) = match workload {
        Workload::FuzzSweep => {
            let space = weakened_space();
            let programs = (0..64).map(|seed| case_program(&space, seed)).collect();
            (space, programs)
        }
        _ => {
            let space = CampaignSpace::new(ScenarioParams {
                level: shape.level,
                edges: shape.edges,
                devices_per_edge: shape.devices_per_edge,
                duration_s: shape.duration_s,
                warmup_s: shape.warmup_s,
                seed: 7,
            });
            let mut program = CampaignProgram::new(workload.name());
            program.scenario = space.scenario;
            program.campaign = campaign(workload, 7, shape);
            (space, vec![program])
        }
    };
    let mut rng = SimRng::seed_from(7);

    let generate_ns = per_call_ns(target, |_| {
        black_box(generate(&space, &mut rng));
    });
    out.push(us("campaign.generate_us", generate_ns));

    let mut mutated: Campaign = generate(&space, &mut rng);
    let mutate_ns = per_call_ns(target, |_| {
        mutate_in_place(black_box(&mut mutated), &space, &mut rng);
    });
    out.push(ns("campaign.mutate_ns", mutate_ns));

    let spec = space.scenario.to_spec("compile");
    let compile_ns = per_call_ns(target, |i| {
        black_box(
            programs[i as usize % programs.len()]
                .campaign
                .compile(&spec),
        );
    });
    out.push(us("campaign.compile_us", compile_ns));

    let roundtrip_ns = per_call_ns(target, |i| {
        let text = programs[i as usize % programs.len()].render();
        black_box(CampaignProgram::parse(&text).expect("rendered programs parse"));
    });
    out.push(us("campaign.roundtrip_us", roundtrip_ns));
}

/// Number of drivers [`run_all`] runs; with [`BATCHES`] it turns a time
/// budget into a batch length.
const DRIVERS: u32 = 21;

/// Runs every driver at `workload`'s shape, spending about `budget` overall.
pub fn run_all(workload: Workload, size: Size, budget: Duration) -> Vec<Metric> {
    let target = budget / (DRIVERS * BATCHES as u32);
    let shape = shape(workload, size);
    let mut out = vec![
        ns("sim.queue_ns_16", queue_ns(target, 16)),
        ns("sim.queue_ns_1e3", queue_ns(target, 1_000)),
        ns("sim.queue_ns_1e5", queue_ns(target, 100_000)),
        ns("sim.pingpong_ns", pingpong_ns(target, false)),
        ns("sim.observed_ns", pingpong_ns(target, true)),
        ns("sim.metrics_incr_ns", metrics_ns(target, false)),
        ns("sim.metrics_observe_ns", metrics_ns(target, true)),
        ns("sim.rng_draw_ns", rng_draw_ns(target)),
    ];
    net_costs(target, &shape, &mut out);
    data_costs(target, &shape, &mut out);
    formal_costs(target, &mut out);
    campaign_costs(target, workload, &shape, &mut out);
    debug_assert_eq!(out.len(), DRIVERS as usize);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_driver_reports_a_positive_cost_once() {
        let costs = run_all(
            Workload::CloudChurn1e3,
            Size::SMOKE,
            Duration::from_millis(200),
        );
        assert_eq!(costs.len(), DRIVERS as usize);
        for c in &costs {
            assert!(
                c.value > 0.0 && c.value.is_finite(),
                "{}: {}",
                c.name,
                c.value
            );
            assert_eq!(costs.iter().filter(|o| o.name == c.name).count(), 1);
        }
    }

    #[test]
    fn unit_cost_grows_the_batch_to_the_target() {
        let mut largest = 0;
        let cost = unit_cost_ns(Duration::from_millis(5), |iters| {
            largest = largest.max(iters);
            timed(|| {
                let mut acc = 0u64;
                for i in 0..iters {
                    acc = black_box(acc.wrapping_add(i));
                }
                iters
            })
        });
        assert!(cost > 0.0);
        assert!(largest > 1_000, "a 5 ms batch of adds is many iterations");
    }
}
