//! A1 — coordination-parameter ablation.
//!
//! Two design choices in the decentralized stack get sensitivity curves:
//!
//! * **gossip fanout** — rounds until a rumor reaches every node, for
//!   cluster sizes 8–128 (theory: `O(log_f n)`);
//! * **SWIM timing** — wall-clock (virtual) time from a crash until every
//!   surviving member believes the crashed node dead, as a function of the
//!   probe period and suspicion timeout.
//!
//! Both parameter sweeps run as `riot-harness` grids (20 + 8 cells).

use riot_bench::{banner, sweep_config_from_args, write_json};
use riot_coord::{Gossip, GossipConfig, MemberState, Swim, SwimConfig, SwimMsg, SwimOutput};
use riot_core::Table;
use riot_harness::{Cell, Grid};
use riot_sim::{ProcessId, SimDuration, SimRng, SimTime};

struct GossipRow {
    nodes: usize,
    fanout: usize,
    seed: u64,
    converged: bool,
    rounds_to_full: u32,
    messages: u64,
}
riot_sim::impl_to_json_struct!(GossipRow {
    nodes,
    fanout,
    seed,
    converged,
    rounds_to_full,
    messages
});

struct SwimRow {
    nodes: usize,
    probe_period_ms: u64,
    suspicion_timeout_ms: u64,
    detection_time_s: f64,
    messages: u64,
}
riot_sim::impl_to_json_struct!(SwimRow {
    nodes,
    probe_period_ms,
    suspicion_timeout_ms,
    detection_time_s,
    messages
});

const GOSSIP_SIZES: [usize; 5] = [8, 16, 32, 64, 128];
const GOSSIP_FANOUTS: [usize; 4] = [1, 2, 3, 5];
const GOSSIP_SEEDS: [u64; 3] = [17, 18, 19];
/// `gossip_trial` gives up after this many rounds (rumor went cold).
const GOSSIP_ROUND_CAP: u32 = 200;
/// How often each SWIM node's `tick` runs: the coordination tick
/// riot-core's edges use.
const SWIM_TICK: SimDuration = SimDuration::from_millis(200);

fn main() {
    banner(
        "A1",
        "design-choice ablation (coordination)",
        "gossip spreads in O(log_fanout n) rounds; SWIM detection time ≈ probe interval + suspicion timeout",
    );
    let config = sweep_config_from_args();

    // ---- Gossip fanout. A single seed makes the fanout-1 column pure
    // luck (the rumor goes cold after `rounds_hot` pushes), so every
    // (n, fanout) combination runs under GOSSIP_SEEDS and the table shows
    // the converged mean with the failure count.
    println!(
        "Gossip: rounds until full dissemination (mean over {} seeds):\n",
        GOSSIP_SEEDS.len()
    );
    let mut grid = Grid::new();
    for n in GOSSIP_SIZES {
        for fanout in GOSSIP_FANOUTS {
            for seed in GOSSIP_SEEDS {
                grid.cell(
                    Cell::new(
                        format!("a1/gossip/n{n}/f{fanout}/s{seed}"),
                        seed,
                        move || {
                            let (rounds, msgs) = gossip_trial(n, fanout, seed);
                            GossipRow {
                                nodes: n,
                                fanout,
                                seed,
                                converged: rounds <= GOSSIP_ROUND_CAP,
                                rounds_to_full: rounds,
                                messages: msgs,
                            }
                        },
                    )
                    .param("nodes", n)
                    .param("fanout", fanout),
                );
            }
        }
    }
    let report = grid.run(&config);
    report.report_failures();
    let gossip_rows: Vec<GossipRow> = report.into_values();

    let mut table = Table::new(&["nodes", "fanout 1", "fanout 2", "fanout 3", "fanout 5"]);
    for n in GOSSIP_SIZES {
        let mut cells = vec![n.to_string()];
        for fanout in GOSSIP_FANOUTS {
            let combo: Vec<&GossipRow> = gossip_rows
                .iter()
                .filter(|r| r.nodes == n && r.fanout == fanout)
                .collect();
            let ok: Vec<&&GossipRow> = combo.iter().filter(|r| r.converged).collect();
            let failures = combo.len() - ok.len();
            let text = if ok.is_empty() {
                format!("cold {failures}/{}", combo.len())
            } else {
                let rounds =
                    ok.iter().map(|r| f64::from(r.rounds_to_full)).sum::<f64>() / ok.len() as f64;
                let msgs = ok.iter().map(|r| r.messages as f64).sum::<f64>() / ok.len() as f64;
                let suffix = if failures > 0 {
                    format!(" ({failures} cold)")
                } else {
                    String::new()
                };
                format!("{rounds:.1}r / {msgs:.0}m{suffix}")
            };
            cells.push(text);
        }
        table.row(cells);
    }
    println!("{}", table.render());

    // ---- SWIM timing.
    println!("SWIM: crash-to-global-detection time:\n");
    let mut grid = Grid::new();
    for n in [8usize, 32] {
        for (probe_ms, susp_ms) in [
            (500u64, 1_500u64),
            (1_000, 3_000),
            (2_000, 6_000),
            (1_000, 1_000),
        ] {
            grid.cell(
                Cell::new(
                    format!("a1/swim/n{n}/p{probe_ms}/s{susp_ms}"),
                    23,
                    move || {
                        let (detect_s, msgs) = swim_trial(n, probe_ms, susp_ms, 23);
                        SwimRow {
                            nodes: n,
                            probe_period_ms: probe_ms,
                            suspicion_timeout_ms: susp_ms,
                            detection_time_s: detect_s,
                            messages: msgs,
                        }
                    },
                )
                .param("nodes", n)
                .param("probe_ms", probe_ms)
                .param("susp_ms", susp_ms),
            );
        }
    }
    let report = grid.run(&config);
    report.report_failures();
    let swim_rows: Vec<SwimRow> = report.into_values();

    let mut table = Table::new(&[
        "nodes",
        "probe period",
        "suspicion timeout",
        "detection",
        "msgs",
    ]);
    for row in &swim_rows {
        table.row(vec![
            row.nodes.to_string(),
            format!("{}ms", row.probe_period_ms),
            format!("{}ms", row.suspicion_timeout_ms),
            format!("{:.2}s", row.detection_time_s),
            row.messages.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: fanout-1 gossip frequently goes cold before reaching everyone (the\n\
         rumor stops being pushed after its hot rounds); fanout≥2 always converges,\n\
         in rounds growing logarithmically with n. SWIM detection scales with probe\n\
         period + suspicion timeout and is largely independent of cluster size\n\
         (probing is round-robin per node)."
    );

    struct Output {
        gossip: Vec<GossipRow>,
        swim: Vec<SwimRow>,
    }
    riot_sim::impl_to_json_struct!(Output { gossip, swim });
    write_json(
        "a1_coord_ablation",
        &Output {
            gossip: gossip_rows,
            swim: swim_rows,
        },
    );
}

/// Runs rumor dissemination; returns (rounds until everyone has it, total
/// messages sent).
fn gossip_trial(n: usize, fanout: usize, seed: u64) -> (u32, u64) {
    let cfg = GossipConfig {
        fanout,
        rounds_hot: 4,
        batch_limit: 16,
    };
    let mut nodes: Vec<Gossip<u64>> = (0..n).map(|_| Gossip::new(cfg)).collect();
    let ids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
    let mut rng = SimRng::seed_from(seed);
    nodes[0].publish(1, 42);
    let mut rounds = 0u32;
    let mut messages = 0u64;
    while nodes.iter().any(|g| g.get(1).is_none()) {
        rounds += 1;
        if rounds > GOSSIP_ROUND_CAP {
            return (rounds, messages); // did not converge (rumor went cold)
        }
        for i in 0..n {
            let peers: Vec<ProcessId> = ids.iter().copied().filter(|p| p.0 != i).collect();
            let sends = nodes[i].tick(&peers, &mut rng);
            messages += sends.len() as u64;
            for (to, msg) in sends {
                nodes[to.0].on_message(msg);
            }
        }
    }
    (rounds, messages)
}

/// Crashes node 0 in an `n`-node SWIM cluster; returns (virtual seconds
/// until every survivor believes it dead, messages sent).
fn swim_trial(n: usize, probe_ms: u64, susp_ms: u64, seed: u64) -> (f64, u64) {
    let cfg = SwimConfig {
        probe_period: SimDuration::from_millis(probe_ms),
        suspicion_timeout: SimDuration::from_millis(susp_ms),
        probe_timeout: SimDuration::from_millis(probe_ms / 3),
    };
    let ids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
    let mut nodes: Vec<Swim> = ids
        .iter()
        .map(|&me| Swim::new(me, ids.iter().copied(), cfg, SimTime::ZERO))
        .collect();
    let mut rng = SimRng::seed_from(seed);
    let mut now = SimTime::ZERO;
    let mut messages = 0u64;
    // Warm up 5 seconds, then crash node 0.
    let crash_at = SimTime::from_secs(5);
    let mut crashed = false;
    loop {
        now += SWIM_TICK;
        if !crashed && now >= crash_at {
            crashed = true;
        }
        let mut pending: Vec<(ProcessId, ProcessId, SwimMsg)> = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            if crashed && i == 0 {
                continue;
            }
            for o in node.tick(now, &mut rng) {
                if let SwimOutput::Send { to, msg } = o {
                    pending.push((ProcessId(i), to, msg));
                }
            }
        }
        while let Some((from, to, msg)) = pending.pop() {
            messages += 1;
            if crashed && (from.0 == 0 || to.0 == 0) {
                continue;
            }
            for o in nodes[to.0].on_message(now, from, msg) {
                if let SwimOutput::Send { to: t2, msg } = o {
                    pending.push((to, t2, msg));
                }
            }
        }
        if crashed {
            let all_detected = (1..n).all(|i| {
                nodes[i]
                    .view()
                    .get(ProcessId(0))
                    .map(|info| info.state == MemberState::Dead)
                    .unwrap_or(false)
            });
            if all_detected {
                return ((now - crash_at).as_secs_f64(), messages);
            }
        }
        if now > SimTime::from_secs(300) {
            return (f64::INFINITY, messages);
        }
    }
}
