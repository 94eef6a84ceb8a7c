//! Property tests of the kernel's foundations: time arithmetic, histogram
//! statistics, and what a crash does to the timers and messages in flight.
//!
//! Randomized inputs are drawn from the kernel's own seeded [`SimRng`]
//! rather than `proptest`, so every run explores the same cases — test
//! determinism is part of the determinism policy (`DESIGN.md`).

use riot_sim::{
    Ctx, Histogram, IdealMedium, Process, ProcessId, Sim, SimBuilder, SimDuration, SimEvent,
    SimEventKind, SimObserver, SimRng, SimTime,
};

const CASES: usize = 500;

/// Time arithmetic is consistent: (t + d) - t == d, ordering respects
/// addition, conversions round-trip.
#[test]
fn time_arithmetic_laws() {
    let mut rng = SimRng::seed_from(0x5EED_0001);
    for _ in 0..CASES {
        let base_us = rng.range_u64(0, 1_000_000_000);
        let d1 = rng.range_u64(0, 1_000_000);
        let d2 = rng.range_u64(0, 1_000_000);
        let t = SimTime::from_micros(base_us);
        let da = SimDuration::from_micros(d1);
        let db = SimDuration::from_micros(d2);
        assert_eq!((t + da) - t, da);
        assert_eq!((t + da) + db, (t + db) + da, "commutative offsets");
        assert!(t + da >= t);
        if d1 > 0 {
            assert!(t + da > t);
        }
        assert_eq!(da + db, db + da);
        assert_eq!(SimDuration::from_micros(d1).as_micros(), d1);
        // saturating_since is max(0, t1 - t2).
        assert_eq!(t.saturating_since(t + da), SimDuration::ZERO);
        assert_eq!((t + da).saturating_since(t), da);
    }
}

/// Histogram quantiles are monotone in q and bounded by min/max.
#[test]
fn histogram_quantiles_are_monotone() {
    let mut rng = SimRng::seed_from(0x5EED_0002);
    for _ in 0..CASES {
        let n = rng.range_u64(1, 200) as usize;
        let samples: Vec<f64> = (0..n).map(|_| rng.range_f64(-1_000.0, 1_000.0)).collect();
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut last = f64::NEG_INFINITY;
        for q in qs {
            let v = h.quantile(q);
            assert!(v >= last, "quantile not monotone at {q}");
            assert!(v >= h.min() && v <= h.max());
            last = v;
        }
        assert!(h.mean() >= h.min() - 1e-9 && h.mean() <= h.max() + 1e-9);
        assert_eq!(h.count(), samples.len());
    }
}

/// A process that numbers its lives by `on_start` calls and stamps every
/// timer with the life that scheduled it, in the tag's upper half.
struct Lives {
    peers: usize,
    life: u64,
    fired: u64,
}

impl Lives {
    fn schedule(&self, ctx: &mut Ctx<'_, u64>) {
        let delay = ctx.rng().range_u64(0, 40_000);
        ctx.schedule(SimDuration::from_micros(delay), self.life << 32);
    }

    fn send(&self, ctx: &mut Ctx<'_, u64>) {
        let to = ctx.rng().range_u64(0, self.peers as u64) as usize;
        ctx.send(ProcessId(to), self.life);
    }
}

impl Process<u64> for Lives {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.life += 1;
        for _ in 0..ctx.rng().range_u64(1, 4) {
            self.schedule(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: ProcessId, _life: u64) {
        if ctx.rng().chance(0.3) {
            self.schedule(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
        assert_eq!(
            tag >> 32,
            self.life,
            "{} at {}: a timer of an earlier life fired",
            ctx.id(),
            ctx.now()
        );
        self.fired += 1;
        // Each timer is replaced by one, so a life keeps its timer count
        // and the run stays bounded.
        self.schedule(ctx);
        if ctx.rng().chance(0.5) {
            self.send(ctx);
        }
    }
}

/// Mirrors liveness from the lifecycle events and checks that nothing is
/// handed to a process while it is down.
struct DownIsDown {
    up: Vec<bool>,
    timers: u64,
    deliveries: u64,
    crashes: u64,
}

impl SimObserver for DownIsDown {
    fn on_event(&mut self, event: &SimEvent) {
        match event.kind {
            SimEventKind::ProcessDown { id } => {
                self.set(id, false);
                self.crashes += 1;
            }
            SimEventKind::ProcessUp { id } => self.set(id, true),
            SimEventKind::TimerFired { owner, .. } => {
                assert!(self.is_up(owner), "{owner}: timer fired while down");
                self.timers += 1;
            }
            SimEventKind::Delivered { to, .. } => {
                assert!(self.is_up(to), "{to}: delivered to while down");
                self.deliveries += 1;
            }
            _ => {}
        }
    }
}

impl DownIsDown {
    fn set(&mut self, id: ProcessId, up: bool) {
        if let Some(slot) = self.up.get_mut(id.index()) {
            *slot = up;
        }
    }

    fn is_up(&self, id: ProcessId) -> bool {
        self.up.get(id.index()) == Some(&true)
    }
}

/// A crash discards its process's timers: under random timers, sends and
/// crash/restart injections, no timer of an earlier life fires, and no timer
/// or delivery reaches a process while it is down.
#[test]
fn no_timer_or_delivery_outlives_a_crash() {
    let mut rng = SimRng::seed_from(0x5EED_0003);
    let (mut timers, mut deliveries, mut crashes) = (0, 0, 0);
    for case in 0..200u64 {
        let peers = rng.range_u64(2, 9) as usize;
        let latency = SimDuration::from_micros(rng.range_u64(0, 5_000));
        let mut sim: Sim<u64> =
            SimBuilder::new(case).build_with_medium(Box::new(IdealMedium::with_latency(latency)));
        let observer = sim.add_observer(DownIsDown {
            up: vec![true; peers],
            timers: 0,
            deliveries: 0,
            crashes: 0,
        });
        for _ in 0..peers {
            sim.add_process(Lives {
                peers,
                life: 0,
                fired: 0,
            });
        }
        for _ in 0..rng.range_u64(1, 30) {
            let at = SimTime::from_micros(rng.range_u64(0, 500_000));
            let id = ProcessId(rng.range_u64(0, peers as u64) as usize);
            if rng.chance(0.5) {
                sim.schedule_injection(at, move |sim| sim.set_down(id));
            } else {
                sim.schedule_injection(at, move |sim| sim.set_up(id));
            }
        }
        sim.run_until(SimTime::from_millis(600));
        let seen = sim.observer::<DownIsDown>(observer).unwrap();
        let fired: u64 = (0..peers)
            .map(|i| sim.process::<Lives>(ProcessId(i)).unwrap().fired)
            .sum();
        assert_eq!(
            seen.timers, fired,
            "case {case}: every fired timer was seen"
        );
        timers += seen.timers;
        deliveries += seen.deliveries;
        crashes += seen.crashes;
    }
    assert!(
        timers > 10_000 && deliveries > 5_000 && crashes > 500,
        "{timers} timers, {deliveries} deliveries, {crashes} crashes"
    );
}
