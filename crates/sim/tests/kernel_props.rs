//! Property tests of the kernel's foundations: time arithmetic and histogram
//! statistics.
//!
//! Randomized inputs are drawn from the kernel's own seeded [`SimRng`]
//! rather than `proptest`, so every run explores the same cases — test
//! determinism is part of the determinism policy (`DESIGN.md`).

use riot_sim::{Histogram, SimDuration, SimRng, SimTime};

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
