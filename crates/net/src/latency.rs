//! Link latency models.
//!
//! Each link in a topology carries a [`LatencyModel`] that is sampled per
//! message. Models cover the regimes the paper's landscape (§II) implies:
//! stable local links (fixed), jittery wireless hops (uniform), and
//! wide-area cloud links with occasional congestion spikes.

use riot_sim::{SimDuration, SimRng};

/// A per-message latency distribution for one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Always exactly this latency.
    Fixed(SimDuration),
    /// Uniform between the two bounds (inclusive low, exclusive high).
    Uniform(SimDuration, SimDuration),
    /// A base latency that, with probability `spike_prob`, is multiplied by
    /// `spike_factor` — a coarse model of congestion or radio interference.
    Spiky {
        /// Latency outside spikes.
        base: SimDuration,
        /// Probability that a given message hits a spike.
        spike_prob: f64,
        /// Multiplier applied during a spike.
        spike_factor: f64,
    },
}

impl LatencyModel {
    /// Convenience constructor: a fixed latency of `ms` milliseconds.
    pub fn fixed_ms(ms: u64) -> Self {
        LatencyModel::Fixed(SimDuration::from_millis(ms))
    }

    /// Convenience constructor: uniform between `lo_ms` and `hi_ms`
    /// milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `lo_ms > hi_ms`.
    pub fn uniform_ms(lo_ms: u64, hi_ms: u64) -> Self {
        assert!(lo_ms <= hi_ms, "uniform bounds inverted");
        LatencyModel::Uniform(
            SimDuration::from_millis(lo_ms),
            SimDuration::from_millis(hi_ms),
        )
    }

    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform(lo, hi) => {
                if hi <= lo {
                    lo
                } else {
                    SimDuration::from_micros(rng.range_u64(lo.as_micros(), hi.as_micros()))
                }
            }
            LatencyModel::Spiky {
                base,
                spike_prob,
                spike_factor,
            } => {
                if rng.chance(spike_prob) {
                    base.mul_f64(spike_factor)
                } else {
                    base
                }
            }
        }
    }

    /// The expected latency, used as the edge weight for routing.
    pub fn mean(&self) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform(lo, hi) => (lo + hi) / 2,
            LatencyModel::Spiky {
                base,
                spike_prob,
                spike_factor,
            } => {
                let p = spike_prob.clamp(0.0, 1.0);
                base.mul_f64(1.0 - p + p * spike_factor)
            }
        }
    }
}

impl Default for LatencyModel {
    /// A 1 ms fixed link — a sane LAN default.
    fn default() -> Self {
        LatencyModel::fixed_ms(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let m = LatencyModel::fixed_ms(5);
        let mut rng = SimRng::seed_from(0);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(5));
        }
        assert_eq!(m.mean(), SimDuration::from_millis(5));
    }

    #[test]
    fn uniform_stays_in_bounds_and_mean_is_centered() {
        let m = LatencyModel::uniform_ms(10, 20);
        let mut rng = SimRng::seed_from(1);
        let mut sum = 0.0;
        for _ in 0..5_000 {
            let s = m.sample(&mut rng);
            assert!(s >= SimDuration::from_millis(10) && s < SimDuration::from_millis(20));
            sum += s.as_millis_f64();
        }
        let avg = sum / 5_000.0;
        assert!((14.0..16.0).contains(&avg), "avg {avg}");
        assert_eq!(m.mean(), SimDuration::from_millis(15));
    }

    #[test]
    fn degenerate_uniform_returns_low_bound() {
        let m = LatencyModel::Uniform(SimDuration::from_millis(3), SimDuration::from_millis(3));
        let mut rng = SimRng::seed_from(2);
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(3));
    }

    #[test]
    fn spiky_mixes_base_and_spike() {
        let m = LatencyModel::Spiky {
            base: SimDuration::from_millis(10),
            spike_prob: 0.5,
            spike_factor: 3.0,
        };
        let mut rng = SimRng::seed_from(4);
        let mut spikes = 0;
        for _ in 0..4_000 {
            let s = m.sample(&mut rng);
            if s == SimDuration::from_millis(30) {
                spikes += 1;
            } else {
                assert_eq!(s, SimDuration::from_millis(10));
            }
        }
        assert!((1_700..2_300).contains(&spikes), "spikes {spikes}");
        assert_eq!(m.mean(), SimDuration::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "uniform bounds inverted")]
    fn inverted_uniform_panics() {
        let _ = LatencyModel::uniform_ms(20, 10);
    }
}
