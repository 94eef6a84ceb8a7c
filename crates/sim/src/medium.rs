//! The communication medium: where network semantics live.
//!
//! The kernel itself knows nothing about topology, latency or partitions; it
//! delegates every send to its world's [`Medium`], which decides if and when
//! the message arrives. `riot-net` provides the full IoT network substrate; this
//! module ships two simple media ([`IdealMedium`], [`LossyMedium`]) that are
//! handy for protocol unit tests.

use crate::process::ProcessId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// The routing decision for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given latency.
    After(SimDuration),
    /// Drop the message, with a static reason recorded in metrics/trace
    /// (`"loss"`, `"partition"`, ...).
    Drop(&'static str),
}

/// Decides the fate of every message submitted to the kernel.
///
/// Implementations may be stateful (partitions that open and close, links
/// that degrade). The `route` call must not have side effects on processes —
/// it only shapes delivery. A [`World`](crate::World) holds its medium by
/// value and hands it to a [`Ctx`](crate::Ctx) as `&mut dyn Medium`; its
/// injections reach the concrete type through
/// [`Sim::medium_mut`](crate::Sim::medium_mut).
pub trait Medium<M> {
    /// Routes one message: given the current time, endpoints and payload,
    /// decide latency or drop. `rng` is the run's deterministic stream.
    fn route(
        &mut self,
        now: SimTime,
        from: ProcessId,
        to: ProcessId,
        msg: &M,
        rng: &mut SimRng,
    ) -> Delivery;
}

/// A medium that delivers everything after a constant latency.
///
/// # Examples
///
/// ```
/// use riot_sim::{Delivery, IdealMedium, Medium, ProcessId, SimDuration, SimRng, SimTime};
///
/// let mut m = IdealMedium::with_latency(SimDuration::from_millis(5));
/// let mut rng = SimRng::seed_from(0);
/// let d = m.route(SimTime::ZERO, ProcessId(0), ProcessId(1), &(), &mut rng);
/// assert_eq!(d, Delivery::After(SimDuration::from_millis(5)));
/// ```
#[derive(Debug, Clone)]
pub struct IdealMedium {
    latency: SimDuration,
}

impl IdealMedium {
    /// A medium with zero latency.
    pub fn new() -> Self {
        IdealMedium {
            latency: SimDuration::ZERO,
        }
    }

    /// A medium with the given constant latency.
    pub fn with_latency(latency: SimDuration) -> Self {
        IdealMedium { latency }
    }
}

impl Default for IdealMedium {
    fn default() -> Self {
        IdealMedium::new()
    }
}

impl<M> Medium<M> for IdealMedium {
    fn route(
        &mut self,
        _now: SimTime,
        _from: ProcessId,
        _to: ProcessId,
        _msg: &M,
        _rng: &mut SimRng,
    ) -> Delivery {
        Delivery::After(self.latency)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A medium with constant latency and i.i.d. loss, for protocol tests that
    /// need adversity without a full topology.
    #[derive(Debug, Clone)]
    pub(crate) struct LossyMedium {
        latency: SimDuration,
        loss: f64,
    }

    impl LossyMedium {
        /// Creates a medium with the given latency and loss probability
        /// (clamped to `[0, 1]`).
        pub(crate) fn new(latency: SimDuration, loss: f64) -> Self {
            LossyMedium {
                latency,
                loss: loss.clamp(0.0, 1.0),
            }
        }
    }

    impl<M> Medium<M> for LossyMedium {
        fn route(
            &mut self,
            _now: SimTime,
            _from: ProcessId,
            _to: ProcessId,
            _msg: &M,
            rng: &mut SimRng,
        ) -> Delivery {
            if rng.chance(self.loss) {
                Delivery::Drop("loss")
            } else {
                Delivery::After(self.latency)
            }
        }
    }

    #[test]
    fn ideal_medium_constant_latency() {
        let mut m = IdealMedium::with_latency(SimDuration::from_millis(3));
        let mut rng = SimRng::seed_from(0);
        for _ in 0..10 {
            let d = Medium::<u32>::route(
                &mut m,
                SimTime::ZERO,
                ProcessId(0),
                ProcessId(1),
                &1,
                &mut rng,
            );
            assert_eq!(d, Delivery::After(SimDuration::from_millis(3)));
        }
    }

    #[test]
    fn lossy_medium_loss_rate_is_calibrated() {
        let mut m = LossyMedium::new(SimDuration::ZERO, 0.25);
        let mut rng = SimRng::seed_from(1);
        let drops = (0..10_000)
            .filter(|_| {
                matches!(
                    Medium::<u32>::route(
                        &mut m,
                        SimTime::ZERO,
                        ProcessId(0),
                        ProcessId(1),
                        &1,
                        &mut rng
                    ),
                    Delivery::Drop(_)
                )
            })
            .count();
        assert!((2_200..2_800).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn lossy_medium_clamps_probability() {
        let mut m = LossyMedium::new(SimDuration::ZERO, 7.0);
        let mut rng = SimRng::seed_from(2);
        let d = Medium::<u32>::route(
            &mut m,
            SimTime::ZERO,
            ProcessId(0),
            ProcessId(1),
            &1,
            &mut rng,
        );
        assert_eq!(d, Delivery::Drop("loss"));
    }
}
