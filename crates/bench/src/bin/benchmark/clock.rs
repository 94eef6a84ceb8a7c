//! The benchmark's only reads of the host clock.

// riot-lint: allow-file(D2, reason = "the benchmark measures host wall-clock time by design; nothing it times feeds a simulation result")

use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process: one time base for the
/// spans of every thread.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Measures one interval.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    pub fn elapsed(self) -> Duration {
        self.0.elapsed()
    }
}
