//! `sim_digest`: a fingerprint of what a run *modelled*, not of how the
//! simulator got there.
//!
//! It covers the statistics a user of the simulator reads — resilience per
//! requirement and overall, the sampled satisfaction series, message and
//! recovery counters, failed monitors — and deliberately leaves out the JSON
//! rendering and `events_processed`. Adding a result field or coalescing
//! kernel events therefore keeps the digest; changing modelled behaviour
//! breaks it, and needs its own `benchmark` issue to re-pin `expected.json`.

use riot_core::ScenarioResult;

/// 64-bit FNV-1a over a canonical byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn series(&mut self, series: &[(f64, f64)]) {
        self.u64(series.len() as u64);
        for &(t, v) in series {
            self.f64(t);
            self.f64(v);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Folds one scenario's modelled statistics into `d`.
pub fn fold_result(d: &mut Digest, r: &ScenarioResult) {
    for (name, outcome) in &r.report.requirements {
        d.str(name);
        d.f64(outcome.resilience);
    }
    d.f64(r.report.overall_resilience);
    d.series(&r.sat_all_series);
    d.series(&r.satfrac_series);
    d.u64(r.messages_sent);
    d.u64(r.messages_dropped);
    d.u64(r.failovers);
    d.u64(r.restarts);
    d.u64(r.restart_commands);
    d.u64(r.ingest_denied);
    for m in r.failed_monitors() {
        d.str(&m.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_core::{Scenario, ScenarioSpec};
    use riot_model::MaturityLevel;
    use riot_sim::SimDuration;

    fn tiny(seed: u64) -> ScenarioResult {
        let mut spec = ScenarioSpec::new("digest", MaturityLevel::Ml2, seed);
        spec.edges = 2;
        spec.devices_per_edge = 2;
        spec.duration = SimDuration::from_secs(12);
        spec.warmup = SimDuration::from_secs(4);
        Scenario::build(spec).run()
    }

    fn digest_of(r: &ScenarioResult) -> u64 {
        let mut d = Digest::new();
        fold_result(&mut d, r);
        d.value()
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::new();
        d.bytes(b"foobar");
        assert_eq!(d.value(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_across_runs_and_sensitive_to_the_model() {
        let a = tiny(5);
        assert_eq!(digest_of(&a), digest_of(&tiny(5)), "same seed, same digest");
        assert_ne!(digest_of(&a), digest_of(&tiny(6)), "another seed differs");
        let mut dropped_one_more = a.clone();
        dropped_one_more.messages_dropped += 1;
        assert_ne!(digest_of(&a), digest_of(&dropped_one_more));
    }

    #[test]
    fn digest_ignores_simulator_internals() {
        let a = tiny(5);
        let mut fewer_events = a.clone();
        fewer_events.events_processed /= 2;
        fewer_events.name = "renamed".into();
        fewer_events.telemetry_means.insert("extra".into(), 1.0);
        assert_eq!(digest_of(&a), digest_of(&fewer_events));
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut ab_c = Digest::new();
        ab_c.str("ab");
        ab_c.str("c");
        let mut a_bc = Digest::new();
        a_bc.str("a");
        a_bc.str("bc");
        assert_ne!(ab_c.value(), a_bc.value());
    }
}
