//! Seeded campaign generation and mutation.
//!
//! All entropy flows through one explicit [`SimRng`] (lint rule D3: no
//! ambient randomness), so a campaign — and therefore an entire fuzz sweep
//! — is a pure function of its seed. The mutator is the half of the
//! property-based loop the shrinker relies on staying cheap:
//! [`mutate_in_place`] is declared a hot root in `lint-hotpaths.toml`, so
//! every edit is an in-place dimension write on a `Copy` vector (no
//! clone-and-rebuild).

use crate::compile::Campaign;
use crate::program::ScenarioParams;
use crate::vector::{CampaignVector, Dim, KINDS, MODES};
use riot_core::MonitorSpec;
use riot_sim::SimRng;

/// The domain campaigns are drawn from: a scenario shape, the monitor
/// oracles judging each run, and a size bound.
#[derive(Debug, Clone)]
pub struct CampaignSpace {
    /// Scenario shape every candidate runs against.
    pub scenario: ScenarioParams,
    /// Monitor oracles attached to every candidate run.
    pub oracles: Vec<MonitorSpec>,
    /// Maximum vectors per generated campaign (≥ 1).
    pub max_vectors: usize,
}

impl CampaignSpace {
    /// A space over `scenario` with no oracles and up to four vectors.
    pub fn new(scenario: ScenarioParams) -> CampaignSpace {
        CampaignSpace {
            scenario,
            oracles: Vec::new(),
            max_vectors: 4,
        }
    }

    /// The onset window `[warmup, duration)` — disruptions strike after
    /// the calm baseline window and before the run ends.
    fn onset_window(&self) -> (u64, u64) {
        let lo = self.scenario.warmup_s;
        let hi = self.scenario.duration_s.max(lo + 1);
        (lo, hi)
    }
}

/// Draws a fresh value for one dimension.
fn draw_dim(dim: Dim, space: &CampaignSpace, rng: &mut SimRng) -> u64 {
    let edges = space.scenario.edges as u64;
    match dim {
        Dim::Onset => {
            let (lo, hi) = space.onset_window();
            rng.range_u64(lo, hi)
        }
        // Up to twice the edge count: enough to wrap every round-robin
        // target at least once.
        Dim::Count => rng.range_u64(1, 2 * edges.max(1) + 1),
        Dim::Spacing => rng.range_u64(1, 11),
        // 30% permanent (the interesting case for safety oracles),
        // otherwise a short heal.
        Dim::Heal => {
            if rng.chance(0.3) {
                0
            } else {
                rng.range_u64(5, 31)
            }
        }
        Dim::Stride => rng.range_u64(1, 5),
        Dim::Offset => rng.range_u64(0, 4),
        Dim::Factor => rng.range_u64(2, 17),
        Dim::Links => rng.range_u64(1, edges.max(1) + 1),
    }
}

/// Draws one vector: a uniformly-picked kind with every dimension drawn
/// from a per-dimension distribution over the space's onset window and
/// scenario shape. (The mode is drawn for every kind, first.)
pub(crate) fn generate_vector(space: &CampaignSpace, rng: &mut SimRng) -> CampaignVector {
    let mode = rng.pick(&MODES);
    let [cascade, ..] = &KINDS;
    let kind = rng.pick(&KINDS).unwrap_or(cascade);
    let mut v = kind.template;
    if let (CampaignVector::Adversary { mode: slot, .. }, Some(&(_, mode))) = (&mut v, mode) {
        *slot = mode;
    }
    for &dim in kind.dims {
        let value = draw_dim(dim, space, rng);
        CampaignVector::set(&mut v, dim, value);
    }
    // FaultStorm's per-edge count is bounded by the fleet shape, not the
    // edge count the generic Count draw assumes.
    if let CampaignVector::FaultStorm { per_edge, .. } = &mut v {
        let dpe = space.scenario.devices_per_edge as u64;
        *per_edge = (*per_edge).clamp(1, dpe.max(1));
    }
    v
}

/// Draws a whole campaign: `1..=max_vectors` vectors.
pub fn generate(space: &CampaignSpace, rng: &mut SimRng) -> Campaign {
    let n = rng.range_u64(1, space.max_vectors.max(1) as u64 + 1);
    let mut c = Campaign::new();
    for _ in 0..n {
        c.push(generate_vector(space, rng));
    }
    c
}

/// Redraws one vector's onset within the window — both a mutation in its
/// own right and the fallback when growth or shrink has no room.
fn tweak_onset(campaign: &mut Campaign, space: &CampaignSpace, rng: &mut SimRng) {
    let len = campaign.len() as u64;
    let i = rng.range_u64(0, len) as usize;
    let value = draw_dim(Dim::Onset, space, rng);
    if let Some(v) = campaign.vectors_mut().get_mut(i) {
        CampaignVector::set(v, Dim::Onset, value);
    }
}

/// Applies one random mutation in place: tweak an onset, redraw one
/// dimension, add a vector (below the size bound) or drop one (above one
/// vector). Deterministic for a given rng state; declared a hot root, so
/// everything reachable is allocation-free beyond the campaign's own
/// vector push.
pub fn mutate_in_place(campaign: &mut Campaign, space: &CampaignSpace, rng: &mut SimRng) {
    if campaign.is_empty() {
        campaign.push(generate_vector(space, rng));
        return;
    }
    let len = campaign.len() as u64;
    match rng.range_u64(0, 4) {
        // Move one vector's onset within the window.
        0 => tweak_onset(campaign, space, rng),
        // Redraw one random dimension of one vector.
        1 => {
            let i = rng.range_u64(0, len) as usize;
            if let Some(v) = campaign.vectors_mut().get_mut(i) {
                let dims = v.kind().dims;
                let pick = rng.range_u64(0, dims.len() as u64) as usize;
                let dim = dims.get(pick).copied().unwrap_or(Dim::Onset);
                let value = draw_dim(dim, space, rng);
                CampaignVector::set(v, dim, value);
            }
        }
        // Grow, if there is room; otherwise fall back to an onset tweak.
        2 => {
            if campaign.len() < space.max_vectors.max(1) {
                let v = generate_vector(space, rng);
                campaign.push(v);
            } else {
                tweak_onset(campaign, space, rng);
            }
        }
        // Shrink, if more than one vector remains.
        _ => {
            if campaign.len() > 1 {
                let i = rng.range_u64(0, len) as usize;
                let _ = campaign.remove(i);
            } else {
                tweak_onset(campaign, space, rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> CampaignSpace {
        CampaignSpace::new(ScenarioParams::default())
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let sp = space();
        let a = generate(&sp, &mut SimRng::seed_from(11));
        let b = generate(&sp, &mut SimRng::seed_from(11));
        assert_eq!(a, b);
        let c = generate(&sp, &mut SimRng::seed_from(12));
        // Astronomically unlikely to collide; a collision here means the
        // seed is being ignored.
        assert_ne!(a, c);
    }

    #[test]
    fn generated_campaigns_respect_the_space_bounds() {
        let sp = space();
        let mut rng = SimRng::seed_from(3);
        let (lo, hi) = (sp.scenario.warmup_s, sp.scenario.duration_s);
        for _ in 0..200 {
            let c = generate(&sp, &mut rng);
            assert!((1..=sp.max_vectors).contains(&c.len()));
            for v in c.vectors() {
                let onset = v.onset();
                assert!(
                    (lo..hi).contains(&onset),
                    "onset {onset} outside [{lo}, {hi})"
                );
                for &dim in v.kind().dims {
                    let value = v.get(dim).expect("declared dim");
                    assert!(value >= dim.floor(), "{dim:?} below floor: {value}");
                }
                if let CampaignVector::FaultStorm { per_edge, .. } = v {
                    assert!(*per_edge <= sp.scenario.devices_per_edge as u64);
                }
            }
        }
    }

    #[test]
    fn every_kind_is_reachable() {
        let sp = space();
        let mut rng = SimRng::seed_from(5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            seen.insert(generate_vector(&sp, &mut rng).kind().name);
        }
        assert_eq!(seen.len(), 8, "all kinds drawn: {seen:?}");
    }

    #[test]
    fn mutation_is_deterministic_and_bounded() {
        let sp = space();
        let mut a = generate(&sp, &mut SimRng::seed_from(21));
        let mut b = a.clone();
        let mut rng_a = SimRng::seed_from(99);
        let mut rng_b = SimRng::seed_from(99);
        for _ in 0..50 {
            mutate_in_place(&mut a, &sp, &mut rng_a);
            mutate_in_place(&mut b, &sp, &mut rng_b);
            assert_eq!(a, b, "same seed, same mutation trajectory");
            assert!((1..=sp.max_vectors).contains(&a.len()));
        }
    }

    #[test]
    fn mutation_repopulates_an_empty_campaign() {
        let sp = space();
        let mut c = Campaign::new();
        mutate_in_place(&mut c, &sp, &mut SimRng::seed_from(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn mutations_eventually_change_the_campaign() {
        let sp = space();
        let original = generate(&sp, &mut SimRng::seed_from(31));
        let mut c = original.clone();
        let mut rng = SimRng::seed_from(32);
        let mut changed = false;
        for _ in 0..20 {
            mutate_in_place(&mut c, &sp, &mut rng);
            if c != original {
                changed = true;
                break;
            }
        }
        assert!(changed, "20 mutations left the campaign untouched");
    }
}
