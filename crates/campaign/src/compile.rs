//! Deterministic compilation of campaigns into
//! [`riot_model::DisruptionSchedule`]s.
//!
//! A [`Campaign`] is an ordered list of [`CampaignVector`]s. Compilation
//! expands each vector into a schedule *block* at relative time zero,
//! shifts the block to the vector's onset
//! ([`DisruptionSchedule::shift`]), and merges it onto the campaign
//! timeline ([`DisruptionSchedule::merge`]) — so equal-timestamp events
//! keep vector order, and the result is a pure function of
//! `(campaign, spec)`. Node identities come from the spec's deterministic
//! id layout (`riot_core::ScenarioSpec::{cloud_id, edge_id, device_id}`),
//! which is why a campaign can be written, mutated and shrunk before any
//! system exists.
//!
//! [`Campaign::compile`] is declared a hot root in `lint-hotpaths.toml`:
//! the fuzzer compiles every generated candidate and the shrinker
//! re-compiles after every mutation, so nothing reachable from here may
//! allocate per-event beyond the schedule's own growth (rule A1 — note the
//! `Vec::with_capacity` partition halves and the absence of formatting).

use crate::vector::{AdversaryMode, CampaignVector};
use riot_core::ScenarioSpec;
use riot_model::{ComponentId, Disruption, DisruptionSchedule, DomainId};
use riot_sim::{ProcessId, SimDuration, SimTime};

/// Translates a heal/recover parameter: `0` means permanent (`None`).
fn heal(secs: u64) -> Option<SimDuration> {
    if secs == 0 {
        None
    } else {
        Some(SimDuration::from_secs(secs))
    }
}

/// What compiling `v` for `edges` × `devices_per_edge` devices commits: the
/// events [`expand`] emits and the last instant they reach, in whole seconds
/// (the last event plus its heal, reckoned from the parameters even where
/// the fleet is too small for any event); `None` when that overflows a
/// `u64`. `expand`'s arithmetic, checked, so that `CampaignProgram::validate`
/// can refuse a vector before anything is allocated for it.
pub(crate) fn extent(
    v: &CampaignVector,
    edges: usize,
    devices_per_edge: usize,
) -> Option<(u64, u64)> {
    let devices = edges.checked_mul(devices_per_edge)? as u64;
    let edges = edges as u64;
    let links = |links: u64| links.max(1).min(edges);
    // (events, index of the last step, seconds between steps, heal after it)
    let (events, last, spacing, heal) = match *v {
        CampaignVector::Cascade {
            count,
            spacing,
            recover,
            ..
        } => (count, count.saturating_sub(1), spacing, recover),
        CampaignVector::FirmwareWave {
            batch,
            spacing,
            outage,
            ..
        } => {
            let last_wave = devices.saturating_sub(1) / batch.max(1);
            (devices, last_wave, spacing, outage)
        }
        CampaignVector::FaultStorm {
            spacing,
            per_edge,
            stride,
            offset,
            ..
        } => {
            let room = (devices_per_edge as u64).saturating_sub(offset);
            let faults = edges.checked_mul(per_edge.min(room.div_ceil(stride.max(1))))?;
            (faults, faults.saturating_sub(1), spacing, 0)
        }
        CampaignVector::MobilityBurst {
            roamers, spacing, ..
        } => {
            let events = if edges >= 2 { roamers } else { 0 };
            (events, roamers.saturating_sub(1), spacing, 0)
        }
        CampaignVector::JurisdictionFlip { .. } => (1, 0, 0, 0),
        CampaignVector::CloudBlackout { heal, .. } => (1, 0, 0, heal),
        CampaignVector::SplitBrain { heal, .. } => (u64::from(edges >= 4), 0, 0, heal),
        CampaignVector::Adversary {
            mode: AdversaryMode::Flap,
            factor,
            duration,
            links: l,
            ..
        } => {
            let cycles = factor.clamp(1, 8);
            let period = (duration / cycles).max(2);
            let cuts = links(l).saturating_mul(cycles);
            (cuts, cycles - 1, period, (period / 2).max(1))
        }
        CampaignVector::Adversary {
            duration, links: l, ..
        } => (links(l), 0, 0, duration),
    };
    let reach = v.onset().checked_add(last.checked_mul(spacing)?)?;
    Some((events, reach.checked_add(heal)?))
}

/// An ordered, composable disruption campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Campaign {
    vectors: Vec<CampaignVector>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Campaign {
        Campaign::default()
    }

    /// A campaign of one vector.
    pub fn single(v: CampaignVector) -> Campaign {
        let mut c = Campaign::new();
        c.push(v);
        c
    }

    /// Appends a vector.
    pub fn push(&mut self, v: CampaignVector) {
        self.vectors.push(v);
    }

    /// Removes and returns the vector at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> CampaignVector {
        self.vectors.remove(index)
    }

    /// The vectors, in campaign order.
    pub fn vectors(&self) -> &[CampaignVector] {
        &self.vectors
    }

    /// Mutable access to the vectors (the mutator and shrinker edit
    /// dimensions in place).
    pub fn vectors_mut(&mut self) -> &mut [CampaignVector] {
        &mut self.vectors
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// `true` when the campaign has no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Compiles the campaign against a spec's node-id layout into one
    /// time-ordered disruption schedule. Pure and deterministic; no
    /// clamping happens here — the schedule is exactly the sum of the
    /// vectors, so a campaign compiled for a suite matches the suite's
    /// hand-rolled schedule under every spec shape. (The fuzz path clamps
    /// to the run horizon separately, via
    /// [`DisruptionSchedule::clamp_to`].)
    pub fn compile(&self, spec: &ScenarioSpec) -> DisruptionSchedule {
        let mut schedule = DisruptionSchedule::new();
        for v in &self.vectors {
            let mut block = DisruptionSchedule::new();
            expand(v, spec, &mut block);
            // Qualified calls: the lint's call graph gets precise edges to
            // the schedule hooks instead of the method-name fallback
            // (DESIGN.md §10), keeping the hot cone exact.
            DisruptionSchedule::shift(&mut block, SimDuration::from_secs(v.onset()));
            DisruptionSchedule::merge(&mut schedule, block);
        }
        schedule
    }
}

/// Appends one event to `block` through a qualified call, so the compile
/// cone provably includes [`DisruptionSchedule::push`].
fn emit(block: &mut DisruptionSchedule, at: SimTime, d: Disruption) {
    DisruptionSchedule::push(block, at, d);
}

/// Expands one vector into `block` at relative time zero.
fn expand(v: &CampaignVector, spec: &ScenarioSpec, block: &mut DisruptionSchedule) {
    match *v {
        CampaignVector::Cascade {
            count,
            spacing,
            recover,
            ..
        } => {
            for k in 0..count {
                let e = (k as usize) % spec.edges;
                emit(
                    block,
                    SimTime::from_secs(k.saturating_mul(spacing)),
                    Disruption::NodeCrash {
                        node: spec.edge_id(e),
                        recover_after: heal(recover),
                    },
                );
            }
        }
        CampaignVector::FirmwareWave {
            batch,
            spacing,
            outage,
            ..
        } => {
            let batch = batch.max(1);
            for i in 0..spec.device_count() {
                let wave = (i as u64) / batch;
                let e = i / spec.devices_per_edge;
                let d = i % spec.devices_per_edge;
                emit(
                    block,
                    SimTime::from_secs(wave.saturating_mul(spacing)),
                    Disruption::NodeCrash {
                        node: spec.device_id(e, d),
                        recover_after: heal(outage),
                    },
                );
            }
        }
        CampaignVector::FaultStorm {
            spacing,
            per_edge,
            stride,
            offset,
            ..
        } => {
            // One global clock across edges: the storm sweeps the fleet
            // edge by edge, one fault per tick, exactly like the
            // hand-rolled E6 fault schedule it replaces.
            // The local index grows with `k`, so the first one past the
            // edge ends that edge's faults: a huge `per_edge` costs no more
            // than the edge has devices.
            let mut t = 0u64;
            for e in 0..spec.edges {
                for k in 0..per_edge {
                    let d = offset.saturating_add(k.saturating_mul(stride.max(1))) as usize;
                    if d >= spec.devices_per_edge {
                        break;
                    }
                    let node = spec.device_id(e, d);
                    emit(
                        block,
                        SimTime::from_secs(t),
                        Disruption::ComponentFault {
                            node,
                            component: ComponentId(node.0 as u32),
                        },
                    );
                    t = t.saturating_add(spacing);
                }
            }
        }
        CampaignVector::MobilityBurst {
            roamers, spacing, ..
        } => {
            // A single edge has nowhere to roam to.
            if spec.edges >= 2 {
                for k in 0..roamers {
                    let e = (k as usize) % spec.edges;
                    let d = (k as usize / spec.edges) % spec.devices_per_edge;
                    emit(
                        block,
                        SimTime::from_secs(k.saturating_mul(spacing)),
                        Disruption::Mobility {
                            device: spec.device_id(e, d),
                            new_parent: spec.edge_id((e + 1) % spec.edges),
                        },
                    );
                }
            }
        }
        CampaignVector::JurisdictionFlip { edge, .. } => {
            let e = (edge as usize) % spec.edges;
            emit(
                block,
                SimTime::ZERO,
                Disruption::DomainTransfer {
                    entity: spec.edge_id(e).0 as u64,
                    to: DomainId(1),
                },
            );
        }
        CampaignVector::CloudBlackout { heal: h, .. } => {
            emit(
                block,
                SimTime::ZERO,
                Disruption::CloudOutage {
                    cloud: spec.cloud_id(),
                    heal_after: heal(h),
                },
            );
        }
        CampaignVector::SplitBrain { heal: h, .. } => {
            // Fewer than four edges have no meaningful halves.
            if spec.edges >= 4 {
                let mid = spec.edges / 2;
                let mut left: Vec<ProcessId> = Vec::with_capacity(mid);
                for i in 0..mid {
                    left.push(spec.edge_id(i));
                }
                let mut right: Vec<ProcessId> = Vec::with_capacity(spec.edges - mid);
                for i in mid..spec.edges {
                    right.push(spec.edge_id(i));
                }
                // Exact-sized pair; `vec!` is an A1 token in this hot cone.
                let groups: Vec<Vec<ProcessId>> = Vec::from([left, right]);
                emit(
                    block,
                    SimTime::ZERO,
                    Disruption::Partition {
                        groups,
                        heal_after: heal(h),
                    },
                );
            }
        }
        CampaignVector::Adversary {
            mode,
            factor,
            duration,
            links,
            ..
        } => {
            let links = (links.max(1) as usize).min(spec.edges);
            for l in 0..links {
                let a = spec.edge_id(l);
                let b = spec.cloud_id();
                match mode {
                    AdversaryMode::Delay => {
                        emit(
                            block,
                            SimTime::ZERO,
                            Disruption::LinkDegradation {
                                a,
                                b,
                                factor: factor.max(2) as f64,
                                heal_after: heal(duration),
                            },
                        );
                    }
                    AdversaryMode::Drop => {
                        emit(
                            block,
                            SimTime::ZERO,
                            Disruption::LinkCut {
                                a,
                                b,
                                heal_after: heal(duration),
                            },
                        );
                    }
                    AdversaryMode::Flap => {
                        // `factor` cut/heal cycles spread across the
                        // duration; each cut heals after half a period, so
                        // traffic alternates between the direct link and
                        // slower recovery paths — reordering deliveries.
                        let cycles = factor.clamp(1, 8);
                        let period = (duration / cycles).max(2);
                        for c in 0..cycles {
                            emit(
                                block,
                                SimTime::from_secs(c.saturating_mul(period)),
                                Disruption::LinkCut {
                                    a,
                                    b,
                                    heal_after: Some(SimDuration::from_secs((period / 2).max(1))),
                                },
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_model::MaturityLevel;

    fn spec(edges: usize, dpe: usize) -> ScenarioSpec {
        let mut s = ScenarioSpec::new("campaign-unit", MaturityLevel::Ml2, 7);
        s.edges = edges;
        s.devices_per_edge = dpe;
        s
    }

    fn times(s: &DisruptionSchedule) -> Vec<u64> {
        s.events()
            .iter()
            .map(|e| e.at.as_micros() / 1_000_000)
            .collect()
    }

    #[test]
    fn cascade_wraps_edges_and_staggers() {
        let c = Campaign::single(CampaignVector::Cascade {
            onset: 40,
            count: 3,
            spacing: 5,
            recover: 20,
        });
        let s = c.compile(&spec(2, 2));
        assert_eq!(times(&s), vec![40, 45, 50]);
        let nodes: Vec<usize> = s
            .events()
            .iter()
            .map(|e| match &e.disruption {
                Disruption::NodeCrash {
                    node,
                    recover_after,
                } => {
                    assert_eq!(*recover_after, Some(SimDuration::from_secs(20)));
                    node.0
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(nodes, vec![1, 2, 1], "third crash wraps to edge 0");
    }

    #[test]
    fn zero_heal_means_permanent() {
        let c = Campaign::single(CampaignVector::CloudBlackout { onset: 10, heal: 0 });
        let s = c.compile(&spec(2, 2));
        assert_eq!(
            s.events()[0].disruption,
            Disruption::CloudOutage {
                cloud: ProcessId(0),
                heal_after: None,
            }
        );
    }

    #[test]
    fn fault_storm_skips_out_of_range_indices() {
        // stride 2, offset 1 over 3 devices/edge: local indices 1 only
        // (3 and 5 are out of range), so one fault per edge and the global
        // clock advances once per *pushed* event.
        let c = Campaign::single(CampaignVector::FaultStorm {
            onset: 62,
            spacing: 1,
            per_edge: 3,
            stride: 2,
            offset: 1,
        });
        let s = c.compile(&spec(2, 3));
        assert_eq!(s.len(), 2);
        assert_eq!(times(&s), vec![62, 63]);
    }

    #[test]
    fn a_fault_storm_stops_at_the_last_device_whatever_its_per_edge() {
        // `per_edge` near 10¹⁸ passes validation; it must compile as fast
        // as, and to the same schedule as, one fault per device.
        let storm = |per_edge| {
            Campaign::single(CampaignVector::FaultStorm {
                onset: 5,
                spacing: 0,
                per_edge,
                stride: 1,
                offset: 0,
            })
            .compile(&spec(2, 3))
        };
        let huge = storm(1_000_000_000_000_000_000);
        assert_eq!(huge.len(), 6);
        assert_eq!(huge, storm(3));
    }

    #[test]
    fn mobility_and_split_brain_are_noops_on_small_deployments() {
        let burst = Campaign::single(CampaignVector::MobilityBurst {
            onset: 40,
            roamers: 4,
            spacing: 10,
        });
        assert!(burst.compile(&spec(1, 4)).is_empty(), "nowhere to roam");
        let split = Campaign::single(CampaignVector::SplitBrain {
            onset: 80,
            heal: 15,
        });
        assert!(split.compile(&spec(3, 2)).is_empty(), "no halves below 4");
        let s = split.compile(&spec(4, 2));
        match &s.events()[0].disruption {
            Disruption::Partition { groups, heal_after } => {
                assert_eq!(groups.len(), 2);
                assert_eq!(groups[0], vec![ProcessId(1), ProcessId(2)]);
                assert_eq!(groups[1], vec![ProcessId(3), ProcessId(4)]);
                assert_eq!(*heal_after, Some(SimDuration::from_secs(15)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adversary_modes_compile_to_link_disruptions() {
        let sp = spec(3, 2);
        let delay = Campaign::single(CampaignVector::Adversary {
            onset: 20,
            mode: AdversaryMode::Delay,
            factor: 8,
            duration: 16,
            links: 2,
        })
        .compile(&sp);
        assert_eq!(delay.len(), 2, "two attacked uplinks");
        assert!(matches!(
            delay.events()[0].disruption,
            Disruption::LinkDegradation { factor, .. } if (factor - 8.0).abs() < f64::EPSILON
        ));
        let flap = Campaign::single(CampaignVector::Adversary {
            onset: 20,
            mode: AdversaryMode::Flap,
            factor: 4,
            duration: 16,
            links: 1,
        })
        .compile(&sp);
        assert_eq!(flap.len(), 4, "four cut/heal cycles");
        assert_eq!(times(&flap), vec![20, 24, 28, 32]);
        assert!(flap.events().iter().all(|e| matches!(
            e.disruption,
            Disruption::LinkCut {
                heal_after: Some(h),
                ..
            } if h == SimDuration::from_secs(2)
        )));
        let drop = Campaign::single(CampaignVector::Adversary {
            onset: 20,
            mode: AdversaryMode::Drop,
            factor: 2,
            duration: 0,
            links: 9,
        })
        .compile(&sp);
        assert_eq!(drop.len(), 3, "links clamp to the edge count");
        assert!(matches!(
            drop.events()[0].disruption,
            Disruption::LinkCut {
                heal_after: None,
                ..
            }
        ));
    }

    #[test]
    fn vectors_merge_onto_one_timeline_in_time_order() {
        let mut c = Campaign::new();
        c.push(CampaignVector::SplitBrain {
            onset: 80,
            heal: 15,
        });
        c.push(CampaignVector::CloudBlackout {
            onset: 40,
            heal: 25,
        });
        let s = c.compile(&spec(4, 2));
        assert_eq!(times(&s), vec![40, 80], "time order, not campaign order");
        // Equal onsets: vector order is preserved among ties.
        let mut tie = Campaign::new();
        tie.push(CampaignVector::CloudBlackout { onset: 40, heal: 5 });
        tie.push(CampaignVector::JurisdictionFlip { onset: 40, edge: 0 });
        let s = tie.compile(&spec(4, 2));
        assert!(matches!(
            s.events()[0].disruption,
            Disruption::CloudOutage { .. }
        ));
        assert!(matches!(
            s.events()[1].disruption,
            Disruption::DomainTransfer { .. }
        ));
    }

    /// `extent` mirrors `expand`: over one vector of every kind, the
    /// vectors of the first 1 000 case programs (which all validate) and
    /// each of those with every dimension scaled up, on fleets of every
    /// size class, it counts exactly the events `compile` emits, and they
    /// end by the instant it reaches.
    #[test]
    fn extent_counts_what_compile_emits() {
        let space = crate::fuzz::weakened_space();
        let mut vectors = crate::vector::tests::samples();
        for seed in 0..1_000 {
            let p = crate::fuzz::case_program(&space, seed);
            p.validate().expect("case programs validate");
            vectors.extend_from_slice(p.campaign.vectors());
        }
        for i in 0..vectors.len() {
            let mut v = vectors[i];
            for &dim in v.kind().dims {
                v.set(dim, v.get(dim).unwrap_or(0) * 7 + 1);
            }
            vectors.push(v);
        }
        for (edges, dpe) in [(1, 1), (2, 3), (3, 2), (4, 2), (5, 7)] {
            for v in &vectors {
                let (events, reach) = extent(v, edges, dpe).expect("fits the clock");
                let s = Campaign::single(*v).compile(&spec(edges, dpe));
                assert_eq!(events, s.len() as u64, "{v:?} on {edges} × {dpe}");
                assert!(s.last_at() <= Some(SimTime::from_secs(reach)));
            }
        }
    }

    #[test]
    fn campaign_editing_api() {
        let mut c = Campaign::new();
        assert!(c.is_empty());
        c.push(CampaignVector::CloudBlackout {
            onset: 40,
            heal: 25,
        });
        c.push(CampaignVector::JurisdictionFlip { onset: 45, edge: 0 });
        assert_eq!(c.len(), 2);
        let removed = c.remove(0);
        assert!(matches!(removed, CampaignVector::CloudBlackout { .. }));
        assert_eq!(c.len(), 1);
        c.vectors_mut()[0].set(crate::vector::Dim::Onset, 50);
        assert_eq!(c.vectors()[0].onset(), 50);
    }
}
