//! The campaign vector taxonomy: composable disruption *patterns* with
//! timing / intensity / scope parameters.
//!
//! A [`CampaignVector`] is the unit the campaign DSL composes: where a
//! `riot_model::Disruption` is one concrete adverse event against one
//! concrete node, a vector is a *family* of correlated events described by
//! a handful of integer parameters, compiled against a scenario's
//! deterministic node-id layout (see `riot_core::ScenarioSpec`). Every
//! field is a plain scalar, so vectors are `Copy`, comparable, and can be
//! mutated and shrunk dimension-by-dimension through the [`Dim`] lattice
//! without allocation — the mutator and the compiler are declared hot
//! roots in `lint-hotpaths.toml`.
//!
//! A kind is declared once, as a row of [`KINDS`]: its DSL keyword, its
//! parameters, its dimensions and its template. Beside the row, a kind
//! has one arm in each of [`CampaignVector::field`] and `compile.rs`'s
//! `expand` and `extent`.

/// How the adversary interferes with edge↔cloud links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryMode {
    /// Messages still flow but arrive late: latency multiplied by the
    /// vector's `factor` for `duration` seconds.
    Delay,
    /// Messages are dropped: the link is cut for `duration` seconds.
    Drop,
    /// The link flaps `factor` times across `duration` seconds; in-flight
    /// traffic alternates between the direct path and recovery paths with
    /// different latencies, which reorders deliveries.
    Flap,
}

/// The DSL keyword of each [`AdversaryMode`], in the order `generate`
/// draws them.
pub(crate) const MODES: [(&str, AdversaryMode); 3] = [
    ("delay", AdversaryMode::Delay),
    ("drop", AdversaryMode::Drop),
    ("flap", AdversaryMode::Flap),
];

/// One composable disruption pattern. All times are in whole virtual
/// seconds; `onset` is absolute run time, every other time parameter is
/// relative to the onset. A heal/recover value of `0` means *permanent*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignVector {
    /// Cascading correlated infrastructure failure: `count` edge nodes
    /// crash one after another, `spacing` seconds apart, each recovering
    /// after `recover` seconds (0 = never).
    Cascade {
        /// Absolute onset (s).
        onset: u64,
        /// Number of edge crashes (wraps over the edge set).
        count: u64,
        /// Seconds between consecutive crashes.
        spacing: u64,
        /// Per-node recovery delay (s); 0 = permanent.
        recover: u64,
    },
    /// Firmware-update wave: the device fleet reboots in rolling batches
    /// of `batch` devices, one batch every `spacing` seconds, each device
    /// down for `outage` seconds (0 = the update bricks the device).
    FirmwareWave {
        /// Absolute onset (s).
        onset: u64,
        /// Devices rebooted per wave.
        batch: u64,
        /// Seconds between waves.
        spacing: u64,
        /// Per-device downtime (s); 0 = permanent.
        outage: u64,
    },
    /// Component-fault storm: on every edge, the devices at local indices
    /// `offset, offset+stride, …` (`per_edge` of them) lose their software
    /// component, one fault every `spacing` seconds.
    FaultStorm {
        /// Absolute onset (s).
        onset: u64,
        /// Seconds between consecutive faults.
        spacing: u64,
        /// Faulted devices per edge.
        per_edge: u64,
        /// Local-index stride between faulted devices.
        stride: u64,
        /// First faulted local index on each edge.
        offset: u64,
    },
    /// Mobility burst: `roamers` devices roam to the next edge over,
    /// one every `spacing` seconds. No-op below two edges.
    MobilityBurst {
        /// Absolute onset (s).
        onset: u64,
        /// Number of roaming devices (wraps over the fleet).
        roamers: u64,
        /// Seconds between consecutive roams.
        spacing: u64,
    },
    /// Governance change: edge `edge` (modulo the edge count) transfers to
    /// the untrusted vendor domain at the onset.
    JurisdictionFlip {
        /// Absolute onset (s).
        onset: u64,
        /// Index of the transferred edge (wraps over the edge set).
        edge: u64,
    },
    /// Cloud outage: the cloud becomes unreachable at the onset, healing
    /// after `heal` seconds (0 = permanent).
    CloudBlackout {
        /// Absolute onset (s).
        onset: u64,
        /// Healing delay (s); 0 = permanent.
        heal: u64,
    },
    /// Network partition: the edge set splits into two halves at the
    /// onset, healing after `heal` seconds (0 = permanent). No-op below
    /// four edges (a smaller deployment has no meaningful halves).
    SplitBrain {
        /// Absolute onset (s).
        onset: u64,
        /// Healing delay (s); 0 = permanent.
        heal: u64,
    },
    /// Adversarial message interference on the first `links` edge↔cloud
    /// links: delay (latency ×`factor`), drop (cut), or flap (`factor`
    /// cut/heal cycles — reordering in-flight traffic), sustained for
    /// `duration` seconds.
    Adversary {
        /// Absolute onset (s).
        onset: u64,
        /// Interference mode.
        mode: AdversaryMode,
        /// Intensity: latency multiplier (delay) or flap cycles (flap).
        factor: u64,
        /// Seconds the interference lasts.
        duration: u64,
        /// Number of edge uplinks attacked (clamped to the edge count).
        links: u64,
    },
}

/// One mutable/shrinkable dimension of a vector. The lattice the shrinker
/// walks is deliberately coarse: `Onset` shrinks *up* (a later onset is a
/// smaller reproducer — less of the run matters), the intensity dimensions
/// (`Count`, `Factor`, `Links`) shrink *down* toward their minimum, and
/// the remaining dimensions are mutation-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dim {
    /// Absolute onset time (s). Shrink direction: later.
    Onset,
    /// Primary intensity count (crashes, batch size, faults per edge,
    /// roamers). Shrink direction: down, minimum 1.
    Count,
    /// Seconds between sub-events. Mutation-only.
    Spacing,
    /// Heal/recover/outage/duration seconds; 0 = permanent. Mutation-only.
    Heal,
    /// Local-index stride (fault storms). Mutation-only, minimum 1.
    Stride,
    /// Index offset / target selector (fault-storm offset, flipped edge).
    /// Mutation-only.
    Offset,
    /// Secondary intensity (latency multiplier / flap cycles). Shrink
    /// direction: down, minimum 1.
    Factor,
    /// Attacked link count. Shrink direction: down, minimum 1.
    Links,
}

impl Dim {
    /// The smallest meaningful value of this dimension.
    pub(crate) fn floor(self) -> u64 {
        match self {
            Dim::Count | Dim::Factor | Dim::Links | Dim::Stride => 1,
            Dim::Onset | Dim::Spacing | Dim::Heal | Dim::Offset => 0,
        }
    }

    /// `true` for the dimensions the shrinker minimizes.
    pub(crate) fn is_intensity(self) -> bool {
        matches!(self, Dim::Count | Dim::Factor | Dim::Links)
    }
}

/// One vector kind: everything about it but the arithmetic (see the
/// module docs).
pub(crate) struct Kind {
    /// The DSL keyword.
    pub(crate) name: &'static str,
    /// The `key=value` parameters after the implicit `onset`, in render
    /// order.
    pub(crate) keys: &'static [(&'static str, Dim)],
    /// The dimensions, `Onset` first, in the order `generate` draws them
    /// and `mutate_in_place` picks among them. Static per kind, so walking
    /// the lattice never allocates.
    pub(crate) dims: &'static [Dim],
    /// The kind with every dimension at its floor (and the adversary in
    /// `delay` mode): the parser and the generator fill it in.
    pub(crate) template: CampaignVector,
}

/// Every vector kind, in declaration order (the order `generate` draws
/// them). Only the fault storm renders its keys in another order than it
/// draws its dimensions.
#[rustfmt::skip]
pub(crate) static KINDS: [Kind; 8] = {
    use CampaignVector as V;
    use Dim::{Count, Factor, Heal, Links, Offset, Onset, Spacing, Stride};
    [
        Kind {
            name: "cascade",
            keys: &[("count", Count), ("spacing", Spacing), ("recover", Heal)],
            dims: &[Onset, Count, Spacing, Heal],
            template: V::Cascade { onset: 0, count: 1, spacing: 0, recover: 0 },
        },
        Kind {
            name: "firmware-wave",
            keys: &[("batch", Count), ("spacing", Spacing), ("outage", Heal)],
            dims: &[Onset, Count, Spacing, Heal],
            template: V::FirmwareWave { onset: 0, batch: 1, spacing: 0, outage: 0 },
        },
        Kind {
            name: "fault-storm",
            keys: &[
                ("spacing", Spacing), ("per-edge", Count), ("stride", Stride), ("offset", Offset),
            ],
            dims: &[Onset, Count, Spacing, Stride, Offset],
            template: V::FaultStorm { onset: 0, spacing: 0, per_edge: 1, stride: 1, offset: 0 },
        },
        Kind {
            name: "mobility-burst",
            keys: &[("roamers", Count), ("spacing", Spacing)],
            dims: &[Onset, Count, Spacing],
            template: V::MobilityBurst { onset: 0, roamers: 1, spacing: 0 },
        },
        Kind {
            name: "jurisdiction-flip",
            keys: &[("edge", Offset)],
            dims: &[Onset, Offset],
            template: V::JurisdictionFlip { onset: 0, edge: 0 },
        },
        Kind {
            name: "cloud-blackout",
            keys: &[("heal", Heal)],
            dims: &[Onset, Heal],
            template: V::CloudBlackout { onset: 0, heal: 0 },
        },
        Kind {
            name: "split-brain",
            keys: &[("heal", Heal)],
            dims: &[Onset, Heal],
            template: V::SplitBrain { onset: 0, heal: 0 },
        },
        Kind {
            name: "adversary",
            keys: &[("factor", Factor), ("duration", Heal), ("links", Links)],
            dims: &[Onset, Factor, Heal, Links],
            template: V::Adversary {
                onset: 0, mode: AdversaryMode::Delay, factor: 1, duration: 0, links: 1,
            },
        },
    ]
};

impl CampaignVector {
    /// This vector's row of [`KINDS`]: the row whose template is of the
    /// same kind.
    pub(crate) fn kind(&self) -> &'static Kind {
        let same = |k: &&Kind| std::mem::discriminant(&k.template) == std::mem::discriminant(self);
        let [cascade, ..] = &KINDS;
        KINDS.iter().find(same).unwrap_or(cascade)
    }

    /// The field holding one dimension; `None` when this kind does not
    /// carry it.
    fn field(&mut self, dim: Dim) -> Option<&mut u64> {
        use CampaignVector as V;
        Some(match (self, dim) {
            (
                V::Cascade { onset, .. }
                | V::FirmwareWave { onset, .. }
                | V::FaultStorm { onset, .. }
                | V::MobilityBurst { onset, .. }
                | V::JurisdictionFlip { onset, .. }
                | V::CloudBlackout { onset, .. }
                | V::SplitBrain { onset, .. }
                | V::Adversary { onset, .. },
                Dim::Onset,
            ) => onset,
            (
                V::Cascade { count: n, .. }
                | V::FirmwareWave { batch: n, .. }
                | V::FaultStorm { per_edge: n, .. }
                | V::MobilityBurst { roamers: n, .. },
                Dim::Count,
            ) => n,
            (
                V::Cascade { spacing, .. }
                | V::FirmwareWave { spacing, .. }
                | V::FaultStorm { spacing, .. }
                | V::MobilityBurst { spacing, .. },
                Dim::Spacing,
            ) => spacing,
            (
                V::Cascade { recover: h, .. }
                | V::FirmwareWave { outage: h, .. }
                | V::CloudBlackout { heal: h, .. }
                | V::SplitBrain { heal: h, .. }
                | V::Adversary { duration: h, .. },
                Dim::Heal,
            ) => h,
            (V::FaultStorm { stride, .. }, Dim::Stride) => stride,
            (
                V::FaultStorm { offset: i, .. } | V::JurisdictionFlip { edge: i, .. },
                Dim::Offset,
            ) => i,
            (V::Adversary { factor, .. }, Dim::Factor) => factor,
            (V::Adversary { links, .. }, Dim::Links) => links,
            _ => return None,
        })
    }

    /// Reads one dimension; `None` when this kind does not carry it.
    pub(crate) fn get(&self, dim: Dim) -> Option<u64> {
        let mut v = *self;
        v.field(dim).copied()
    }

    /// Writes one dimension, clamping to [`Dim::floor`]. A dimension this
    /// kind does not carry is ignored.
    pub(crate) fn set(&mut self, dim: Dim, value: u64) {
        if let Some(field) = self.field(dim) {
            *field = value.max(dim.floor());
        }
    }

    /// The absolute onset (every kind carries one).
    pub(crate) fn onset(&self) -> u64 {
        self.get(Dim::Onset).unwrap_or(0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::program::{keyword, parse_keyword};

    /// One vector of every kind, in declaration order.
    pub(crate) fn samples() -> Vec<CampaignVector> {
        vec![
            CampaignVector::Cascade {
                onset: 40,
                count: 2,
                spacing: 5,
                recover: 20,
            },
            CampaignVector::FirmwareWave {
                onset: 30,
                batch: 3,
                spacing: 4,
                outage: 6,
            },
            CampaignVector::FaultStorm {
                onset: 62,
                spacing: 1,
                per_edge: 3,
                stride: 2,
                offset: 1,
            },
            CampaignVector::MobilityBurst {
                onset: 40,
                roamers: 4,
                spacing: 10,
            },
            CampaignVector::JurisdictionFlip { onset: 45, edge: 0 },
            CampaignVector::CloudBlackout {
                onset: 40,
                heal: 25,
            },
            CampaignVector::SplitBrain {
                onset: 80,
                heal: 15,
            },
            CampaignVector::Adversary {
                onset: 20,
                mode: AdversaryMode::Flap,
                factor: 4,
                duration: 16,
                links: 2,
            },
        ]
    }

    #[test]
    fn every_kind_exposes_onset_and_round_trips_dims() {
        for (mut v, row) in samples().into_iter().zip(&KINDS) {
            // The lookup finds the vector's own row, and the row is whole:
            // the template is of its kind and at every floor, and the keys
            // are the dimensions after `Onset`, in some order.
            assert!(std::ptr::eq(v.kind(), row) && std::ptr::eq(row.template.kind(), row));
            assert_eq!(row.dims.first(), Some(&Dim::Onset));
            let mut keyed: Vec<Dim> = row.keys.iter().map(|&(_, dim)| dim).collect();
            for &dim in row.dims {
                assert_eq!(row.template.get(dim), Some(dim.floor()), "{}", row.name);
                keyed.retain(|&k| k != dim);
            }
            assert!(keyed.is_empty() && row.keys.len() + 1 == row.dims.len());
            assert_eq!(v.get(Dim::Onset), Some(v.onset()));
            for &dim in row.dims {
                let read = v.get(dim).expect("declared dim must be readable");
                v.set(dim, read + 1);
                assert_eq!(v.get(dim), Some(read + 1), "{}/{dim:?}", row.name);
                v.set(dim, read);
                assert_eq!(v.get(dim), Some(read));
            }
        }
    }

    #[test]
    fn set_clamps_to_dimension_floor() {
        let mut v = CampaignVector::Cascade {
            onset: 40,
            count: 5,
            spacing: 5,
            recover: 20,
        };
        v.set(Dim::Count, 0);
        assert_eq!(v.get(Dim::Count), Some(1), "count floors at 1");
        v.set(Dim::Heal, 0);
        assert_eq!(v.get(Dim::Heal), Some(0), "heal 0 = permanent is legal");
        let mut storm = CampaignVector::FaultStorm {
            onset: 10,
            spacing: 1,
            per_edge: 2,
            stride: 2,
            offset: 1,
        };
        storm.set(Dim::Stride, 0);
        assert_eq!(storm.get(Dim::Stride), Some(1), "stride floors at 1");
    }

    #[test]
    fn undeclared_dims_read_none_and_ignore_writes() {
        let mut v = CampaignVector::CloudBlackout {
            onset: 40,
            heal: 25,
        };
        assert_eq!(v.get(Dim::Links), None);
        v.set(Dim::Links, 9);
        assert_eq!(
            v,
            CampaignVector::CloudBlackout {
                onset: 40,
                heal: 25
            },
            "write to a foreign dim is a no-op"
        );
    }

    #[test]
    fn adversary_mode_names_round_trip() {
        for (name, mode) in MODES {
            assert_eq!(keyword(&MODES, mode), name);
            assert_eq!(parse_keyword(&MODES, name), Some(mode));
        }
        assert_eq!(parse_keyword(&MODES, "jam"), None);
    }

    #[test]
    fn intensity_dims_are_the_shrink_set() {
        assert!(Dim::Count.is_intensity() && Dim::Factor.is_intensity());
        assert!(Dim::Links.is_intensity());
        assert!(!Dim::Onset.is_intensity() && !Dim::Heal.is_intensity());
        assert_eq!(Dim::Count.floor(), 1);
        assert_eq!(Dim::Onset.floor(), 0);
    }
}
