//! Architecture configuration: how a maturity level becomes a system.
//!
//! [`ArchitectureConfig`] expands a [`MaturityLevel`]'s capability profile
//! (Tables 1 & 2, encoded in `riot-model`) into the concrete switches the
//! node processes consult: where control requests go, where MAPE analysis
//! and planning run, whether edges run the decentralized coordination
//! stack, how data replicates, and which governance posture stores enforce.
//! The timings no architecture varies are the constants below.

use riot_coord::ControlPattern;
use riot_model::MaturityLevel;
use riot_sim::SimDuration;

/// Device sensing period.
pub(crate) const SENSE_PERIOD: SimDuration = SimDuration::from_millis(1_000);
/// Device control-loop period.
pub(crate) const CONTROL_PERIOD: SimDuration = SimDuration::from_millis(500);
/// Control round-trip deadline before a timeout is counted.
pub(crate) const CONTROL_DEADLINE: SimDuration = SimDuration::from_millis(250);
/// Consecutive control timeouts before an ML4 device fails over.
pub(crate) const FAILOVER_AFTER_TIMEOUTS: u32 = 2;
/// Consecutive control timeouts before an ML3 device is manually
/// redirected to the cloud (Table 1: "manual interactions still needed,
/// but mainly handled remotely" — slow, but it happens).
pub(crate) const ML3_FALLBACK_TIMEOUTS: u32 = 12;
/// Time an ML4 device stays on a backup edge before re-probing its
/// primary.
pub(crate) const REHOME_AFTER: SimDuration = SimDuration::from_secs(10);
/// MAPE cycle period.
pub(crate) const MAPE_PERIOD: SimDuration = SimDuration::from_millis(1_000);
/// A component silent for this long is considered failed by MAPE
/// monitoring; also how long a restart command is given to act before it
/// is repeated.
pub(crate) const SILENCE_THRESHOLD: SimDuration = SimDuration::from_millis(3_000);
/// Delay for a restart command to take effect at the device.
pub(crate) const RESTART_DELAY: SimDuration = SimDuration::from_millis(500);
/// Period on which the edges step SWIM and election.
pub(crate) const COORD_TICK: SimDuration = SimDuration::from_millis(200);

/// Where a device's control requests are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPlacement {
    /// No remote controller: the device decides locally with its bundled
    /// logic (ML1 silos).
    LocalOnly,
    /// The cloud decides (ML2).
    Cloud,
    /// The primary edge decides (ML3).
    Edge,
    /// The primary edge decides, with device-side failover to backup edges
    /// (ML4).
    EdgeWithFailover,
}

/// Where the MAPE loop (analysis + planning) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapePlacement {
    /// No self-adaptation (ML1).
    None,
    /// Cloud-hosted loop (ML2, ML3).
    Cloud,
    /// Edge-hosted loops, one per edge scope (ML4).
    Edge,
}

/// Which stores a node's data plane synchronizes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// No replication: data stays on the device (ML1).
    None,
    /// Devices push to the cloud store only (ML2).
    CloudOnly,
    /// Edge stores sync with the cloud (ML3).
    EdgeToCloud,
    /// Edge stores sync with the cloud and with peer edges (ML4).
    EdgeMesh,
}

/// The switches of one scenario's architecture.
#[derive(Debug, Clone)]
pub struct ArchitectureConfig {
    /// The maturity level this configuration realizes; it also places
    /// control (see [`ArchitectureConfig::control`]).
    pub level: MaturityLevel,
    /// MAPE placement.
    pub mape: MapePlacement,
    /// Replication mode.
    pub replication: ReplicationMode,
    /// `true` when stores enforce the governed policy posture (ML4);
    /// `false` uses the permissive posture.
    pub governed_data: bool,
    /// `true` when edges run SWIM + election (ML4).
    pub decentralized_coordination: bool,
    /// Data-plane anti-entropy period.
    pub sync_period: SimDuration,
}

impl ArchitectureConfig {
    /// Where devices' control requests are served: fixed by the level.
    pub fn control(&self) -> ControlPlacement {
        match self.level {
            MaturityLevel::Ml1 => ControlPlacement::LocalOnly,
            MaturityLevel::Ml2 => ControlPlacement::Cloud,
            MaturityLevel::Ml3 => ControlPlacement::Edge,
            MaturityLevel::Ml4 => ControlPlacement::EdgeWithFailover,
        }
    }

    /// The decentralized-control pattern this architecture realizes (see
    /// [`riot_coord::ControlPattern`]), or `None` when no self-adaptation
    /// runs at all (ML1).
    pub fn control_pattern(&self) -> Option<ControlPattern> {
        match self.mape {
            MapePlacement::None => None,
            // Devices monitor and execute; one central loop analyzes and
            // plans: the master/slave pattern.
            MapePlacement::Cloud => Some(ControlPattern::MasterSlave),
            // Full per-edge loops coordinating via SWIM/election: regional
            // planning.
            MapePlacement::Edge => Some(ControlPattern::RegionalPlanning),
        }
    }

    /// The canonical configuration for a maturity level.
    pub fn for_level(level: MaturityLevel) -> Self {
        let caps = level.capabilities();
        let mape = if !caps.self_adaptation {
            MapePlacement::None
        } else if caps.adaptation_at_edge {
            MapePlacement::Edge
        } else {
            MapePlacement::Cloud
        };
        let replication = match level {
            MaturityLevel::Ml1 => ReplicationMode::None,
            MaturityLevel::Ml2 => ReplicationMode::CloudOnly,
            MaturityLevel::Ml3 => ReplicationMode::EdgeToCloud,
            MaturityLevel::Ml4 => ReplicationMode::EdgeMesh,
        };
        ArchitectureConfig {
            level,
            mape,
            replication,
            governed_data: caps.full_governance,
            decentralized_coordination: caps.decentralized_coordination,
            sync_period: SimDuration::from_millis(1_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_map_to_expected_placements() {
        let ml1 = ArchitectureConfig::for_level(MaturityLevel::Ml1);
        assert_eq!(ml1.control(), ControlPlacement::LocalOnly);
        assert_eq!(ml1.mape, MapePlacement::None);
        assert_eq!(ml1.replication, ReplicationMode::None);
        assert!(!ml1.governed_data && !ml1.decentralized_coordination);

        let ml2 = ArchitectureConfig::for_level(MaturityLevel::Ml2);
        assert_eq!(ml2.control(), ControlPlacement::Cloud);
        assert_eq!(ml2.mape, MapePlacement::Cloud);
        assert_eq!(ml2.replication, ReplicationMode::CloudOnly);

        let ml3 = ArchitectureConfig::for_level(MaturityLevel::Ml3);
        assert_eq!(ml3.control(), ControlPlacement::Edge);
        assert_eq!(ml3.mape, MapePlacement::Cloud);
        assert_eq!(ml3.replication, ReplicationMode::EdgeToCloud);

        let ml4 = ArchitectureConfig::for_level(MaturityLevel::Ml4);
        assert_eq!(ml4.control(), ControlPlacement::EdgeWithFailover);
        assert_eq!(ml4.mape, MapePlacement::Edge);
        assert_eq!(ml4.replication, ReplicationMode::EdgeMesh);
        assert!(ml4.governed_data && ml4.decentralized_coordination);
    }

    #[test]
    fn control_patterns_match_the_catalogue() {
        use riot_coord::ControlPattern;
        assert_eq!(
            ArchitectureConfig::for_level(MaturityLevel::Ml1).control_pattern(),
            None
        );
        assert_eq!(
            ArchitectureConfig::for_level(MaturityLevel::Ml2).control_pattern(),
            Some(ControlPattern::MasterSlave)
        );
        assert_eq!(
            ArchitectureConfig::for_level(MaturityLevel::Ml4).control_pattern(),
            Some(ControlPattern::RegionalPlanning)
        );
        // The static answer matches what E6 measures dynamically: only the
        // edge-placed (regional) pattern tolerates coordinator loss.
        assert!(!ControlPattern::MasterSlave.tolerates_coordinator_loss());
        assert!(ControlPattern::RegionalPlanning.tolerates_coordinator_loss());
    }

    #[test]
    fn timing_defaults_are_consistent() {
        assert!(
            CONTROL_DEADLINE < CONTROL_PERIOD,
            "deadline inside the period"
        );
        let swim = riot_coord::SwimConfig::default();
        assert!(COORD_TICK <= swim.probe_period);
        assert!(
            COORD_TICK < swim.probe_timeout,
            "`Swim::tick` runs finer than the probe timeout"
        );
        assert!(
            SILENCE_THRESHOLD > SENSE_PERIOD * 2,
            "tolerate a missed reading"
        );
    }
}
