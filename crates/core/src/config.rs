//! Architecture configuration: how a maturity level becomes a system.
//!
//! [`ArchitectureConfig`] expands a [`MaturityLevel`]'s capability profile
//! (Tables 1 & 2, encoded in `riot-model`) into the concrete switches the
//! node processes consult: where control requests go, where MAPE analysis
//! and planning run, whether edges run the decentralized coordination
//! stack, how data replicates, and which governance posture stores enforce.

use riot_coord::{ControlPattern, ElectionConfig, SwimConfig};
use riot_model::MaturityLevel;
use riot_sim::SimDuration;

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

/// The full configuration of one scenario's architecture.
#[derive(Debug, Clone)]
pub struct ArchitectureConfig {
    /// The maturity level this configuration realizes.
    pub level: MaturityLevel,
    /// Control placement.
    pub control: ControlPlacement,
    /// MAPE placement.
    pub mape: MapePlacement,
    /// Replication mode.
    pub replication: ReplicationMode,
    /// `true` when stores enforce the governed policy posture (ML4);
    /// `false` uses the permissive posture.
    pub governed_data: bool,
    /// `true` when edges run SWIM + election (ML4).
    pub decentralized_coordination: bool,
    /// Device sensing period.
    pub sense_period: SimDuration,
    /// Device control-loop period.
    pub control_period: SimDuration,
    /// Control round-trip deadline before a timeout is counted.
    pub control_deadline: SimDuration,
    /// Consecutive control timeouts before an ML4 device fails over.
    pub failover_after_timeouts: u32,
    /// Consecutive control timeouts before an ML3 device is manually
    /// redirected to the cloud (Table 1: "manual interactions still
    /// needed, but mainly handled remotely" — slow, but it happens).
    pub ml3_fallback_timeouts: u32,
    /// Time an ML4 device stays on a backup edge before re-probing its
    /// primary.
    pub rehome_after: SimDuration,
    /// Data-plane anti-entropy period.
    pub sync_period: SimDuration,
    /// MAPE cycle period.
    pub mape_period: SimDuration,
    /// A component silent for this long is considered failed by MAPE
    /// monitoring.
    pub silence_threshold: SimDuration,
    /// Delay for a restart command to take effect at the device.
    pub restart_delay: SimDuration,
    /// SWIM parameters (ML4).
    pub swim: SwimConfig,
    /// Election parameters (ML4).
    pub election: ElectionConfig,
    /// Coordination tick for SWIM/election/gossip drivers.
    pub coord_tick: SimDuration,
}

impl ArchitectureConfig {
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
        let control = match level {
            MaturityLevel::Ml1 => ControlPlacement::LocalOnly,
            MaturityLevel::Ml2 => ControlPlacement::Cloud,
            MaturityLevel::Ml3 => ControlPlacement::Edge,
            MaturityLevel::Ml4 => ControlPlacement::EdgeWithFailover,
        };
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
            control,
            mape,
            replication,
            governed_data: caps.full_governance,
            decentralized_coordination: caps.decentralized_coordination,
            sense_period: SimDuration::from_millis(1_000),
            control_period: SimDuration::from_millis(500),
            control_deadline: SimDuration::from_millis(250),
            failover_after_timeouts: 2,
            ml3_fallback_timeouts: 12,
            rehome_after: SimDuration::from_secs(10),
            sync_period: SimDuration::from_millis(1_000),
            mape_period: SimDuration::from_millis(1_000),
            silence_threshold: SimDuration::from_millis(3_000),
            restart_delay: SimDuration::from_millis(500),
            swim: SwimConfig::default(),
            election: ElectionConfig::default(),
            coord_tick: SimDuration::from_millis(200),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_map_to_expected_placements() {
        let ml1 = ArchitectureConfig::for_level(MaturityLevel::Ml1);
        assert_eq!(ml1.control, ControlPlacement::LocalOnly);
        assert_eq!(ml1.mape, MapePlacement::None);
        assert_eq!(ml1.replication, ReplicationMode::None);
        assert!(!ml1.governed_data && !ml1.decentralized_coordination);

        let ml2 = ArchitectureConfig::for_level(MaturityLevel::Ml2);
        assert_eq!(ml2.control, ControlPlacement::Cloud);
        assert_eq!(ml2.mape, MapePlacement::Cloud);
        assert_eq!(ml2.replication, ReplicationMode::CloudOnly);

        let ml3 = ArchitectureConfig::for_level(MaturityLevel::Ml3);
        assert_eq!(ml3.control, ControlPlacement::Edge);
        assert_eq!(ml3.mape, MapePlacement::Cloud);
        assert_eq!(ml3.replication, ReplicationMode::EdgeToCloud);

        let ml4 = ArchitectureConfig::for_level(MaturityLevel::Ml4);
        assert_eq!(ml4.control, ControlPlacement::EdgeWithFailover);
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
        let cfg = ArchitectureConfig::for_level(MaturityLevel::Ml4);
        assert!(
            cfg.control_deadline < cfg.control_period,
            "deadline inside the period"
        );
        assert!(cfg.coord_tick <= cfg.swim.probe_period);
        assert!(
            cfg.silence_threshold > cfg.sense_period * 2,
            "tolerate a missed reading"
        );
    }
}
