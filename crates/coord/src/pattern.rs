//! Decentralized self-adaptation control patterns.
//!
//! §V cites the self-adaptive-systems literature on *decentralizing MAPE
//! loops*: "information sharing patterns where each entity self-adapts
//! locally by implementing its own MAPE-K loop, using information from
//! other entities in the system". Of the canonical pattern catalogue
//! (after Weyns et al., "On Patterns for Decentralized Control in
//! Self-Adaptive Systems") this module names the two a maturity level can
//! realize: master/slave (a cloud-placed loop) and regional planning
//! (edge-placed loops).
//!
//! Reports name the pattern each maturity level realizes, and
//! [`ControlPattern::tolerates_coordinator_loss`] is the static answer to
//! "does this control organization survive losing its central element?",
//! which experiments E4 and E6 then confirm dynamically.

use std::fmt;

/// The decentralized-control patterns a maturity level can realize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlPattern {
    /// Local monitoring/execution, central analysis and planning
    /// (master/slave).
    MasterSlave,
    /// Full loops per region; regional planners coordinate peer-to-peer.
    RegionalPlanning,
}

impl ControlPattern {
    /// `true` when no single host loss can disable analysis+planning —
    /// the static resilience answer that E6 confirms dynamically.
    pub fn tolerates_coordinator_loss(self) -> bool {
        match self {
            ControlPattern::MasterSlave => false,
            ControlPattern::RegionalPlanning => true,
        }
    }
}

impl fmt::Display for ControlPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ControlPattern::MasterSlave => "master/slave",
            ControlPattern::RegionalPlanning => "regional planning",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_pinned() {
        assert_eq!(ControlPattern::MasterSlave.to_string(), "master/slave");
        assert_eq!(
            ControlPattern::RegionalPlanning.to_string(),
            "regional planning"
        );
    }

    #[test]
    fn only_centralized_patterns_fail_on_coordinator_loss() {
        assert!(!ControlPattern::MasterSlave.tolerates_coordinator_loss());
        assert!(ControlPattern::RegionalPlanning.tolerates_coordinator_loss());
    }
}
