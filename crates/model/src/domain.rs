//! Administrative domains, jurisdictions and trust.
//!
//! The paper repeatedly singles out "deployment in adverse environments and
//! administrative domains" and "different legal jurisdictions" (§I, §VI) as
//! what makes IoT unlike classical distributed systems. This module models
//! domains as first-class entities with a legal jurisdiction and a mutual
//! trust relation; the *domain transfer* change event (a device changing
//! hands at runtime) is a [`crate::Disruption`].

use std::collections::BTreeMap;
use std::fmt;

/// Identifies an administrative domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Legal/regulatory frameworks a domain may fall under (the paper names the
/// EU GDPR and the California CCPA explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Jurisdiction {
    /// European Union — GDPR.
    EuGdpr,
    /// California — CCPA.
    UsCcpa,
    /// Any other framework.
    Other,
}

impl Jurisdiction {
    /// `true` when data may move between the two jurisdictions without an
    /// explicit adequacy mechanism. Same jurisdiction always flows; the
    /// GDPR↔CCPA pair requires explicit policy (modeled as `false` here and
    /// overridable by governance rules in `riot-data`).
    pub fn data_flows_freely_to(self, other: Jurisdiction) -> bool {
        self == other
    }
}

/// How much one principal trusts another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrustLevel {
    /// No trust: assume adversarial.
    Untrusted,
    /// Contractual partner: limited trust.
    Partner,
    /// Same organization: full trust.
    Trusted,
}

/// An administrative domain: an ownership and legal scope for devices,
/// components and data.
#[derive(Debug, Clone, PartialEq)]
pub struct Domain {
    /// Identity.
    pub id: DomainId,
    /// Human-readable name.
    pub name: String,
    /// Legal framework the domain operates under.
    pub jurisdiction: Jurisdiction,
}

/// The registry of domains plus the pairwise trust relation.
///
/// # Examples
///
/// ```
/// use riot_model::{Domain, DomainId, DomainRegistry, Jurisdiction, TrustLevel};
///
/// let mut reg = DomainRegistry::new();
/// let city = reg.register(Domain {
///     id: DomainId(0),
///     name: "city".into(),
///     jurisdiction: Jurisdiction::EuGdpr,
/// });
/// let vendor = reg.register(Domain {
///     id: DomainId(1),
///     name: "vendor".into(),
///     jurisdiction: Jurisdiction::UsCcpa,
/// });
/// reg.set_trust(city, vendor, TrustLevel::Partner);
/// assert_eq!(reg.trust(city, vendor), TrustLevel::Partner);
/// assert_eq!(reg.trust(vendor, city), TrustLevel::Partner);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DomainRegistry {
    domains: BTreeMap<DomainId, Domain>,
    /// Symmetric trust relation keyed by ordered pair.
    trust: BTreeMap<(DomainId, DomainId), TrustLevel>,
}

impl DomainRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DomainRegistry::default()
    }

    /// Registers a domain, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered.
    pub fn register(&mut self, domain: Domain) -> DomainId {
        let id = domain.id;
        let prev = self.domains.insert(id, domain);
        assert!(prev.is_none(), "domain {id} registered twice");
        id
    }

    /// Looks up a domain.
    pub fn get(&self, id: DomainId) -> Option<&Domain> {
        self.domains.get(&id)
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// `true` when no domain is registered.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Iterates over all domains in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values()
    }

    fn pair(a: DomainId, b: DomainId) -> (DomainId, DomainId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Sets the symmetric trust level between two domains.
    pub fn set_trust(&mut self, a: DomainId, b: DomainId, level: TrustLevel) {
        self.trust.insert(Self::pair(a, b), level);
    }

    /// The trust level between two domains. A domain fully trusts itself;
    /// unrelated domains default to [`TrustLevel::Untrusted`].
    pub fn trust(&self, a: DomainId, b: DomainId) -> TrustLevel {
        if a == b {
            return TrustLevel::Trusted;
        }
        self.trust
            .get(&Self::pair(a, b))
            .copied()
            .unwrap_or(TrustLevel::Untrusted)
    }

    /// `true` when data may flow from `src` to `dst` under jurisdiction
    /// rules alone (governance policies refine this in `riot-data`).
    pub fn jurisdiction_allows_flow(&self, src: DomainId, dst: DomainId) -> bool {
        match (self.get(src), self.get(dst)) {
            (Some(s), Some(d)) => s.jurisdiction.data_flows_freely_to(d.jurisdiction),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_domains() -> (DomainRegistry, DomainId, DomainId) {
        let mut reg = DomainRegistry::new();
        let a = reg.register(Domain {
            id: DomainId(0),
            name: "a".into(),
            jurisdiction: Jurisdiction::EuGdpr,
        });
        let b = reg.register(Domain {
            id: DomainId(1),
            name: "b".into(),
            jurisdiction: Jurisdiction::UsCcpa,
        });
        (reg, a, b)
    }

    #[test]
    fn self_trust_is_full() {
        let (reg, a, _) = two_domains();
        assert_eq!(reg.trust(a, a), TrustLevel::Trusted);
    }

    #[test]
    fn default_trust_is_untrusted_and_symmetric_when_set() {
        let (mut reg, a, b) = two_domains();
        assert_eq!(reg.trust(a, b), TrustLevel::Untrusted);
        reg.set_trust(b, a, TrustLevel::Partner);
        assert_eq!(reg.trust(a, b), TrustLevel::Partner);
        assert_eq!(reg.trust(b, a), TrustLevel::Partner);
    }

    #[test]
    fn jurisdiction_flow_rules() {
        let (mut reg, a, b) = two_domains();
        let c = reg.register(Domain {
            id: DomainId(2),
            name: "c".into(),
            jurisdiction: Jurisdiction::EuGdpr,
        });
        assert!(reg.jurisdiction_allows_flow(a, c), "GDPR to GDPR flows");
        assert!(
            !reg.jurisdiction_allows_flow(a, b),
            "GDPR to CCPA needs policy"
        );
        assert!(
            !reg.jurisdiction_allows_flow(a, DomainId(99)),
            "unknown domain blocks"
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = DomainRegistry::new();
        let d = Domain {
            id: DomainId(0),
            name: "x".into(),
            jurisdiction: Jurisdiction::Other,
        };
        reg.register(d.clone());
        reg.register(d);
    }

    #[test]
    fn registry_iteration_in_id_order() {
        let (reg, a, b) = two_domains();
        let ids: Vec<DomainId> = reg.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![a, b]);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }
}
