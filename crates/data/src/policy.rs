//! Governance policies: who may see what, where.
//!
//! §VI of the paper: "each component must have control of its own data out-
//! or in-flow privacy policies (e.g. that govern data synchronizations)".
//! A [`PolicyEngine`] is an ordered list of [`PolicyRule`]s evaluated
//! first-match against a flow context ([`FlowContext`]: datum metadata +
//! source and destination domains with their jurisdictions and trust). The
//! engine is enforced at *egress and ingress* of every store
//! synchronization, and the default verdict is configurable — `Deny` for
//! the paper's ML4 posture, `Allow` to model ungoverned legacy systems.

use crate::item::{DataMeta, Purpose, Sensitivity};
use riot_model::{DomainId, DomainRegistry, TrustLevel};

/// What a matching rule does with the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Let the datum flow unchanged.
    Allow,
    /// Block the flow entirely.
    Deny,
    /// Let a redacted copy flow (value blanked, declassified).
    Redact,
}

/// The context of one candidate flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowContext<'a> {
    /// The datum's governance label.
    pub meta: &'a DataMeta,
    /// Domain of the sending component.
    pub from: DomainId,
    /// Domain of the receiving component.
    pub to: DomainId,
}

/// A single match-then-act rule.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRule {
    /// Human-readable name for audit trails.
    pub name: String,
    /// Matches data at least this sensitive (`None` = any).
    pub min_sensitivity: Option<Sensitivity>,
    /// Matches flows whose destination trust is at most this (`None` = any).
    pub max_dest_trust: Option<TrustLevel>,
    /// Matches only cross-jurisdiction flows when `true`.
    pub cross_jurisdiction_only: bool,
    /// Matches only flows leaving the datum's origin domain when `true`.
    pub leaving_origin_only: bool,
    /// Matches data collected for one of these purposes (`None` = any).
    pub purposes: Option<Vec<Purpose>>,
    /// What to do on match.
    pub action: PolicyAction,
}

impl PolicyRule {
    /// The GDPR-style core rule: personal data must not leave its origin
    /// domain towards less-than-trusted destinations.
    pub fn gdpr_personal_data(action: PolicyAction) -> Self {
        PolicyRule {
            name: "personal-data-stays-in-scope".into(),
            min_sensitivity: Some(Sensitivity::Personal),
            max_dest_trust: Some(TrustLevel::Partner),
            cross_jurisdiction_only: false,
            leaving_origin_only: true,
            purposes: None,
            action,
        }
    }

    fn matches(&self, ctx: &FlowContext<'_>, registry: &DomainRegistry) -> bool {
        if let Some(min) = self.min_sensitivity {
            if ctx.meta.sensitivity < min {
                return false;
            }
        }
        if let Some(max) = self.max_dest_trust {
            // Trust between the datum's origin and the destination domain.
            if registry.trust(ctx.meta.origin, ctx.to) > max {
                return false;
            }
        }
        if self.cross_jurisdiction_only && registry.jurisdiction_allows_flow(ctx.from, ctx.to) {
            return false;
        }
        if self.leaving_origin_only && ctx.to == ctx.meta.origin {
            return false;
        }
        if let Some(purposes) = &self.purposes {
            if !purposes.iter().any(|p| ctx.meta.allows_purpose(*p)) {
                return false;
            }
        }
        true
    }
}

/// An ordered, first-match policy engine.
///
/// # Examples
///
/// ```
/// use riot_data::{DataMeta, FlowContext, PolicyAction, PolicyEngine, PolicyRule};
/// use riot_model::{Domain, DomainId, DomainRegistry, Jurisdiction};
/// use riot_sim::SimTime;
///
/// let mut reg = DomainRegistry::new();
/// reg.register(Domain { id: DomainId(0), name: "hospital".into(), jurisdiction: Jurisdiction::EuGdpr });
/// reg.register(Domain { id: DomainId(1), name: "vendor".into(), jurisdiction: Jurisdiction::UsCcpa });
///
/// let engine = PolicyEngine::new(
///     vec![PolicyRule::gdpr_personal_data(PolicyAction::Deny)],
///     PolicyAction::Allow,
/// );
/// let meta = DataMeta::personal(DomainId(0), SimTime::ZERO);
/// let ctx = FlowContext { meta: &meta, from: DomainId(0), to: DomainId(1) };
/// assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Deny);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEngine {
    rules: Vec<PolicyRule>,
    default_action: PolicyAction,
}

impl PolicyEngine {
    /// Creates an engine with ordered rules and a default action.
    pub fn new(rules: Vec<PolicyRule>, default_action: PolicyAction) -> Self {
        PolicyEngine {
            rules,
            default_action,
        }
    }

    /// The ungoverned engine: everything flows (the ML1/ML2 posture).
    pub fn permissive() -> Self {
        PolicyEngine::new(Vec::new(), PolicyAction::Allow)
    }

    /// The paper's ML4 posture: personal data is denied egress beyond its
    /// scope, special-category data is always redacted when leaving its
    /// origin, everything else flows.
    pub fn governed() -> Self {
        PolicyEngine::new(
            vec![
                PolicyRule {
                    name: "special-category-redacted-outside-origin".into(),
                    min_sensitivity: Some(Sensitivity::Special),
                    max_dest_trust: None,
                    cross_jurisdiction_only: false,
                    leaving_origin_only: true,
                    purposes: None,
                    action: PolicyAction::Redact,
                },
                PolicyRule::gdpr_personal_data(PolicyAction::Deny),
                PolicyRule {
                    name: "internal-data-not-to-untrusted".into(),
                    min_sensitivity: Some(Sensitivity::Internal),
                    max_dest_trust: Some(TrustLevel::Untrusted),
                    cross_jurisdiction_only: false,
                    leaving_origin_only: true,
                    purposes: None,
                    action: PolicyAction::Deny,
                },
            ],
            PolicyAction::Allow,
        )
    }

    /// Decides a flow: returns the action and the name of the matched rule
    /// (`"default"` when no rule matched).
    pub fn decide(&self, ctx: &FlowContext<'_>, registry: &DomainRegistry) -> (PolicyAction, &str) {
        for rule in &self.rules {
            if rule.matches(ctx, registry) {
                return (rule.action, &rule.name);
            }
        }
        (self.default_action, "default")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::PurposeSet;
    use riot_model::{Domain, Jurisdiction};
    use riot_sim::SimTime;

    fn registry() -> DomainRegistry {
        let mut reg = DomainRegistry::new();
        reg.register(Domain {
            id: DomainId(0),
            name: "city".into(),
            jurisdiction: Jurisdiction::EuGdpr,
        });
        reg.register(Domain {
            id: DomainId(1),
            name: "hospital".into(),
            jurisdiction: Jurisdiction::EuGdpr,
        });
        reg.register(Domain {
            id: DomainId(2),
            name: "vendor".into(),
            jurisdiction: Jurisdiction::UsCcpa,
        });
        reg.set_trust(DomainId(0), DomainId(1), TrustLevel::Trusted);
        reg.set_trust(DomainId(0), DomainId(2), TrustLevel::Untrusted);
        reg
    }

    #[test]
    fn permissive_allows_everything() {
        let reg = registry();
        let engine = PolicyEngine::permissive();
        let meta = DataMeta {
            sensitivity: Sensitivity::Special,
            purposes: PurposeSet::EMPTY,
            origin: DomainId(1),
            produced_at: SimTime::ZERO,
        };
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(1),
            to: DomainId(2),
        };
        assert_eq!(engine.decide(&ctx, &reg), (PolicyAction::Allow, "default"));
    }

    #[test]
    fn governed_denies_personal_egress_to_untrusted() {
        let reg = registry();
        let engine = PolicyEngine::governed();
        let meta = DataMeta::personal(DomainId(0), SimTime::ZERO);
        // To an untrusted domain: denied.
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(2),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Deny);
        // Within the origin domain: allowed.
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(0),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Allow);
        // To a *trusted* domain: the GDPR rule requires dest trust <=
        // Partner, and city↔hospital is Trusted, so it does not match.
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(1),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Allow);
    }

    #[test]
    fn governed_redacts_special_category() {
        let reg = registry();
        let engine = PolicyEngine::governed();
        let meta = DataMeta {
            sensitivity: Sensitivity::Special,
            purposes: PurposeSet::only(Purpose::Operations),
            origin: DomainId(1),
            produced_at: SimTime::ZERO,
        };
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(1),
            to: DomainId(0),
        };
        let (action, rule) = engine.decide(&ctx, &reg);
        assert_eq!(action, PolicyAction::Redact);
        assert_eq!(rule, "special-category-redacted-outside-origin");
    }

    #[test]
    fn governed_allows_operational_data_between_trusted() {
        let reg = registry();
        let engine = PolicyEngine::governed();
        let meta = DataMeta::operational(DomainId(0), SimTime::ZERO);
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(1),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Allow);
        // But internal data to an untrusted destination is denied.
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(2),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Deny);
    }

    /// A rule matching every flow, allowing it.
    fn allow_all() -> PolicyRule {
        PolicyRule {
            name: "allow-all".into(),
            min_sensitivity: None,
            max_dest_trust: None,
            cross_jurisdiction_only: false,
            leaving_origin_only: false,
            purposes: None,
            action: PolicyAction::Allow,
        }
    }

    #[test]
    fn rule_order_matters() {
        let reg = registry();
        let meta = DataMeta::personal(DomainId(0), SimTime::ZERO);
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(2),
        };
        let allow_first = PolicyEngine::new(
            vec![
                allow_all(),
                PolicyRule::gdpr_personal_data(PolicyAction::Deny),
            ],
            PolicyAction::Deny,
        );
        assert_eq!(
            allow_first.decide(&ctx, &reg),
            (PolicyAction::Allow, "allow-all")
        );
        let deny_first = PolicyEngine::new(
            vec![
                PolicyRule::gdpr_personal_data(PolicyAction::Deny),
                allow_all(),
            ],
            PolicyAction::Allow,
        );
        assert_eq!(deny_first.decide(&ctx, &reg).0, PolicyAction::Deny);
    }

    #[test]
    fn purpose_restricted_rule() {
        let reg = registry();
        let rule = PolicyRule {
            name: "no-marketing-use".into(),
            min_sensitivity: None,
            max_dest_trust: None,
            cross_jurisdiction_only: false,
            leaving_origin_only: false,
            purposes: Some(vec![Purpose::Marketing]),
            action: PolicyAction::Deny,
        };
        let engine = PolicyEngine::new(vec![rule], PolicyAction::Allow);
        let mut meta = DataMeta::operational(DomainId(0), SimTime::ZERO);
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(1),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Allow);
        meta.purposes.insert(Purpose::Marketing);
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(1),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Deny);
    }

    #[test]
    fn cross_jurisdiction_rule() {
        let reg = registry();
        let rule = PolicyRule {
            name: "no-cross-jurisdiction".into(),
            min_sensitivity: None,
            max_dest_trust: None,
            cross_jurisdiction_only: true,
            leaving_origin_only: false,
            purposes: None,
            action: PolicyAction::Deny,
        };
        let engine = PolicyEngine::new(vec![rule], PolicyAction::Allow);
        let meta = DataMeta::operational(DomainId(0), SimTime::ZERO);
        // GDPR→GDPR: allowed.
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(1),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Allow);
        // GDPR→CCPA: denied.
        let ctx = FlowContext {
            meta: &meta,
            from: DomainId(0),
            to: DomainId(2),
        };
        assert_eq!(engine.decide(&ctx, &reg).0, PolicyAction::Deny);
    }
}
