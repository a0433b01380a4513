//! Access control rules.
//!
//! The paper's general rule form is `(requester, resource, action, effect,
//! scope)`; like the paper (§3) we fix the requester and action, take the
//! rule scope to be the node itself (explicit rules, no inheritance), and
//! keep the `(resource, effect)` pair.

use std::fmt;
use xac_xpath::Path;

/// The effect of a rule: grant (`+`) or deny (`−`) access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// Positive rule: the nodes in scope become accessible.
    Allow,
    /// Negative rule: the nodes in scope become inaccessible.
    Deny,
}

impl Effect {
    /// The paper's sign notation.
    pub fn sign(self) -> char {
        match self {
            Effect::Allow => '+',
            Effect::Deny => '-',
        }
    }

    /// The opposite effect.
    pub fn opposite(self) -> Effect {
        match self {
            Effect::Allow => Effect::Deny,
            Effect::Deny => Effect::Allow,
        }
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::Allow => f.write_str("allow"),
            Effect::Deny => f.write_str("deny"),
        }
    }
}

/// An access control rule `R = (resource, effect)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Human-readable identifier (`R1`, `R2`, … in the paper's tables).
    pub id: String,
    /// The XPath expression designating the nodes in scope.
    pub resource: Path,
    /// Grant or deny.
    pub effect: Effect,
}

impl Rule {
    /// Construct a rule; the resource must be an absolute path.
    pub fn new(id: impl Into<String>, resource: Path, effect: Effect) -> Self {
        assert!(resource.absolute, "rule resources are absolute XPath expressions");
        Rule { id: id.into(), resource, effect }
    }

    /// Parse the resource from text.
    pub fn parse(
        id: impl Into<String>,
        resource: &str,
        effect: Effect,
    ) -> crate::error::Result<Self> {
        Ok(Rule::new(id, xac_xpath::parse_absolute(resource)?, effect))
    }

    /// True when this rule is contained in `other` per the paper's §5.1
    /// definition: equal effects and resource containment.
    pub fn contained_in(&self, other: &Rule) -> bool {
        self.effect == other.effect && self.resource.contained_in(&other.resource)
    }

    /// Schema-aware variant of [`Rule::contained_in`]: containment is
    /// tested on documents valid under `schema` (the §8 "schema-aware
    /// optimizations"), catching redundancies the schema-blind test
    /// cannot see.
    pub fn contained_in_with_schema(&self, other: &Rule, schema: &xac_xml::Schema) -> bool {
        self.effect == other.effect
            && xac_xpath::contained_in_with_schema(&self.resource, &other.resource, schema)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.id, self.effect, self.resource)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signs_and_opposites() {
        assert_eq!(Effect::Allow.sign(), '+');
        assert_eq!(Effect::Deny.sign(), '-');
        assert_eq!(Effect::Allow.opposite(), Effect::Deny);
        assert_eq!(Effect::Deny.opposite(), Effect::Allow);
    }

    #[test]
    fn parse_and_display() {
        let r = Rule::parse("R1", "//patient", Effect::Allow).unwrap();
        assert_eq!(r.to_string(), "R1 allow //patient");
        assert!(Rule::parse("R2", "relative/path", Effect::Deny).is_err());
        assert!(Rule::parse("R3", "//bad[", Effect::Deny).is_err());
    }

    #[test]
    fn rule_containment_requires_same_effect() {
        let narrow = Rule::parse("a", "//patient[treatment]", Effect::Allow).unwrap();
        let broad = Rule::parse("b", "//patient", Effect::Allow).unwrap();
        let broad_deny = Rule::parse("c", "//patient", Effect::Deny).unwrap();
        assert!(narrow.contained_in(&broad));
        assert!(!broad.contained_in(&narrow));
        assert!(!narrow.contained_in(&broad_deny), "opposite effects never contain");
    }
}
