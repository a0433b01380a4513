//! The rule-level analysis graph the incremental engine re-verifies on.
//!
//! Each verifier pass depends on a bounded slice of the policy: D1 on a
//! single rule and the schema, D2/D3 on a rule's *overlap region* — the
//! connected component of live rules linked by opposite-effect
//! containment or non-disjointness — and D4/D5 on the whole policy.
//! [`AnalysisGraph`] materializes exactly that structure: FNV-1a
//! fingerprints for every rule, the policy header and the schema, plus
//! the overlap edges among live rules. After a single-rule edit, every
//! region whose [`AnalysisGraph::region_fp`] is unchanged is guaranteed
//! to re-produce its previous D2/D3 findings, so the incremental engine
//! answers those passes from cache and re-runs only the edited rule's
//! region.
//!
//! The edge relation is deliberately a superset of both passes' needs:
//! D2's shadow winner *contains* the shadowed rule (containment ⇒ edge)
//! and every reported D3 pair is containment-related or
//! not-provably-disjoint (⇔ edge). Rules outside a region can therefore
//! never influence its findings.

use std::collections::BTreeSet;
use xac_obs::{fnv1a, FNV_OFFSET};
use xac_policy::Policy;
use xac_xml::Schema;
use xac_xpath::ContainmentOracle;

/// Fingerprint of one value from scratch.
fn fp(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// The dependency structure of one verifier run: fingerprints plus the
/// overlap edges among live rules.
pub struct AnalysisGraph {
    /// Per-rule fingerprint over `id|effect|resource`, indexed like
    /// `policy.rules`.
    rule_fps: Vec<u64>,
    /// Fingerprint of `(default, conflict)` — the Table 2 row.
    header_fp: u64,
    /// Fingerprint of the schema (0 without one).
    schema_fp: u64,
    /// D1 verdict per rule; dead rules take part in no edges.
    dead: Vec<bool>,
    /// Overlap adjacency among live opposite-effect rules.
    adj: Vec<Vec<usize>>,
}

impl AnalysisGraph {
    /// Build the graph. `dead` carries the D1 verdicts (empty without a
    /// schema); `oracle` answers the pairwise containment and
    /// disjointness questions — schema-aware exactly when it holds one,
    /// memoized across rebuilds when the caller keeps it alive.
    pub fn build(
        policy: &Policy,
        schema: Option<&Schema>,
        oracle: &ContainmentOracle,
        dead: &BTreeSet<usize>,
    ) -> AnalysisGraph {
        let rule_fps = policy
            .rules
            .iter()
            .map(|r| {
                let h = fp(r.id.as_bytes());
                let h = fnv1a(h, b"|");
                let h = fnv1a(h, r.effect.to_string().as_bytes());
                let h = fnv1a(h, b"|");
                fnv1a(h, r.resource.to_string().as_bytes())
            })
            .collect::<Vec<u64>>();
        let header_fp = fp(&[
            policy.default_semantics.sign() as u8,
            policy.conflict_resolution.sign() as u8,
        ]);
        let schema_fp = schema.map_or(0, |s| fp(s.to_dtd_string().as_bytes()));

        let n = policy.rules.len();
        let dead_bits: Vec<bool> = (0..n).map(|i| dead.contains(&i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            if dead_bits[i] {
                continue;
            }
            for j in (i + 1)..n {
                if dead_bits[j] {
                    continue;
                }
                let (a, b) = (&policy.rules[i], &policy.rules[j]);
                if a.effect == b.effect {
                    continue;
                }
                let related = oracle.contained_in_schema_aware(&a.resource, &b.resource)
                    || oracle.contained_in_schema_aware(&b.resource, &a.resource)
                    || !oracle.disjoint_schema_aware(&a.resource, &b.resource);
                if related {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        AnalysisGraph { rule_fps, header_fp, schema_fp, dead: dead_bits, adj }
    }

    /// The fingerprint of rule `i`.
    pub fn rule_fp(&self, i: usize) -> u64 {
        self.rule_fps[i]
    }

    /// Whether rule `i` is D1-dead.
    pub fn is_dead(&self, i: usize) -> bool {
        self.dead[i]
    }

    /// Rule `i`'s overlap region: the connected component containing
    /// `i`, in ascending index order (so iterating a region visits
    /// rules in policy order). A dead or isolated rule's region is
    /// `{i}` itself.
    pub fn region(&self, i: usize) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        seen.insert(i);
        let mut stack = vec![i];
        while let Some(r) = stack.pop() {
            for &nbr in &self.adj[r] {
                if seen.insert(nbr) {
                    stack.push(nbr);
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Fingerprint of rule `i`'s region: the member fingerprints in
    /// index order, chained with the policy header and the schema.
    /// Everything D2/D3 can observe about the region — ids, effects,
    /// resources, relative rule order, the Table 2 row, the schema —
    /// is covered, so an unchanged `region_fp` proves the region's
    /// findings are unchanged. (Deadness needs no extra bits: it is a
    /// function of `(resource, schema)`, both already hashed.)
    pub fn region_fp(&self, i: usize) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &self.header_fp.to_le_bytes());
        h = fnv1a(h, &self.schema_fp.to_le_bytes());
        for member in self.region(i) {
            h = fnv1a(h, &self.rule_fps[member].to_le_bytes());
        }
        h
    }

    /// Fingerprint of the whole policy under this schema: all rule
    /// fingerprints in order plus header and schema. Keys the passes
    /// with policy-global scope (D4, D5).
    pub fn policy_fp(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &self.header_fp.to_le_bytes());
        h = fnv1a(h, &self.schema_fp.to_le_bytes());
        for &rf in &self.rule_fps {
            h = fnv1a(h, &rf.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xac_xml::parse_dtd;

    fn hospital_schema() -> Schema {
        parse_dtd(include_str!("../../../data/hospital.dtd")).unwrap()
    }

    fn graph(src: &str, schema: Option<&Schema>) -> (Policy, AnalysisGraph) {
        let policy = Policy::parse(src).unwrap();
        let oracle = match schema {
            Some(s) => ContainmentOracle::with_schema(s.clone()),
            None => ContainmentOracle::new(),
        };
        let dead = BTreeSet::new();
        let g = AnalysisGraph::build(&policy, schema, &oracle, &dead);
        (policy, g)
    }

    #[test]
    fn regions_partition_by_overlap() {
        // R1/R2 overlap (containment); R3/R4 overlap (shared scope);
        // the two components never meet; R5 is isolated (same effect
        // as nothing it overlaps).
        let (_, g) = graph(
            "default deny\nconflict deny-overrides\n\
             R1 allow //patient\nR2 deny //patient[treatment]\n\
             R3 allow //nurse\nR4 deny //nurse[phone]\n\
             R5 allow //doctor\n",
            None,
        );
        assert_eq!(g.region(0), vec![0, 1]);
        assert_eq!(g.region(1), vec![0, 1]);
        assert_eq!(g.region(2), vec![2, 3]);
        assert_eq!(g.region(4), vec![4]);
    }

    #[test]
    fn region_fp_is_stable_under_unrelated_edits() {
        let before = graph(
            "default deny\nconflict deny-overrides\n\
             R1 allow //patient\nR2 deny //patient[treatment]\nR3 allow //nurse\n",
            None,
        );
        let after = graph(
            "default deny\nconflict deny-overrides\n\
             R1 allow //patient\nR2 deny //patient[treatment]\nR3 allow //doctor\n",
            None,
        );
        // Editing R3 leaves the R1/R2 region fingerprint intact …
        assert_eq!(before.1.region_fp(0), after.1.region_fp(0));
        // … but changes R3's own region and the policy fingerprint.
        assert_ne!(before.1.region_fp(2), after.1.region_fp(2));
        assert_ne!(before.1.policy_fp(), after.1.policy_fp());
    }

    #[test]
    fn header_and_schema_feed_the_fingerprints() {
        let src = "default deny\nconflict deny-overrides\nR1 allow //patient\n";
        let (_, deny) = graph(src, None);
        let (_, allow) =
            graph("default allow\nconflict deny-overrides\nR1 allow //patient\n", None);
        assert_ne!(deny.region_fp(0), allow.region_fp(0), "header is hashed");
        let schema = hospital_schema();
        let (_, aware) = graph(src, Some(&schema));
        assert_ne!(deny.region_fp(0), aware.region_fp(0), "schema is hashed");
    }

    #[test]
    fn dead_rules_take_no_edges() {
        let schema = hospital_schema();
        let policy = Policy::parse(
            "default deny\nconflict deny-overrides\n\
             R1 allow //patient\nR2 deny //patient/nurse\n",
        )
        .unwrap();
        let oracle = ContainmentOracle::with_schema(schema.clone());
        // R2 is dead under the hospital schema; with the D1 verdict in,
        // its would-be overlap with R1 disappears.
        let dead: BTreeSet<usize> = [1].into_iter().collect();
        let g = AnalysisGraph::build(&policy, Some(&schema), &oracle, &dead);
        assert!(g.is_dead(1));
        assert_eq!(g.region(0), vec![0]);
    }

    #[test]
    fn schema_proven_disjointness_cuts_edges() {
        let schema = hospital_schema();
        let src = "default deny\nconflict deny-overrides\n\
                   W4 allow //regular[bill > 500][bill <= 1000]\n\
                   W5 deny //regular[bill > 1000]\n";
        let (_, blind) = graph(src, None);
        assert_eq!(blind.region(0), vec![0, 1], "blindly the pair overlaps");
        let (_, aware) = graph(src, Some(&schema));
        assert_eq!(aware.region(0), vec![0], "contradicting bills are disjoint");
    }
}
