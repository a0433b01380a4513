//! Precomputed static-analysis context for a `(policy, schema)` pair.
//!
//! The Fig. 8 Trigger algorithm is pure static analysis, yet the free
//! [`crate::trigger`] function re-derives everything on every call: each
//! rule resource is re-expanded through the schema, every expansion pair
//! is re-tested for containment, and callers must juggle a separately
//! built [`DependencyGraph`]. In an update-heavy workload (the paper's
//! Fig. 12 experiment runs Trigger once per update) that repeated work
//! dominates the static-analysis cost.
//!
//! [`PolicyAnalysis`] hoists everything update-independent out of the
//! per-call path, computing it once at build time:
//!
//! * the §5.3 rule expansions, one `Vec<Path>` per rule;
//! * the dependency graph (Fig. 7) with its transitive closure;
//! * a shared [`ContainmentOracle`], so even the update-dependent
//!   containment tests are answered from cache after the first update
//!   that asks them;
//! * for the footprint re-annotation, the whole policy's annotation
//!   query and the labels of its qualifier-bearing steps.
//!
//! Per update, only the update path's own expansion remains — the rest is
//! table lookups. Results are *identical* to the free-function pipeline
//! (`DependencyGraph::build` + [`crate::trigger`]); this type changes the
//! cost model, never the answers.

use crate::annotation_query::AnnotationQuery;
use crate::dependency::DependencyGraph;
use crate::policy::Policy;
use crate::trigger::{expand_update, trigger_with_expansions};
use xac_xml::Schema;
use xac_xpath::{expand, ContainmentOracle, NodeTest, OracleStats, Path};

/// Everything Trigger needs, computed once per `(policy, schema)`.
pub struct PolicyAnalysis {
    policy: Policy,
    schema: Option<Schema>,
    /// Per-rule §5.3 expansions, indexed like `policy.rules`.
    expansions: Vec<Vec<Path>>,
    graph: DependencyGraph,
    oracle: ContainmentOracle,
    /// The whole policy's annotation query (Fig. 5).
    query: AnnotationQuery,
    /// See [`PolicyAnalysis::qualifier_labels`].
    labels: Option<Vec<String>>,
}

impl PolicyAnalysis {
    /// Build the analysis. The dependency graph uses schema-*blind*
    /// containment (matching [`DependencyGraph::build`] and the paper's
    /// published algorithm); the schema, when given, drives rule
    /// expansion — exactly the contract of the free [`crate::trigger`].
    pub fn build(policy: &Policy, schema: Option<&Schema>) -> PolicyAnalysis {
        Self::assemble(policy, schema, false)
    }

    /// Build with schema-aware dependency edges (the §8 extension,
    /// matching [`DependencyGraph::build_with_schema`]): dependencies
    /// that only hold on schema-valid documents are captured too.
    pub fn build_schema_aware(policy: &Policy, schema: &Schema) -> PolicyAnalysis {
        Self::assemble(policy, Some(schema), true)
    }

    fn assemble(policy: &Policy, schema: Option<&Schema>, schema_aware: bool) -> PolicyAnalysis {
        let oracle = match schema {
            Some(s) if schema_aware => ContainmentOracle::with_schema(s.clone()),
            _ => ContainmentOracle::new(),
        };
        let graph = DependencyGraph::build_with_oracle(policy, &oracle);
        let expansions = policy.rules.iter().map(|r| expand(&r.resource, schema)).collect();
        PolicyAnalysis {
            policy: policy.clone(),
            schema: schema.cloned(),
            expansions,
            graph,
            oracle,
            query: AnnotationQuery::from_policy(policy),
            labels: qualifier_labels(policy),
        }
    }

    /// The whole policy's annotation query, built once.
    pub fn annotation_query(&self) -> &AnnotationQuery {
        &self.query
    }

    /// The element names at which some rule evaluates a qualifier — the
    /// name test of every qualifier-bearing step of a rule resource —
    /// sorted and deduplicated; `None` when such a step is a wildcard.
    /// Qualifiers look only down, so an update under node `p` can change
    /// signs only of new nodes and under the highest ancestor-or-self of
    /// `p` carrying one of these labels: the update's footprint, which a
    /// wildcard widens to the whole document.
    pub fn qualifier_labels(&self) -> Option<&[String]> {
        self.labels.as_deref()
    }

    /// The analyzed policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The schema rules were expanded through, if any.
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// The precomputed dependency graph.
    pub fn graph(&self) -> &DependencyGraph {
        &self.graph
    }

    /// The cached §5.3 expansion of rule `i`.
    pub fn rule_expansions(&self, i: usize) -> &[Path] {
        &self.expansions[i]
    }

    /// All cached rule expansions, indexed like `policy.rules`.
    pub fn expansions(&self) -> &[Vec<Path>] {
        &self.expansions
    }

    /// The shared containment oracle (for further analysis sharing the
    /// same memo tables, e.g. the re-annotation planner).
    pub fn oracle(&self) -> &ContainmentOracle {
        &self.oracle
    }

    /// Containment-cache counters, for perf reports.
    pub fn oracle_stats(&self) -> OracleStats {
        self.oracle.stats()
    }

    /// Fig. 8 Trigger against the precomputed context: indices (into
    /// `policy.rules`) of the rules this update may invalidate. Identical
    /// output to `trigger(policy, &DependencyGraph::build(policy), u, schema)`.
    pub fn trigger(&self, update: &Path) -> Vec<usize> {
        let update_expansions = {
            let _span = xac_obs::span("trigger.expand");
            expand_update(update, self.schema.as_ref())
        };
        let _span = xac_obs::span("trigger.select");
        trigger_with_expansions(&self.expansions, &self.graph, &update_expansions, &self.oracle)
    }

    /// Convenience: triggered rule ids, for logs and tests.
    pub fn triggered_ids(&self, update: &Path) -> Vec<&str> {
        self.trigger(update)
            .into_iter()
            .map(|i| self.policy.rules[i].id.as_str())
            .collect()
    }
}

fn qualifier_labels(policy: &Policy) -> Option<Vec<String>> {
    let mut labels = Vec::new();
    for step in policy.rules.iter().flat_map(|r| &r.resource.steps) {
        match &step.test {
            _ if step.predicates.is_empty() => {}
            NodeTest::Name(name) => labels.push(name.clone()),
            NodeTest::Wildcard => return None,
        }
    }
    labels.sort();
    labels.dedup();
    Some(labels)
}

impl std::fmt::Debug for PolicyAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyAnalysis")
            .field("rules", &self.policy.rules.len())
            .field("schema", &self.schema.is_some())
            .field("oracle", &self.oracle.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::redundancy_elimination;
    use crate::policy::hospital_policy;
    use crate::trigger::trigger;
    use xac_xml::{Occurs::*, Particle};

    fn hospital_schema() -> Schema {
        Schema::builder("hospital")
            .sequence("hospital", vec![Particle::new("dept", Plus)])
            .sequence(
                "dept",
                vec![Particle::new("patients", One), Particle::new("staffinfo", One)],
            )
            .sequence("patients", vec![Particle::new("patient", Star)])
            .sequence("staffinfo", vec![Particle::new("staff", Star)])
            .sequence(
                "patient",
                vec![
                    Particle::new("psn", One),
                    Particle::new("name", One),
                    Particle::new("treatment", Optional),
                ],
            )
            .choice(
                "treatment",
                vec![
                    Particle::new("regular", Optional),
                    Particle::new("experimental", Optional),
                ],
            )
            .sequence("regular", vec![Particle::new("med", One), Particle::new("bill", One)])
            .sequence(
                "experimental",
                vec![Particle::new("test", One), Particle::new("bill", One)],
            )
            .choice("staff", vec![Particle::new("nurse", One), Particle::new("doctor", One)])
            .sequence(
                "nurse",
                vec![
                    Particle::new("sid", One),
                    Particle::new("name", One),
                    Particle::new("phone", One),
                ],
            )
            .sequence(
                "doctor",
                vec![
                    Particle::new("sid", One),
                    Particle::new("name", One),
                    Particle::new("phone", One),
                ],
            )
            .text(&["psn", "name", "med", "bill", "test", "sid", "phone"])
            .build()
            .unwrap()
    }

    const UPDATES: &[&str] = &[
        "//patient/treatment",
        "//treatment",
        "//staffinfo/staff",
        "//patient",
        "//regular/med",
        "//patient/name",
        "//dept",
        "//experimental",
        "//patient/treatment/regular/bill",
        "//nurse/phone",
    ];

    /// The precomputed path answers exactly like the free-function
    /// pipeline, across the whole hospital workload — with and without a
    /// schema, optimized and raw policy.
    #[test]
    fn matches_free_trigger_on_hospital_workload() {
        let schema = hospital_schema();
        for policy in [hospital_policy(), redundancy_elimination(&hospital_policy())] {
            let graph = DependencyGraph::build(&policy);
            for schema_opt in [None, Some(&schema)] {
                let analysis = PolicyAnalysis::build(&policy, schema_opt);
                for u in UPDATES {
                    let update = xac_xpath::parse(u).unwrap();
                    assert_eq!(
                        analysis.trigger(&update),
                        trigger(&policy, &graph, &update, schema_opt),
                        "diverged on update {u} (schema: {})",
                        schema_opt.is_some(),
                    );
                }
            }
        }
    }

    /// Repeat calls hit the memo tables: the second pass over the same
    /// workload performs zero fresh containment computations.
    #[test]
    fn repeat_updates_are_answered_from_cache() {
        let schema = hospital_schema();
        let policy = redundancy_elimination(&hospital_policy());
        let analysis = PolicyAnalysis::build(&policy, Some(&schema));
        for u in UPDATES {
            analysis.trigger(&xac_xpath::parse(u).unwrap());
        }
        let first_pass = analysis.oracle_stats();
        for u in UPDATES {
            analysis.trigger(&xac_xpath::parse(u).unwrap());
        }
        let second_pass = analysis.oracle_stats();
        assert_eq!(second_pass.misses, first_pass.misses, "no new homomorphism tests");
        assert!(second_pass.hits > first_pass.hits);
    }

    /// The schema-aware build mirrors `DependencyGraph::build_with_schema`.
    #[test]
    fn schema_aware_build_matches_schema_aware_graph() {
        let schema = hospital_schema();
        let policy = redundancy_elimination(&hospital_policy());
        let reference = DependencyGraph::build_with_schema(&policy, &schema);
        let analysis = PolicyAnalysis::build_schema_aware(&policy, &schema);
        for i in 0..policy.rules.len() {
            assert_eq!(analysis.graph().depends(i), reference.depends(i));
            assert_eq!(analysis.graph().neighbours(i), reference.neighbours(i));
        }
        for u in UPDATES {
            let update = xac_xpath::parse(u).unwrap();
            assert_eq!(
                analysis.trigger(&update),
                trigger(&policy, &reference, &update, Some(&schema)),
                "schema-aware divergence on {u}",
            );
        }
    }

    #[test]
    fn triggered_ids_convenience() {
        let policy = Policy::parse(
            "default deny\nconflict deny\nR1 allow //patient\nR3 deny //patient[treatment]\n",
        )
        .unwrap();
        let analysis = PolicyAnalysis::build(&policy, None);
        let update = xac_xpath::parse("//patient/treatment").unwrap();
        assert_eq!(analysis.triggered_ids(&update), vec!["R1", "R3"]);
    }

    #[test]
    fn empty_policy_analysis() {
        let policy = Policy::parse("default deny\nconflict deny\n").unwrap();
        let analysis = PolicyAnalysis::build(&policy, None);
        assert!(analysis.trigger(&xac_xpath::parse("//anything").unwrap()).is_empty());
        assert!(analysis.graph().is_empty());
    }

    #[test]
    fn qualifier_labels_name_the_qualified_steps() {
        let analysis = PolicyAnalysis::build(&hospital_policy(), None);
        assert_eq!(analysis.qualifier_labels().unwrap(), ["patient", "regular"]);
        assert_eq!(*analysis.annotation_query(), AnnotationQuery::from_policy(&hospital_policy()));
        let nested = Policy::parse(
            "default deny\nconflict deny\nR1 allow /a/b[c[d]]//e[. = \"v\"]\nR2 allow //f\n",
        )
        .unwrap();
        let analysis = PolicyAnalysis::build(&nested, None);
        assert_eq!(analysis.qualifier_labels().unwrap(), ["b", "e"]);
        let wildcard = Policy::parse("default deny\nconflict deny\nR1 allow //a/*[b]\n").unwrap();
        assert_eq!(PolicyAnalysis::build(&wildcard, None).qualifier_labels(), None);
    }
}
