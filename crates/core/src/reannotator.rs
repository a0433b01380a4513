//! The re-annotator module of Figure 3 (paper §5.3).
//!
//! After an update, **Trigger** (expansion + containment + dependency
//! closure: static analysis only, run *before* the update at `O(n · h)`
//! containment tests) finds the rules whose scopes may have changed. In
//! `paper` mode, which Fig. 12 measures, [`apply`] resets those rules'
//! scopes to the default sign and applies the triggered rules' query
//! (`compiled` backends compare first and write only what changes).
//!
//! In `compiled` mode a non-empty plan runs the footprint pass instead
//! ([`crate::Backend::reannotate_footprint`]). The fragment has only child
//! and descendant axes, so qualifiers look only down: an update under `p`
//! can change signs only of new nodes and under the highest
//! ancestor-or-self of `p` at which a rule evaluates a qualifier (Cheney's
//! static enforceability; the edit footprint of Bravo, Cheney &
//! Fundulaki). The whole policy runs on the VM over that footprint, and
//! only the signs that differ are written, so the result equals a full
//! annotation. A qualifier on a wildcard step widens it to the document.
//!
//! **Known approximation of the paper plan:** the dependency graph links
//! rules related by *containment*. Two rules whose scopes overlap without
//! either containing the other are not linked, so a node covered by a
//! triggered rule and an untriggered overlapping rule of the same effect
//! can briefly lose the untriggered rule's sign until the next full
//! annotation. Redundancy elimination removes the same-effect *contained*
//! cases; the paper's future-work note on "schema-aware optimizations …
//! more accurate results" refers to the remainder.

use crate::backend::Backend;
use crate::error::Result;
use xac_policy::{trigger, AnnotationQuery, DependencyGraph, Policy, PolicyAnalysis, Rule};
use xac_xml::Schema;
use xac_xpath::{ContainmentOracle, Path};

/// The statically-computed plan for one update.
#[derive(Debug, Clone)]
pub struct ReannotationPlan {
    /// The triggered rules (clones, in policy order).
    pub triggered: Vec<Rule>,
    /// The scopes to reset: the triggered rules' resources.
    pub scope: Vec<Path>,
    /// The annotation query over the triggered rules.
    pub query: AnnotationQuery,
}

impl ReannotationPlan {
    /// True when the update touches no rule — nothing to do.
    pub fn is_empty(&self) -> bool {
        self.triggered.is_empty()
    }

    /// Ids of the triggered rules.
    pub fn triggered_ids(&self) -> Vec<&str> {
        self.triggered.iter().map(|r| r.id.as_str()).collect()
    }
}

/// Compute the re-annotation plan for an update (static analysis only).
pub fn plan(
    policy: &Policy,
    graph: &DependencyGraph,
    update: &Path,
    schema: Option<&Schema>,
) -> ReannotationPlan {
    let indices = trigger(policy, graph, update, schema);
    let expansions: Vec<Vec<Path>> = policy
        .rules
        .iter()
        .map(|r| xac_xpath::expand(&r.resource, schema))
        .collect();
    assemble(policy, &indices, &expansions, &ContainmentOracle::new())
}

/// The [`plan`] fast path against a precomputed [`PolicyAnalysis`]: the
/// trigger context, rule expansions and containment answers are all
/// reused across updates instead of re-derived per call. The resulting
/// plan is identical to [`plan`] over the matching graph and schema.
pub fn plan_with_analysis(analysis: &PolicyAnalysis, update: &Path) -> ReannotationPlan {
    let _span = xac_obs::span("reannotate.plan");
    let indices = analysis.trigger(update);
    assemble(analysis.policy(), &indices, analysis.expansions(), analysis.oracle())
}

fn assemble(
    policy: &Policy,
    indices: &[usize],
    expansions: &[Vec<Path>],
    oracle: &ContainmentOracle,
) -> ReannotationPlan {
    let triggered: Vec<Rule> = indices.iter().map(|&i| policy.rules[i].clone()).collect();
    // Reset scopes are the triggered rules' *expansions* (predicate-free
    // prefixes included), not their raw resources: after the update a
    // node may have left a rule's scope (its predicate no longer holds)
    // while keeping a stale sign — `//a[b]` no longer matches once `b` is
    // deleted, but the prefix `//a` still reaches the node to reset it.
    let mut scope: Vec<Path> = Vec::new();
    for &i in indices {
        for p in &expansions[i] {
            if !scope.contains(p) {
                scope.push(p.clone());
            }
        }
    }
    // The repair query covers every rule whose scope may intersect the
    // reset region — resetting the (broad, predicate-free) expansion
    // scopes can clear signs written by rules the update itself did not
    // touch, and those rules must be re-applied for the repair to
    // converge to the full-annotation fixpoint.
    let affected: Vec<Rule> = policy
        .rules
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            indices.contains(i)
                || expansions[*i].iter().any(|e| {
                    scope
                        .iter()
                        .any(|s| oracle.contained_in(e, s) || oracle.contained_in(s, e))
                })
        })
        .map(|(_, r)| r.clone())
        .collect();
    let query = AnnotationQuery::from_rules(
        policy.default_semantics,
        policy.conflict_resolution,
        &affected,
    );
    ReannotationPlan { triggered, scope, query }
}

/// Apply a plan to a backend; returns sign writes (0 for an empty plan).
pub fn apply(backend: &mut dyn Backend, plan: &ReannotationPlan) -> Result<usize> {
    if plan.is_empty() {
        return Ok(0);
    }
    let _span = xac_obs::span("reannotate.apply");
    backend.reannotate(&plan.scope, &plan.query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, NativeXmlBackend};
    use crate::document::PreparedDocument;
    use xac_policy::policy::hospital_policy;
    use xac_policy::redundancy_elimination;
    use xac_xml::Document;

    #[test]
    fn plan_for_treatment_deletion() {
        let policy = redundancy_elimination(&hospital_policy());
        let graph = DependencyGraph::build(&policy);
        let schema = crate::hospital_schema_for_docs();
        let u = xac_xpath::parse("//patient/treatment").unwrap();
        let plan = plan(&policy, &graph, &u, Some(&schema));
        assert!(plan.triggered_ids().contains(&"R1"));
        assert!(plan.triggered_ids().contains(&"R3"));
        assert!(!plan.is_empty());
        assert_eq!(plan.scope.len(), plan.triggered.len());
    }

    #[test]
    fn empty_plan_for_unrelated_update() {
        let policy = redundancy_elimination(&hospital_policy());
        let graph = DependencyGraph::build(&policy);
        let schema = crate::hospital_schema_for_docs();
        let u = xac_xpath::parse("//staffinfo/staff").unwrap();
        let plan = plan(&policy, &graph, &u, Some(&schema));
        assert!(plan.is_empty());
        let mut b = NativeXmlBackend::new();
        // Applying an empty plan never touches the backend (no error even
        // though nothing is loaded).
        assert_eq!(apply(&mut b, &plan).unwrap(), 0);
    }

    /// The paper's running example end-to-end: delete the treatments, run
    /// the plan, and patients become accessible.
    #[test]
    fn reannotation_fixes_patient_accessibility() {
        let schema = crate::hospital_schema_for_docs();
        let doc = Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>1</psn><name>a</name>\
             <treatment><regular><med>m</med><bill>1</bill></regular></treatment></patient>\
             <patient><psn>2</psn><name>b</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap();
        let prepared = PreparedDocument::prepare(&schema, doc, '-').unwrap();
        let policy = redundancy_elimination(&hospital_policy());
        let graph = DependencyGraph::build(&policy);

        let mut b = NativeXmlBackend::new();
        b.load(&prepared).unwrap();
        crate::annotator::annotate(&mut b, &policy).unwrap();
        let q_patients = xac_xpath::parse("//patient").unwrap();
        let (_, allowed) = b.query_nodes_allowed(&q_patients).unwrap();
        assert!(!allowed, "patient 1 is denied while treated");

        let u = xac_xpath::parse("//patient/treatment").unwrap();
        let plan = plan(&policy, &graph, &u, Some(&schema));
        b.delete(&u).unwrap();
        apply(&mut b, &plan).unwrap();

        let (n, allowed) = b.query_nodes_allowed(&q_patients).unwrap();
        assert_eq!(n, 2);
        assert!(allowed, "all patients accessible after treatments vanish");
    }
}
