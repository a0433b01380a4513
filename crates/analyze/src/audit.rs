//! D5 — the trigger-soundness audit (`XA005`).
//!
//! The Fig. 8 Trigger must *over-approximate*: for any update `u`, the
//! rule subset it selects must include every rule whose scope actually
//! changes, or partial re-annotation silently diverges from the
//! full-annotation fixpoint. This module audits that claim from three
//! independent directions over a corpus of update XPaths derived from
//! the schema (`//t` for each reachable element type):
//!
//! 1. **Differential** — the production fast path
//!    ([`PolicyAnalysis::trigger`], memoized oracle + precomputed
//!    expansions) is replayed against a definitional recomputation
//!    (fresh [`DependencyGraph`] + the free [`xac_policy::trigger`]);
//!    any divergence is an error.
//! 2. **Closure invariant** — the selected set is closed under the
//!    dependency relation: a selected rule's transitive dependencies
//!    are all selected too.
//! 3. **Dynamic** (when a document is given) — for each update the
//!    *actually affected* rules are computed on the tree (rules whose
//!    surviving scope differs before/after the delete) and must be a
//!    subset of the selected rules; and the partially re-annotated sign
//!    state is compared byte-for-byte against full re-annotation on all
//!    three backends (native XML, row-relational, column-relational).
//!
//! The audit always emits one summary diagnostic: `info` when sound,
//! `error` listing the violation when not. D5 precision
//! `|selected| / |affected|` quantifies the over-approximation.

use crate::diagnostic::{AuditSummary, Code, Diagnostic, Severity};
use std::collections::BTreeSet;
use xac_core::{Backend, NativeXmlBackend, RelationalBackend, System, Update};
use xac_policy::{trigger, DependencyGraph, Policy, PolicyAnalysis};
use xac_xml::{Document, Schema};
use xac_xpath::{eval, Path, Step};

/// Knobs for the audit pass.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Cap on the update corpus size.
    pub max_updates: usize,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig { max_updates: 16 }
    }
}

/// The schema-derived update corpus: one `//t` delete per reachable
/// element type, root excluded (deleting the document is not an update
/// the paper's machinery models), capped at `max`.
pub fn update_corpus(schema: &Schema, max: usize) -> Vec<Path> {
    schema
        .reachable_types()
        .into_iter()
        .filter(|t| *t != schema.root())
        .take(max)
        .map(|t| Path::absolute(vec![Step::descendant(t)]))
        .collect()
}

/// Run the audit. Returns the aggregate summary plus any finding
/// diagnostics (always at least the final summary line).
pub fn run(
    policy: &Policy,
    schema: &Schema,
    doc: Option<&Document>,
    cfg: &AuditConfig,
) -> (AuditSummary, Vec<Diagnostic>) {
    let _span = xac_obs::span("analyze.audit");
    let corpus = update_corpus(schema, cfg.max_updates);
    let analysis = PolicyAnalysis::build(policy, Some(schema));
    let graph = DependencyGraph::build(policy);
    let mut summary = AuditSummary { updates: corpus.len(), ..AuditSummary::default() };
    let mut findings = Vec::new();

    // 1 + 2: differential replay and closure invariant, purely static.
    for u in &corpus {
        let fast: BTreeSet<usize> = analysis.trigger(u).into_iter().collect();
        let definitional: BTreeSet<usize> =
            trigger(policy, &graph, u, Some(schema)).into_iter().collect();
        if fast != definitional {
            summary.divergences += 1;
            findings.push(Diagnostic::new(
                Code::TriggerAudit,
                Severity::Error,
                format!(
                    "trigger divergence on update `{u}`: fast path selected {:?}, \
                     definitional recomputation selected {:?}",
                    ids(policy, &fast),
                    ids(policy, &definitional),
                ),
            ));
        }
        if let Some(&i) = fast
            .iter()
            .find(|&&i| graph.depends(i).iter().any(|d| !fast.contains(d)))
        {
            summary.divergences += 1;
            findings.push(Diagnostic::new(
                Code::TriggerAudit,
                Severity::Error,
                format!(
                    "closure violation on update `{u}`: rule {} is selected but its \
                     dependency component is not fully selected",
                    policy.rules[i].id,
                ),
            ));
        }
        if doc.is_none() {
            summary.selected_total += fast.len();
        }
    }

    // 3: dynamic cross-check on the instance, when one is available.
    if let Some(doc) = doc {
        summary.dynamic = true;
        dynamic_audit(policy, schema, doc, &corpus, &analysis, &mut summary, &mut findings);
    }

    findings.push(summary_diagnostic(&summary));
    (summary, findings)
}

/// The D5 summary line, rendered from the aggregate numbers alone so the
/// incremental engine can emit a byte-identical diagnostic from cached
/// audit state.
pub(crate) fn summary_diagnostic(summary: &AuditSummary) -> Diagnostic {
    let severity = if summary.sound() { Severity::Info } else { Severity::Error };
    let scope = if summary.dynamic {
        format!(
            "static + dynamic on {} backend(s) ({} sign-state mismatch(es))",
            summary.backends.len(),
            summary.sign_mismatches,
        )
    } else {
        "static only (no document given)".to_string()
    };
    Diagnostic::new(
        Code::TriggerAudit,
        severity,
        format!(
            "trigger-soundness audit over {} update(s): {} divergence(s), {} missed \
             rule(s); selected {} / affected {} (precision {:.2}); {scope}",
            summary.updates,
            summary.divergences,
            summary.missed,
            summary.selected_total,
            summary.affected_total,
            summary.precision(),
        ),
    )
}

fn ids<'a>(policy: &'a Policy, indices: &BTreeSet<usize>) -> Vec<&'a str> {
    indices.iter().map(|&i| policy.rules[i].id.as_str()).collect()
}

/// The dynamic leg: affected-set inclusion plus partial-vs-full
/// re-annotation diffs on the three backends.
fn dynamic_audit(
    policy: &Policy,
    schema: &Schema,
    doc: &Document,
    corpus: &[Path],
    analysis: &PolicyAnalysis,
    summary: &mut AuditSummary,
    findings: &mut Vec<Diagnostic>,
) {
    let _span = xac_obs::span("analyze.audit.dynamic");
    // Deleting the root's direct children tears out whole document
    // sections; like `xac_xmlgen::delete_updates`, keep updates below
    // that level so there is a document left to re-annotate.
    let sections: BTreeSet<&str> = schema.child_types(schema.root()).into_iter().collect();
    for u in corpus {
        let label = match &u.last_step().expect("corpus paths are non-empty").test {
            xac_xpath::NodeTest::Name(n) => n.clone(),
            xac_xpath::NodeTest::Wildcard => continue,
        };
        if sections.contains(label.as_str()) {
            continue;
        }
        let matches = eval(doc, u);
        if matches.is_empty() {
            continue;
        }
        let selected: BTreeSet<usize> = analysis.trigger(u).into_iter().collect();
        summary.selected_total += selected.len();

        // Affected rules, computed definitionally on the tree: a rule is
        // affected when its scope restricted to surviving nodes differs
        // from its scope on the post-delete document.
        let mut doc_after = doc.clone();
        for id in &matches {
            if doc_after.is_alive(*id) {
                doc_after.remove_subtree(*id).expect("matched nodes are removable");
            }
        }
        for (i, rule) in policy.rules.iter().enumerate() {
            let surviving: BTreeSet<_> = eval(doc, &rule.resource)
                .into_iter()
                .filter(|n| doc_after.is_alive(*n))
                .collect();
            let after: BTreeSet<_> = eval(&doc_after, &rule.resource).into_iter().collect();
            if surviving != after {
                summary.affected_total += 1;
                if !selected.contains(&i) {
                    summary.missed += 1;
                    findings.push(
                        Diagnostic::new(
                            Code::TriggerAudit,
                            Severity::Error,
                            format!(
                                "unsound trigger on update `{u}`: rule {} (`{}`) is \
                                 dynamically affected but was not selected",
                                rule.id, rule.resource,
                            ),
                        )
                        .for_rule(&rule.id),
                    );
                }
            }
        }

        // Re-annotation diff: partial (trigger-driven) must land on the
        // same sign state as full re-annotation, on every backend.
        match sign_cross_check(policy, schema, doc, u, summary) {
            Ok(()) => {}
            Err(message) => {
                summary.sign_mismatches += 1;
                findings.push(Diagnostic::new(Code::TriggerAudit, Severity::Error, message));
            }
        }
    }
}

/// The three backends every differential check runs against. Shared
/// with the repair verifier, which re-annotates candidate policies on
/// each of them.
pub(crate) fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(NativeXmlBackend::new()),
        Box::new(RelationalBackend::row()),
        Box::new(RelationalBackend::column()),
    ]
}

/// Apply `u` with partial re-annotation on each backend and compare the
/// resulting sign state against a full re-annotation of the same
/// post-delete document.
fn sign_cross_check(
    policy: &Policy,
    schema: &Schema,
    doc: &Document,
    u: &Path,
    summary: &mut AuditSummary,
) -> Result<(), String> {
    let system = System::builder(schema.clone(), policy.clone(), doc.clone())
        .build()
        .map_err(|e| format!("audit system build failed for `{u}`: {e}"))?;
    for (mut partial, mut full) in backends().into_iter().zip(backends()) {
        let name = partial.name().to_string();
        if summary.backends.iter().all(|b| b != &name) {
            summary.backends.push(name.clone());
        }
        let step = |e: xac_core::Error| format!("audit update `{u}` on {name}: {e}");
        system.load(partial.as_mut()).map_err(&step)?;
        system.annotate(partial.as_mut()).map_err(&step)?;
        system.apply(partial.as_mut(), &Update::Delete(u.clone())).map_err(&step)?;

        system.load(full.as_mut()).map_err(&step)?;
        system.annotate(full.as_mut()).map_err(&step)?;
        full.delete(u).map_err(&step)?;
        system.full_reannotate(full.as_mut()).map_err(&step)?;

        let got = partial.sign_state().map_err(&step)?;
        let want = full.sign_state().map_err(&step)?;
        if got != want {
            let diff = want
                .iter()
                .filter(|(id, s)| got.get(id) != Some(s))
                .take(5)
                .map(|(id, s)| format!("{id}:{s}"))
                .collect::<Vec<_>>()
                .join(" ");
            return Err(format!(
                "re-annotation diff on {name} for update `{u}`: partial sign state \
                 diverges from full re-annotation (first diffs: {diff})",
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xac_policy::policy::hospital_policy;
    use xac_xml::parse_dtd;

    fn hospital() -> (Policy, Schema) {
        (
            hospital_policy(),
            parse_dtd(include_str!("../../../data/hospital.dtd")).unwrap(),
        )
    }

    #[test]
    fn static_audit_is_sound_on_hospital() {
        let (policy, schema) = hospital();
        let (summary, findings) = run(&policy, &schema, None, &AuditConfig::default());
        assert!(summary.sound(), "{findings:?}");
        assert!(!summary.dynamic);
        assert!(summary.updates > 0);
        assert_eq!(findings.len(), 1, "only the summary line");
        assert_eq!(findings[0].severity, Severity::Info);
    }

    #[test]
    fn dynamic_audit_proves_soundness_on_all_backends() {
        let (policy, schema) = hospital();
        let doc = Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>1</psn><name>a</name>\
             <treatment><regular><med>m</med><bill>9</bill></regular></treatment></patient>\
             <patient><psn>2</psn><name>b</name></patient>\
             </patients><staffinfo>\
             <staff><nurse><sid>7</sid><name>n</name><phone>5</phone></nurse></staff>\
             </staffinfo></dept></hospital>",
        )
        .unwrap();
        let (summary, findings) =
            run(&policy, &schema, Some(&doc), &AuditConfig { max_updates: 20 });
        assert!(summary.sound(), "{findings:?}");
        assert!(summary.dynamic);
        assert_eq!(summary.missed, 0);
        assert_eq!(summary.sign_mismatches, 0);
        assert_eq!(summary.backends.len(), 3, "{:?}", summary.backends);
        assert!(summary.affected_total > 0, "the corpus must exercise scope changes");
        assert!(summary.precision() >= 1.0, "selection over-approximates");
    }

    #[test]
    fn corpus_skips_the_root_and_respects_the_cap() {
        let (_, schema) = hospital();
        let corpus = update_corpus(&schema, 5);
        assert_eq!(corpus.len(), 5);
        assert!(corpus.iter().all(|p| p.to_string() != "//hospital"));
    }
}
