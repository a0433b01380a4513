//! The assembled system (Figure 3): schema + policy + prepared document,
//! driving any number of storage backends.

use crate::annotator;
use crate::backend::{AnnotateMode, Backend};
use crate::document::PreparedDocument;
use crate::error::Result;
use crate::optimizer;
use crate::reannotator::{self, ReannotationPlan};
use crate::requester::{self, Decision};
use std::collections::BTreeSet;
use xac_policy::{DefaultSemantics, DependencyGraph, Policy, PolicyAnalysis};
use xac_xml::{Document, NodeId, Schema};
use xac_xpath::Path;

/// Outcome of applying one update to a backend.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Elements removed (delete updates).
    pub removed_elements: usize,
    /// Elements inserted (insert updates).
    pub inserted_elements: usize,
    /// The static re-annotation plan that was applied.
    pub plan: ReannotationPlan,
    /// Sign writes performed by partial re-annotation.
    pub sign_writes: usize,
}

/// Outcome of a *guarded* update: the write-access decision, and the
/// update outcome when it was granted. This implements the paper's §8
/// future-work item ("extend our framework to handle access control for
/// update operations") with the same all-or-nothing semantics as reads:
/// a delete may only touch accessible nodes, an insert may only extend
/// accessible parents.
#[derive(Debug, Clone)]
pub enum GuardedUpdate {
    /// The requester may not perform this update; nothing changed.
    Denied(Decision),
    /// The update ran; partial re-annotation restored consistency.
    Applied(UpdateOutcome),
}

impl GuardedUpdate {
    /// True when the update was applied.
    pub fn applied(&self) -> bool {
        matches!(self, GuardedUpdate::Applied(_))
    }
}

/// Staged construction of a [`System`].
///
/// Obtained from [`System::builder`]; every knob has a default matching
/// the paper's published configuration (schema-blind containment,
/// paper-faithful sign writes), so
/// `System::builder(schema, policy, doc).build()` is the baseline and
/// each extension is opted into explicitly:
///
/// ```
/// use xac_core::{AnnotateMode, System};
/// use xac_policy::policy::hospital_policy;
///
/// let schema = xac_core::hospital_schema_for_docs();
/// let doc = xac_xml::Document::parse_str(
///     "<hospital><dept><patients>\
///      <patient><psn>1</psn><name>a</name></patient>\
///      </patients><staffinfo/></dept></hospital>").unwrap();
/// let system = System::builder(schema, hospital_policy(), doc)
///     .schema_aware(true)
///     .annotate_mode(AnnotateMode::Compiled)
///     .build()
///     .unwrap();
/// assert_eq!(system.annotate_mode(), AnnotateMode::Compiled);
/// ```
#[must_use = "a builder does nothing until .build() is called"]
pub struct SystemBuilder {
    schema: Schema,
    policy: Policy,
    doc: Document,
    schema_aware: bool,
    annotate_mode: AnnotateMode,
}

impl SystemBuilder {
    /// Use *schema-aware* containment for both the optimizer and the
    /// dependency graph — the paper's §8 future-work item. This can
    /// eliminate more rules than Table 3 (e.g. under the hospital
    /// schema, R5 ⊑ R3 because every `experimental` lives inside a
    /// `treatment`) without changing the enforced semantics.
    pub fn schema_aware(mut self, yes: bool) -> SystemBuilder {
        self.schema_aware = yes;
        self
    }

    /// The annotation write mode relational backends driven by this
    /// system should use (see [`AnnotateMode`]). The system records the
    /// preference ([`System::annotate_mode`]); components that construct
    /// backends — the CLI, the serving engine — read it from here.
    pub fn annotate_mode(mut self, mode: AnnotateMode) -> SystemBuilder {
        self.annotate_mode = mode;
        self
    }

    /// Assemble the system: the document is validated against the
    /// schema, the policy is optimized (Fig. 4), the dependency graph is
    /// built (Fig. 7), and the document is prepared for loading
    /// (shredded SQL + serialized XML).
    pub fn build(self) -> Result<System> {
        let SystemBuilder { schema, policy, doc, schema_aware, annotate_mode } = self;
        schema.validate(&doc)?;
        let report = if schema_aware {
            optimizer::optimize_with_schema(&policy, &schema)
        } else {
            optimizer::optimize(&policy)
        };
        let optimized = report.optimized;
        // The Trigger context (expansions, dependency graph, containment
        // cache) is built once here; every update reuses it.
        let analysis = if schema_aware {
            PolicyAnalysis::build_schema_aware(&optimized, &schema)
        } else {
            PolicyAnalysis::build(&optimized, Some(&schema))
        };
        let default_sign = match optimized.default_semantics {
            DefaultSemantics::Allow => '+',
            DefaultSemantics::Deny => '-',
        };
        let prepared = PreparedDocument::prepare(&schema, doc, default_sign)?;
        Ok(System {
            schema,
            original_policy: policy,
            policy: optimized,
            analysis,
            prepared,
            annotate_mode,
        })
    }
}

/// One configured xmlac deployment: a schema, an (optimized) policy, and
/// a prepared document that any backend can load.
pub struct System {
    schema: Schema,
    original_policy: Policy,
    policy: Policy,
    analysis: PolicyAnalysis,
    prepared: PreparedDocument,
    annotate_mode: AnnotateMode,
}

impl System {
    /// Start building a system from its three ingredients. All other
    /// configuration happens on the returned [`SystemBuilder`].
    pub fn builder(schema: Schema, policy: Policy, doc: Document) -> SystemBuilder {
        SystemBuilder {
            schema,
            policy,
            doc,
            schema_aware: false,
            annotate_mode: AnnotateMode::default(),
        }
    }

    /// The XML schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The optimized policy actually enforced.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The policy as supplied, before redundancy elimination.
    pub fn original_policy(&self) -> &Policy {
        &self.original_policy
    }

    /// The rule dependency graph.
    pub fn dependency_graph(&self) -> &DependencyGraph {
        self.analysis.graph()
    }

    /// The precomputed static-analysis context (expansions, dependency
    /// graph, containment cache).
    pub fn analysis(&self) -> &PolicyAnalysis {
        &self.analysis
    }

    /// The prepared document (load artifacts and sizes).
    pub fn prepared(&self) -> &PreparedDocument {
        &self.prepared
    }

    /// The annotation write mode configured at build time. Components
    /// that construct relational backends for this system (the CLI, the
    /// serving engine) honour this preference.
    pub fn annotate_mode(&self) -> AnnotateMode {
        self.annotate_mode
    }

    /// Load the prepared document into a backend.
    pub fn load(&self, backend: &mut dyn Backend) -> Result<()> {
        backend.load(&self.prepared)
    }

    /// Fully annotate a loaded backend; returns sign writes.
    pub fn annotate(&self, backend: &mut dyn Backend) -> Result<usize> {
        annotator::annotate(backend, &self.policy)
    }

    /// Reset and fully re-annotate (the paper's baseline for Fig. 12).
    pub fn full_reannotate(&self, backend: &mut dyn Backend) -> Result<usize> {
        annotator::full_reannotate(backend, &self.policy)
    }

    /// Answer a user request (all-or-nothing).
    pub fn request(&self, backend: &mut dyn Backend, query: &str) -> Result<Decision> {
        requester::request_str(backend, query)
    }

    /// Answer a pre-parsed user request.
    pub fn request_path(&self, backend: &mut dyn Backend, path: &Path) -> Result<Decision> {
        requester::request(backend, path)
    }

    /// Compute the re-annotation plan for an update (static analysis; no
    /// backend involved).
    pub fn plan_update(&self, update: &Path) -> ReannotationPlan {
        reannotator::plan_with_analysis(&self.analysis, update)
    }

    /// Apply a delete update to one backend: compute the plan, delete the
    /// designated subtrees, and partially re-annotate. The system's own
    /// prepared document is *not* mutated — reloading a backend restores
    /// the original document, which is exactly what the experiment loop
    /// needs (each update runs against a fresh copy).
    pub fn apply_update(
        &self,
        backend: &mut dyn Backend,
        update: &Path,
    ) -> Result<UpdateOutcome> {
        let plan = self.plan_update(update);
        let removed_elements = backend.delete(update)?;
        let sign_writes = reannotator::apply(backend, &plan)?;
        Ok(UpdateOutcome { removed_elements, inserted_elements: 0, plan, sign_writes })
    }

    /// Apply an insert update: add one `name` element (optionally with
    /// text content) under every node matched by `parent_path`, then
    /// partially re-annotate. The update path handed to Trigger is
    /// `parent_path/name` — the location of the inserted nodes, exactly
    /// as §5.3 defines update expressions.
    pub fn apply_insert(
        &self,
        backend: &mut dyn Backend,
        parent_path: &Path,
        name: &str,
        text: Option<&str>,
    ) -> Result<UpdateOutcome> {
        let update_path = parent_path
            .clone()
            .then(xac_xpath::Step::child(name.to_string()));
        let plan = self.plan_update(&update_path);
        let inserted_elements = backend.insert(parent_path, name, text)?;
        let sign_writes = reannotator::apply(backend, &plan)?;
        Ok(UpdateOutcome { removed_elements: 0, inserted_elements, plan, sign_writes })
    }

    /// Access-controlled delete (§8 extension): the update runs only when
    /// every node it designates is currently accessible.
    pub fn guarded_delete(
        &self,
        backend: &mut dyn Backend,
        update: &Path,
    ) -> Result<GuardedUpdate> {
        let decision = requester::request(backend, update)?;
        if !decision.granted() {
            return Ok(GuardedUpdate::Denied(decision));
        }
        Ok(GuardedUpdate::Applied(self.apply_update(backend, update)?))
    }

    /// Access-controlled insert (§8 extension): the insert runs only when
    /// every designated parent is currently accessible.
    pub fn guarded_insert(
        &self,
        backend: &mut dyn Backend,
        parent_path: &Path,
        name: &str,
        text: Option<&str>,
    ) -> Result<GuardedUpdate> {
        let decision = requester::request(backend, parent_path)?;
        if !decision.granted() {
            return Ok(GuardedUpdate::Denied(decision));
        }
        Ok(GuardedUpdate::Applied(self.apply_insert(backend, parent_path, name, text)?))
    }

    /// Reference semantics: the accessible nodes of the prepared document
    /// under the enforced policy, evaluated directly on the tree
    /// (Table 2). Backends are cross-checked against this.
    pub fn reference_accessible(&self) -> BTreeSet<NodeId> {
        xac_policy::accessible_nodes(&self.prepared.doc, &self.policy)
    }

    /// The accessible node set, computed the way the configured
    /// [`AnnotateMode`] would: under [`AnnotateMode::Compiled`] the
    /// policy's annotation query runs as VM bytecode
    /// ([`crate::view::compiled_accessible`]); otherwise the
    /// interpreted Table 2 reference. Always equal to
    /// [`Self::reference_accessible`] — the equivalence suite holds the
    /// two paths byte-identical.
    pub fn accessible_set(&self) -> Result<BTreeSet<NodeId>> {
        if self.annotate_mode == AnnotateMode::Compiled {
            let query = xac_policy::AnnotationQuery::from_policy(&self.policy);
            return crate::view::compiled_accessible(&self.prepared.doc, &query, Some(&self.schema));
        }
        Ok(self.reference_accessible())
    }

    /// Derive the security view of the prepared document: the
    /// accessible-only sub-document a reader may see (see
    /// [`crate::view`]). Under [`AnnotateMode::Compiled`] the accessible
    /// set feeding the pruning pass comes from the bytecode VM.
    pub fn security_view(&self, mode: crate::view::ViewMode) -> Result<Document> {
        Ok(crate::view::security_view(&self.prepared.doc, &self.accessible_set()?, mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NativeXmlBackend, RelationalBackend};
    use xac_policy::policy::hospital_policy;

    fn figure2() -> Document {
        Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>033</psn><name>john doe</name>\
             <treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment>\
             </patient>\
             <patient><psn>042</psn><name>jane doe</name>\
             <treatment><experimental><test>hypnosis</test><bill>1600</bill></experimental></treatment>\
             </patient>\
             <patient><psn>099</psn><name>joy smith</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap()
    }

    fn system() -> System {
        System::builder(crate::hospital_schema_for_docs(), hospital_policy(), figure2())
            .build()
            .unwrap()
    }

    #[test]
    fn construction_optimizes_policy() {
        let s = system();
        assert_eq!(s.original_policy().len(), 8);
        assert_eq!(s.policy().len(), 5, "Table 3");
    }

    #[test]
    fn compiled_accessible_set_and_view_match_reference() {
        let compiled =
            System::builder(crate::hospital_schema_for_docs(), hospital_policy(), figure2())
                .annotate_mode(crate::AnnotateMode::Compiled)
                .build()
                .unwrap();
        assert_eq!(
            compiled.accessible_set().unwrap(),
            compiled.reference_accessible(),
            "VM accessible set equals Table 2 reference"
        );
        let reference = system();
        for mode in [crate::view::ViewMode::Prune, crate::view::ViewMode::Promote] {
            assert_eq!(
                compiled.security_view(mode).unwrap().to_xml(),
                reference.security_view(mode).unwrap().to_xml(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn builder_records_annotate_mode() {
        let s = System::builder(crate::hospital_schema_for_docs(), hospital_policy(), figure2())
            .annotate_mode(crate::AnnotateMode::Compiled)
            .build()
            .unwrap();
        assert_eq!(s.annotate_mode(), crate::AnnotateMode::Compiled);
        assert_eq!(system().annotate_mode(), crate::AnnotateMode::PaperFaithful);
    }

    #[test]
    fn schema_aware_construction_eliminates_r5() {
        let s = System::builder(
            crate::hospital_schema_for_docs(),
            hospital_policy(),
            figure2(),
        )
        .schema_aware(true)
        .build()
        .unwrap();
        let ids: Vec<&str> = s.policy().rules.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["R1", "R2", "R3", "R6"], "R5 ⊑ R3 under the schema");
        // The stronger optimization must not change the semantics.
        let blind = system();
        assert_eq!(
            s.reference_accessible(),
            blind.reference_accessible(),
            "schema-aware optimization altered accessibility"
        );
        // Backends agree too.
        let mut b = NativeXmlBackend::new();
        s.load(&mut b).unwrap();
        s.annotate(&mut b).unwrap();
        assert_eq!(b.accessible_count().unwrap(), s.reference_accessible().len());
    }

    #[test]
    fn rejects_invalid_documents() {
        let bad = Document::parse_str("<hospital><bogus/></hospital>").unwrap();
        assert!(System::builder(crate::hospital_schema_for_docs(), hospital_policy(), bad)
            .build()
            .is_err());
    }

    #[test]
    fn end_to_end_on_all_backends() {
        let s = system();
        let expected = s.reference_accessible().len();
        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(RelationalBackend::row()),
            Box::new(RelationalBackend::column()),
            Box::new(NativeXmlBackend::new()),
        ];
        for b in backends.iter_mut() {
            s.load(b.as_mut()).unwrap();
            s.annotate(b.as_mut()).unwrap();
            assert_eq!(b.accessible_count().unwrap(), expected, "{}", b.name());
            assert!(s.request(b.as_mut(), "//patient/name").unwrap().granted());
            assert!(!s.request(b.as_mut(), "//patient").unwrap().granted());
        }
    }

    #[test]
    fn update_flow_on_all_backends() {
        let s = system();
        let u = xac_xpath::parse("//patient/treatment").unwrap();
        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(RelationalBackend::row()),
            Box::new(RelationalBackend::column()),
            Box::new(NativeXmlBackend::new()),
        ];
        for b in backends.iter_mut() {
            s.load(b.as_mut()).unwrap();
            s.annotate(b.as_mut()).unwrap();
            let outcome = s.apply_update(b.as_mut(), &u).unwrap();
            assert_eq!(outcome.removed_elements, 8, "{}", b.name());
            assert!(outcome.plan.triggered_ids().contains(&"R1"));
            // All three patients lack treatments now: //patient granted.
            assert!(
                s.request(b.as_mut(), "//patient").unwrap().granted(),
                "{} after update",
                b.name()
            );
            // Reload restores the original document.
            s.load(b.as_mut()).unwrap();
            s.annotate(b.as_mut()).unwrap();
            assert!(!s.request(b.as_mut(), "//patient").unwrap().granted());
        }
    }
}
