//! The assembled system (Figure 3): schema + policy + prepared document,
//! driving any number of storage backends.
//!
//! Updates have one body ([`System::guarded`], and [`System::apply`]
//! without the guard or the fallback), which the serving engine calls
//! inside its transaction: select the designated nodes once, guard on
//! that selection, apply the structural write to it, re-annotate when the
//! Trigger plan is not empty, and fall back to full re-annotation.

use crate::annotator;
use crate::backend::{AnnotateMode, Backend, Selection};
use crate::document::PreparedDocument;
use crate::error::{Error, Result};
use crate::optimizer;
use crate::reannotator::{self, ReannotationPlan};
use crate::requester::{self, Decision};
use std::collections::BTreeSet;
use xac_policy::{DefaultSemantics, DependencyGraph, Policy, PolicyAnalysis};
use xac_xml::{Document, NodeId, Schema};
use xac_xpath::Path;

/// One parsed update: a §5.3 delete, or the insert of the §8 extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    /// Delete the subtree of every node the path designates.
    Delete(Path),
    /// Insert one `name` element, optionally carrying `text`, under
    /// every node `parent` designates.
    Insert { parent: Path, name: String, text: Option<String> },
}

impl Update {
    /// The path the update selects: the delete path, or the parent path.
    pub fn target(&self) -> &Path {
        match self {
            Update::Delete(path) => path,
            Update::Insert { parent, .. } => parent,
        }
    }

    /// The update path handed to Trigger: the delete path, or
    /// `parent/name`, the inserted nodes' location (§5.3).
    pub fn trigger_path(&self) -> Path {
        match self {
            Update::Delete(path) => path.clone(),
            Update::Insert { parent, name, .. } => {
                parent.clone().then(xac_xpath::Step::child(name.clone()))
            }
        }
    }

    /// The structural write alone, to `selection` (the backend's
    /// [`Backend::select`] of the target); returns (removed, inserted).
    pub fn write(&self, b: &mut dyn Backend, selection: &Selection) -> Result<(usize, usize)> {
        match self {
            Update::Delete(_) => Ok((b.delete_selected(selection)?, 0)),
            Update::Insert { name, text, .. } => {
                Ok((0, b.insert_selected(selection, name, text.as_deref())?))
            }
        }
    }
}

/// Outcome of applying one update to a backend.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Elements removed (delete updates).
    pub removed_elements: usize,
    /// Elements inserted (insert updates).
    pub inserted_elements: usize,
    /// The static re-annotation plan that was applied.
    pub plan: ReannotationPlan,
    /// Sign writes performed by re-annotation.
    pub sign_writes: usize,
    /// Why partial re-annotation failed, when the update fell back to
    /// full re-annotation (the paper's baseline) to stay consistent.
    pub full_fallback: Option<Error>,
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

    /// Apply an update without a guard: [`System::guarded`]'s steps 1,
    /// 3 and 4. A failed partial re-annotation is returned as the error,
    /// not repaired by full re-annotation, so callers that check the
    /// partial plan against the full one see it fail. The system's own
    /// prepared document is *not* mutated — reloading a backend restores
    /// the original document, which is what the experiment loop needs
    /// (each update runs on a fresh copy).
    pub fn apply(&self, b: &mut dyn Backend, update: &Update) -> Result<UpdateOutcome> {
        let selection = self.select(b, update)?;
        self.apply_selected(b, update, &selection, None)
    }

    /// Step 1: refuse an insert of an element the schema does not
    /// declare, or of text under a type that holds none (it has no `v`
    /// column to carry it), before touching the backend; else select the
    /// target.
    fn select(&self, b: &mut dyn Backend, update: &Update) -> Result<Selection> {
        if let Update::Insert { name, text, .. } = update {
            if !self.schema.contains(name) {
                return Err(Error::UndeclaredElement(name.clone()));
            }
            if text.is_some() && !self.schema.is_text_type(name) {
                return Err(Error::UndeclaredText(name.clone()));
            }
        }
        b.select(update.target())
    }

    /// Access-controlled update (§8 extension), the one guarded-update
    /// body: (1) select the delete path, or the insert's parent path,
    /// once — an insert of an undeclared element, or of text the
    /// element's type does not hold, is refused first;
    /// (2) deny unless every selected node is accessible in the
    /// backend's current signs — a delete may only touch accessible
    /// nodes, an insert may only extend accessible parents; (3) apply
    /// the structural write to that selection; (4) unless the Trigger
    /// plan is empty, re-annotate: the footprint pass under `compiled`,
    /// the plan's partial re-annotation under `paper`; (5) if that fails,
    /// fall back to full re-annotation ([`UpdateOutcome::full_fallback`]).
    pub fn guarded(&self, b: &mut dyn Backend, update: &Update) -> Result<GuardedUpdate> {
        self.guarded_observed(b, update, &mut |_| {})
    }

    /// [`System::guarded`], calling `on_fallback` with the partial
    /// re-annotation's error *before* step 5 runs, so a caller can
    /// account for the fallback even when full re-annotation then fails
    /// or panics too.
    pub fn guarded_observed(
        &self,
        b: &mut dyn Backend,
        update: &Update,
        on_fallback: &mut dyn FnMut(&Error),
    ) -> Result<GuardedUpdate> {
        let selection = self.select(b, update)?;
        if !selection.accessible {
            return Ok(GuardedUpdate::Denied(Decision::Denied { nodes: selection.nodes.len() }));
        }
        let outcome = self.apply_selected(b, update, &selection, Some(on_fallback))?;
        Ok(GuardedUpdate::Applied(outcome))
    }

    /// Steps 3–5 on a selection; step 5 runs only with a fallback
    /// observer, otherwise the partial re-annotation's error returns.
    fn apply_selected(
        &self,
        b: &mut dyn Backend,
        update: &Update,
        selection: &Selection,
        fallback: Option<&mut dyn FnMut(&Error)>,
    ) -> Result<UpdateOutcome> {
        let plan = self.plan_update(&update.trigger_path());
        let (removed_elements, inserted_elements) = update.write(b, selection)?;
        let reannotated = if self.annotate_mode == AnnotateMode::Compiled && !plan.is_empty() {
            b.reannotate_footprint(&self.analysis, &mut |_| Ok(()))
        } else {
            reannotator::apply(b, &plan)
        };
        let (sign_writes, full_fallback) = match (reannotated, fallback) {
            (Ok(writes), _) => (writes, None),
            (Err(e), Some(on_fallback)) => {
                on_fallback(&e);
                (self.full_reannotate(b)?, Some(e))
            }
            (Err(e), None) => return Err(e),
        };
        Ok(UpdateOutcome { removed_elements, inserted_elements, plan, sign_writes, full_fallback })
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
            let outcome = s.apply(b.as_mut(), &Update::Delete(u.clone())).unwrap();
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

    /// `apply` surfaces a failed partial re-annotation; `guarded`
    /// repairs it by full re-annotation, and its observer sees the
    /// partial error even when that fallback fails as well.
    #[test]
    fn apply_returns_the_partial_error_guarded_falls_back() {
        use crate::fault::{FaultPlan, FaultingBackend};
        let s = system();
        let update = Update::Delete(xac_xpath::parse("//regular").unwrap());
        let fault = Error::FaultInjected { point: "mid_reannotate".into() };
        let kinds: [fn() -> Box<dyn Backend + Send>; 3] = [
            || Box::new(RelationalBackend::row()),
            || Box::new(RelationalBackend::column()),
            || Box::new(NativeXmlBackend::new()),
        ];
        let faulting = |make: fn() -> Box<dyn Backend + Send>, plan: &str| {
            let mut b = FaultingBackend::new(make(), FaultPlan::parse(plan).unwrap());
            s.load(&mut b).unwrap();
            s.annotate(&mut b).unwrap();
            b
        };
        for make in kinds {
            let mut clean = make();
            s.load(clean.as_mut()).unwrap();
            s.annotate(clean.as_mut()).unwrap();
            assert!(s.apply(clean.as_mut(), &update).unwrap().full_fallback.is_none());
            let repaired = clean.sign_state().unwrap();

            let mut b = faulting(make, "mid_reannotate:error");
            assert_eq!(s.apply(&mut b, &update).unwrap_err(), fault, "{}", b.name());

            let mut b = faulting(make, "mid_reannotate:error");
            let mut seen = Vec::new();
            match s.guarded_observed(&mut b, &update, &mut |e| seen.push(e.clone())).unwrap() {
                GuardedUpdate::Applied(o) => assert_eq!(o.full_fallback, Some(fault.clone())),
                denied => panic!("{}: {denied:?}", b.name()),
            }
            assert_eq!(seen, std::slice::from_ref(&fault), "{}", b.name());
            assert_eq!(b.sign_state().unwrap(), repaired, "{}", b.name());

            let mut b = faulting(make, "mid_reannotate:error,before_annotate:error+1");
            let mut seen = Vec::new();
            let err = s.guarded_observed(&mut b, &update, &mut |e| seen.push(e.clone()));
            let before_annotate = Error::FaultInjected { point: "before_annotate".into() };
            assert_eq!(err.unwrap_err(), before_annotate, "{}", b.name());
            assert_eq!(seen, std::slice::from_ref(&fault), "{}", b.name());
        }
    }
}
