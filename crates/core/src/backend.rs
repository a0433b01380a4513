//! Storage backends: the relational stores (row and column layouts) and
//! the native XML store.
//!
//! All backends expose the same lifecycle — load, annotate, query,
//! update, re-annotate — but implement it the way the corresponding
//! system in the paper does:
//!
//! * the **relational** backend executes the shredded SQL `INSERT` script
//!   to load, translates XPath to SQL for every query, and annotates with
//!   the two-phase algorithm of Fig. 6 (evaluate the annotation query to
//!   a set of universal ids, then iterate every table, intersect, and run
//!   one `UPDATE … WHERE id = k` per affected tuple);
//! * the **native XML** backend parses the XML text to load, evaluates
//!   paths directly on the tree (through the element-name index), and
//!   annotates by upserting `sign` attributes — storing signs only for
//!   nodes whose accessibility differs from the default, the paper's
//!   space optimization.
//!
//! Both keep the document half and the signs in one `Tree`: one sign
//! column per arena slot, which the relational backends keep equal to
//! their tables' `s` cells. The relational tables follow the tree by
//! universal id, which is the element's arena slot: after load, every
//! write is an engine call keyed by id
//! ([`Database::delete_ids`], [`Database::append_row`],
//! [`Database::update_signs`]) except paper-mode (re-)annotation's
//! Fig. 6 per-tuple `UPDATE`s.

use crate::checkpoint::{Checkpoint, CheckpointData};
use crate::document::PreparedDocument;
use crate::error::{Error, Result};
use crate::sign_diff::{positions_of, SignBaseline, SignDiff};
use crate::snapshot::AccessSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::mem::take;
use std::sync::Arc;
use xac_policy::{AnnotationQuery, PolicyAnalysis};
use xac_reldb::{Database, StorageKind, Value};
use xac_shrex::shred::{id_of, node_of};
use xac_shrex::{translate, Mapping, SIGN_COLUMN, VALUE_COLUMN};
use xac_vmc::{Bitset, Collect, DocIndex, Program};
use xac_xml::{Document, NodeId};
use xac_xmlstore::{NodeSetExpr, StoredDocument, NO_SIGN};
use xac_xpath::Path;

/// The nodes an update path designates on a backend's live document,
/// ascending ([`Backend::select`]): what a guarded update guards on and
/// then writes to.
#[derive(Debug, PartialEq, Eq)]
pub struct Selection {
    /// The designated nodes.
    pub nodes: Vec<NodeId>,
    /// Every designated node is accessible in the current signs.
    pub accessible: bool,
}

/// A storage backend able to hold one annotated document.
pub trait Backend {
    /// Human-readable backend name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// Load a prepared document, replacing any previous content.
    fn load(&mut self, prepared: &PreparedDocument) -> Result<()>;

    /// Apply an annotation query; returns the number of sign writes.
    fn annotate(&mut self, query: &AnnotationQuery) -> Result<usize>;

    /// Reset every node to the default sign; returns nodes touched.
    fn reset_annotations(&mut self) -> Result<usize>;

    /// Evaluate a user query: how many nodes it selects and whether every
    /// one of them is accessible.
    fn query_nodes_allowed(&mut self, path: &Path) -> Result<(usize, bool)>;

    /// Number of currently-accessible nodes.
    fn accessible_count(&mut self) -> Result<usize>;

    /// Select the nodes an update path designates, for the guard and
    /// the write that follows: on the VM against the writer's document
    /// index under [`AnnotateMode::Compiled`], else with the tree
    /// evaluator ([`StoredDocument::eval`]), on every backend.
    /// Accessibility is checked up to the first denied node.
    fn select(&mut self, path: &Path) -> Result<Selection>;

    /// Delete the subtrees rooted at the selected nodes (a node inside
    /// an already-removed subtree is skipped); returns elements removed.
    fn delete_selected(&mut self, at: &Selection) -> Result<usize>;

    /// Insert one `name` element (optionally carrying `text`) under every
    /// selected node; returns elements inserted. New nodes start at the
    /// default sign — the re-annotator decides their accessibility.
    fn insert_selected(&mut self, at: &Selection, name: &str, text: Option<&str>) -> Result<usize>;

    /// [`Backend::select`] the path, then [`Backend::delete_selected`].
    fn delete(&mut self, path: &Path) -> Result<usize> {
        let at = self.select(path)?;
        self.delete_selected(&at)
    }

    /// [`Backend::select`] the parent path, then [`Backend::insert_selected`].
    fn insert(&mut self, parent_path: &Path, name: &str, text: Option<&str>) -> Result<usize> {
        let at = self.select(parent_path)?;
        self.insert_selected(&at, name, text)
    }

    /// Partial re-annotation: reset the given scopes to the default sign,
    /// then apply the (triggered-rules) annotation query. Returns total
    /// sign writes.
    fn reannotate(&mut self, scope: &[Path], query: &AnnotationQuery) -> Result<usize>;

    /// Footprint re-annotation (compiled): evaluate the whole policy on
    /// the footprint of the structural writes since the last pass
    /// ([`DocIndex::footprint`]) and write only the signs that differ
    /// from a full annotation's. `progress` gets the writes landed after
    /// each half; its error stops the pass. Returns the sign writes.
    fn reannotate_footprint(&mut self, analysis: &PolicyAnalysis, progress: Progress) -> Result<usize>;

    /// The backend's annotation epoch: a monotone counter bumped by every
    /// state mutation (load, sign writes, resets, document updates).
    /// Read-only operations never change it. Two observations with equal
    /// epochs are guaranteed to have seen identical sign state.
    fn epoch(&self) -> u64;

    /// Publish an immutable [`AccessSnapshot`] of the current epoch:
    /// the document (behind an element-name index) plus the accessible
    /// node set. The snapshot answers requests with no further backend
    /// involvement — the serving engine's read path.
    fn snapshot(&mut self) -> Result<AccessSnapshot>;

    /// The materialized sign state exactly as stored: arena slot (the
    /// relational universal id) → sign character. Relational backends
    /// report every live tuple;
    /// the native store reports only the explicitly-annotated nodes
    /// (its default-sign elision). Equivalence tests use this for
    /// byte-identical comparisons across write paths and serving modes.
    fn sign_state(&mut self) -> Result<BTreeMap<i64, char>>;

    /// The net sign-state change since the *baseline*, in the
    /// [`Backend::sign_state`] id encoding, in O(changed signs) plus one
    /// word pass over the backend's sign column; the call then advances
    /// the baseline to the current state. The result always equals
    /// [`SignDiff::between`] of the `sign_state` at the baseline and the
    /// `sign_state` now. [`Backend::load`] and [`Backend::restore`]
    /// reset the baseline to the state they leave; the durable engine
    /// drains the changes once after its boot or recovery and then once
    /// per committed transaction.
    fn sign_changes(&mut self) -> Result<SignDiff>;

    /// Advance the epoch strictly past both the current epoch and
    /// `min_epoch`, changing no state. The WAL recovery path calls it
    /// with the log's last committed epoch after it has replayed and
    /// annotated, so epoch numbers are never reused for
    /// possibly-different state across a crash — the same invariant as
    /// [`Backend::restore`].
    fn advance_epoch(&mut self, min_epoch: u64);

    /// Capture a complete state image at the current epoch: the tree
    /// (document, index and sign column) for the native store, table
    /// image + mapping + mapped tree for the relational ones. The image shares the backend's copy-on-write
    /// parts (the document, each table) instead of copying them, so a
    /// checkpoint costs O(tables) and the backend's next write copies
    /// only the part it touches (the `fault-recovery` benchmark measures
    /// capture and restore per backend).
    fn checkpoint(&mut self) -> Result<Checkpoint>;

    /// Replace the current state wholesale with a checkpointed image
    /// from the *same* backend (errors otherwise, leaving state
    /// untouched). After restore, `sign_state()` is byte-identical to
    /// the checkpointed state. The epoch strictly advances past both
    /// the current and the checkpointed epoch — an epoch number is
    /// never reused for possibly-different state, preserving the
    /// equal-epochs-imply-equal-state invariant of [`Backend::epoch`].
    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()>;
}

// ---------------------------------------------------------------------
// The document half
// ---------------------------------------------------------------------

/// The document half of every backend — the native document, or the
/// relational mapped tree whose arena slots are the tables' universal
/// ids — with its columnar index and its sign column: the lazy index
/// build, the update selection, the structural writes, every sign read
/// and snapshot assembly. The column holds one byte per arena slot in
/// either of two encodings, which every read here accepts: the native
/// store's sparse one ([`xac_xmlstore::NO_SIGN`] means the default
/// sign) and the relational one, an explicit sign on every live element
/// (a copy of the tables' `s` cells). A clone (a checkpoint) copies two
/// pointers, with an empty sign baseline (a restore resets it) and no
/// pending footprint; the next write copies what it touches.
pub(crate) struct Tree {
    sdoc: Arc<StoredDocument>,
    /// Describes `sdoc` when present: built on first use, kept by sign
    /// writes, patched by structural ones, dropped if one fails.
    index: Option<Arc<DocIndex>>,
    /// The sign of an element whose column byte is
    /// [`xac_xmlstore::NO_SIGN`].
    default_sign: char,
    /// The sign column as of the last [`Tree::sign_changes`].
    baseline: SignBaseline,
    /// The update points since the last re-annotation ([`DocIndex::footprint`]).
    touched: Vec<NodeId>,
}

impl Clone for Tree {
    fn clone(&self) -> Tree {
        Tree {
            sdoc: Arc::clone(&self.sdoc),
            index: self.index.clone(),
            default_sign: self.default_sign,
            baseline: SignBaseline::default(),
            touched: Vec::new(),
        }
    }
}

impl Tree {
    /// A tree over `doc` whose unsigned elements take `default_sign`;
    /// the baseline is the column it starts with.
    pub(crate) fn new(doc: Document, default_sign: char) -> Tree {
        let mut tree = Tree {
            sdoc: Arc::new(StoredDocument::new(doc)),
            index: None,
            default_sign,
            baseline: SignBaseline::default(),
            touched: Vec::new(),
        };
        tree.reset_baseline();
        tree
    }

    pub(crate) fn doc(&self) -> &StoredDocument {
        &self.sdoc
    }

    pub(crate) fn default_sign(&self) -> char {
        self.default_sign
    }

    /// The stored document for a sign write (structural writes go
    /// through [`Tree::delete`] and [`Tree::insert`]).
    pub(crate) fn signs_mut(&mut self) -> &mut StoredDocument {
        Arc::make_mut(&mut self.sdoc)
    }

    pub(crate) fn index(&mut self) -> Arc<DocIndex> {
        let sdoc = &self.sdoc;
        Arc::clone(self.index.get_or_insert_with(|| Arc::new(DocIndex::build(sdoc.doc()))))
    }

    /// The nodes `path` designates, ascending: on the VM against the
    /// index under [`AnnotateMode::Compiled`], else with the tree
    /// evaluator ([`StoredDocument::eval`]).
    pub(crate) fn select(&mut self, path: &Path, mode: AnnotateMode) -> Result<Vec<NodeId>> {
        Ok(match mode {
            AnnotateMode::Compiled => {
                let program = xac_vmc::cached_path_program(path)?;
                xac_vmc::execute_select(&program, &self.index())
            }
            AnnotateMode::PaperFaithful => self.sdoc.eval(path),
        })
    }

    /// [`Tree::select`], with whether every selected node is accessible.
    pub(crate) fn selection(&mut self, path: &Path, mode: AnnotateMode) -> Result<Selection> {
        let nodes = self.select(path, mode)?;
        let accessible = nodes.iter().all(|&n| self.is_accessible(n));
        Ok(Selection { nodes, accessible })
    }

    /// Whether `node` is accessible: its sign, else the default one.
    pub(crate) fn is_accessible(&self, node: NodeId) -> bool {
        self.sdoc.sign_of(node).unwrap_or(self.default_sign) == '+'
    }

    /// Number of accessible elements.
    pub(crate) fn accessible_count(&self) -> usize {
        let (plus, minus) = self.sdoc.sign_counts();
        if self.default_sign == '+' {
            self.sdoc.doc().element_count() - minus
        } else {
            plus
        }
    }

    /// Delete the subtrees rooted at `targets` (see
    /// [`StoredDocument::delete_nodes`]); returns the elements removed.
    pub(crate) fn delete(&mut self, targets: &[NodeId]) -> Result<usize> {
        if targets.is_empty() {
            return Ok(0);
        }
        // Held aside while the tree changes, so an error drops it.
        let mut index = self.index.take();
        self.touched.extend(targets.iter().filter_map(|&t| self.sdoc.doc().parent(t)));
        let sdoc = Arc::make_mut(&mut self.sdoc);
        let before = sdoc.doc().element_count();
        let roots = sdoc.delete_nodes(targets)?;
        if let Some(index) = index.as_mut().filter(|_| !roots.is_empty()) {
            Arc::make_mut(index).remove_subtrees(&roots);
        }
        self.index = index;
        Ok(before - sdoc.doc().element_count())
    }

    /// Insert one `name` element, carrying `text` when given, under every
    /// parent; returns the new, unsigned elements in `parents` order.
    pub(crate) fn insert(
        &mut self,
        parents: &[NodeId],
        name: &str,
        text: Option<&str>,
    ) -> Vec<NodeId> {
        if parents.is_empty() {
            return Vec::new();
        }
        let sdoc = Arc::make_mut(&mut self.sdoc);
        let added: Vec<NodeId> = parents
            .iter()
            .map(|&parent| {
                let node = sdoc.insert_element(parent, name);
                if let Some(t) = text {
                    sdoc.insert_text(node, t);
                }
                node
            })
            .collect();
        if let Some(index) = self.index.as_mut() {
            Arc::make_mut(index).append(sdoc.doc());
        }
        self.touched.extend(parents.iter().chain(&added));
        added
    }

    /// Compare for compare-then-write: run `program` within the domain; the
    /// scope's unselected elements not at `reset`, the selected not at mark.
    pub(crate) fn changes(
        &mut self,
        program: &Program,
        (scope, domain): Footprint,
        reset: u8,
    ) -> Result<[Vec<NodeId>; 2]> {
        let mut selected = Collect::default();
        xac_vmc::execute(program, &self.index(), domain.as_deref(), &mut selected)
            .map_err(Error::System)?;
        let (signs, selected) = (self.sdoc.sign_column(), selected.nodes);
        let differs = |n: &NodeId, want: u8| signs.get(n.index()) != Some(&want);
        let mut picked = selected.iter().peekable();
        let reset = scope.into_iter().map(|s| NodeId::from_index(s as usize)).filter(|n| {
            while picked.next_if(|&p| p < n).is_some() {}
            picked.peek() != Some(&n) && differs(n, reset)
        });
        let mark = selected.iter().copied().filter(|n| differs(n, program.mark as u8)).collect();
        Ok([reset.collect(), mark])
    }

    /// Publish the document, its index and its accessible elements at
    /// `epoch`.
    pub(crate) fn snapshot(&mut self, epoch: u64, backend: &'static str) -> AccessSnapshot {
        let index = self.index();
        let signs = self.sdoc.sign_column();
        let width = self.sdoc.doc().arena_len();
        let accessible = if self.default_sign == '+' {
            // Default allow grants every live element not signed `-`:
            // the index's liveness column names the live elements.
            let mut accessible = Bitset::new(width);
            for &slot in index.element_runs().flatten() {
                if signs.get(slot as usize) != Some(&b'-') {
                    accessible.set(slot);
                }
            }
            accessible
        } else {
            // Under default deny only `+` grants, and only live elements
            // carry signs: one word pass over the column answers.
            positions_of(signs, width, b'+')
        };
        AccessSnapshot::new(epoch, backend, Arc::clone(&self.sdoc), accessible, index)
    }

    /// The net sign change since the baseline, which then advances
    /// ([`Backend::sign_changes`]).
    pub(crate) fn sign_changes(&mut self) -> SignDiff {
        self.baseline.drain(self.sdoc.sign_column())
    }

    /// Forget every pending sign change and footprint: the baseline
    /// becomes the column.
    pub(crate) fn reset_baseline(&mut self) {
        self.touched.clear();
        self.baseline.reset(self.sdoc.sign_column());
    }
}

/// Slots to compare, ascending, and the VM domain (`None`: the document).
pub(crate) type Footprint = (Vec<u32>, Option<Vec<u32>>);

/// A repair's progress hook: called with the sign writes landed so far.
pub type Progress<'a> = &'a mut dyn FnMut(usize) -> Result<()>;

/// Write [`Tree::changes`] in two halves, calling `progress` after each:
/// a fault between them leaves the repair half-written.
fn write_halves(
    [reset, mark]: &[Vec<NodeId>; 2],
    progress: Progress,
    mut write: impl FnMut(&[NodeId], bool) -> Result<usize>,
) -> Result<usize> {
    let cut = (reset.len() + mark.len()) / 2;
    let (r, m) = (cut.min(reset.len()), cut.saturating_sub(reset.len()));
    let mut done = 0;
    for (resets, marks) in [(&reset[..r], &mark[..m]), (&reset[r..], &mark[m..])] {
        for (nodes, is_mark) in [(resets, false), (marks, true)] {
            done += if nodes.is_empty() { 0 } else { write(nodes, is_mark)? };
        }
        progress(done)?;
    }
    Ok(done)
}

// ---------------------------------------------------------------------
// Relational backend
// ---------------------------------------------------------------------

/// How a relational backend writes signs during (re-)annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnnotateMode {
    /// The Fig. 6 inner loop exactly as published: one
    /// `UPDATE {table} SET s = … WHERE id = k` SQL statement per affected
    /// tuple, each one parsed, planned and executed individually. This is
    /// what the paper measures, and the default.
    #[default]
    PaperFaithful,
    /// Bytecode execution (`xac-vmc`): the annotation query compiles once
    /// into a register program per (policy, schema) fingerprint and runs
    /// as fused scan+filter+sign-write ops over a columnar document
    /// index, skipping SQL translation/parsing/planning on the relational
    /// backends and the tree-walk evaluator on the native one. Relational
    /// writes go to each table's primary-key index in one engine call
    /// ([`Database::update_signs`]) instead of one `UPDATE` per tuple;
    /// the final sign state is byte-identical to
    /// [`AnnotateMode::PaperFaithful`]. Every policy query compiles
    /// (rule resources are absolute), so this mode has no interpreted
    /// fallback: a compile error is an [`Error::XPath`].
    Compiled,
}

impl AnnotateMode {
    /// The accepted command-line spellings, in [`AnnotateMode::parse`]
    /// order.
    pub const VALID_NAMES: [&'static str; 2] = ["paper", "compiled"];

    /// Parse a command-line spelling. Unknown input yields the
    /// structured [`Error::UnknownAnnotateMode`] so callers can report
    /// the valid modes instead of string-matching the message.
    pub fn parse(input: &str) -> Result<AnnotateMode> {
        match input {
            "paper" => Ok(AnnotateMode::PaperFaithful),
            "compiled" => Ok(AnnotateMode::Compiled),
            other => Err(Error::UnknownAnnotateMode(other.to_string())),
        }
    }

    /// The canonical command-line spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AnnotateMode::PaperFaithful => "paper",
            AnnotateMode::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for AnnotateMode {
    /// Renders the canonical spelling, so `Display` round-trips through
    /// [`AnnotateMode::parse`]/`FromStr`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AnnotateMode {
    type Err = Error;

    fn from_str(s: &str) -> Result<AnnotateMode> {
        AnnotateMode::parse(s)
    }
}

/// A loaded relational document beside its tables. Both parts sit
/// behind `Arc`s, so a clone (a checkpoint) copies neither; a write
/// copies the parts it touches, once per epoch ([`Arc::make_mut`]).
#[derive(Clone)]
pub(crate) struct RelationalState {
    mapping: Arc<Mapping>,
    /// The position in `mapping.tables()` of each interned element-name
    /// id of the tree's document. Every mapped name is interned at load,
    /// so a name interned later has no table.
    table_of_name: Arc<[Option<usize>]>,
    /// The mapped tree, its index and its sign column. The tables follow
    /// it: a tuple's universal id is its element's arena slot, its table
    /// is its element's name, and its `s` cell is the column's byte.
    tree: Tree,
}

/// XML access control over a relational database (row layout = the
/// PostgreSQL stand-in, column layout = the MonetDB/SQL stand-in).
pub struct RelationalBackend {
    kind: StorageKind,
    db: Database,
    state: Option<RelationalState>,
    mode: AnnotateMode,
    /// Monotone annotation epoch; see [`Backend::epoch`].
    epoch: u64,
}

impl RelationalBackend {
    /// A backend over the given layout, in the default
    /// [`AnnotateMode::PaperFaithful`] mode.
    pub fn new(kind: StorageKind) -> RelationalBackend {
        RelationalBackend {
            kind,
            db: Database::new(kind),
            state: None,
            mode: AnnotateMode::default(),
            epoch: 0,
        }
    }

    fn static_name(kind: StorageKind) -> &'static str {
        match kind {
            StorageKind::Row => "relational/row",
            StorageKind::Column => "relational/column",
        }
    }

    /// A backend over the given layout and annotation write mode.
    pub fn with_mode(kind: StorageKind, mode: AnnotateMode) -> RelationalBackend {
        let mut b = RelationalBackend::new(kind);
        b.mode = mode;
        b
    }

    /// The current annotation write mode.
    pub fn annotate_mode(&self) -> AnnotateMode {
        self.mode
    }

    /// Row-store backend (PostgreSQL stand-in).
    pub fn row() -> RelationalBackend {
        RelationalBackend::new(StorageKind::Row)
    }

    /// Column-store backend (MonetDB/SQL stand-in).
    pub fn column() -> RelationalBackend {
        RelationalBackend::new(StorageKind::Column)
    }

    /// The underlying storage kind.
    pub fn kind(&self) -> StorageKind {
        self.kind
    }

    fn state(&self) -> Result<&RelationalState> {
        self.state
            .as_ref()
            .ok_or(Error::BackendNotLoaded { backend: Self::static_name(self.kind) })
    }

    /// The loaded state, with the engine borrowed beside it.
    fn parts(&mut self) -> Result<(&mut RelationalState, &mut Database)> {
        let backend = Self::static_name(self.kind);
        let state = self.state.as_mut().ok_or(Error::BackendNotLoaded { backend })?;
        Ok((state, &mut self.db))
    }

    /// Render an annotation query as one SQL statement — the paper's
    /// `(Q1 UNION Q2 UNION Q6) EXCEPT (Q3 UNION Q5)`.
    pub fn render_annotation_sql(&self, query: &AnnotationQuery) -> Result<String> {
        let state = self.state()?;
        let schema = state.mapping.schema();
        let side = |paths: &[Path]| -> Result<String> {
            let mut parts = Vec::with_capacity(paths.len());
            for p in paths {
                parts.push(format!("({})", translate(p, schema)?));
            }
            Ok(parts.join(" UNION "))
        };
        if query.include.is_empty() {
            return Ok(format!("SELECT id FROM {} WHERE 1 = 0", schema.root()));
        }
        let include = side(&query.include)?;
        if query.except.is_empty() {
            Ok(include)
        } else {
            Ok(format!("({include}) EXCEPT ({})", side(&query.except)?))
        }
    }

    /// Universal ids selected by a path, via XPath→SQL translation.
    fn path_ids(&mut self, path: &Path) -> Result<BTreeSet<i64>> {
        let sql = translate(path, self.state()?.mapping.schema())?;
        Ok(self.db.query(&sql)?.column_as_int_set(0))
    }

    /// Per-table sign write, dispatching on the annotation mode. Both
    /// modes leave identical table state; they differ only in how the
    /// writes reach the engine. Public so benches and equivalence tests
    /// can measure the write path in isolation from annotation-query
    /// evaluation (which dominates `annotate`).
    pub fn write_signs(&mut self, targets: &BTreeSet<i64>, sign: char) -> Result<usize> {
        let _span = xac_obs::span("backend.write_signs");
        self.epoch += 1;
        let mode = self.mode;
        let (state, db) = self.parts()?;
        if mode == AnnotateMode::Compiled {
            let slots = targets.iter().filter_map(|&id| usize::try_from(id).ok());
            return Ok(state.write_signs(db, slots, sign)?);
        }
        // Fig. 6's inner loop as published: fetch each table's ids,
        // intersect with the target set, one UPDATE statement per
        // affected tuple.
        let mut updated = 0usize;
        for table in state.mapping.tables() {
            let ids = db.query(&format!("SELECT id FROM {}", table.name))?;
            for id in ids.column_as_ints(0).into_iter().filter(|id| targets.contains(id)) {
                db.execute(&format!("UPDATE {} SET s = '{sign}' WHERE id = {id}", table.name))?;
                state.tree.signs_mut().annotate(node_of(id), sign);
                updated += 1;
            }
        }
        Ok(updated)
    }

    /// The set of accessible universal ids (sign `'+'`), read from the
    /// tree's sign column.
    pub fn accessible_ids(&mut self) -> Result<BTreeSet<i64>> {
        let signs = self.state()?.tree.doc().sign_column();
        Ok((0i64..).zip(signs).filter(|(_, &b)| b == b'+').map(|(id, _)| id).collect())
    }

    /// The complete sign state: every live universal id mapped to its
    /// current sign character, read from the tables' `id`/`s` cells
    /// ([`Database::scan_sign_cells`]). It does not read the tree's sign
    /// column, so the tests use it as that column's oracle, and to
    /// assert that two write modes leave byte-identical annotations.
    pub fn sign_map(&self) -> Result<BTreeMap<i64, char>> {
        let mut out = BTreeMap::new();
        for table in self.state()?.mapping.tables() {
            self.db.scan_sign_cells(&table.name, |id, s| {
                out.insert(id, s);
            })?;
        }
        Ok(out)
    }

    /// Compiled annotation: fetch (or compile) the query's bytecode
    /// program, execute it over the columnar document index, and stream
    /// the selected set into [`RelationalState::write_signs`].
    fn annotate_compiled(&mut self, query: &AnnotationQuery) -> Result<usize> {
        let program = xac_vmc::cached_query_program(query, Some(self.state()?.mapping.schema()))?;
        self.epoch += 1;
        let (state, db) = self.parts()?;
        let index = state.tree.index();
        let mut sink = RelationalSignSink { db, state };
        xac_vmc::execute(&program, &index, None, &mut sink).map_err(Error::System)
    }

    /// Compiled compare-then-write repair ([`Tree::changes`], [`write_halves`]).
    fn repair(&mut self, query: &AnnotationQuery, scope: Footprint, progress: Progress) -> Result<usize> {
        let program = xac_vmc::cached_query_program(query, Some(self.state()?.mapping.schema()))?;
        self.epoch += 1;
        let (state, db) = self.parts()?;
        let signs = [state.tree.default_sign(), program.mark];
        let changes = state.tree.changes(&program, scope, signs[0] as u8)?;
        write_halves(&changes, progress, |nodes, mark| {
            let slots = nodes.iter().map(|n| n.index());
            Ok(state.write_signs(db, slots, signs[usize::from(mark)])?)
        })
    }
}

impl RelationalState {
    /// The rows of the live elements among `slots`, one list per entry
    /// of `mapping.tables()`: a row's table is its element's name, read
    /// per interned name id. A slot holding no live element has no row
    /// and is skipped.
    fn rows_by_table(&self, slots: impl IntoIterator<Item = usize>) -> Vec<Vec<i64>> {
        let doc = self.tree.doc().doc();
        let mut rows = vec![Vec::new(); self.mapping.tables().len()];
        for slot in slots {
            let node = NodeId::from_index(slot);
            let name = doc.is_alive(node).then(|| doc.name_id(node)).flatten();
            if let Some(t) = name.and_then(|n| self.table_of_name.get(n as usize).copied().flatten()) {
                rows[t].push(slot as i64);
            }
        }
        rows
    }

    /// The compiled relational sign write: one
    /// [`Database::update_signs`] per table with exactly its own rows
    /// among `slots`, each mirrored into the tree's sign column.
    fn write_signs(
        &mut self,
        db: &mut Database,
        slots: impl IntoIterator<Item = usize>,
        sign: char,
    ) -> xac_reldb::Result<usize> {
        let rows = self.rows_by_table(slots);
        let mut updated = 0usize;
        for (table, ids) in self.mapping.tables().iter().zip(rows) {
            if !ids.is_empty() {
                updated += db.update_signs(&table.name, &ids, sign)?;
                let sdoc = self.tree.signs_mut();
                ids.iter().for_each(|&id| sdoc.annotate(node_of(id), sign));
            }
        }
        Ok(updated)
    }
}

/// The VM's fused sign sink over the relational engine: the compiled
/// write of [`RelationalState::write_signs`], fed from the VM's node set
/// instead of a SQL result set.
struct RelationalSignSink<'a> {
    db: &'a mut Database,
    state: &'a mut RelationalState,
}

impl xac_vmc::SignSink for RelationalSignSink<'_> {
    fn write(&mut self, nodes: &[xac_xml::NodeId], sign: char) -> std::result::Result<usize, String> {
        let _span = xac_obs::span("backend.write_signs");
        let slots = nodes.iter().map(|n| n.index());
        self.state.write_signs(self.db, slots, sign).map_err(|e| e.to_string())
    }
}

impl Backend for RelationalBackend {
    fn name(&self) -> &'static str {
        Self::static_name(self.kind)
    }

    fn load(&mut self, prepared: &PreparedDocument) -> Result<()> {
        let _span = xac_obs::span("backend.load");
        let mut db = Database::new(self.kind);
        db.execute_script(&prepared.ddl)?;
        db.execute_script(&prepared.sql_text)?;
        self.db = db;
        self.epoch += 1;
        // The loaded rows carry the default sign; so does the column.
        let mapping = Arc::new(prepared.mapping.clone());
        let mut doc = prepared.doc.clone();
        let ids: Vec<u32> = mapping.tables().iter().map(|t| doc.intern_name(&t.name)).collect();
        let mut table_of_name = vec![None; doc.name_id_count()];
        for (t, id) in ids.into_iter().enumerate() {
            table_of_name[id as usize] = Some(t);
        }
        let mut tree = Tree::new(doc, prepared.default_sign);
        tree.signs_mut().sign_every_element(prepared.default_sign);
        tree.reset_baseline();
        let table_of_name = table_of_name.into();
        self.state = Some(RelationalState { mapping, table_of_name, tree });
        Ok(())
    }

    fn annotate(&mut self, query: &AnnotationQuery) -> Result<usize> {
        let _span = xac_obs::span("backend.annotate");
        if self.mode == AnnotateMode::Compiled {
            return self.annotate_compiled(query);
        }
        let sql = self.render_annotation_sql(query)?;
        let targets = self.db.query(&sql)?.column_as_int_set(0);
        self.write_signs(&targets, query.mark.sign())
    }

    fn reset_annotations(&mut self) -> Result<usize> {
        self.epoch += 1;
        let mode = self.mode;
        let (state, db) = self.parts()?;
        let default = state.tree.default_sign();
        let mut touched = 0usize;
        for table in state.mapping.tables() {
            touched += if mode == AnnotateMode::Compiled {
                // Vectorized reset: one sweep per table's sign column,
                // no SQL. Same final state as the UPDATE below.
                db.reset_signs(&table.name, default)?
            } else {
                let sql = format!("UPDATE {} SET s = '{default}'", table.name);
                db.execute(&sql)?.count().unwrap_or(0)
            };
        }
        // Every live row was reset, and every live element has a sign.
        state.tree.signs_mut().overwrite_signs(default);
        Ok(touched)
    }

    fn query_nodes_allowed(&mut self, path: &Path) -> Result<(usize, bool)> {
        let _span = xac_obs::span("backend.query");
        let requested = self.path_ids(path)?;
        let tree = &self.state()?.tree;
        Ok((requested.len(), requested.iter().all(|&id| tree.is_accessible(node_of(id)))))
    }

    fn accessible_count(&mut self) -> Result<usize> {
        Ok(self.state()?.tree.accessible_count())
    }

    fn select(&mut self, path: &Path) -> Result<Selection> {
        let _span = xac_obs::span("backend.select");
        let mode = self.mode;
        self.parts()?.0.tree.selection(path, mode)
    }

    fn delete_selected(&mut self, at: &Selection) -> Result<usize> {
        self.epoch += 1;
        let (state, db) = self.parts()?;
        // The rows of every element in the removed subtrees, by table,
        // gathered before the subtrees go: one `delete_ids` per table.
        let rows = {
            let slots = state.tree.index().subtree_slots(&at.nodes);
            state.rows_by_table(slots.into_iter().map(|s| s as usize))
        };
        let removed = state.tree.delete(&at.nodes)?;
        for (table, ids) in state.mapping.tables().iter().zip(&rows) {
            if !ids.is_empty() {
                db.delete_ids(&table.name, ids)?;
            }
        }
        Ok(removed)
    }

    fn insert_selected(&mut self, at: &Selection, name: &str, text: Option<&str>) -> Result<usize> {
        self.epoch += 1;
        let (state, db) = self.parts()?;
        let Some(columns) = state.mapping.columns(name) else {
            return Err(Error::Shrex(format!("element `{name}` is not part of the mapped schema")));
        };
        let added = state.tree.insert(&at.nodes, name, text);
        let default = state.tree.default_sign();
        for (&parent, &node) in at.nodes.iter().zip(&added) {
            // The cells a loaded tuple of this table carries, in the
            // table's column order; `v` is empty when there is no text.
            let row = columns
                .iter()
                .map(|&column| match column {
                    "id" => Value::Int(id_of(node)),
                    "pid" => Value::Int(id_of(parent)),
                    VALUE_COLUMN => Value::Text(text.unwrap_or("").to_string()),
                    SIGN_COLUMN => Value::Text(default.to_string()),
                    other => unreachable!("mapped column `{other}`"),
                })
                .collect();
            db.append_row(name, row)?;
            state.tree.signs_mut().annotate(node, default);
        }
        Ok(added.len())
    }

    fn reannotate(&mut self, scope: &[Path], query: &AnnotationQuery) -> Result<usize> {
        // Compiled: VM scopes, compare-then-write. Paper: SQL scopes reset, then the query.
        self.parts()?.0.tree.touched.clear();
        let mut scope_ids: BTreeSet<i64> = BTreeSet::new();
        for p in scope {
            if self.mode == AnnotateMode::Compiled {
                let nodes = self.parts()?.0.tree.select(p, AnnotateMode::Compiled)?;
                scope_ids.extend(nodes.into_iter().map(id_of));
            } else {
                scope_ids.extend(self.path_ids(p)?);
            }
        }
        if self.mode == AnnotateMode::Compiled {
            let slots = scope_ids.into_iter().map(|id| id as u32).collect();
            return self.repair(query, (slots, None), &mut |_| Ok(()));
        }
        let reset = self.write_signs(&scope_ids, self.state()?.tree.default_sign())?;
        Ok(reset + self.annotate(query)?)
    }

    fn reannotate_footprint(&mut self, analysis: &PolicyAnalysis, progress: Progress) -> Result<usize> {
        let tree = &mut self.parts()?.0.tree;
        let footprint = tree.index().footprint(&take(&mut tree.touched), analysis.qualifier_labels());
        self.repair(analysis.annotation_query(), footprint, progress)
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn snapshot(&mut self) -> Result<AccessSnapshot> {
        let (epoch, name) = (self.epoch, self.name());
        Ok(self.parts()?.0.tree.snapshot(epoch, name))
    }

    fn sign_state(&mut self) -> Result<BTreeMap<i64, char>> {
        self.sign_map()
    }

    fn sign_changes(&mut self) -> Result<SignDiff> {
        Ok(self.parts()?.0.tree.sign_changes())
    }

    fn advance_epoch(&mut self, min_epoch: u64) {
        self.epoch = self.epoch.max(min_epoch) + 1;
    }

    fn checkpoint(&mut self) -> Result<Checkpoint> {
        Ok(Checkpoint {
            epoch: self.epoch,
            backend: Self::static_name(self.kind),
            data: CheckpointData::Relational {
                db: self.db.clone(),
                state: self.state.clone(),
            },
        })
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let (CheckpointData::Relational { db, state }, true) =
            (&checkpoint.data, checkpoint.backend == self.name())
        else {
            return Err(checkpoint.foreign_to(self.name()));
        };
        self.db = db.clone();
        self.state = state.clone();
        // Strictly advance the epoch: the restored state may differ from
        // whatever the current epoch number was stamped on.
        self.epoch = self.epoch.max(checkpoint.epoch) + 1;
        if let Some(state) = &mut self.state {
            state.tree.reset_baseline();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Native XML backend
// ---------------------------------------------------------------------

/// XML access control over the native XML store (the MonetDB/XQuery
/// stand-in).
pub struct NativeXmlBackend {
    /// The document, its index and its sparse sign column. Snapshots
    /// and checkpoints share it; the first write after one copies it
    /// ([`Arc::make_mut`]) — the sign column and the arena's chunk
    /// pointers, while each arena chunk is copied only when a structural
    /// write touches it.
    tree: Option<Tree>,
    mode: AnnotateMode,
    /// Monotone annotation epoch; see [`Backend::epoch`].
    epoch: u64,
}

impl NativeXmlBackend {
    /// An empty native backend.
    pub fn new() -> NativeXmlBackend {
        NativeXmlBackend { tree: None, mode: AnnotateMode::default(), epoch: 0 }
    }

    /// An empty native backend in the given annotation mode. The native
    /// store has no SQL layer, so `PaperFaithful` is its plain
    /// tree-walk path; `Compiled` routes annotation through the bytecode
    /// VM.
    pub fn with_mode(mode: AnnotateMode) -> NativeXmlBackend {
        let mut b = NativeXmlBackend::new();
        b.mode = mode;
        b
    }

    /// The current annotation mode.
    pub fn annotate_mode(&self) -> AnnotateMode {
        self.mode
    }

    fn tree(&mut self) -> Result<&mut Tree> {
        self.tree.as_mut().ok_or(Error::BackendNotLoaded { backend: "native/xml" })
    }

    fn loaded(&self) -> Result<&Tree> {
        self.tree.as_ref().ok_or(Error::BackendNotLoaded { backend: "native/xml" })
    }

    /// Mutable access to the store for a sign write; every caller is a
    /// state mutation, so the epoch advances here.
    fn sdoc_mut(&mut self) -> Result<&mut StoredDocument> {
        self.epoch += 1;
        Ok(self.tree()?.signs_mut())
    }

    /// The stored document (for inspection in tests and examples).
    pub fn stored(&self) -> Option<&StoredDocument> {
        self.tree.as_ref().map(Tree::doc)
    }

    /// Compiled compare-then-write repair ([`Tree::changes`], [`write_halves`]).
    fn repair(&mut self, query: &AnnotationQuery, scope: Footprint, progress: Progress) -> Result<usize> {
        let program = xac_vmc::cached_query_program(query, None)?;
        let changes = self.tree()?.changes(&program, scope, NO_SIGN)?;
        let sdoc = self.sdoc_mut()?;
        write_halves(&changes, progress, |nodes, mark| {
            Ok(if mark {
                sdoc.annotate_nodes(nodes, program.mark)
            } else {
                sdoc.clear_signs(nodes.iter().copied())
            })
        })
    }

    fn expr_of(query: &AnnotationQuery) -> Option<NodeSetExpr> {
        let include = NodeSetExpr::union_of(query.include.clone())?;
        match NodeSetExpr::union_of(query.except.clone()) {
            Some(except) => Some(include.except(except)),
            None => Some(include),
        }
    }
}

/// The VM's fused sign sink over the native store: the selected nodes
/// go straight into the store's sign column via
/// [`StoredDocument::annotate_nodes`].
struct NativeSignSink<'a> {
    sdoc: &'a mut StoredDocument,
}

impl xac_vmc::SignSink for NativeSignSink<'_> {
    fn write(&mut self, nodes: &[xac_xml::NodeId], sign: char) -> std::result::Result<usize, String> {
        Ok(self.sdoc.annotate_nodes(nodes, sign))
    }
}

impl Default for NativeXmlBackend {
    fn default() -> Self {
        NativeXmlBackend::new()
    }
}

impl Backend for NativeXmlBackend {
    fn name(&self) -> &'static str {
        "native/xml"
    }

    fn load(&mut self, prepared: &PreparedDocument) -> Result<()> {
        let _span = xac_obs::span("backend.load");
        // A native store loads from the serialized document — parsing is
        // the measured work, exactly like shipping the XML file to the
        // XQuery database.
        let doc = Document::parse_str(&prepared.xml_text)?;
        self.tree = Some(Tree::new(doc, prepared.default_sign));
        self.epoch += 1;
        Ok(())
    }

    fn annotate(&mut self, query: &AnnotationQuery) -> Result<usize> {
        let _span = xac_obs::span("backend.annotate");
        let mark = query.mark.sign();
        if self.mode == AnnotateMode::Compiled {
            // Mirror the interpreted path: an empty include annotates
            // nothing and leaves the epoch untouched.
            if query.include.is_empty() {
                return Ok(0);
            }
            let program = xac_vmc::cached_query_program(query, None)?;
            let index = self.tree()?.index();
            let mut sink = NativeSignSink { sdoc: self.sdoc_mut()? };
            return xac_vmc::execute(&program, &index, None, &mut sink).map_err(Error::System);
        }
        let Some(expr) = Self::expr_of(query) else {
            return Ok(0);
        };
        Ok(self.sdoc_mut()?.annotate_expr(&expr, mark))
    }

    fn reset_annotations(&mut self) -> Result<usize> {
        Ok(self.sdoc_mut()?.clear_all_signs())
    }

    fn query_nodes_allowed(&mut self, path: &Path) -> Result<(usize, bool)> {
        let _span = xac_obs::span("backend.query");
        let tree = self.loaded()?;
        let nodes = tree.doc().eval(path);
        Ok((nodes.len(), nodes.iter().all(|&n| tree.is_accessible(n))))
    }

    fn accessible_count(&mut self) -> Result<usize> {
        Ok(self.loaded()?.accessible_count())
    }

    fn select(&mut self, path: &Path) -> Result<Selection> {
        let _span = xac_obs::span("backend.select");
        let mode = self.mode;
        self.tree()?.selection(path, mode)
    }

    fn delete_selected(&mut self, at: &Selection) -> Result<usize> {
        self.epoch += 1;
        self.tree()?.delete(&at.nodes)
    }

    fn insert_selected(&mut self, at: &Selection, name: &str, text: Option<&str>) -> Result<usize> {
        self.epoch += 1;
        Ok(self.tree()?.insert(&at.nodes, name, text).len())
    }

    fn reannotate(&mut self, scope: &[Path], query: &AnnotationQuery) -> Result<usize> {
        let mode = self.mode;
        let tree = self.tree()?;
        tree.touched.clear();
        let mut scope_nodes: BTreeSet<NodeId> = BTreeSet::new();
        for p in scope {
            scope_nodes.extend(tree.select(p, mode)?);
        }
        if mode == AnnotateMode::Compiled {
            let slots = scope_nodes.into_iter().map(|n| n.index() as u32).collect();
            return self.repair(query, (slots, None), &mut |_| Ok(()));
        }
        let reset = self.sdoc_mut()?.clear_signs(scope_nodes);
        Ok(reset + self.annotate(query)?)
    }

    fn reannotate_footprint(&mut self, analysis: &PolicyAnalysis, progress: Progress) -> Result<usize> {
        let tree = self.tree()?;
        let footprint = tree.index().footprint(&take(&mut tree.touched), analysis.qualifier_labels());
        self.repair(analysis.annotation_query(), footprint, progress)
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn snapshot(&mut self) -> Result<AccessSnapshot> {
        let epoch = self.epoch;
        Ok(self.tree()?.snapshot(epoch, "native/xml"))
    }

    fn sign_state(&mut self) -> Result<BTreeMap<i64, char>> {
        let signed = self.loaded()?.doc().signed_nodes();
        Ok(signed.map(|(n, s)| (id_of(n), s)).collect())
    }

    fn sign_changes(&mut self) -> Result<SignDiff> {
        Ok(self.tree()?.sign_changes())
    }

    fn advance_epoch(&mut self, min_epoch: u64) {
        self.epoch = self.epoch.max(min_epoch) + 1;
    }

    fn checkpoint(&mut self) -> Result<Checkpoint> {
        Ok(Checkpoint {
            epoch: self.epoch,
            backend: "native/xml",
            data: CheckpointData::Native { tree: self.tree.clone() },
        })
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let CheckpointData::Native { tree } = &checkpoint.data else {
            return Err(checkpoint.foreign_to(self.name()));
        };
        self.tree = tree.clone();
        if let Some(tree) = &mut self.tree {
            tree.reset_baseline();
        }
        self.epoch = self.epoch.max(checkpoint.epoch) + 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Update;
    use xac_policy::policy::hospital_policy;

    fn prepared() -> PreparedDocument {
        let schema = crate::hospital_schema_for_docs();
        let doc = Document::parse_str(
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
        .unwrap();
        PreparedDocument::prepare(&schema, doc, '-').unwrap()
    }

    fn backends() -> Vec<Box<dyn Backend>> {
        vec![
            Box::new(RelationalBackend::row()),
            Box::new(RelationalBackend::column()),
            Box::new(NativeXmlBackend::new()),
        ]
    }

    #[test]
    fn all_backends_agree_on_hospital_annotation() {
        let p = prepared();
        let query = AnnotationQuery::from_policy(&hospital_policy());
        // Reference: nodes accessible per Table 2 semantics.
        let expected = xac_policy::accessible_nodes(&p.doc, &hospital_policy()).len();
        for mut b in backends() {
            let unloaded = b.accessible_count().unwrap_err();
            assert!(matches!(unloaded, Error::BackendNotLoaded { .. }), "{}", b.name());
            b.load(&p).unwrap();
            let writes = b.annotate(&query).unwrap();
            assert!(writes > 0, "{}", b.name());
            assert_eq!(b.accessible_count().unwrap(), expected, "{}", b.name());
        }
    }

    #[test]
    fn unloaded_backends_error() {
        for mut b in backends() {
            assert!(b.annotate(&AnnotationQuery::from_policy(&hospital_policy())).is_err());
            assert!(b.accessible_count().is_err());
            assert!(b.reset_annotations().is_err());
        }
    }

    #[test]
    fn reset_restores_default() {
        let p = prepared();
        let query = AnnotationQuery::from_policy(&hospital_policy());
        for mut b in backends() {
            b.load(&p).unwrap();
            b.annotate(&query).unwrap();
            assert!(b.accessible_count().unwrap() > 0);
            b.reset_annotations().unwrap();
            assert_eq!(b.accessible_count().unwrap(), 0, "{}", b.name());
        }
    }

    #[test]
    fn delete_then_accessible_unchanged_until_reannotation() {
        let p = prepared();
        let query = AnnotationQuery::from_policy(&hospital_policy());
        let u = xac_xpath::parse("//patient/treatment").unwrap();
        for mut b in backends() {
            b.load(&p).unwrap();
            b.annotate(&query).unwrap();
            let removed = b.delete(&u).unwrap();
            assert_eq!(removed, 8, "{}: 2 treatments × 4 elements", b.name());
            // The stale annotations still say only one patient accessible.
            let (n, allowed) = b.query_nodes_allowed(&xac_xpath::parse("//patient").unwrap()).unwrap();
            assert_eq!(n, 3);
            assert!(!allowed, "{}: stale annotations deny", b.name());
        }
    }

    #[test]
    fn annotate_modes_agree_on_hospital() {
        let p = prepared();
        let query = AnnotationQuery::from_policy(&hospital_policy());
        for kind in [StorageKind::Row, StorageKind::Column] {
            let mut faithful = RelationalBackend::new(kind);
            let mut compiled = RelationalBackend::with_mode(kind, AnnotateMode::Compiled);
            assert_eq!(faithful.annotate_mode(), AnnotateMode::PaperFaithful);
            faithful.load(&p).unwrap();
            compiled.load(&p).unwrap();
            let w1 = faithful.annotate(&query).unwrap();
            let w2 = compiled.annotate(&query).unwrap();
            assert_eq!(w1, w2, "{kind:?}: compiled writes the same rows");
            assert_eq!(
                faithful.accessible_ids().unwrap(),
                compiled.accessible_ids().unwrap(),
                "{kind:?}: identical sign outcome"
            );
            assert_eq!(
                faithful.sign_map().unwrap(),
                compiled.sign_map().unwrap(),
                "{kind:?}: compiled sign state byte-identical"
            );
            // Re-annotation after an update agrees too.
            let u = xac_xpath::parse("//patient/treatment").unwrap();
            let scope = vec![xac_xpath::parse("//patient").unwrap()];
            for b in [&mut faithful, &mut compiled] {
                b.delete(&u).unwrap();
                b.reannotate(&scope, &query).unwrap();
            }
            assert_eq!(
                faithful.accessible_ids().unwrap(),
                compiled.accessible_ids().unwrap(),
                "{kind:?}: identical after reannotation"
            );
            assert_eq!(
                faithful.sign_map().unwrap(),
                compiled.sign_map().unwrap(),
                "{kind:?}: compiled identical after reannotation"
            );
            // Full reset sweeps agree as well.
            let rf = faithful.reset_annotations().unwrap();
            let rc = compiled.reset_annotations().unwrap();
            assert_eq!(rf, rc, "{kind:?}: reset touches the same rows");
            assert_eq!(
                faithful.sign_map().unwrap(),
                compiled.sign_map().unwrap(),
                "{kind:?}: compiled identical after reset"
            );
        }
    }

    #[test]
    fn native_compiled_mode_matches_interpreter() {
        let p = prepared();
        let query = AnnotationQuery::from_policy(&hospital_policy());
        let mut interp = NativeXmlBackend::new();
        let mut compiled = NativeXmlBackend::with_mode(AnnotateMode::Compiled);
        assert_eq!(compiled.annotate_mode(), AnnotateMode::Compiled);
        interp.load(&p).unwrap();
        compiled.load(&p).unwrap();
        let w1 = interp.annotate(&query).unwrap();
        let w2 = compiled.annotate(&query).unwrap();
        assert_eq!(w1, w2, "same number of sign writes");
        assert_eq!(
            interp.sign_state().unwrap(),
            compiled.sign_state().unwrap(),
            "byte-identical native sign state"
        );
        // Structural update + re-annotation: the compiled index rebuilds.
        let u = xac_xpath::parse("//patient/treatment").unwrap();
        let scope = vec![xac_xpath::parse("//patient").unwrap()];
        for b in [&mut interp, &mut compiled] {
            b.delete(&u).unwrap();
            b.reannotate(&scope, &query).unwrap();
        }
        assert_eq!(
            interp.sign_state().unwrap(),
            compiled.sign_state().unwrap(),
            "identical after delete + reannotation"
        );
    }

    #[test]
    fn native_compiled_empty_include_skips_epoch_bump() {
        let p = prepared();
        let empty = AnnotationQuery {
            include: vec![],
            except: vec![],
            mark: xac_policy::Effect::Allow,
            shape: xac_policy::QueryShape::Grants,
        };
        let mut b = NativeXmlBackend::with_mode(AnnotateMode::Compiled);
        b.load(&p).unwrap();
        let before = b.epoch();
        assert_eq!(b.annotate(&empty).unwrap(), 0);
        assert_eq!(b.epoch(), before, "no-op annotate must not bump the epoch");
    }

    #[test]
    fn unknown_annotate_mode_error_lists_all_modes() {
        let err = AnnotateMode::parse("vectorized").unwrap_err();
        assert_eq!(err, Error::UnknownAnnotateMode("vectorized".to_string()));
        let text = err.to_string();
        for name in AnnotateMode::VALID_NAMES {
            assert!(text.contains(name), "`{name}` missing from: {text}");
        }
    }

    #[test]
    fn annotate_mode_display_round_trips_through_parse() {
        use std::str::FromStr;
        let modes = [AnnotateMode::PaperFaithful, AnnotateMode::Compiled];
        // Exhaustive: every canonical spelling parses back to its mode.
        for mode in modes {
            assert_eq!(AnnotateMode::parse(&mode.to_string()).unwrap(), mode);
            assert_eq!(AnnotateMode::from_str(mode.name()).unwrap(), mode);
        }
        // Property: random case/whitespace perturbations of a canonical
        // spelling only parse when they leave it unchanged.
        let mut rng = xac_xmlgen::SplitMix64::seed_from_u64(0x5eed_cafe);
        for _ in 0..256 {
            let mode = modes[(rng.next_u64() % modes.len() as u64) as usize];
            let mut s = mode.name().to_string();
            match rng.next_u64() % 3 {
                0 => s.make_ascii_uppercase(),
                1 => s.push(' '),
                _ => {}
            }
            match AnnotateMode::parse(&s) {
                Ok(parsed) => {
                    assert_eq!(s, mode.name(), "only canonical spellings parse");
                    assert_eq!(parsed, mode);
                    assert_eq!(parsed.to_string(), s, "Display round-trips");
                }
                Err(err) => {
                    assert_ne!(s, mode.name());
                    assert_eq!(err, Error::UnknownAnnotateMode(s.clone()));
                }
            }
        }
    }

    #[test]
    fn accessible_ids_cache_invalidates_on_writes() {
        let p = prepared();
        let query = AnnotationQuery::from_policy(&hospital_policy());
        let mut b = RelationalBackend::row();
        b.load(&p).unwrap();
        assert!(b.accessible_ids().unwrap().is_empty());
        b.annotate(&query).unwrap();
        let annotated = b.accessible_ids().unwrap();
        assert!(!annotated.is_empty(), "annotation must invalidate the cached empty set");
        // Cached between reads.
        assert_eq!(b.accessible_ids().unwrap(), annotated);
        b.reset_annotations().unwrap();
        assert!(b.accessible_ids().unwrap().is_empty(), "reset invalidates");
        b.annotate(&query).unwrap();
        b.delete(&xac_xpath::parse("//patient/treatment").unwrap()).unwrap();
        let after_delete = b.accessible_ids().unwrap();
        assert!(
            after_delete.len() < annotated.len(),
            "deleting annotated rows shrinks the accessible set immediately"
        );
    }

    const MODES: [AnnotateMode; 2] = [AnnotateMode::PaperFaithful, AnnotateMode::Compiled];

    fn system(mode: AnnotateMode) -> crate::System {
        system_with(mode, hospital_policy())
    }

    fn system_with(mode: AnnotateMode, policy: xac_policy::Policy) -> crate::System {
        crate::System::builder(crate::hospital_schema_for_docs(), policy, prepared().doc)
            .annotate_mode(mode)
            .build()
            .unwrap()
    }

    /// The paper's Table 1 policy under `default allow`: unannotated
    /// nodes are accessible, so snapshots must grant them.
    fn default_allow_policy() -> xac_policy::Policy {
        let text = include_str!("../../../data/hospital.pol");
        assert!(text.contains("default deny"));
        xac_policy::Policy::parse(&text.replace("default deny", "default allow")).unwrap()
    }

    /// Publish a snapshot and check its bitset against the Table 2
    /// reference evaluated on the snapshot's own document.
    fn assert_snapshot_is_reference(b: &mut dyn Backend, system: &crate::System, step: &str) {
        let snap = b.snapshot().unwrap();
        let expected: Vec<u32> = xac_policy::accessible_nodes(snap.store().doc(), system.policy())
            .iter()
            .map(|n| n.index() as u32)
            .collect();
        let who = format!("{} ({}) after {step}", b.name(), system.annotate_mode());
        assert_eq!(snap.accessible().ones(), expected, "{who}");
        assert_eq!(snap.accessible_count(), expected.len(), "{who}");
    }

    /// Drain `b`'s sign changes and check them against the map diff
    /// from `prev`, the sign state at the previous drain or baseline
    /// reset; `prev` becomes the current state.
    fn assert_drain_is_the_map_diff(
        b: &mut dyn Backend,
        prev: &mut BTreeMap<i64, char>,
        step: &str,
    ) {
        let now = b.sign_state().unwrap();
        let diff = b.sign_changes().unwrap();
        assert_eq!(diff, SignDiff::between(prev, &now), "{}: drain after {step}", b.name());
        assert!(b.sign_changes().unwrap().is_empty(), "{}: a drain advances", b.name());
        *prev = now;
    }

    /// The checks after every step of [`walk_every_writer`]: a
    /// published snapshot holds exactly the reference's accessible
    /// nodes, the backend-specific `oracle` holds, and — when `drain`
    /// — the drained sign changes are the map diff since the last one.
    fn after_step<B: Backend>(
        b: &mut B,
        system: &crate::System,
        oracle: fn(&mut B),
        prev: &mut BTreeMap<i64, char>,
        step: &str,
        drain: bool,
    ) {
        assert_snapshot_is_reference(b, system, step);
        oracle(b);
        if drain {
            assert_drain_is_the_map_diff(b, prev, step);
        }
    }

    /// A step that resets the sign-change baseline leaves nothing to
    /// drain; the state it leaves becomes `prev`.
    fn assert_baseline_reset(b: &mut dyn Backend, prev: &mut BTreeMap<i64, char>, step: &str) {
        assert!(b.sign_changes().unwrap().is_empty(), "{}: {step} resets", b.name());
        *prev = b.sign_state().unwrap();
    }

    /// Every writer in turn, then a seeded sequence of guarded updates,
    /// full re-annotations, epoch advances and checkpoint restores;
    /// each step is followed by [`after_step`]'s checks, and
    /// about half of the seeded steps leave their changes undrained, so
    /// a drain also covers several steps at once (the serving engine's
    /// maintenance writes between transactions).
    fn walk_every_writer<B: Backend>(b: &mut B, system: &crate::System, oracle: fn(&mut B)) {
        let regular = xac_xpath::parse("//regular").unwrap();
        let joy = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
        let mut prev = BTreeMap::new();
        system.load(b).unwrap();
        assert_baseline_reset(b, &mut prev, "load");
        oracle(b);
        system.annotate(b).unwrap();
        after_step(b, system, oracle, &mut prev, "annotate", true);
        assert!(system.guarded(b, &Update::Delete(regular)).unwrap().applied());
        after_step(b, system, oracle, &mut prev, "guarded delete", true);
        let insert = Update::Insert { parent: joy.clone(), name: "treatment".into(), text: None };
        assert!(system.guarded(b, &insert).unwrap().applied());
        after_step(b, system, oracle, &mut prev, "guarded insert", true);
        // The structural writers alone, with no re-annotation after them
        // to repair a sign they failed to write.
        let treatment = xac_xpath::parse("//patient[psn = \"099\"]/treatment").unwrap();
        assert_eq!(b.insert(&treatment, "regular", None).unwrap(), 1);
        oracle(b);
        let regular = xac_xpath::parse("//patient[psn = \"099\"]/treatment/regular").unwrap();
        assert_eq!(b.delete(&regular).unwrap(), 1);
        after_step(b, system, oracle, &mut prev, "raw insert and delete", true);
        let signs = b.sign_state().unwrap();
        b.reset_annotations().unwrap();
        let reset = b.snapshot().unwrap();
        let default_grants = system.policy().default_semantics.sign() == '+';
        let expected = if default_grants { reset.element_count() } else { 0 };
        assert_eq!(reset.accessible().len(), expected, "{}: reset to the default", b.name());
        oracle(b);
        assert_drain_is_the_map_diff(b, &mut prev, "reset");
        // Re-derive the signs and floor the epoch, as WAL recovery does.
        let epoch = b.epoch() + 5;
        system.annotate(b).unwrap();
        b.advance_epoch(epoch);
        assert_eq!(b.epoch(), epoch + 1, "{}: the epoch passes the floor", b.name());
        after_step(b, system, oracle, &mut prev, "annotate after reset", true);
        assert_eq!(b.sign_state().unwrap(), signs, "{}: annotation re-derives", b.name());
        let checkpoint = b.checkpoint().unwrap();
        assert!(b.delete(&joy).unwrap() > 0);
        b.reset_annotations().unwrap();
        b.restore(&checkpoint).unwrap();
        assert_baseline_reset(b, &mut prev, "restore");
        after_step(b, system, oracle, &mut prev, "checkpoint, mutate, restore", true);
        assert_eq!(b.sign_state().unwrap(), signs, "{}: restore is byte-identical", b.name());

        let paths = |list: &[&str]| -> Vec<Path> {
            list.iter().map(|p| xac_xpath::parse(p).unwrap()).collect()
        };
        let deletes = paths(&["//regular", "//experimental", "//patient[psn = \"042\"]", "//bill"]);
        let parents = paths(&["//patients", "//patient", "//treatment", "//regular"]);
        let children = ["patient", "name", "regular", "bill"];
        let mut rng = xac_xmlgen::SplitMix64::seed_from_u64(0xd1ff_5eed);
        let mut checkpoint = b.checkpoint().unwrap();
        for i in 0..40 {
            let pick = |rng: &mut xac_xmlgen::SplitMix64, n: usize| rng.gen_range(0..n);
            let step = match pick(&mut rng, 7) {
                0 | 1 => {
                    let at = pick(&mut rng, deletes.len());
                    system.guarded(b, &Update::Delete(deletes[at].clone())).unwrap();
                    format!("seeded step {i}: guarded delete {}", deletes[at])
                }
                2 | 3 => {
                    let at = pick(&mut rng, parents.len());
                    let insert = Update::Insert {
                        parent: parents[at].clone(),
                        name: children[at].to_string(),
                        text: (at == 3).then(|| "500".to_string()),
                    };
                    system.guarded(b, &insert).unwrap();
                    format!("seeded step {i}: guarded insert under {}", parents[at])
                }
                4 => {
                    system.full_reannotate(b).unwrap();
                    format!("seeded step {i}: full re-annotation")
                }
                5 => {
                    let epoch = b.epoch();
                    b.advance_epoch(epoch);
                    assert!(b.epoch() > epoch, "{}: the epoch advances", b.name());
                    format!("seeded step {i}: advance the epoch")
                }
                _ => {
                    b.restore(&checkpoint).unwrap();
                    assert_baseline_reset(b, &mut prev, "seeded restore");
                    checkpoint = b.checkpoint().unwrap();
                    format!("seeded step {i}: restore")
                }
            };
            let drain = rng.gen_bool(0.5);
            after_step(b, system, oracle, &mut prev, &step, drain);
        }
        assert_drain_is_the_map_diff(b, &mut prev, "the seeded walk");
    }

    /// The per-table SQL the accessible-id cache ran before its SQL-free
    /// scan, kept as that scan's oracle.
    fn sql_accessible_ids(b: &mut RelationalBackend) -> BTreeSet<i64> {
        let tables: Vec<String> =
            b.state().unwrap().mapping.tables().iter().map(|t| t.name.clone()).collect();
        let mut out = BTreeSet::new();
        for table in tables {
            let rs = b.db.query(&format!("SELECT id FROM {table} WHERE s = '+'")).unwrap();
            out.extend(rs.column_as_ints(0));
        }
        out
    }

    #[test]
    fn snapshot_bitsets_match_the_reference_after_every_writer() {
        for (mode, policy) in MODES
            .into_iter()
            .flat_map(|m| [(m, hospital_policy()), (m, default_allow_policy())])
        {
            let system = system_with(mode, policy);
            for kind in [StorageKind::Row, StorageKind::Column] {
                walk_every_writer(&mut RelationalBackend::with_mode(kind, mode), &system, |b| {
                    let sql = sql_accessible_ids(b);
                    assert_eq!(b.accessible_ids().unwrap(), sql, "{}: column = SQL", b.name());
                    // Slot for slot, the tree's column holds the `s` cell
                    // of the row whose id is the slot, or no sign.
                    let tables = b.sign_map().unwrap();
                    let column = b.state().unwrap().tree.doc().sign_column();
                    for (slot, &byte) in (0i64..).zip(column) {
                        let cell = tables.get(&slot).map_or(NO_SIGN, |&s| s as u8);
                        assert_eq!(byte, cell, "{}: column = tables at slot {slot}", b.name());
                    }
                    let past = tables.range(column.len() as i64..).next();
                    assert_eq!(past, None, "{}: a row past the column", b.name());
                });
            }
            walk_every_writer(&mut NativeXmlBackend::with_mode(mode), &system, |_| {});
        }
    }

    /// Whether two snapshots share the arena chunk holding the root.
    fn share_the_arena(a: &AccessSnapshot, b: &AccessSnapshot) -> bool {
        let a = a.store().doc();
        a.shares_chunk_of(b.store().doc(), a.root())
    }

    /// Whether two snapshots publish one document and differ at most in
    /// their sign columns: the same columnar index, every arena chunk
    /// shared and equal name indexes.
    fn share_all_but_signs(a: &AccessSnapshot, b: &AccessSnapshot) -> bool {
        let (da, db) = (a.store().doc(), b.store().doc());
        let (ia, ib) = (a.store().index(), b.store().index());
        let names: BTreeSet<&str> = da.all_elements().filter_map(|n| da.name(n)).collect();
        std::ptr::eq(a.index(), b.index())
            && da.arena_len() == db.arena_len()
            && (0..da.arena_len())
                .step_by(xac_xml::CHUNK)
                .all(|slot| da.shares_chunk_of(db, NodeId::from_index(slot)))
            && ia.entry_count() == ib.entry_count()
            && names.iter().all(|name| ia.lookup(da, name).eq(ib.lookup(db, name)))
    }

    /// A sign write copies the store's sign column, and shares the rest
    /// of the published document (the signs live in the tree's column,
    /// as on the native store); a structural write copies the chunk it
    /// touches; a restore shares the checkpointed store.
    #[test]
    fn relational_snapshots_share_the_document_until_a_structural_write() {
        for mode in MODES {
            let system = system(mode);
            for kind in [StorageKind::Row, StorageKind::Column] {
                let mut b = RelationalBackend::with_mode(kind, mode);
                system.load(&mut b).unwrap();
                system.annotate(&mut b).unwrap();
                let first = b.snapshot().unwrap();
                system.full_reannotate(&mut b).unwrap();
                let signed = b.snapshot().unwrap();
                assert!(signed.epoch() > first.epoch());
                assert!(share_all_but_signs(&first, &signed), "{kind:?}: sign writes share");
                let checkpoint = b.checkpoint().unwrap();
                b.delete(&xac_xpath::parse("//regular").unwrap()).unwrap();
                let deleted = b.snapshot().unwrap();
                assert!(!share_the_arena(&signed, &deleted), "{kind:?}: delete copies");
                assert!(
                    signed.store().doc().element_count() > deleted.store().doc().element_count(),
                    "{kind:?}: the published document keeps its value"
                );
                b.restore(&checkpoint).unwrap();
                let restored = b.snapshot().unwrap();
                assert!(std::ptr::eq(signed.store(), restored.store()), "{kind:?}: restore shares");
            }
        }
    }

    /// Nested delete targets (`//treatment//*` selects `regular` and the
    /// `med` inside it) remove each row once: tables, sign column and
    /// tree agree afterwards.
    #[test]
    fn nested_delete_targets_remove_each_row_once() {
        let p = prepared();
        for mode in MODES {
            for kind in [StorageKind::Row, StorageKind::Column] {
                let mut b = RelationalBackend::with_mode(kind, mode);
                b.load(&p).unwrap();
                let rows = b.sign_map().unwrap().len();
                assert_eq!(b.delete(&xac_xpath::parse("//treatment//*").unwrap()).unwrap(), 6);
                let column = b.state().unwrap().tree.doc().sign_column();
                let live = column.iter().filter(|&&s| s != NO_SIGN).count();
                let elements = b.state().unwrap().tree.doc().doc().element_count();
                assert_eq!((b.sign_map().unwrap().len(), live), (rows - 6, rows - 6), "{kind:?}");
                assert_eq!(elements, rows - 6, "{kind:?} ({mode})");
            }
        }
    }

    /// An inserted element's row carries the cells the load's SQL insert
    /// of that tuple writes (`v = ''` without text), quotes, `;`, `--`
    /// and non-ASCII text included.
    #[test]
    fn inserted_rows_carry_the_cells_of_the_sql_insert() {
        let p = prepared();
        let joy = xac_xpath::parse("//patient[psn = \"099\"]").unwrap();
        let texts = [None, Some("it's"), Some("''"), Some("a;b"), Some("--x"), Some("naïve ✓ 東京")];
        let inserts = texts.iter().map(|&t| ("name", t)).chain([("treatment", None)]);
        for mode in MODES {
            for kind in [StorageKind::Row, StorageKind::Column] {
                let mut b = RelationalBackend::with_mode(kind, mode);
                b.load(&p).unwrap();
                let parent = b.select(&joy).unwrap().nodes[0];
                for (name, text) in inserts.clone() {
                    let mut reference = b.db.clone();
                    // The new element takes the next arena slot: its id.
                    let id = b.state().unwrap().tree.doc().doc().arena_len() as i64;
                    assert_eq!(b.insert(&joy, name, text).unwrap(), 1);
                    let row = xac_shrex::ShreddedRow {
                        table: name.to_string(),
                        id,
                        pid: Some(parent.index() as i64),
                        value: (name == "name").then(|| text.unwrap_or("").to_string()),
                        sign: '-',
                    };
                    reference.execute(&xac_shrex::shred::insert_statement(&row)).unwrap();
                    for column in b.state().unwrap().mapping.columns(name).unwrap() {
                        assert_eq!(
                            b.db.column_values(name, column).unwrap(),
                            reference.column_values(name, column).unwrap(),
                            "{kind:?} ({mode}): {name} {text:?}, column {column}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn relational_annotation_sql_matches_paper_shape() {
        let p = prepared();
        let mut b = RelationalBackend::row();
        b.load(&p).unwrap();
        let opt = xac_policy::redundancy_elimination(&hospital_policy());
        let q = AnnotationQuery::from_policy(&opt);
        let sql = b.render_annotation_sql(&q).unwrap();
        assert!(sql.contains(") EXCEPT ("), "{sql}");
        assert!(sql.matches("UNION").count() >= 3, "{sql}");
    }
}
