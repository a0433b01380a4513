//! The register-based bytecode ISA.
//!
//! A [`Program`] is a straight-line instruction sequence over a small set
//! of *mask registers*. Each register holds a set of element nodes,
//! represented at execution time as a sorted slot vector or, once it
//! holds width/32 slots or more, a bitset over arena slots of the
//! [`crate::DocIndex`]. There is no control flow: the fragment's
//! annotation queries are unions/differences of path expressions, which
//! compile to a fixed pipeline of scans, steps, filters and set algebra,
//! terminated by one fused sign write.
//!
//! Register convention (fixed by the compiler):
//! - `r0` — the sign accumulator (union of include paths minus except
//!   paths),
//! - `r1`/`r2` — ping-pong registers for the current path's frontier.
//!
//! Element names are interned per program into [`Program::names`]; the VM
//! resolves them against the document index once per execution, so a name
//! absent from the document simply yields empty scans.

use xac_xpath::{Axis, CmpOp};

/// A compiled node test: either any element or one interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameSel {
    /// The wildcard `*`.
    Any,
    /// An element name, as an index into [`Program::names`].
    Name(u16),
}

/// One bytecode instruction.
///
/// `Scan*` and `Step*` are the per-element-type ops: with a
/// [`NameSel::Name`] selector they touch only the `(id, pid)` columns of
/// that element type's node list, which is what makes execution
/// vectorized rather than a tree walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst = {root}` if the root matches `name`, else `{}`. Compiles the
    /// leading child step of an absolute path (the virtual root's only
    /// child is the document root).
    ScanRoot { dst: u8, name: NameSel },
    /// `dst = all live elements matching name`. Compiles a leading
    /// descendant step (`//x` selects every matching element).
    ScanAll { dst: u8, name: NameSel },
    /// `dst = elements matching name whose parent is in src` — a fused
    /// scan+filter over the type's `pid` column.
    StepChild { dst: u8, src: u8, name: NameSel },
    /// `dst = elements matching name with a strict ancestor in src`,
    /// computed by one forward closure pass over the parent column.
    StepDesc { dst: u8, src: u8, name: NameSel },
    /// `dst = elements named name whose own value (`child: None`), or
    /// the value of some child named `child`, equals `value` under `=`:
    /// a lookup in the index's value postings, in O(log n + hits).
    /// Compiles a step `name[child = "value"]` or `name[. = "value"]`.
    Probe { dst: u8, name: u16, child: Option<u16>, value: String },
    /// Retain only the nodes of `reg` whose parent (`Axis::Child`) or
    /// some strict ancestor (`Axis::Descendant`) is in `src`: places a
    /// later step's probe under that step's context.
    Within { reg: u8, src: u8, axis: Axis },
    /// Retain only the nodes of `reg` satisfying predicate program
    /// `pred` (index into [`Program::preds`]).
    Filter { reg: u8, pred: u16 },
    /// `dst |= src`.
    Union { dst: u8, src: u8 },
    /// `dst &= !src`.
    Diff { dst: u8, src: u8 },
    /// Fused terminal: stream the accumulated node set to the sign sink
    /// (column/row store batch write, or the element arena annotator).
    SignWrite { src: u8, sign: char },
}

/// A compiled qualifier, evaluated per candidate node against the
/// document index (the scalar half of the ISA; structural steps stay
/// vectorized, per-node value logic runs here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// `[.]` — always true.
    True,
    /// `[. op d]` — compare the context node's string value.
    SelfCmp { op: CmpOp, rhs: String },
    /// `[p]` — the relative path reaches at least one node.
    Exists { steps: Vec<RelStep> },
    /// `[p op d]` — some node reached by `p` satisfies the comparison.
    Cmp { steps: Vec<RelStep>, op: CmpOp, rhs: String },
    /// Conjunction.
    All(Vec<Pred>),
}

/// One step of a relative (qualifier) path, walked from the context node
/// with short-circuit existence semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelStep {
    pub axis: Axis,
    pub name: NameSel,
    /// Nested qualifiers on this step.
    pub preds: Vec<Pred>,
}

/// A compiled program: the unit the cache stores and the VM executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Interned element names referenced by [`NameSel::Name`].
    pub names: Vec<String>,
    /// The instruction sequence, executed in order.
    pub insts: Vec<Inst>,
    /// Predicate programs referenced by [`Inst::Filter`].
    pub preds: Vec<Pred>,
    /// Number of mask registers the VM must allocate.
    pub reg_count: u8,
    /// The sign the terminal write applies (`'+'` or `'-'`).
    pub mark: char,
    /// The source expression (annotation-query notation or a request
    /// path), kept for the disassembler.
    pub source: String,
    /// Human-readable shape tag (e.g. `GrantsExceptDenies`).
    pub shape: String,
    /// Stable fingerprint of (source, mark, schema) — the cache key.
    pub fingerprint: u64,
}

impl Program {
    /// The element-type name an instruction scans, if it is a typed
    /// scan/step (used by the disassembler's per-type grouping).
    pub fn scan_target(&self, inst: &Inst) -> Option<&str> {
        let sel = match inst {
            Inst::ScanRoot { name, .. }
            | Inst::ScanAll { name, .. }
            | Inst::StepChild { name, .. }
            | Inst::StepDesc { name, .. } => *name,
            Inst::Probe { name, .. } => NameSel::Name(*name),
            _ => return None,
        };
        match sel {
            NameSel::Name(i) => self.names.get(i as usize).map(|s| s.as_str()),
            NameSel::Any => None,
        }
    }
}
