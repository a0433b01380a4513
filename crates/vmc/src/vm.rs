//! The VM: executes a [`Program`] against a [`DocIndex`].
//!
//! Registers hold ascending arena slots, which is the document order the
//! interpreted evaluator produces — so the node stream handed to the
//! sign sink is already sorted and deduplicated, for free. A register is
//! a sorted slot vector while it holds fewer than width/32 slots and a
//! bitset above that: at width/32 the two take the same memory. Scans,
//! probes, child steps, filters, set algebra and the sign write run on
//! sparse registers as they are, so a probe read allocates nothing of
//! arena width; the descendant step and a dense operand make the other
//! side dense.
//!
//! The descendant step walks each candidate's parent chain when the
//! candidates are sparse (fewer than width/32): O(candidates × depth).
//! Dense candidates take one forward closure pass over the parent
//! column instead (parents occupy lower arena slots than their
//! children, an invariant of the append-only arena): O(n), however many
//! contexts were selected.
//!
//! An execution may be restricted to a *domain*: an ascending slot list
//! closed under parent. Scans, child and descendant steps and probes
//! then take their candidates from the domain alone, while qualifiers
//! still look at the whole document. Since every main-path step moves
//! down, a node's membership depends only on its ancestors-or-self, so
//! the restricted run selects exactly the full run's selection within
//! the domain — the footprint re-annotation's evaluation.

use crate::bitset::Bitset;
use crate::bytecode::{Inst, NameSel, Pred, Program, RelStep};
use crate::index::{DocIndex, NONE};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use xac_obs::Counter;
use xac_xml::NodeId;
use xac_xpath::{Axis, CmpOp};

fn instructions_executed_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_vm_instructions_executed_total"))
}

thread_local! {
    /// The sign write's node list, kept per thread. A re-annotation's
    /// node set runs to hundreds of KB, which the allocator would
    /// otherwise map fresh, and fault in page by page, on every call.
    static SIGN_NODES: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
}

/// Receives the node set a terminal [`Inst::SignWrite`] produces. The
/// relational backends stream it into a per-table bulk sign write, the
/// native backend into arena sign attributes, and the decide path into a
/// plain collector.
pub trait SignSink {
    /// Write `sign` for every node (ascending document order). Returns
    /// the number of sign cells written.
    fn write(&mut self, nodes: &[NodeId], sign: char) -> Result<usize, String>;
}

/// A [`SignSink`] that just collects the selected nodes (decide path,
/// differential tests).
#[derive(Debug, Default)]
pub struct Collect {
    pub nodes: Vec<NodeId>,
}

impl SignSink for Collect {
    fn write(&mut self, nodes: &[NodeId], _sign: char) -> Result<usize, String> {
        self.nodes.extend_from_slice(nodes);
        Ok(0)
    }
}

/// One mask register.
#[derive(Debug)]
enum Reg {
    /// Ascending slots; fewer than width/32 of them.
    Sparse(Vec<u32>),
    Dense(Bitset),
}

impl Reg {
    /// The register for ascending `slots`, dense from width/32 slots on.
    fn of(slots: Vec<u32>, width: usize) -> Reg {
        if slots.len() < width / 32 {
            Reg::Sparse(slots)
        } else {
            Reg::Dense(bitset_of(&slots, width))
        }
    }

    fn contains(&self, slot: u32) -> bool {
        match self {
            Reg::Sparse(v) => v.binary_search(&slot).is_ok(),
            Reg::Dense(m) => m.test(slot),
        }
    }

    /// The register as a bitset, converting it in place if sparse.
    fn dense(&mut self, width: usize) -> &mut Bitset {
        if let Reg::Sparse(v) = self {
            *self = Reg::Dense(bitset_of(v, width));
        }
        match self {
            Reg::Dense(m) => m,
            Reg::Sparse(_) => unreachable!("converted above"),
        }
    }

    /// Keep only the slots `keep` accepts.
    fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        match self {
            Reg::Sparse(v) => v.retain(|&s| keep(s)),
            Reg::Dense(m) => {
                for s in m.ones() {
                    if !keep(s) {
                        m.unset(s);
                    }
                }
            }
        }
    }
}

fn bitset_of(slots: &[u32], width: usize) -> Bitset {
    let mut m = Bitset::new(width);
    for &s in slots {
        m.set(s);
    }
    m
}

/// Union of two ascending slot lists, by merge.
fn merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Execute `program` against `index`, streaming the terminal node set to
/// `sink`; with a `domain` (ascending slots, closed under parent), only
/// the selected nodes within it. Returns the sink's written-cell count.
pub fn execute(
    program: &Program,
    index: &DocIndex,
    domain: Option<&[u32]>,
    sink: &mut dyn SignSink,
) -> Result<usize, String> {
    let _span = xac_obs::span("vm.execute");
    // Resolve interned program names against this document once; a name
    // with no elements resolves to None and scans produce empty masks.
    let resolved: Vec<Option<u32>> =
        program.names.iter().map(|n| index.name_of(n)).collect();
    let width = index.width();
    let mut regs: Vec<Reg> = (0..program.reg_count).map(|_| Reg::Sparse(Vec::new())).collect();
    // Allocated by the first descendant step only.
    let mut under: Option<Bitset> = None;
    let mut written = 0usize;

    for inst in &program.insts {
        match inst {
            Inst::ScanRoot { dst, name } => {
                let root = index.root_slot();
                let hit = domain.is_none_or(|d| d.binary_search(&root).is_ok())
                    && sel_admits(&resolved, *name, index.name_id_at(root));
                regs[*dst as usize] = Reg::of(if hit { vec![root] } else { Vec::new() }, width);
            }
            Inst::ScanAll { dst, name } => {
                let slots = match domain {
                    Some(_) => candidates(index, &resolved, domain, *name, |_| true),
                    None => candidate_runs(index, &resolved, *name).collect::<Vec<_>>().concat(),
                };
                regs[*dst as usize] = Reg::of(slots, width);
            }
            Inst::StepChild { dst, src, name } => {
                let slots = match (&regs[*src as usize], domain) {
                    // Children of the source slots, filtered by name;
                    // each has one parent, so sorting leaves no duplicate.
                    (Reg::Sparse(from), None) => {
                        let mut out: Vec<u32> = from
                            .iter()
                            .flat_map(|&p| index.children_of(p))
                            .copied()
                            .filter(|&c| sel_admits(&resolved, *name, index.name_id_at(c)))
                            .collect();
                        out.sort_unstable();
                        out
                    }
                    (Reg::Dense(from), _) => candidates(index, &resolved, domain, *name, |c| {
                        let p = index.parent_of(c);
                        p != NONE && from.test(p)
                    }),
                    (from, Some(_)) => candidates(index, &resolved, domain, *name, |c| {
                        below(index, c, from, Axis::Child)
                    }),
                };
                regs[*dst as usize] = Reg::of(slots, width);
            }
            Inst::StepDesc { dst, src, name } => {
                let slots = if candidate_count(index, &resolved, domain, *name) < width / 32 {
                    let from = &regs[*src as usize];
                    candidates(index, &resolved, domain, *name, |s| {
                        below(index, s, from, Axis::Descendant)
                    })
                } else {
                    // Forward closure over the parent column: a slot is
                    // "under" the source set iff its parent is in the set
                    // or its parent is already under it. Parents precede
                    // children in slot order, so one ascending pass
                    // suffices.
                    let under = under.get_or_insert_with(|| Bitset::new(width));
                    under.clear();
                    let srcm = regs[*src as usize].dense(width);
                    index.for_each_element_parent(|slot, p| {
                        if p != NONE && (srcm.test(p) || under.test(p)) {
                            under.set(slot);
                        }
                    });
                    candidates(index, &resolved, domain, *name, |s| under.test(s))
                };
                regs[*dst as usize] = Reg::of(slots, width);
            }
            Inst::Probe { dst, name, child, value } => {
                let hits = probe(index, &resolved, domain, *name, *child, value);
                regs[*dst as usize] = Reg::of(hits, width);
            }
            Inst::Within { reg, src, axis } => {
                let (regm, srcm) = two_regs(&mut regs, *reg, *src);
                regm.retain(|s| below(index, s, srcm, *axis));
            }
            Inst::Filter { reg, pred } => {
                let pred = &program.preds[*pred as usize];
                regs[*reg as usize].retain(|s| eval_pred(index, &resolved, s, pred));
            }
            Inst::Union { dst, src } => {
                let (dstm, srcm) = two_regs(&mut regs, *dst, *src);
                match (&mut *dstm, srcm) {
                    (Reg::Sparse(a), Reg::Sparse(b)) => {
                        let merged = merge(a, b);
                        *dstm = Reg::of(merged, width);
                    }
                    (Reg::Dense(a), Reg::Sparse(b)) => b.iter().for_each(|&s| a.set(s)),
                    (_, Reg::Dense(b)) => dstm.dense(width).union(b),
                }
            }
            Inst::Diff { dst, src } => {
                let (dstm, srcm) = two_regs(&mut regs, *dst, *src);
                match (&mut *dstm, srcm) {
                    (Reg::Dense(a), Reg::Sparse(b)) => b.iter().for_each(|&s| a.unset(s)),
                    (Reg::Dense(a), Reg::Dense(b)) => a.diff(b),
                    (Reg::Sparse(_), _) => dstm.retain(|s| !srcm.contains(s)),
                }
            }
            Inst::SignWrite { src, sign } => {
                let mut nodes = SIGN_NODES.take();
                nodes.clear();
                match &regs[*src as usize] {
                    Reg::Sparse(v) => nodes.extend(v.iter().map(|&s| index.node_at(s))),
                    Reg::Dense(m) => m.for_each_one(|s| nodes.push(index.node_at(s))),
                }
                let result = sink.write(&nodes, *sign);
                SIGN_NODES.set(nodes);
                written += result?;
            }
        }
    }
    instructions_executed_total().add(program.insts.len() as u64);
    Ok(written)
}

/// Whether the parent (`Axis::Child`) or some strict ancestor
/// (`Axis::Descendant`) of `slot` is in `src`: a walk up the parent
/// chain.
fn below(index: &DocIndex, slot: u32, src: &Reg, axis: Axis) -> bool {
    let mut p = index.parent_of(slot);
    while p != NONE {
        if src.contains(p) {
            return true;
        }
        if axis == Axis::Child {
            break;
        }
        p = index.parent_of(p);
    }
    false
}

/// The elements named `name` whose own value (`child: None`) or some
/// `child` child's value equals `value`, ascending. Without a domain
/// the index's postings answer and every hit is re-checked with
/// `CmpOp::compare`; with one, each domain slot of that name is checked.
fn probe(
    index: &DocIndex,
    resolved: &[Option<u32>],
    domain: Option<&[u32]>,
    name: u16,
    child: Option<u16>,
    value: &str,
) -> Vec<u32> {
    let Some(name) = resolved[name as usize] else {
        return Vec::new();
    };
    let equal = |s: &u32| CmpOp::Eq.compare(index.value_of(*s), value);
    if let Some(domain) = domain {
        let child = child.map(|c| resolved[c as usize].unwrap_or(NONE));
        let hit = |s: u32| match child {
            None => equal(&s),
            Some(c) => index.children_of(s).iter().any(|&k| index.name_id_at(k) == c && equal(&k)),
        };
        return domain.iter().copied().filter(|&s| index.name_id_at(s) == name && hit(s)).collect();
    }
    match child.map(|c| resolved[c as usize]) {
        None => index.probe(name, value).filter(equal).collect(),
        Some(Some(child)) => {
            let mut parents: Vec<u32> = index
                .probe(child, value)
                .filter(equal)
                .map(|c| index.parent_of(c))
                .filter(|&p| p != NONE && index.name_id_at(p) == name)
                .collect();
            parents.sort_unstable();
            parents.dedup();
            parents
        }
        Some(None) => Vec::new(),
    }
}

/// Execute and return the selected node set (decide path, tests).
pub fn execute_select(program: &Program, index: &DocIndex) -> Vec<NodeId> {
    let mut sink = Collect::default();
    execute(program, index, None, &mut sink).expect("collector sink never fails");
    sink.nodes
}

/// The slots a typed scan iterates, ascending, as runs: one element
/// type's list, or every chunk's elements for the wildcard.
fn candidate_runs<'a>(
    index: &'a DocIndex,
    resolved: &[Option<u32>],
    name: NameSel,
) -> impl Iterator<Item = &'a [u32]> + 'a {
    let (typed, all) = match name {
        NameSel::Any => (None, Some(index.element_runs())),
        NameSel::Name(i) => (resolved[i as usize].map(|id| index.slots_of(id)), None),
    };
    typed.into_iter().chain(all.into_iter().flatten())
}

/// The candidate slots `keep` accepts, ascending: the domain's slots of
/// that name, else the index's, a run at a time, so the inner loop is a
/// plain slice walk.
fn candidates(
    index: &DocIndex,
    resolved: &[Option<u32>],
    domain: Option<&[u32]>,
    name: NameSel,
    mut keep: impl FnMut(u32) -> bool,
) -> Vec<u32> {
    if let Some(domain) = domain {
        let admits = |s: &u32| sel_admits(resolved, name, index.name_id_at(*s));
        return domain.iter().copied().filter(|s| admits(s) && keep(*s)).collect();
    }
    let mut out = Vec::new();
    for run in candidate_runs(index, resolved, name) {
        out.extend(run.iter().copied().filter(|&s| keep(s)));
    }
    out
}

/// How many slots [`candidates`] walks: the domain's, one name's or
/// every live element.
fn candidate_count(
    index: &DocIndex,
    resolved: &[Option<u32>],
    domain: Option<&[u32]>,
    name: NameSel,
) -> usize {
    match (domain, name) {
        (Some(domain), _) => domain.len(),
        (None, NameSel::Any) => index.element_count(),
        (None, NameSel::Name(i)) => resolved[i as usize].map_or(0, |id| index.slots_of(id).len()),
    }
}

fn sel_admits(resolved: &[Option<u32>], name: NameSel, name_id: u32) -> bool {
    match name {
        NameSel::Any => name_id != NONE,
        NameSel::Name(i) => resolved[i as usize] == Some(name_id),
    }
}

fn two_regs(regs: &mut [Reg], a: u8, b: u8) -> (&mut Reg, &Reg) {
    assert_ne!(a, b, "register operands must differ");
    let (a, b) = (a as usize, b as usize);
    if a < b {
        let (lo, hi) = regs.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = regs.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

/// Scalar predicate evaluation at one context slot. Matches
/// `xac_xpath::eval::qualifier_holds` on the fragment: existence and
/// any-node-satisfies semantics short-circuit on the first witness.
fn eval_pred(index: &DocIndex, resolved: &[Option<u32>], slot: u32, pred: &Pred) -> bool {
    match pred {
        Pred::True => true,
        Pred::SelfCmp { op, rhs } => op.compare(index.value_of(slot), rhs),
        Pred::Exists { steps } => rel_walk(index, resolved, slot, steps, &mut |_| true),
        Pred::Cmp { steps, op, rhs } => {
            rel_walk(index, resolved, slot, steps, &mut |n| op.compare(index.value_of(n), rhs))
        }
        Pred::All(preds) => preds.iter().all(|p| eval_pred(index, resolved, slot, p)),
    }
}

/// Walk a relative path from `ctx`, calling `accept` on every node the
/// full path reaches; returns true as soon as `accept` does.
fn rel_walk(
    index: &DocIndex,
    resolved: &[Option<u32>],
    ctx: u32,
    steps: &[RelStep],
    accept: &mut dyn FnMut(u32) -> bool,
) -> bool {
    let Some(step) = steps.first() else {
        return accept(ctx);
    };
    let rest = &steps[1..];
    match step.axis {
        Axis::Child => {
            for &c in index.children_of(ctx) {
                if step_matches(index, resolved, c, step)
                    && rel_walk(index, resolved, c, rest, accept)
                {
                    return true;
                }
            }
        }
        Axis::Descendant => {
            // Pre-order DFS over strict descendants.
            let mut stack: Vec<u32> = index.children_of(ctx).iter().rev().copied().collect();
            while let Some(d) = stack.pop() {
                if step_matches(index, resolved, d, step)
                    && rel_walk(index, resolved, d, rest, accept)
                {
                    return true;
                }
                stack.extend(index.children_of(d).iter().rev());
            }
        }
    }
    false
}

fn step_matches(index: &DocIndex, resolved: &[Option<u32>], slot: u32, step: &RelStep) -> bool {
    sel_admits(resolved, step.name, index.name_id_at(slot))
        && step.preds.iter().all(|p| eval_pred(index, resolved, slot, p))
}
