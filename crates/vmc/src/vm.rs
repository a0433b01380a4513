//! The VM: executes a [`Program`] against a [`DocIndex`].
//!
//! Registers are bitsets over arena slots. Ascending bit order equals
//! arena order, which is the document order the interpreted evaluator
//! produces — so the node stream handed to the sign sink is already
//! sorted and deduplicated, for free.
//!
//! The descendant step runs as a single forward closure pass over the
//! parent column (parents occupy lower arena slots than their children,
//! an invariant of the append-only arena), so `//a//b` costs O(n)
//! regardless of how many `a` contexts were selected.

use crate::bitset::Bitset;
use crate::bytecode::{Inst, NameSel, Pred, Program, RelStep};
use crate::index::{DocIndex, NONE};
use std::sync::{Arc, OnceLock};
use xac_obs::Counter;
use xac_xml::NodeId;
use xac_xpath::Axis;

fn instructions_executed_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_vm_instructions_executed_total"))
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

/// Execute `program` against `index`, streaming the terminal node set to
/// `sink`. Returns the sink's written-cell count.
pub fn execute(
    program: &Program,
    index: &DocIndex,
    sink: &mut dyn SignSink,
) -> Result<usize, String> {
    let _span = xac_obs::span("vm.execute");
    // Resolve interned program names against this document once; a name
    // with no elements resolves to None and scans produce empty masks.
    let resolved: Vec<Option<u32>> =
        program.names.iter().map(|n| index.name_of(n)).collect();
    let width = index.width();
    let mut regs: Vec<Bitset> = (0..program.reg_count).map(|_| Bitset::new(width)).collect();
    let mut under = Bitset::new(width);
    let mut written = 0usize;

    for inst in &program.insts {
        match inst {
            Inst::ScanRoot { dst, name } => {
                regs[*dst as usize].clear();
                let root = index.root_slot();
                if sel_admits(&resolved, *name, index.name_id_at(root)) {
                    regs[*dst as usize].set(root);
                }
            }
            Inst::ScanAll { dst, name } => {
                regs[*dst as usize].clear();
                let dstm = &mut regs[*dst as usize];
                for &slot in candidate_slots(index, &resolved, *name) {
                    dstm.set(slot);
                }
            }
            Inst::StepChild { dst, src, name } => {
                let (dstm, srcm) = two_regs(&mut regs, *dst, *src);
                dstm.clear();
                for &slot in candidate_slots(index, &resolved, *name) {
                    let p = index.parent_of(slot);
                    if p != NONE && srcm.test(p) {
                        dstm.set(slot);
                    }
                }
            }
            Inst::StepDesc { dst, src, name } => {
                // Forward closure over the parent column: a slot is
                // "under" the source set iff its parent is in the set or
                // its parent is already under it. Parents precede
                // children in slot order, so one ascending pass suffices.
                under.clear();
                {
                    let srcm = &regs[*src as usize];
                    for &slot in index.all_slots() {
                        let p = index.parent_of(slot);
                        if p != NONE && (srcm.test(p) || under.test(p)) {
                            under.set(slot);
                        }
                    }
                }
                let dstm = &mut regs[*dst as usize];
                dstm.clear();
                for &slot in candidate_slots(index, &resolved, *name) {
                    if under.test(slot) {
                        dstm.set(slot);
                    }
                }
            }
            Inst::Filter { reg, pred } => {
                let pred = &program.preds[*pred as usize];
                let slots = regs[*reg as usize].ones();
                let m = &mut regs[*reg as usize];
                for slot in slots {
                    if !eval_pred(index, &resolved, slot, pred) {
                        m.unset(slot);
                    }
                }
            }
            Inst::Union { dst, src } => {
                let (dstm, srcm) = two_regs(&mut regs, *dst, *src);
                dstm.union(srcm);
            }
            Inst::Diff { dst, src } => {
                let (dstm, srcm) = two_regs(&mut regs, *dst, *src);
                dstm.diff(srcm);
            }
            Inst::SignWrite { src, sign } => {
                let nodes: Vec<NodeId> =
                    regs[*src as usize].ones().iter().map(|&s| index.node_at(s)).collect();
                written += sink.write(&nodes, *sign)?;
            }
        }
    }
    instructions_executed_total().add(program.insts.len() as u64);
    Ok(written)
}

/// Execute and return the selected node set (decide path, tests).
pub fn execute_select(program: &Program, index: &DocIndex) -> Vec<NodeId> {
    let mut sink = Collect::default();
    execute(program, index, &mut sink).expect("collector sink never fails");
    sink.nodes
}

/// The slot list a typed scan iterates: one element type's nodes, or all
/// elements for the wildcard.
fn candidate_slots<'a>(
    index: &'a DocIndex,
    resolved: &[Option<u32>],
    name: NameSel,
) -> &'a [u32] {
    match name {
        NameSel::Any => index.all_slots(),
        NameSel::Name(i) => match resolved[i as usize] {
            Some(id) => index.slots_of(id),
            None => &[],
        },
    }
}

fn sel_admits(resolved: &[Option<u32>], name: NameSel, name_id: u32) -> bool {
    match name {
        NameSel::Any => name_id != NONE,
        NameSel::Name(i) => resolved[i as usize] == Some(name_id),
    }
}

fn two_regs(regs: &mut [Bitset], a: u8, b: u8) -> (&mut Bitset, &Bitset) {
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
