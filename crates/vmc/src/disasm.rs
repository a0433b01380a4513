//! Disassembler: renders a [`Program`] as a per-element-type listing.
//!
//! The listing groups the typed scan/step instructions under the element
//! type whose `(id, pid, val)` columns they touch — in schema order when
//! a schema is given, in first-appearance order otherwise — followed by
//! the untyped instructions (root/wildcard scans, set algebra, the fused
//! sign write) and the predicate programs. Output is deterministic and
//! golden-file testable.

use crate::bytecode::{Inst, NameSel, Pred, Program, RelStep};
use std::fmt::Write as _;
use xac_xml::Schema;
use xac_xpath::Axis;

/// Render the full listing.
pub fn disassemble(program: &Program, schema: Option<&Schema>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ";; xac-vmc program {:#018x}", program.fingerprint);
    let _ = writeln!(
        out,
        ";; shape: {}   mark: '{}'   registers: r0..r{} (r0 = sign accumulator)",
        program.shape,
        program.mark,
        program.reg_count.saturating_sub(1)
    );
    let _ = writeln!(out, ";; source: {}", program.source);

    // Element types in listing order: schema order first (types the
    // program never touches are listed with an empty body so the
    // per-type decision surface is visible), then any program name the
    // schema does not know.
    let mut types: Vec<String> = Vec::new();
    if let Some(s) = schema {
        types.extend(s.type_names().map(|t| t.to_string()));
    }
    for n in &program.names {
        if !types.iter().any(|t| t == n) {
            types.push(n.clone());
        }
    }

    for ty in &types {
        let _ = writeln!(out, "\n== element type `{ty}` ==");
        let mut any = false;
        for (i, inst) in program.insts.iter().enumerate() {
            if program.scan_target(inst) == Some(ty.as_str()) {
                any = true;
                let _ = writeln!(out, "  {:02}  {}", i, render_inst(program, inst));
            }
        }
        if !any {
            let _ = writeln!(out, "  (no instructions; sign stays at the default)");
        }
    }

    let _ = writeln!(out, "\n== untyped / combine ==");
    for (i, inst) in program.insts.iter().enumerate() {
        if program.scan_target(inst).is_none() {
            let _ = writeln!(out, "  {:02}  {}", i, render_inst(program, inst));
        }
    }

    if !program.preds.is_empty() {
        let _ = writeln!(out, "\n== predicates ==");
        for (i, p) in program.preds.iter().enumerate() {
            let _ = writeln!(out, "  p{i}: {}", render_pred(program, p));
        }
    }
    out
}

fn render_sel(program: &Program, sel: NameSel) -> String {
    match sel {
        NameSel::Any => "*".to_string(),
        NameSel::Name(i) => program.names[i as usize].clone(),
    }
}

fn render_inst(program: &Program, inst: &Inst) -> String {
    match inst {
        Inst::ScanRoot { dst, name } => {
            format!("scan.root  r{dst}, type={}", render_sel(program, *name))
        }
        Inst::ScanAll { dst, name } => {
            format!("scan.all   r{dst}, type={}", render_sel(program, *name))
        }
        Inst::StepChild { dst, src, name } => {
            format!("step.child r{dst}, r{src}, type={}", render_sel(program, *name))
        }
        Inst::StepDesc { dst, src, name } => {
            format!("step.desc  r{dst}, r{src}, type={}", render_sel(program, *name))
        }
        Inst::Probe { dst, name, child, value } => {
            let lhs = child.map_or(".", |c| program.names[c as usize].as_str());
            format!("probe      r{dst}, type={}, {lhs} = \"{value}\"", program.names[*name as usize])
        }
        Inst::Within { reg, src, axis } => {
            let axis = match axis {
                Axis::Child => "parent",
                Axis::Descendant => "ancestor",
            };
            format!("within     r{reg}, r{src}, {axis}")
        }
        Inst::Filter { reg, pred } => format!("filter     r{reg}, p{pred}"),
        Inst::Union { dst, src } => format!("union      r{dst}, r{src}"),
        Inst::Diff { dst, src } => format!("diff       r{dst}, r{src}"),
        Inst::SignWrite { src, sign } => format!("sign.write r{src}, '{sign}'"),
    }
}

fn render_rel(program: &Program, steps: &[RelStep]) -> String {
    let mut out = String::new();
    for (i, s) in steps.iter().enumerate() {
        let sep = match (i, s.axis) {
            (0, Axis::Child) => "",
            (0, Axis::Descendant) => ".//",
            (_, Axis::Child) => "/",
            (_, Axis::Descendant) => "//",
        };
        out.push_str(sep);
        out.push_str(&render_sel(program, s.name));
        for p in &s.preds {
            let _ = write!(out, "[{}]", render_pred(program, p));
        }
    }
    out
}

fn render_pred(program: &Program, pred: &Pred) -> String {
    match pred {
        Pred::True => "true".to_string(),
        Pred::SelfCmp { op, rhs } => format!(". {op} \"{rhs}\""),
        Pred::Exists { steps } => format!("exists {}", render_rel(program, steps)),
        Pred::Cmp { steps, op, rhs } => {
            format!("any {} {op} \"{rhs}\"", render_rel(program, steps))
        }
        Pred::All(ps) => {
            let parts: Vec<String> = ps.iter().map(|p| render_pred(program, p)).collect();
            parts.join(" and ")
        }
    }
}
