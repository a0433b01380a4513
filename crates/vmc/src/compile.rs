//! Compiler: annotation queries and request paths → bytecode programs.
//!
//! The pipeline per absolute path is fixed: the leading step becomes a
//! `ScanRoot`/`ScanAll`, every later step a `StepChild`/`StepDesc`, each
//! followed by a `Filter` per qualifier. A name-test step with an
//! equality conjunct `[c = "v"]` or `[. = "v"]` (`c` a name test without
//! qualifiers) instead becomes a `Probe` of the index's value postings —
//! under a later step's context by a `Within` — and `Filter`s for the
//! other conjuncts; the path result is folded into
//! the `r0` accumulator with `Union` (include) or `Diff` (except) and a
//! single fused `SignWrite` terminates the program. Qualifiers compile
//! to [`Pred`] scalar programs.
//!
//! Compilation is total over the absolute paths the parser produces:
//! qualifier paths are relative by construction and an empty absolute
//! path selects nothing. The two shapes outside it — a relative main
//! path and an absolute path inside a qualifier — can only be built by
//! hand, and report [`CompileError`]; there is no interpreter fallback.

use crate::bytecode::{Inst, NameSel, Pred, Program, RelStep};
use std::fmt;
use xac_obs::{fnv1a, FNV_OFFSET};
use xac_policy::AnnotationQuery;
use xac_xml::Schema;
use xac_xpath::{Axis, CmpOp, NodeTest, Path, Qualifier};

/// Why a (query, schema) pair could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A qualifier contained an absolute path — outside the fragment the
    /// VM models (qualifier paths are relative by construction).
    AbsoluteQualifierPath(String),
    /// The main path was relative; programs are compiled for absolute
    /// paths only.
    RelativeMainPath(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::AbsoluteQualifierPath(p) => {
                write!(f, "cannot compile absolute path `{p}` inside a qualifier")
            }
            CompileError::RelativeMainPath(p) => {
                write!(f, "cannot compile relative path `{p}` as a selection root")
            }
        }
    }
}

impl std::error::Error for CompileError {}

struct Compiler {
    names: Vec<String>,
    insts: Vec<Inst>,
    preds: Vec<Pred>,
}

impl Compiler {
    fn new() -> Self {
        Compiler { names: Vec::new(), insts: Vec::new(), preds: Vec::new() }
    }

    fn intern(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    fn name_sel(&mut self, test: &NodeTest) -> NameSel {
        match test {
            NodeTest::Wildcard => NameSel::Any,
            NodeTest::Name(n) => {
                let id = self.intern(n);
                NameSel::Name(id)
            }
        }
    }

    /// Compile one absolute path; the final frontier lands in the
    /// returned register (`r1` or `r2`, ping-ponged per step).
    fn compile_path(&mut self, path: &Path) -> Result<u8, CompileError> {
        if !path.absolute {
            return Err(CompileError::RelativeMainPath(path.to_string()));
        }
        let mut cur: u8 = 1;
        for (i, step) in path.steps.iter().enumerate() {
            // A leading `/p` scans one node; any other name step probes
            // the value postings when a conjunct allows it.
            let probe = match &step.test {
                NodeTest::Name(p) if i > 0 || step.axis == Axis::Descendant => {
                    split_probe(&step.predicates).map(|split| (p, split))
                }
                _ => None,
            };
            if let Some((p, (child, value, rest))) = probe {
                let name = self.intern(p);
                let child = child.map(|c| self.intern(c));
                let dst = if i == 0 { cur } else if cur == 1 { 2 } else { 1 };
                self.insts.push(Inst::Probe { dst, name, child, value: value.to_string() });
                if i > 0 {
                    self.insts.push(Inst::Within { reg: dst, src: cur, axis: step.axis });
                }
                cur = dst;
                for q in rest {
                    self.filter(cur, q)?;
                }
                continue;
            }
            let name = self.name_sel(&step.test);
            if i == 0 {
                match step.axis {
                    Axis::Child => self.insts.push(Inst::ScanRoot { dst: cur, name }),
                    Axis::Descendant => self.insts.push(Inst::ScanAll { dst: cur, name }),
                }
            } else {
                let dst = if cur == 1 { 2 } else { 1 };
                match step.axis {
                    Axis::Child => self.insts.push(Inst::StepChild { dst, src: cur, name }),
                    Axis::Descendant => self.insts.push(Inst::StepDesc { dst, src: cur, name }),
                }
                cur = dst;
            }
            for q in &step.predicates {
                self.filter(cur, q)?;
            }
        }
        Ok(cur)
    }

    /// Compile a qualifier to a `Filter` on `reg`.
    fn filter(&mut self, reg: u8, q: &Qualifier) -> Result<(), CompileError> {
        let pred = self.compile_qualifier(q)?;
        let id = self.preds.len() as u16;
        self.preds.push(pred);
        self.insts.push(Inst::Filter { reg, pred: id });
        Ok(())
    }

    fn compile_qualifier(&mut self, q: &Qualifier) -> Result<Pred, CompileError> {
        Ok(match q {
            Qualifier::Exists(p) => {
                if p.is_self() {
                    Pred::True
                } else {
                    Pred::Exists { steps: self.compile_rel(p)? }
                }
            }
            Qualifier::Cmp(p, op, d) => {
                if p.is_self() {
                    Pred::SelfCmp { op: *op, rhs: d.clone() }
                } else {
                    Pred::Cmp { steps: self.compile_rel(p)?, op: *op, rhs: d.clone() }
                }
            }
            Qualifier::And(qs) => {
                let mut preds = Vec::with_capacity(qs.len());
                for q in qs {
                    preds.push(self.compile_qualifier(q)?);
                }
                Pred::All(preds)
            }
        })
    }

    fn compile_rel(&mut self, p: &Path) -> Result<Vec<RelStep>, CompileError> {
        if p.absolute {
            return Err(CompileError::AbsoluteQualifierPath(p.to_string()));
        }
        let mut steps = Vec::with_capacity(p.steps.len());
        for step in &p.steps {
            let name = self.name_sel(&step.test);
            let mut preds = Vec::with_capacity(step.predicates.len());
            for q in &step.predicates {
                preds.push(self.compile_qualifier(q)?);
            }
            steps.push(RelStep { axis: step.axis, name, preds });
        }
        Ok(steps)
    }
}

/// The first conjunct of a step's qualifiers a probe can answer —
/// `[. = "v"]` or `[c = "v"]` with `c` a name test without qualifiers —
/// as `(c, v)`, with the other conjuncts.
fn split_probe(preds: &[Qualifier]) -> Option<(Option<&str>, &str, Vec<&Qualifier>)> {
    fn conjuncts<'q>(qs: &'q [Qualifier], out: &mut Vec<&'q Qualifier>) {
        for q in qs {
            match q {
                Qualifier::And(inner) => conjuncts(inner, out),
                q => out.push(q),
            }
        }
    }
    fn probe_of(q: &Qualifier) -> Option<(Option<&str>, &str)> {
        let Qualifier::Cmp(p, CmpOp::Eq, value) = q else {
            return None;
        };
        if p.is_self() {
            return Some((None, value));
        }
        match p.steps.as_slice() {
            [s] if !p.absolute && s.axis == Axis::Child && s.predicates.is_empty() => {
                match &s.test {
                    NodeTest::Name(c) => Some((Some(c), value)),
                    NodeTest::Wildcard => None,
                }
            }
            _ => None,
        }
    }
    let mut all = Vec::new();
    conjuncts(preds, &mut all);
    let at = all.iter().position(|q| probe_of(q).is_some())?;
    let (child, value) = probe_of(all.remove(at))?;
    Some((child, value, all))
}

/// Stable fingerprint of a (source, mark, schema) triple — the cache
/// key a compiled program is stored under.
pub(crate) fn fingerprint(source: &str, mark: char, schema: Option<&Schema>) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, source.as_bytes());
    h = fnv1a(h, &[mark as u8]);
    if let Some(s) = schema {
        h = fnv1a(h, s.root().as_bytes());
        for t in s.type_names() {
            h = fnv1a(h, t.as_bytes());
            h = fnv1a(h, b"|");
        }
    }
    h
}

/// Cache key of a request path's program, from the path's rendering.
pub(crate) fn path_fingerprint(source: &str) -> u64 {
    fingerprint(&format!("path|{source}"), '+', None)
}

/// Compile an annotation query (the Fig. 5 union/except selection plus
/// its mark) into a program ending in a fused sign write.
pub fn compile_query(
    query: &AnnotationQuery,
    schema: Option<&Schema>,
) -> Result<Program, CompileError> {
    let _span = xac_obs::span("vm.compile");
    let mut c = Compiler::new();
    for p in &query.include {
        if p.steps.is_empty() {
            // An empty absolute path selects nothing; it contributes
            // nothing to the union.
            continue;
        }
        let reg = c.compile_path(p)?;
        c.insts.push(Inst::Union { dst: 0, src: reg });
    }
    for p in &query.except {
        if p.steps.is_empty() {
            continue;
        }
        let reg = c.compile_path(p)?;
        c.insts.push(Inst::Diff { dst: 0, src: reg });
    }
    let mark = query.mark.sign();
    c.insts.push(Inst::SignWrite { src: 0, sign: mark });
    let source = query.describe();
    Ok(Program {
        fingerprint: fingerprint(&source, mark, schema),
        names: c.names,
        insts: c.insts,
        preds: c.preds,
        reg_count: 3,
        mark,
        source,
        shape: format!("{:?}", query.shape),
    })
}

/// Compile a single absolute request path (the decide/read hot path).
/// The program selects the path's node set; the terminal write carries
/// `'+'` but decide-style executions collect instead of writing.
pub fn compile_path(path: &Path) -> Result<Program, CompileError> {
    let _span = xac_obs::span("vm.compile");
    let mut c = Compiler::new();
    if !path.steps.is_empty() {
        let reg = c.compile_path(path)?;
        c.insts.push(Inst::Union { dst: 0, src: reg });
    }
    c.insts.push(Inst::SignWrite { src: 0, sign: '+' });
    let source = path.to_string();
    Ok(Program {
        fingerprint: path_fingerprint(&source),
        names: c.names,
        insts: c.insts,
        preds: c.preds,
        reg_count: 3,
        mark: '+',
        source,
        shape: "RequestPath".to_string(),
    })
}
