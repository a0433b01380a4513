//! xac-vmc — the policy bytecode compiler and VM.
//!
//! The paper's enforcement cost is dominated by re-evaluating annotation
//! queries (Fig. 5) and per-request accessibility checks as interpreted
//! tree walks. A (policy, schema) pair, however, determines a small
//! static decision structure per element type (cf. Cheney's static
//! enforceability results), which is worth compiling once and executing
//! many times. This crate:
//!
//! 1. **compiles** an [`AnnotationQuery`](xac_policy::AnnotationQuery)
//!    (or a single request path) into a register-based [`Program`] —
//!    per element type, a short instruction sequence over the document's
//!    `(id, pid, val)` columns that decides the sign ([`compile_query`],
//!    [`compile_path`]);
//! 2. **executes** programs with a small VM over a columnar
//!    [`DocIndex`], with fused scan+filter+sign-write ops streaming the
//!    result into a [`SignSink`] (the relational backends' per-table
//!    bulk sign write, or the native element arena) ([`execute`],
//!    [`execute_select`]);
//! 3. **caches** compiled programs in a bounded map keyed on the
//!    (policy, schema) fingerprint ([`cached_query_program`],
//!    [`cached_path_program`]), mirroring `ContainmentOracle`'s
//!    memo-capacity/eviction discipline;
//! 4. **disassembles** programs for debugging and golden-file tests
//!    ([`disassemble`], surfaced as `xmlac vm dump`).
//!
//! Correctness contract: executing a compiled query program selects
//! exactly the node set `AnnotationQuery::evaluate` returns, in the same
//! (document/arena) order — the differential harnesses in core and serve
//! assert byte-identical `sign_state` against the interpreted path.
//! Compilation is total over the absolute paths of the repo's XPath
//! fragment, which is every rule resource, request and update path
//! (`xac_xpath::parse_absolute` rejects relative ones at the text
//! boundary). A path outside it surfaces [`CompileError`]; callers
//! report it as an error or deny the request, and never fall back to
//! the interpreter.

mod bitset;
mod bytecode;
mod cache;
mod compile;
mod disasm;
mod index;
mod vm;

pub use bitset::Bitset;
pub use bytecode::{Inst, NameSel, Pred, Program, RelStep};
pub use cache::{
    cache_stats, cached_path_program, cached_query_program, query_fingerprint, reset_cache,
    VmCacheStats, DEFAULT_PROGRAM_CACHE_CAPACITY,
};
pub use compile::{compile_path, compile_query, CompileError};
pub use disasm::disassemble;
pub use index::DocIndex;
pub use vm::{execute, execute_select, Collect, SignSink};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xac_policy::AnnotationQuery;
    use xac_xml::{Document, NodeId};
    use xac_xpath::parse;

    /// The partial hospital document of the paper's Figure 2.
    fn figure2() -> Document {
        Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>033</psn><name>john doe</name>\
             <treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment>\
             </patient>\
             <patient><psn>042</psn><name>jane doe</name>\
             <treatment><experimental><test>regression hypnosis</test><bill>1600</bill></experimental></treatment>\
             </patient>\
             <patient><psn>099</psn><name>joy smith</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap()
    }

    fn vm_select(doc: &Document, src: &str) -> Vec<NodeId> {
        let path = parse(src).unwrap();
        let program = compile_path(&path).unwrap();
        let index = DocIndex::build(doc);
        execute_select(&program, &index)
    }

    fn interp(doc: &Document, src: &str) -> Vec<NodeId> {
        xac_xpath::eval(doc, &parse(src).unwrap())
    }

    #[test]
    fn path_programs_agree_with_interpreter() {
        let doc = figure2();
        for src in [
            "//patient",
            "//hospital",
            "/hospital",
            "/hospital/dept/patients/patient",
            "/dept",
            "/hospital/patient",
            "//patient/*",
            "//*",
            "//patient[treatment]",
            "//patient[treatment]/name",
            "//patient[.//experimental]",
            "//patient[psn and treatment]",
            "//patient[bogus]",
            "//regular[med = \"enoxaparin\"]",
            "//regular[bill > 1000]",
            "//experimental[bill > 1000]",
            "//patient[.//bill > 1000]",
            "//bill[. > 1000]",
            "//patient[name = \"joy smith\"]",
            "//patient[treatment[regular[med = \"enoxaparin\"]]]",
            "//dept[patients[patient[treatment]]]",
            "//dept//bill",
            "//treatment//med",
        ] {
            assert_eq!(vm_select(&doc, src), interp(&doc, src), "path `{src}` diverged");
        }
    }

    #[test]
    fn vm_matches_interpreter_after_structural_edits() {
        // Deletions leave dead arena slots and inserts append out of
        // pre-order; the index must still agree with the interpreter.
        let mut doc = figure2();
        let victim = interp(&doc, "//patient[psn = 42]")[0];
        doc.remove_subtree(victim).unwrap();
        let dept = interp(&doc, "//dept")[0];
        let p = doc.add_element(dept, "patient");
        let psn = doc.add_element(p, "psn");
        doc.add_text(psn, "123");
        for src in ["//patient", "//patient[psn]", "//bill", "//patient[psn > 100]"] {
            assert_eq!(vm_select(&doc, src), interp(&doc, src), "path `{src}` diverged");
        }
    }

    #[test]
    fn query_program_matches_reference_evaluate() {
        let doc = figure2();
        let query = AnnotationQuery {
            shape: xac_policy::QueryShape::GrantsExceptDenies,
            include: vec![parse("//patient").unwrap(), parse("//staffinfo").unwrap()],
            except: vec![parse("//patient[.//experimental]").unwrap()],
            mark: xac_policy::Effect::Allow,
        };
        let program = compile_query(&query, None).unwrap();
        let index = DocIndex::build(&doc);
        let got: BTreeSet<NodeId> = execute_select(&program, &index).into_iter().collect();
        assert_eq!(got, query.evaluate(&doc));
    }

    #[test]
    fn empty_include_selects_nothing() {
        let doc = figure2();
        let query = AnnotationQuery {
            shape: xac_policy::QueryShape::Grants,
            include: vec![],
            except: vec![],
            mark: xac_policy::Effect::Allow,
        };
        let program = compile_query(&query, None).unwrap();
        let index = DocIndex::build(&doc);
        assert!(execute_select(&program, &index).is_empty());
    }

    #[test]
    fn cache_hits_on_repeat_and_flushes_at_capacity() {
        reset_cache();
        let q = AnnotationQuery {
            shape: xac_policy::QueryShape::Grants,
            include: vec![parse("//patient").unwrap()],
            except: vec![],
            mark: xac_policy::Effect::Allow,
        };
        let before = cache_stats();
        let a = cached_query_program(&q, None).unwrap();
        let b = cached_query_program(&q, None).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "second lookup must hit");
        let after = cache_stats();
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits - before.hits, 1);
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn disassembly_is_deterministic_and_typed() {
        let q = AnnotationQuery {
            shape: xac_policy::QueryShape::GrantsExceptDenies,
            include: vec![parse("//patient[treatment]/name").unwrap()],
            except: vec![parse("//patient[.//experimental]/name").unwrap()],
            mark: xac_policy::Effect::Allow,
        };
        let program = compile_query(&q, None).unwrap();
        let text = disassemble(&program, None);
        assert_eq!(text, disassemble(&program, None));
        assert!(text.contains("== element type `patient` =="));
        assert!(text.contains("== element type `name` =="));
        assert!(text.contains("sign.write r0, '+'"));
        assert!(text.contains("p0: exists treatment"));
    }
}
