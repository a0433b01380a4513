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
        let _serial = cache::CACHE_TESTS.lock().unwrap_or_else(|p| p.into_inner());
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

    /// Values on both sides of every rule of `CmpOp::compare`'s `=`:
    /// numbers in several spellings, signed zero, NaN, infinity, the
    /// empty string, untrimmed and non-ASCII text.
    const TRICKY: &[&str] = &[
        "7", "07", "7.0", " 7 ", "1e1", "10", "-0", "0", "NaN", "inf", "", "ünï", "ünï ",
    ];

    /// `/r` with one `p` per tricky value (its own text and one `c`
    /// child carrying the value), one `p` with two `c` children valued
    /// "twice", `n_common` `p`s with two `c` children valued "common",
    /// two `q`s with `c` children (parents of another name; the first
    /// also holds a nested `p` and, appended last, a `c` at a larger
    /// slot than the second `q`'s), and values split over several text
    /// nodes.
    fn tricky_doc(n_common: usize) -> Document {
        let mut d = Document::new("r");
        let r = d.root();
        for &v in TRICKY {
            let p = d.add_element(r, "p");
            d.add_text(p, v);
            let c = d.add_element(p, "c");
            d.add_text(c, v);
        }
        let p = d.add_element(r, "p");
        for _ in 0..2 {
            let c = d.add_element(p, "c");
            d.add_text(c, "twice");
        }
        for _ in 0..n_common {
            let p = d.add_element(r, "p");
            for _ in 0..2 {
                let c = d.add_element(p, "c");
                d.add_text(c, "common");
            }
        }
        let q = d.add_element(r, "q");
        let c = d.add_element(q, "c");
        d.add_text(c, "7");
        let nested = d.add_element(q, "p");
        d.add_text(nested, "7");
        let c = d.add_element(nested, "c");
        d.add_text(c, "7");
        let q2 = d.add_element(r, "q");
        let c = d.add_element(q2, "c");
        d.add_text(c, "7");
        // "1" + "0" and "4" + "2" across text nodes: the values "10", "42".
        let p = d.add_element(r, "p");
        d.add_text(p, "4");
        let c = d.add_element(p, "c");
        d.add_text(c, "1");
        d.add_text(c, "0");
        d.add_text(p, "2");
        let c = d.add_element(q, "c");
        d.add_text(c, "late");
        d
    }

    /// Request paths probing `value` in each compiled shape: a leading
    /// probe on a child's or the node's own value, a later step under a
    /// child and a descendant context, and a conjunction.
    fn probe_paths(value: &str) -> Vec<String> {
        vec![
            format!("//p[c = \"{value}\"]"),
            format!("//p[. = \"{value}\"]"),
            format!("/r/p[c = \"{value}\"]"),
            format!("//r//p[. = \"{value}\"]"),
            format!("/r/*/p[c = \"{value}\"]"),
            format!("/r/p[c and c = \"{value}\"]/c"),
            format!("//p[c != \"x\"][c = \"{value}\"]"),
        ]
    }

    fn assert_probes_agree(doc: &Document, index: &DocIndex, label: &str) {
        let mut values: Vec<&str> = TRICKY.to_vec();
        values.extend(["10", "42", "twice", "common", "absent", "-0.0", "+7"]);
        for v in values {
            for src in probe_paths(v) {
                let path = parse(&src).unwrap();
                let program = compile_path(&path).unwrap();
                assert!(
                    program.insts.iter().any(|i| matches!(i, Inst::Probe { .. })),
                    "`{src}` compiles to a probe"
                );
                assert_eq!(
                    execute_select(&program, index),
                    xac_xpath::eval(doc, &path),
                    "{label}: `{src}`"
                );
            }
        }
    }

    #[test]
    fn probes_agree_with_the_interpreter_on_canonical_values() {
        let doc = tricky_doc(40);
        let index = DocIndex::build(&doc);
        assert_probes_agree(&doc, &index, "fresh");
        // `//p[c = "common"]` answers more than width/32 nodes: the probe
        // fills a dense register; the tricky values stay sparse.
        let common = vm_select(&doc, "//p[c = \"common\"]");
        assert!(common.len() >= index.width() / 32, "{} of {}", common.len(), index.width());
    }

    #[test]
    fn probes_agree_with_the_interpreter_on_a_patched_index() {
        let mut doc = tricky_doc(40);
        let mut index = DocIndex::build(&doc);
        // Delete every third `p`, then add new ones, then revalue an old
        // `c` and an old `p` by appending text.
        let ps: Vec<NodeId> =
            doc.all_elements().filter(|&n| doc.name(n) == Some("p")).step_by(3).collect();
        for &p in &ps {
            doc.remove_subtree(p).unwrap();
        }
        index.remove_subtrees(&ps);
        let root = doc.root();
        for v in ["7", "common", " 7 "] {
            let p = doc.add_element(root, "p");
            let c = doc.add_element(p, "c");
            doc.add_text(c, v);
        }
        let old_c = doc.all_elements().find(|&n| doc.name(n) == Some("c")).unwrap();
        doc.add_text(old_c, "0");
        let old_p = doc.parent(old_c).unwrap();
        doc.add_text(old_p, "1");
        index.append(&doc);
        assert_eq!(index, DocIndex::build(&doc), "patched index");
        assert_probes_agree(&doc, &index, "patched");
    }

    #[test]
    fn sparse_and_dense_registers_agree_with_the_interpreter() {
        // Steps, filters and set algebra on both sides of the crossover:
        // few `q`s (sparse), many `p`/`c` (dense).
        let doc = tricky_doc(60);
        let index = DocIndex::build(&doc);
        for src in [
            "/r/q/c",
            "/r/p/c",
            "//q//c",
            "//r//c",
            "//p/c[. = \"7\"]",
            "//q[c = \"7\"]/c",
            "/r/*[c = \"7\"]",
            "//c[. = \"common\"]",
        ] {
            assert_eq!(vm_select(&doc, src), interp(&doc, src), "path `{src}` diverged");
        }
        for (include, except) in [
            (vec!["//q", "//p[c = \"7\"]"], vec!["//p[. = \"07\"]"]),
            (vec!["//p[c = \"common\"]", "//q"], vec!["//p[. = \"7\"]"]),
            (vec!["//p[. = \"7\"]", "//q"], vec!["//p[c = \"common\"]"]),
            (vec!["//p"], vec!["//p[c = \"common\"]"]),
            (vec!["//p[c = \"7\"]", "//p[. = \"7\"]"], vec![]),
        ] {
            let query = AnnotationQuery {
                shape: xac_policy::QueryShape::GrantsExceptDenies,
                include: include.iter().map(|p| parse(p).unwrap()).collect(),
                except: except.iter().map(|p| parse(p).unwrap()).collect(),
                mark: xac_policy::Effect::Allow,
            };
            let program = compile_query(&query, None).unwrap();
            let want: Vec<NodeId> = query.evaluate(&doc).into_iter().collect();
            assert_eq!(execute_select(&program, &index), want, "{include:?} except {except:?}");
        }
    }

    #[test]
    fn value_predicate_disassembly_is_golden() {
        let path = parse("//patient[name = \"joy smith\"]/treatment[. = \"7\"]").unwrap();
        let text = disassemble(&compile_path(&path).unwrap(), None);
        let body: Vec<&str> = text.lines().skip(3).collect();
        assert_eq!(
            body.join("\n"),
            "\n\
             == element type `patient` ==\n  \
               00  probe      r1, type=patient, name = \"joy smith\"\n\
             \n\
             == element type `name` ==\n  \
               (no instructions; sign stays at the default)\n\
             \n\
             == element type `treatment` ==\n  \
               01  probe      r2, type=treatment, . = \"7\"\n\
             \n\
             == untyped / combine ==\n  \
               02  within     r2, r1, parent\n  \
               03  union      r0, r2\n  \
               04  sign.write r0, '+'"
        );
    }

    /// `/a` with a chain of nested `a`s eight deep; each level holds
    /// twelve `c`s and, at levels 3 and 6, one `b` with a `c` child.
    fn deep_doc() -> Document {
        let mut d = Document::new("a");
        let mut at = d.root();
        for level in 0..8 {
            for _ in 0..12 {
                let c = d.add_element(at, "c");
                d.add_text(c, "x");
            }
            if level % 3 == 0 && level > 0 {
                let b = d.add_element(at, "b");
                d.add_element(b, "c");
            }
            at = d.add_element(at, "a");
        }
        d
    }

    #[test]
    fn descendant_steps_agree_on_both_sides_of_the_crossover() {
        let doc = deep_doc();
        let index = DocIndex::build(&doc);
        let count = |name: &str| doc.all_elements().filter(|&n| doc.name(n) == Some(name)).count();
        // `b` candidates walk their parent chains; `c` and `a` run the
        // closure.
        assert!(count("b") < index.width() / 32, "sparse b: {} of {}", count("b"), index.width());
        assert!(count("c") >= index.width() / 32 && count("a") >= index.width() / 32);
        for src in [
            "//a//b",
            "/a//b",
            "//a//c",
            "//b//c",
            "//a/a//b",
            "//a[b]//b",
            "//a[b]//c",
            "//b//a",
            "/a/a/a//b/c",
            "//a//*",
            "//c//b",
        ] {
            assert_eq!(vm_select(&doc, src), interp(&doc, src), "path `{src}` diverged");
        }
    }

    /// `nodes` and every ancestor of theirs, as ascending slots.
    fn closed(doc: &Document, nodes: &[NodeId]) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &n in nodes {
            let mut at = Some(n);
            while let Some(x) = at {
                out.push(x.index() as u32);
                at = doc.parent(x);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn a_domain_selects_the_full_selection_within_it() {
        for doc in [figure2(), tricky_doc(40), deep_doc()] {
            let index = DocIndex::build(&doc);
            let elements: Vec<NodeId> = doc.all_elements().collect();
            let every_fifth: Vec<NodeId> = elements.iter().step_by(5).copied().collect();
            let domains = [
                closed(&doc, &elements[elements.len() / 2..]),
                closed(&doc, &every_fifth),
                closed(&doc, &elements[..1]),
                Vec::new(),
            ];
            for src in [
                "//patient",
                "/hospital/dept//bill",
                "//patient[treatment]/name",
                "//regular[med = \"enoxaparin\"]",
                "//patient[name = \"joy smith\"]",
                "//p[c = \"7\"]",
                "//r//p[. = \"7\"]",
                "/r/*[c = \"7\"]",
                "//q//c",
                "//a//b",
                "//a[b]//c",
                "//*",
            ] {
                let program = compile_path(&parse(src).unwrap()).unwrap();
                let full = execute_select(&program, &index);
                for domain in &domains {
                    let mut sink = Collect::default();
                    execute(&program, &index, Some(domain), &mut sink).unwrap();
                    let within = |n: &&NodeId| domain.binary_search(&(n.index() as u32)).is_ok();
                    let want: Vec<NodeId> = full.iter().filter(within).copied().collect();
                    assert_eq!(sink.nodes, want, "`{src}` within {} slots", domain.len());
                }
            }
        }
    }

    #[test]
    fn footprints_take_the_highest_labelled_ancestor_subtree() {
        let doc = figure2();
        let index = DocIndex::build(&doc);
        let one = |src: &str| interp(&doc, src)[0];
        let slots = |src: &str| -> Vec<u32> {
            interp(&doc, src).iter().map(|n| n.index() as u32).collect()
        };
        let labels = ["patient".to_string(), "regular".to_string()];
        // Under a labelled `patient`: its whole subtree.
        let (fp, domain) = index.footprint(&[one("//regular/med")], Some(&labels));
        assert_eq!(fp, index.subtree_slots(&[one("//patient[psn = \"033\"]")]));
        assert_eq!(domain.unwrap(), closed(&doc, &interp(&doc, "//patient[psn = \"033\"]//*")));
        // No labelled ancestor-or-self: the node alone, with its ancestors.
        let (fp, domain) = index.footprint(&[one("//staffinfo")], Some(&labels));
        assert_eq!(fp, slots("//staffinfo"));
        assert_eq!(domain.unwrap(), closed(&doc, &[one("//staffinfo")]));
        // A wildcard qualifier: every live element, no domain.
        let (fp, domain) = index.footprint(&[one("//staffinfo")], None);
        assert_eq!(fp, slots("//*"));
        assert!(domain.is_none());
    }
}
