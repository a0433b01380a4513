//! After load, the relational stores' structural writes reach the
//! engine by universal id, with no SQL text: a compiled guarded delete
//! and guarded inserts on the row and the column store leave
//! `xac_reldb_statements_total` unchanged. Paper-mode annotation still
//! runs Fig. 6 as published: the annotation query, one `SELECT id` per
//! table and one `UPDATE … WHERE id = k` per written tuple.
//!
//! The counter is process-wide, so this file holds a single test and
//! runs as a process of its own: no concurrent test can move it.

use xac_core::{AnnotateMode, Backend, RelationalBackend, System, Update};
use xac_policy::policy::hospital_policy;
use xac_reldb::StorageKind;
use xac_xmlgen::{figure2_document, hospital_schema};

#[test]
fn compiled_writes_issue_no_sql_and_paper_annotation_issues_fig6() {
    let statements = xac_obs::counter("xac_reldb_statements_total");
    let system = |mode| {
        System::builder(hospital_schema(), hospital_policy(), figure2_document())
            .annotate_mode(mode)
            .build()
            .unwrap()
    };
    let path = |p: &str| xac_xpath::parse(p).unwrap();
    let joy = path("//patient[psn = \"099\"]");
    let updates = [
        Update::Delete(path("//regular")),
        Update::Insert { parent: joy.clone(), name: "name".into(), text: Some("it's".into()) },
        Update::Insert { parent: joy, name: "treatment".into(), text: None },
    ];
    let (compiled, paper) = (system(AnnotateMode::Compiled), system(AnnotateMode::PaperFaithful));
    let tables = paper.prepared().mapping.tables().len() as u64;
    for kind in [StorageKind::Row, StorageKind::Column] {
        let mut b = RelationalBackend::with_mode(kind, AnnotateMode::Compiled);
        compiled.load(&mut b).unwrap();
        compiled.annotate(&mut b).unwrap();
        for update in &updates {
            let before = statements.get();
            assert!(compiled.guarded(&mut b, update).unwrap().applied(), "{kind:?}: {update:?}");
            assert_eq!(statements.get(), before, "{kind:?}: {update:?} issued SQL");
        }

        let mut b = RelationalBackend::new(kind);
        paper.load(&mut b).unwrap();
        let before = statements.get();
        let writes = paper.annotate(&mut b).unwrap() as u64;
        assert!(writes > 0);
        assert_eq!(statements.get() - before, 1 + tables + writes, "{kind:?}: Fig. 6 statements");
        assert_eq!(b.accessible_count().unwrap() as u64, writes, "{kind:?}");
    }
}
