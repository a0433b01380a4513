//! Document shredding: XML tree → tuples / SQL INSERT text.
//!
//! Every element becomes one tuple in its element type's table. A
//! tuple's universal identifier is its element's arena slot
//! ([`NodeId::index`]), so the ids are not contiguous (text nodes hold
//! slots too) but a node's id is always greater than its parent's: the
//! arena only appends. The `pid` column holds the parent's slot (`NULL`
//! for the root), leaf types carry their text value in `v`, and `s`
//! starts at the policy's default sign. An element inserted later keeps
//! the rule: its row's id is the slot the arena gave it.

use crate::mapping::Mapping;
use crate::{Error, Result};
use xac_xml::{Document, NodeId};

/// One shredded tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShreddedRow {
    /// Target table (= element type name).
    pub table: String,
    /// Universal identifier: the element's arena slot.
    pub id: i64,
    /// Parent's universal identifier (`None` for the root).
    pub pid: Option<i64>,
    /// Text value for leaf types.
    pub value: Option<String>,
    /// Initial sign (`'+'` or `'-'`).
    pub sign: char,
}

/// The universal id of an element: its arena slot.
pub fn id_of(node: NodeId) -> i64 {
    node.index() as i64
}

/// The element of universal id `id`: the arena slot it names. Ids are
/// only ever made by [`id_of`], so a negative one is a broken invariant.
pub fn node_of(id: i64) -> NodeId {
    NodeId::from_index(usize::try_from(id).expect("a universal id is an arena slot"))
}

/// Shred a document under a mapping into one tuple per element, in
/// document pre-order. `default_sign` seeds the `s` column (the policy's
/// default semantics).
pub fn shred_document(
    doc: &Document,
    mapping: &Mapping,
    default_sign: char,
) -> Result<Vec<ShreddedRow>> {
    let mut rows = Vec::with_capacity(doc.element_count());
    for node in doc.subtree(doc.root()) {
        let Some(name) = doc.name(node) else {
            continue; // text nodes become their parent's value
        };
        let mapped = mapping.table(name).ok_or_else(|| {
            Error::Shred(format!("element `{name}` is not part of the mapped schema"))
        })?;
        let value = if mapped.has_value {
            Some(doc.text_of(node))
        } else {
            None
        };
        rows.push(ShreddedRow {
            table: name.to_string(),
            id: id_of(node),
            pid: doc.parent(node).map(id_of),
            value,
            sign: default_sign,
        });
    }
    Ok(rows)
}

/// Render a shredded document as SQL `INSERT` statements — the text files
/// whose execution the paper measures as relational loading time.
pub fn shred_to_sql(doc: &Document, mapping: &Mapping, default_sign: char) -> Result<String> {
    let rows = shred_document(doc, mapping, default_sign)?;
    let mut out = String::with_capacity(rows.len() * 64);
    for row in &rows {
        out.push_str(&insert_statement(row));
        out.push('\n');
    }
    Ok(out)
}

/// The `INSERT` statement for one tuple.
pub fn insert_statement(row: &ShreddedRow) -> String {
    let pid = row.pid.map(|p| p.to_string()).unwrap_or_else(|| "NULL".to_string());
    match &row.value {
        Some(v) => format!(
            "INSERT INTO {} (id, pid, v, s) VALUES ({}, {}, '{}', '{}');",
            row.table,
            row.id,
            pid,
            v.replace('\'', "''"),
            row.sign
        ),
        None => format!(
            "INSERT INTO {} (id, pid, s) VALUES ({}, {}, '{}');",
            row.table, row.id, pid, row.sign
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::tests::hospital_schema;
    use xac_xml::Document;

    fn figure2() -> Document {
        Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>033</psn><name>john doe</name>\
             <treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment>\
             </patient>\
             <patient><psn>099</psn><name>joy smith</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap()
    }

    #[test]
    fn shreds_every_element_once() {
        let m = Mapping::derive(&hospital_schema()).unwrap();
        let doc = figure2();
        let s = shred_document(&doc, &m, '-').unwrap();
        assert_eq!(s.len(), doc.element_count());
        // Slot ids: the root's is its slot, a child's id exceeds its parent's.
        assert_eq!(s[0].table, "hospital");
        assert_eq!(s[0].id, doc.root().index() as i64);
        assert_eq!(s[0].pid, None);
        for row in &s[1..] {
            assert!(row.pid.is_some());
            assert!(row.pid.unwrap() < row.id, "pre-order parent id");
        }
    }

    #[test]
    fn leaf_values_captured() {
        let m = Mapping::derive(&hospital_schema()).unwrap();
        let s = shred_document(&figure2(), &m, '-').unwrap();
        let med = s.iter().find(|r| r.table == "med").unwrap();
        assert_eq!(med.value.as_deref(), Some("enoxaparin"));
        let patient = s.iter().find(|r| r.table == "patient").unwrap();
        assert_eq!(patient.value, None);
        let bill = s.iter().find(|r| r.table == "bill").unwrap();
        assert_eq!(bill.value.as_deref(), Some("700"));
    }

    #[test]
    fn node_id_mapping_round_trips() {
        let m = Mapping::derive(&hospital_schema()).unwrap();
        let doc = figure2();
        let s = shred_document(&doc, &m, '-').unwrap();
        // Each row's id is its element's slot, and its pid the parent's.
        assert_eq!(s.len(), doc.all_elements().count());
        for node in doc.all_elements() {
            let row = s.iter().find(|r| r.id == node.index() as i64).unwrap();
            assert_eq!(row.table, doc.name(node).unwrap());
            assert_eq!(row.pid, doc.parent(node).map(|p| p.index() as i64));
        }
        // Text nodes have no rows.
        for node in doc.all_nodes().filter(|&n| doc.is_text(n)) {
            assert!(s.iter().all(|r| r.id != node.index() as i64));
        }
    }

    #[test]
    fn sql_text_loads_into_reldb() {
        use xac_reldb::{Database, StorageKind};
        let m = Mapping::derive(&hospital_schema()).unwrap();
        let doc = figure2();
        let sql = shred_to_sql(&doc, &m, '-').unwrap();
        for kind in [StorageKind::Row, StorageKind::Column] {
            let mut db = Database::new(kind);
            db.execute_script(&m.ddl()).unwrap();
            db.execute_script(&sql).unwrap();
            assert_eq!(db.row_count("patient").unwrap(), 2);
            assert_eq!(db.row_count("med").unwrap(), 1);
            let rs = db.query("SELECT v FROM name").unwrap();
            assert_eq!(rs.len(), 2);
        }
    }

    #[test]
    fn quotes_escaped_in_sql() {
        let row = ShreddedRow {
            table: "name".into(),
            id: 5,
            pid: Some(4),
            value: Some("o'hare".into()),
            sign: '-',
        };
        assert_eq!(
            insert_statement(&row),
            "INSERT INTO name (id, pid, v, s) VALUES (5, 4, 'o''hare', '-');"
        );
    }

    #[test]
    fn unmapped_element_errors() {
        let m = Mapping::derive(&hospital_schema()).unwrap();
        let doc = Document::parse_str("<hospital><alien/></hospital>").unwrap();
        assert!(shred_document(&doc, &m, '-').is_err());
    }
}
