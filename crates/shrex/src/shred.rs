//! Document shredding: XML tree → tuples / SQL INSERT text.
//!
//! Every element becomes one tuple in its element type's table. Universal
//! identifiers are assigned in document pre-order (so a node's id is
//! always greater than its parent's), the `pid` column holds the parent's
//! id (`NULL` for the root), leaf types carry their text value in `v`, and
//! `s` starts at the policy's default sign.

use crate::mapping::Mapping;
use crate::{Error, Result};
use xac_xml::{Document, NodeId};

/// One shredded tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShreddedRow {
    /// Target table (= element type name).
    pub table: String,
    /// Universal identifier.
    pub id: i64,
    /// Parent universal identifier (`None` for the root).
    pub pid: Option<i64>,
    /// Text value for leaf types.
    pub value: Option<String>,
    /// Initial sign (`'+'` or `'-'`).
    pub sign: char,
}

/// The output of shredding one document.
#[derive(Debug, Clone)]
pub struct ShreddedDocument {
    /// Tuples in document pre-order.
    pub rows: Vec<ShreddedRow>,
    /// Universal id per arena slot (`None` for text nodes / detached
    /// slots), indexed by [`NodeId::index`].
    node_to_id: Vec<Option<i64>>,
    /// Next unassigned universal id (for post-shredding insertions).
    next_id: i64,
}

impl ShreddedDocument {
    /// The universal id assigned to an element node.
    pub fn id_of(&self, node: NodeId) -> Option<i64> {
        self.node_to_id.get(node.index()).copied().flatten()
    }

    /// Number of shredded tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no tuples were produced (never for a valid document).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `(arena slot, universal id)` of every shredded or inserted
    /// element, ascending by slot.
    pub fn ids(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.node_to_id.iter().enumerate().filter_map(|(slot, id)| id.map(|id| (slot, id)))
    }

    /// One past the largest universal id assigned so far.
    pub fn id_bound(&self) -> i64 {
        self.next_id
    }

    /// The node↔id correspondence alone, without the tuple list: what a
    /// backend keeps after loading, since only the load reads `rows`.
    pub fn id_map(&self) -> ShreddedDocument {
        ShreddedDocument {
            rows: Vec::new(),
            node_to_id: self.node_to_id.clone(),
            next_id: self.next_id,
        }
    }

    /// Assign a fresh universal id to an element inserted after
    /// shredding, keeping the node↔id correspondence current. The caller
    /// is responsible for inserting the matching relational tuple.
    pub fn register_insert(&mut self, node: NodeId) -> i64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.node_to_id.len() <= node.index() {
            self.node_to_id.resize(node.index() + 1, None);
        }
        self.node_to_id[node.index()] = Some(id);
        id
    }
}

/// Shred a document under a mapping. `default_sign` seeds the `s` column
/// (the policy's default semantics).
pub fn shred_document(
    doc: &Document,
    mapping: &Mapping,
    default_sign: char,
) -> Result<ShreddedDocument> {
    let mut rows = Vec::with_capacity(doc.element_count());
    let mut node_to_id: Vec<Option<i64>> = vec![None; doc.arena_len()];
    let mut next_id: i64 = 1;

    for node in doc.subtree(doc.root()) {
        let Some(name) = doc.name(node) else {
            continue; // text nodes become their parent's value
        };
        let mapped = mapping.table(name).ok_or_else(|| {
            Error::Shred(format!("element `{name}` is not part of the mapped schema"))
        })?;
        let id = next_id;
        next_id += 1;
        node_to_id[node.index()] = Some(id);
        let pid = doc.parent(node).and_then(|p| node_to_id[p.index()]);
        let value = if mapped.has_value {
            Some(doc.text_of(node))
        } else {
            None
        };
        rows.push(ShreddedRow { table: name.to_string(), id, pid, value, sign: default_sign });
    }
    Ok(ShreddedDocument { rows, node_to_id, next_id })
}

/// Render a shredded document as SQL `INSERT` statements — the text files
/// whose execution the paper measures as relational loading time.
pub fn shred_to_sql(doc: &Document, mapping: &Mapping, default_sign: char) -> Result<String> {
    let shredded = shred_document(doc, mapping, default_sign)?;
    let mut out = String::with_capacity(shredded.rows.len() * 64);
    for row in &shredded.rows {
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
        // Pre-order ids: the root gets 1, a child's id exceeds its parent's.
        assert_eq!(s.rows[0].table, "hospital");
        assert_eq!(s.rows[0].id, 1);
        assert_eq!(s.rows[0].pid, None);
        for row in &s.rows[1..] {
            assert!(row.pid.is_some());
            assert!(row.pid.unwrap() < row.id, "pre-order parent id");
        }
    }

    #[test]
    fn leaf_values_captured() {
        let m = Mapping::derive(&hospital_schema()).unwrap();
        let s = shred_document(&figure2(), &m, '-').unwrap();
        let med = s.rows.iter().find(|r| r.table == "med").unwrap();
        assert_eq!(med.value.as_deref(), Some("enoxaparin"));
        let patient = s.rows.iter().find(|r| r.table == "patient").unwrap();
        assert_eq!(patient.value, None);
        let bill = s.rows.iter().find(|r| r.table == "bill").unwrap();
        assert_eq!(bill.value.as_deref(), Some("700"));
    }

    #[test]
    fn node_id_mapping_round_trips() {
        let m = Mapping::derive(&hospital_schema()).unwrap();
        let doc = figure2();
        let s = shred_document(&doc, &m, '-').unwrap();
        for node in doc.all_elements() {
            let id = s.id_of(node).expect("every element has a universal id");
            let row = s.rows.iter().find(|r| r.id == id).unwrap();
            assert_eq!(row.table, doc.name(node).unwrap());
        }
        // Text nodes have no ids.
        for node in doc.all_nodes().filter(|&n| doc.is_text(n)) {
            assert_eq!(s.id_of(node), None);
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
