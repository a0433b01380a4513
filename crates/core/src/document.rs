//! Prepared documents: everything the backends need to load one document.
//!
//! The paper's experiments pre-materialize two artifacts per document —
//! the XML text (loaded by the native store) and the SQL `INSERT` file
//! (executed by the relational stores; Table 5 lists both sizes). A
//! [`PreparedDocument`] bundles those with the parsed tree and the derived
//! relational mapping. A tuple's universal id is its element's arena
//! slot in `doc`, so no node↔id correspondence is kept.

use crate::error::Result;
use xac_shrex::Mapping;
use xac_xml::{Document, Schema};

/// A document prepared for loading into any backend.
#[derive(Debug, Clone)]
pub struct PreparedDocument {
    /// The parsed tree (source of truth for updates and cross-checks).
    pub doc: Document,
    /// Serialized XML text (native-store load input).
    pub xml_text: String,
    /// The ShreX-style mapping derived from the schema.
    pub mapping: Mapping,
    /// `CREATE TABLE` DDL for the relational stores.
    pub ddl: String,
    /// SQL `INSERT` script (relational load input).
    pub sql_text: String,
    /// The sign every node starts from (the policy default).
    pub default_sign: char,
}

impl PreparedDocument {
    /// Prepare a document under a schema. `default_sign` seeds every `s`
    /// column / decides which nodes carry explicit signs natively.
    pub fn prepare(schema: &Schema, doc: Document, default_sign: char) -> Result<Self> {
        let mapping = Mapping::derive(schema)?;
        let xml_text = doc.to_xml();
        let ddl = mapping.ddl();
        let sql_text = xac_shrex::shred_to_sql(&doc, &mapping, default_sign)?;
        Ok(PreparedDocument { doc, xml_text, mapping, ddl, sql_text, default_sign })
    }

    /// Size in bytes of the XML artifact (Table 5, column "XML").
    pub fn xml_bytes(&self) -> usize {
        self.xml_text.len()
    }

    /// Size in bytes of the SQL artifact (Table 5, column "SQL").
    pub fn sql_bytes(&self) -> usize {
        self.sql_text.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        crate::hospital_schema_for_docs()
    }

    fn doc() -> Document {
        Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>1</psn><name>a</name></patient>\
             </patients><staffinfo/></dept></hospital>",
        )
        .unwrap()
    }

    #[test]
    fn prepares_all_artifacts() {
        let p = PreparedDocument::prepare(&schema(), doc(), '-').unwrap();
        assert!(p.xml_bytes() > 0);
        assert!(p.sql_bytes() > p.xml_bytes(), "INSERT text is bulkier than XML");
        assert_eq!(p.sql_text.lines().count(), p.doc.element_count(), "one INSERT per element");
        assert!(p.ddl.contains("CREATE TABLE patient"));
        assert_eq!(p.default_sign, '-');
    }

    #[test]
    fn xml_round_trips() {
        let p = PreparedDocument::prepare(&schema(), doc(), '-').unwrap();
        let re = Document::parse_str(&p.xml_text).unwrap();
        assert_eq!(re.to_xml(), p.doc.to_xml());
    }
}
