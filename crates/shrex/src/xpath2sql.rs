//! XPath → SQL translation over the shredded schema (paper §5.2).
//!
//! Each XPath expression in the fragment becomes a `UNION` of conjunctive
//! queries. A child step adds a `child.pid = parent.id` join; a
//! descendant step is expanded through the (non-recursive) schema into
//! every child-axis label path, one conjunctive query per path; an
//! existence predicate joins the predicate chain in; a value predicate
//! constrains the `v` column of the leaf table. The rule
//! `R1 = //patient` translates to the paper's
//!
//! ```sql
//! SELECT patient1.id FROM patient patient1
//! ```
//!
//! and `R7 = //regular[med = "celecoxib"]` to a two-table join with a
//! constant condition on `med.v`.

use crate::{Error, Result};
use xac_xml::Schema;
use xac_xpath::{Axis, CmpOp, Path, Qualifier, Step};

/// One conjunctive query under construction.
#[derive(Debug, Clone)]
struct Cq {
    /// `(table, alias)` pairs of the FROM list.
    tables: Vec<(String, String)>,
    /// Rendered WHERE conjuncts.
    conds: Vec<String>,
    /// Alias producing the output ids.
    out_alias: String,
    /// Element type of the output alias.
    out_type: String,
}

impl Cq {
    fn render(&self) -> String {
        let from: Vec<String> =
            self.tables.iter().map(|(t, a)| format!("{t} {a}")).collect();
        if self.conds.is_empty() {
            format!("SELECT {}.id FROM {}", self.out_alias, from.join(", "))
        } else {
            format!(
                "SELECT {}.id FROM {} WHERE {}",
                self.out_alias,
                from.join(", "),
                self.conds.join(" AND ")
            )
        }
    }
}

/// Translate an absolute XPath expression to a SQL query returning the
/// universal ids of the selected nodes.
pub fn translate(path: &Path, schema: &Schema) -> Result<String> {
    if !path.absolute {
        return Err(Error::Translate(format!(
            "only absolute paths translate to SQL, got `{path}`"
        )));
    }
    if schema.is_recursive() {
        return Err(Error::Translate("recursive schemas are not supported".into()));
    }
    let mut counter = 0usize;
    let mut states: Vec<Cq> = Vec::new();

    for (i, step) in path.steps.iter().enumerate() {
        states = if i == 0 {
            first_step(step, schema, &mut counter)
        } else {
            let mut next = Vec::new();
            for cq in states {
                next.extend(extend_step(&cq, step, schema, &mut counter));
            }
            next
        };
        // Apply the step's predicates to every surviving branch.
        for q in &step.predicates {
            let mut next = Vec::new();
            for cq in states {
                next.extend(apply_qualifier(&cq, q, schema, &mut counter)?);
            }
            states = next;
        }
        if states.is_empty() {
            break;
        }
    }

    if states.is_empty() {
        // The path cannot match any node of this schema.
        return Ok(format!("SELECT id FROM {} WHERE 1 = 0", schema.root()));
    }
    let parts: Vec<String> = states.iter().map(Cq::render).collect();
    if parts.len() == 1 {
        Ok(parts.into_iter().next().expect("one part"))
    } else {
        Ok(parts
            .into_iter()
            .map(|p| format!("({p})"))
            .collect::<Vec<_>>()
            .join(" UNION "))
    }
}

fn fresh_alias(table: &str, counter: &mut usize) -> String {
    *counter += 1;
    format!("{table}{counter}")
}

fn test_matches(step: &Step, name: &str) -> bool {
    step.test.matches(name)
}

/// The first step starts from the virtual root: `child` can only reach the
/// document root type, `descendant` reaches every reachable type.
fn first_step(step: &Step, schema: &Schema, counter: &mut usize) -> Vec<Cq> {
    let targets: Vec<String> = match step.axis {
        Axis::Child => {
            if test_matches(step, schema.root()) {
                vec![schema.root().to_string()]
            } else {
                Vec::new()
            }
        }
        Axis::Descendant => schema
            .reachable_types()
            .into_iter()
            .filter(|t| test_matches(step, t))
            .map(str::to_string)
            .collect(),
    };
    targets
        .into_iter()
        .map(|t| {
            let alias = fresh_alias(&t, counter);
            Cq {
                tables: vec![(t.clone(), alias.clone())],
                conds: Vec::new(),
                out_alias: alias,
                out_type: t,
            }
        })
        .collect()
}

/// Extend a conjunctive query by one step from its output node.
fn extend_step(cq: &Cq, step: &Step, schema: &Schema, counter: &mut usize) -> Vec<Cq> {
    let paths = step_label_paths(&cq.out_type, step, schema);
    paths
        .into_iter()
        .map(|labels| {
            let mut next = cq.clone();
            for label in labels {
                let alias = fresh_alias(&label, counter);
                next.conds
                    .push(format!("{alias}.pid = {}.id", next.out_alias));
                next.tables.push((label.clone(), alias.clone()));
                next.out_alias = alias;
                next.out_type = label;
            }
            next
        })
        .collect()
}

/// The child-axis label paths a step denotes from a context type: one
/// single-label path per matching child for `child`, every downward label
/// path ending at a matching type for `descendant`.
fn step_label_paths(from: &str, step: &Step, schema: &Schema) -> Vec<Vec<String>> {
    match step.axis {
        Axis::Child => schema
            .child_types(from)
            .into_iter()
            .filter(|c| test_matches(step, c))
            .map(|c| vec![c.to_string()])
            .collect(),
        Axis::Descendant => {
            let mut out = Vec::new();
            let mut prefix: Vec<String> = Vec::new();
            collect_descendant_paths(schema, from, step, &mut prefix, &mut out);
            out
        }
    }
}

fn collect_descendant_paths(
    schema: &Schema,
    at: &str,
    step: &Step,
    prefix: &mut Vec<String>,
    out: &mut Vec<Vec<String>>,
) {
    for child in schema.child_types(at) {
        prefix.push(child.to_string());
        if test_matches(step, child) {
            out.push(prefix.clone());
        }
        collect_descendant_paths(schema, child, step, prefix, out);
        prefix.pop();
    }
}

/// Apply a qualifier at the query's output node. Fans out when predicate
/// paths expand along several schema paths (each branch is a sufficient
/// witness, so branches are unioned).
fn apply_qualifier(
    cq: &Cq,
    q: &Qualifier,
    schema: &Schema,
    counter: &mut usize,
) -> Result<Vec<Cq>> {
    match q {
        Qualifier::Exists(rel) => {
            if rel.is_self() {
                return Ok(vec![cq.clone()]);
            }
            Ok(extend_relative(cq, rel, schema, counter)
                .into_iter()
                .map(|mut ext| {
                    // Existence only: restore the output node.
                    ext.out_alias = cq.out_alias.clone();
                    ext.out_type = cq.out_type.clone();
                    ext
                })
                .collect())
        }
        Qualifier::Cmp(rel, op, lit) => {
            let branches = if rel.is_self() {
                vec![cq.clone()]
            } else {
                extend_relative(cq, rel, schema, counter)
            };
            let mut out = Vec::new();
            for mut ext in branches {
                if schema.is_text_type(&ext.out_type) {
                    ext.conds.push(format!(
                        "{}.v {} {}",
                        ext.out_alias,
                        sql_op(*op),
                        sql_literal(lit)
                    ));
                } else if !op.compare("", lit) {
                    // A type without a `v` column holds no text: its
                    // string value is "", so the comparison holds for
                    // every such node or for none.
                    continue;
                }
                ext.out_alias = cq.out_alias.clone();
                ext.out_type = cq.out_type.clone();
                out.push(ext);
            }
            Ok(out)
        }
        Qualifier::And(qs) => {
            let mut states = vec![cq.clone()];
            for q in qs {
                let mut next = Vec::new();
                for s in states {
                    next.extend(apply_qualifier(&s, q, schema, counter)?);
                }
                states = next;
            }
            Ok(states)
        }
    }
}

/// Extend a conjunctive query along a relative path (used by qualifiers).
fn extend_relative(cq: &Cq, rel: &Path, schema: &Schema, counter: &mut usize) -> Vec<Cq> {
    let mut states = vec![cq.clone()];
    for step in &rel.steps {
        let mut next = Vec::new();
        for s in &states {
            next.extend(extend_step(s, step, schema, counter));
        }
        // Nested predicates inside the relative path.
        for q in &step.predicates {
            let mut filtered = Vec::new();
            for s in next {
                if let Ok(mut more) = apply_qualifier(&s, q, schema, counter) {
                    filtered.append(&mut more);
                }
            }
            next = filtered;
        }
        states = next;
        if states.is_empty() {
            break;
        }
    }
    states
}

fn sql_op(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn sql_literal(lit: &str) -> String {
    if lit.parse::<i64>().is_ok() {
        lit.to_string()
    } else {
        format!("'{}'", lit.replace('\'', "''"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::tests::hospital_schema;
    use crate::mapping::Mapping;
    use crate::shred::{id_of, shred_to_sql};
    use std::collections::BTreeSet;
    use xac_reldb::{Database, StorageKind};
    use xac_xml::Document;

    fn tr(src: &str) -> String {
        translate(&xac_xpath::parse(src).unwrap(), &hospital_schema()).unwrap()
    }

    #[test]
    fn single_table_scan_for_descendant_type() {
        assert_eq!(tr("//patient"), "SELECT patient1.id FROM patient patient1");
    }

    #[test]
    fn child_step_becomes_pid_join() {
        let sql = tr("//patient/name");
        assert_eq!(
            sql,
            "SELECT name2.id FROM patient patient1, name name2 \
             WHERE name2.pid = patient1.id"
        );
    }

    #[test]
    fn root_child_chain() {
        let sql = tr("/hospital/dept/patients/patient");
        assert!(sql.starts_with("SELECT patient4.id FROM hospital hospital1"));
        assert_eq!(sql.matches("pid").count(), 3);
    }

    #[test]
    fn existence_predicate_joins() {
        let sql = tr("//patient[treatment]");
        assert_eq!(
            sql,
            "SELECT patient1.id FROM patient patient1, treatment treatment2 \
             WHERE treatment2.pid = patient1.id"
        );
    }

    #[test]
    fn value_predicate_constrains_v() {
        let sql = tr("//regular[med = \"celecoxib\"]");
        assert!(sql.contains("med2.v = 'celecoxib'"), "{sql}");
        let sql = tr("//regular[bill > 1000]");
        assert!(sql.contains("bill2.v > 1000"), "{sql}");
    }

    #[test]
    fn descendant_in_predicate_unions_paths() {
        // `//patient[.//bill]` — bill lives under regular and experimental.
        let sql = tr("//patient[.//bill]");
        assert!(sql.contains(" UNION "), "{sql}");
        assert!(sql.contains("regular"), "{sql}");
        assert!(sql.contains("experimental"), "{sql}");
    }

    #[test]
    fn multi_location_type_unions() {
        // `name` occurs under patient, nurse and doctor, but as a plain
        // descendant step it needs no joins at all.
        assert_eq!(tr("//name"), "SELECT name1.id FROM name name1");
        // Under a specific parent it does.
        let sql = tr("//doctor/name");
        assert!(sql.contains("doctor"), "{sql}");
    }

    #[test]
    fn impossible_paths_translate_to_empty() {
        assert_eq!(tr("//med/patient"), "SELECT id FROM hospital WHERE 1 = 0");
        assert_eq!(tr("/dept"), "SELECT id FROM hospital WHERE 1 = 0");
        assert_eq!(tr("//patient[phone]"), "SELECT id FROM hospital WHERE 1 = 0");
        // Value predicate on a non-leaf type can never hold.
        assert_eq!(
            tr("//patient[treatment = \"x\"]"),
            "SELECT id FROM hospital WHERE 1 = 0"
        );
    }

    #[test]
    fn wildcard_steps() {
        let sql = tr("//patient/*");
        // psn, name, treatment → three unioned branches.
        assert_eq!(sql.matches("SELECT").count(), 3, "{sql}");
    }

    /// The central cross-check: for a corpus of expressions, translating
    /// to SQL and running on the shredded store selects exactly the same
    /// nodes as evaluating the XPath on the tree — on both engines.
    #[test]
    fn translation_agrees_with_tree_evaluation() {
        let schema = hospital_schema();
        let mapping = Mapping::derive(&schema).unwrap();
        let doc = Document::parse_str(
            "<hospital><dept><patients>\
             <patient><psn>033</psn><name>john doe</name>\
             <treatment><regular><med>enoxaparin</med><bill>700</bill></regular></treatment>\
             </patient>\
             <patient><psn>042</psn><name>jane doe</name>\
             <treatment><experimental><test>hypnosis</test><bill>1600</bill></experimental></treatment>\
             </patient>\
             <patient><psn>099</psn><name>joy smith</name></patient>\
             </patients><staffinfo>\
             <staff><doctor><sid>7</sid><name>dr who</name><phone>555</phone></doctor></staff>\
             </staffinfo></dept></hospital>",
        )
        .unwrap();
        let sql_text = shred_to_sql(&doc, &mapping, '-').unwrap();

        let queries = [
            "//patient",
            "//patient/name",
            "//name",
            "//patient[treatment]",
            "//patient[treatment]/name",
            "//patient[.//experimental]",
            "//regular",
            "//regular[med = \"celecoxib\"]",
            "//regular[med = \"enoxaparin\"]",
            "//regular[bill > 1000]",
            "//experimental[bill > 1000]",
            "//patient[.//bill]",
            "//patient[psn and treatment]",
            "/hospital/dept/patients/patient",
            "//dept//bill",
            "//staff/*",
            "//patient[name = \"joy smith\"]",
            "//patient[treatment[regular]]",
            "//*",
            // Value comparisons on types without a `v` column: their
            // string value is "".
            "//dept[. = \"\"]",
            "//dept[. = \"x\"]",
            "//patient[treatment != \"x\"]",
            "//patient[treatment = \"x\"]",
        ];

        for kind in [StorageKind::Row, StorageKind::Column] {
            let mut db = Database::new(kind);
            db.execute_script(&mapping.ddl()).unwrap();
            db.execute_script(&sql_text).unwrap();
            for q in queries {
                let path = xac_xpath::parse(q).unwrap();
                let expected: BTreeSet<i64> = xac_xpath::eval(&doc, &path)
                    .into_iter()
                    .map(id_of)
                    .collect();
                let sql = translate(&path, &schema).unwrap();
                let got = db.query(&sql).unwrap().column_as_int_set(0);
                assert_eq!(got, expected, "mismatch for `{q}` on {kind:?}\nSQL: {sql}");
            }
        }
    }
}
