//! Tuple-at-a-time execution over row-store tables — the PostgreSQL-like
//! engine. Every operator consumes and produces whole tuples; predicates
//! are evaluated row by row.

use super::{set_op, ResultSet};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::plan::{Plan, Pred};
use crate::sql::SqlCmpOp;
use crate::storage::RowTable;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Execute a plan against row tables, stored by catalog position.
pub fn execute(plan: &Plan, catalog: &Catalog, tables: &[Arc<RowTable>]) -> Result<ResultSet> {
    let rows = eval(plan, catalog, tables)?;
    Ok(ResultSet { columns: output_names(plan, catalog), rows })
}

/// Output column names of a plan.
pub(crate) fn output_names(plan: &Plan, catalog: &Catalog) -> Vec<String> {
    match plan {
        Plan::Scan { table, .. } => catalog
            .table(table)
            .map(|t| t.columns.iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default(),
        Plan::Join { left, right, .. } | Plan::Cross { left, right } => {
            let mut n = output_names(left, catalog);
            n.extend(output_names(right, catalog));
            n
        }
        Plan::Filter { input, .. } => output_names(input, catalog),
        Plan::Project { names, .. } => names.clone(),
        Plan::Aggregate { .. } => vec!["count".to_string()],
        Plan::Empty { names } => names.clone(),
        Plan::SetOp { left, .. } => output_names(left, catalog),
    }
}

fn eval(plan: &Plan, catalog: &Catalog, tables: &[Arc<RowTable>]) -> Result<Vec<Vec<Value>>> {
    let eval = |plan| eval(plan, catalog, tables);
    match plan {
        Plan::Scan { table, filters } => {
            let t = catalog
                .position(table)
                .map(|p| &tables[p])
                .ok_or_else(|| Error::exec(format!("missing table `{table}`")))?;
            Ok(scan(t, filters))
        }
        Plan::Join { left, right, left_col, right_col } => {
            let l = eval(left)?;
            let r = eval(right)?;
            Ok(hash_join(l, r, *left_col, *right_col))
        }
        Plan::Cross { left, right } => {
            let l = eval(left)?;
            let r = eval(right)?;
            let mut out = Vec::with_capacity(l.len() * r.len());
            for lr in &l {
                for rr in &r {
                    let mut row = lr.clone();
                    row.extend(rr.iter().cloned());
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Filter { input, preds } => {
            let mut rows = eval(input)?;
            rows.retain(|row| preds.iter().all(|p| pred_holds(p, row)));
            Ok(rows)
        }
        Plan::Project { input, cols, .. } => {
            let rows = eval(input)?;
            Ok(rows
                .into_iter()
                .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
                .collect())
        }
        Plan::Aggregate { input, col } => {
            let rows = eval(input)?;
            let n = match col {
                None => rows.len(),
                Some(c) => rows.iter().filter(|r| !r[*c].is_null()).count(),
            };
            Ok(vec![vec![Value::Int(n as i64)]])
        }
        Plan::Empty { .. } => Ok(Vec::new()),
        Plan::SetOp { kind, left, right } => {
            let l = eval(left)?;
            let r = eval(right)?;
            Ok(set_op(*kind, l, r))
        }
    }
}

fn scan(t: &RowTable, filters: &[(usize, SqlCmpOp, Value)]) -> Vec<Vec<Value>> {
    // Index fast path: an equality filter on an indexed column narrows the
    // candidate rows to the index bucket.
    if let Some((col, _, key)) = filters
        .iter()
        .find(|(col, op, _)| *op == SqlCmpOp::Eq && t.has_index(*col))
        .map(|(c, o, v)| (*c, *o, v))
    {
        return t
            .index_lookup(col, key.as_ref())
            .filter(|&r| row_passes(t, r, filters))
            .map(|r| t.row_values(r))
            .collect();
    }
    t.live_rows()
        .filter(|&r| row_passes(t, r, filters))
        .map(|r| t.row_values(r))
        .collect()
}

/// Whether stored row `row` passes every filter, read in place.
fn row_passes(t: &RowTable, row: usize, filters: &[(usize, SqlCmpOp, Value)]) -> bool {
    filters.iter().all(|(col, op, lit)| op.compare(t.get(row, *col), lit.as_ref()))
}

fn pred_holds(pred: &Pred, row: &[Value]) -> bool {
    match pred {
        Pred::ColLit { col, op, value } => op.compare(row[*col].as_ref(), value.as_ref()),
        Pred::ColCol { left, op, right } => op.compare(row[*left].as_ref(), row[*right].as_ref()),
    }
}

fn hash_join(
    left: Vec<Vec<Value>>,
    right: Vec<Vec<Value>>,
    left_col: usize,
    right_col: usize,
) -> Vec<Vec<Value>> {
    let mut build: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(left.len());
    for (i, row) in left.iter().enumerate() {
        let key = &row[left_col];
        if !key.is_null() {
            build.entry(key).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    for rrow in &right {
        let key = &rrow[right_col];
        if key.is_null() {
            continue;
        }
        if let Some(matches) = build.get(key) {
            for &li in matches {
                let mut row = left[li].clone();
                row.extend(rrow.iter().cloned());
                out.push(row);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Column, TableSchema};
    use crate::plan::plan_query;
    use crate::sql::{parse_statement, Statement};
    use crate::value::DataType;

    fn setup() -> (Catalog, Vec<Arc<RowTable>>) {
        let mut catalog = Catalog::new();
        let mut tables = Vec::new();
        for name in ["parent", "child"] {
            let schema = TableSchema::new(
                name,
                vec![
                    Column::new("id", DataType::Int).primary_key(),
                    Column::new("pid", DataType::Int).indexed(),
                    Column::new("v", DataType::Text),
                ],
            )
            .unwrap();
            let at = catalog.add_table(schema).unwrap();
            tables.push(Arc::new(RowTable::new(Arc::clone(catalog.schema_at(at)))));
        }
        let p = Arc::get_mut(&mut tables[0]).unwrap();
        p.append(&[Value::Int(1), Value::Null, Value::Text("p1".into())]).unwrap();
        p.append(&[Value::Int(2), Value::Null, Value::Text("p2".into())]).unwrap();
        let c = Arc::get_mut(&mut tables[1]).unwrap();
        c.append(&[Value::Int(10), Value::Int(1), Value::Text("a".into())]).unwrap();
        c.append(&[Value::Int(11), Value::Int(1), Value::Text("b".into())]).unwrap();
        c.append(&[Value::Int(12), Value::Int(2), Value::Text("a".into())]).unwrap();
        (catalog, tables)
    }

    fn run(sql: &str) -> ResultSet {
        let (catalog, tables) = setup();
        let q = match parse_statement(sql).unwrap() {
            Statement::Query(q) => q,
            other => panic!("not a query: {other:?}"),
        };
        let plan = plan_query(&catalog, &q).unwrap();
        execute(&plan, &catalog, &tables).unwrap()
    }

    #[test]
    fn scan_with_filter() {
        let rs = run("SELECT id FROM child WHERE v = 'a'");
        assert_eq!(rs.column_as_int_set(0).into_iter().collect::<Vec<_>>(), vec![10, 12]);
        assert_eq!(rs.columns, vec!["id"]);
    }

    #[test]
    fn index_fast_path_matches_scan() {
        let rs = run("SELECT id FROM child WHERE pid = 1 AND v = 'b'");
        assert_eq!(rs.column_as_ints(0), vec![11]);
    }

    #[test]
    fn join_parent_child() {
        let rs = run(
            "SELECT c.id FROM parent p, child c WHERE p.id = c.pid AND p.v = 'p1'",
        );
        assert_eq!(rs.column_as_int_set(0).into_iter().collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn union_except_intersect() {
        let rs = run(
            "SELECT id FROM child WHERE v = 'a' UNION SELECT id FROM child WHERE v = 'b'",
        );
        assert_eq!(rs.column_as_int_set(0).len(), 3);
        let rs = run(
            "(SELECT id FROM child) EXCEPT (SELECT id FROM child WHERE v = 'a')",
        );
        assert_eq!(rs.column_as_ints(0), vec![11]);
        let rs = run(
            "(SELECT id FROM child WHERE pid = 1) INTERSECT (SELECT id FROM child WHERE v = 'a')",
        );
        assert_eq!(rs.column_as_ints(0), vec![10]);
    }

    #[test]
    fn cross_product() {
        let rs = run("SELECT p.id FROM parent p, child c");
        assert_eq!(rs.len(), 6);
    }

    #[test]
    fn nulls_never_join() {
        let rs = run("SELECT c.id FROM parent p, child c WHERE p.pid = c.pid");
        assert!(rs.is_empty(), "parent.pid is NULL and must not match");
    }
}
