//! Column-at-a-time execution over column-store tables — the MonetDB-like
//! engine. Operators work on whole column vectors: scans compute selection
//! vectors against single columns, joins build and probe on key columns
//! and gather the payload columns afterwards. Tuples are only assembled at
//! the result boundary (and inside set operations, which are inherently
//! tuple-keyed).

use super::{set_op, ResultSet};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::plan::{Plan, Pred};
use crate::sql::SqlCmpOp;
use crate::storage::ColTable;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A column-major intermediate result.
#[derive(Debug, Clone)]
struct Batch {
    cols: Vec<Vec<Value>>,
    len: usize,
}

impl Batch {
    fn empty(arity: usize) -> Batch {
        Batch { cols: vec![Vec::new(); arity], len: 0 }
    }
}

/// Execute a plan against column tables, stored by catalog position.
pub fn execute(plan: &Plan, catalog: &Catalog, tables: &[Arc<ColTable>]) -> Result<ResultSet> {
    let batch = eval(plan, catalog, tables)?;
    // Transpose to row-major at the boundary.
    let mut rows = Vec::with_capacity(batch.len);
    for i in 0..batch.len {
        rows.push(batch.cols.iter().map(|c| c[i].clone()).collect());
    }
    Ok(ResultSet { columns: super::row_exec::output_names(plan, catalog), rows })
}

fn eval(plan: &Plan, catalog: &Catalog, tables: &[Arc<ColTable>]) -> Result<Batch> {
    match plan {
        Plan::Scan { table, filters } => {
            let t = catalog
                .position(table)
                .map(|p| &tables[p])
                .ok_or_else(|| Error::exec(format!("missing table `{table}`")))?;
            Ok(scan(t, filters))
        }
        Plan::Join { left, right, left_col, right_col } => {
            let l = eval(left, catalog, tables)?;
            let r = eval(right, catalog, tables)?;
            Ok(hash_join(l, r, *left_col, *right_col))
        }
        Plan::Cross { left, right } => {
            let l = eval(left, catalog, tables)?;
            let r = eval(right, catalog, tables)?;
            let pairs: Vec<(usize, usize)> = (0..l.len)
                .flat_map(|i| (0..r.len).map(move |j| (i, j)))
                .collect();
            Ok(gather_pairs(&l, &r, &pairs))
        }
        Plan::Filter { input, preds } => {
            let b = eval(input, catalog, tables)?;
            // Vectorized: each predicate refines the selection vector by
            // sweeping whole columns.
            let mut sel: Vec<usize> = (0..b.len).collect();
            for p in preds {
                sel = match p {
                    Pred::ColLit { col, op, value } => sel
                        .into_iter()
                        .filter(|&i| op.compare(b.cols[*col][i].as_ref(), value.as_ref()))
                        .collect(),
                    Pred::ColCol { left, op, right } => sel
                        .into_iter()
                        .filter(|&i| {
                            op.compare(b.cols[*left][i].as_ref(), b.cols[*right][i].as_ref())
                        })
                        .collect(),
                };
            }
            Ok(gather(&b, &sel))
        }
        Plan::Project { input, cols, .. } => {
            let b = eval(input, catalog, tables)?;
            Ok(Batch {
                cols: cols.iter().map(|&c| b.cols[c].clone()).collect(),
                len: b.len,
            })
        }
        Plan::Aggregate { input, col } => {
            let b = eval(input, catalog, tables)?;
            let n = match col {
                None => b.len,
                Some(c) => b.cols[*c].iter().filter(|v| !v.is_null()).count(),
            };
            Ok(Batch { cols: vec![vec![Value::Int(n as i64)]], len: 1 })
        }
        Plan::Empty { names } => Ok(Batch::empty(names.len())),
        Plan::SetOp { kind, left, right } => {
            let l = eval(left, catalog, tables)?;
            let r = eval(right, catalog, tables)?;
            let arity = l.cols.len();
            let rows = set_op(*kind, to_rows(l), to_rows(r));
            Ok(from_rows(rows, arity))
        }
    }
}

fn scan(t: &ColTable, filters: &[(usize, SqlCmpOp, Value)]) -> Batch {
    // Initial selection: index bucket when an equality filter hits an
    // indexed column, the live bitmap otherwise.
    let mut sel: Vec<usize> = if let Some((col, key)) = filters
        .iter()
        .find(|(col, op, _)| *op == SqlCmpOp::Eq && t.has_index(*col))
        .map(|(c, _, v)| (*c, v))
    {
        t.index_lookup(col, key.as_ref()).collect()
    } else {
        t.live_rows().collect()
    };
    // One column sweep per filter, reading the cells in place.
    for (col, op, lit) in filters {
        sel.retain(|&r| op.compare(t.get(r, *col), lit.as_ref()));
    }
    // Gather the surviving rows column by column.
    let cols = (0..t.schema().arity())
        .map(|c| sel.iter().map(|&r| t.get(r, c).to_value()).collect())
        .collect();
    Batch { cols, len: sel.len() }
}

fn gather(b: &Batch, sel: &[usize]) -> Batch {
    Batch {
        cols: b
            .cols
            .iter()
            .map(|c| sel.iter().map(|&i| c[i].clone()).collect())
            .collect(),
        len: sel.len(),
    }
}

fn gather_pairs(l: &Batch, r: &Batch, pairs: &[(usize, usize)]) -> Batch {
    let mut cols: Vec<Vec<Value>> = Vec::with_capacity(l.cols.len() + r.cols.len());
    for c in &l.cols {
        cols.push(pairs.iter().map(|&(i, _)| c[i].clone()).collect());
    }
    for c in &r.cols {
        cols.push(pairs.iter().map(|&(_, j)| c[j].clone()).collect());
    }
    Batch { cols, len: pairs.len() }
}

fn hash_join(l: Batch, r: Batch, left_col: usize, right_col: usize) -> Batch {
    // Build on the left key column, probe with the right key column —
    // classic column-store join: only key columns are touched until the
    // final gather.
    let mut build: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(l.len);
    for (i, v) in l.cols[left_col].iter().enumerate() {
        if !v.is_null() {
            build.entry(v).or_default().push(i);
        }
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (j, v) in r.cols[right_col].iter().enumerate() {
        if v.is_null() {
            continue;
        }
        if let Some(matches) = build.get(v) {
            pairs.extend(matches.iter().map(|&i| (i, j)));
        }
    }
    gather_pairs(&l, &r, &pairs)
}

fn to_rows(b: Batch) -> Vec<Vec<Value>> {
    (0..b.len)
        .map(|i| b.cols.iter().map(|c| c[i].clone()).collect())
        .collect()
}

fn from_rows(rows: Vec<Vec<Value>>, arity: usize) -> Batch {
    let mut cols = vec![Vec::with_capacity(rows.len()); arity];
    for row in &rows {
        for (c, v) in row.iter().enumerate() {
            cols[c].push(v.clone());
        }
    }
    Batch { cols, len: rows.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Column, TableSchema};
    use crate::plan::plan_query;
    use crate::sql::{parse_statement, Statement};
    use crate::value::DataType;

    fn setup() -> (Catalog, Vec<Arc<ColTable>>) {
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
            tables.push(Arc::new(ColTable::new(Arc::clone(catalog.schema_at(at)))));
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
    fn scan_filter_and_join() {
        let rs = run("SELECT id FROM child WHERE v = 'a'");
        assert_eq!(rs.column_as_int_set(0).into_iter().collect::<Vec<_>>(), vec![10, 12]);
        let rs = run("SELECT c.id FROM parent p, child c WHERE p.id = c.pid AND p.v = 'p1'");
        assert_eq!(rs.column_as_int_set(0).into_iter().collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn set_ops_and_cross() {
        let rs = run("(SELECT id FROM child) EXCEPT (SELECT id FROM child WHERE v = 'a')");
        assert_eq!(rs.column_as_ints(0), vec![11]);
        let rs = run("SELECT p.id FROM parent p, child c");
        assert_eq!(rs.len(), 6);
    }

    #[test]
    fn numeric_coercion_in_text_column() {
        let rs = run("SELECT id FROM child WHERE id > 10 AND v != 'zzz'");
        assert_eq!(rs.column_as_int_set(0).into_iter().collect::<Vec<_>>(), vec![11, 12]);
    }
}
