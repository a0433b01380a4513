//! Logical plans and the planner.
//!
//! The planner turns a parsed query expression into a left-deep tree of
//! scans, hash equi-joins, residual filters and projections. Constant
//! predicates are pushed into the scans; join order is chosen greedily so
//! each join has a connecting equi-predicate whenever one exists (the
//! conjunctive queries produced by the ShreX translation always join
//! along `pid`/`id` chains, so the greedy order follows the XPath steps).

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::sql::{ColRef, Operand, Projection, QueryExpr, Select, SetOpKind, SqlCmpOp};
use crate::value::Value;

/// A predicate evaluated on plan output offsets.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `col op literal`.
    ColLit { col: usize, op: SqlCmpOp, value: Value },
    /// `col op col` (both offsets into the node's output row).
    ColCol { left: usize, op: SqlCmpOp, right: usize },
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a table, applying pushed-down constant filters
    /// (`(column index, op, literal)` on the table's own schema).
    Scan {
        /// Catalog table name.
        table: String,
        /// Pushed-down constant predicates.
        filters: Vec<(usize, SqlCmpOp, Value)>,
    },
    /// Hash equi-join on one column from each side; output is
    /// `left columns ++ right columns`.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        /// Key offset in the left output.
        left_col: usize,
        /// Key offset in the right output.
        right_col: usize,
    },
    /// Cartesian product (only when no equi-predicate connects the sides).
    Cross { left: Box<Plan>, right: Box<Plan> },
    /// Residual predicates on the input's output row.
    Filter { input: Box<Plan>, preds: Vec<Pred> },
    /// Keep the listed offsets, renaming them.
    Project { input: Box<Plan>, cols: Vec<usize>, names: Vec<String> },
    /// `COUNT(*)` / `COUNT(col)` over the input: one row, one column.
    /// `col` is the input offset whose non-NULL values are counted
    /// (`None` counts rows).
    Aggregate { input: Box<Plan>, col: Option<usize> },
    /// A statically-empty relation (constant-false predicate).
    Empty { names: Vec<String> },
    /// Set operation with set (duplicate-eliminating) semantics.
    SetOp { kind: SetOpKind, left: Box<Plan>, right: Box<Plan> },
}

impl Plan {
    /// Number of output columns, given the catalog.
    pub fn arity(&self, catalog: &Catalog) -> usize {
        match self {
            Plan::Scan { table, .. } => {
                catalog.table(table).map(|t| t.arity()).unwrap_or(0)
            }
            Plan::Join { left, right, .. } | Plan::Cross { left, right } => {
                left.arity(catalog) + right.arity(catalog)
            }
            Plan::Filter { input, .. } => input.arity(catalog),
            Plan::Project { cols, .. } => cols.len(),
            Plan::Aggregate { .. } => 1,
            Plan::Empty { names } => names.len(),
            Plan::SetOp { left, .. } => left.arity(catalog),
        }
    }
}

impl Plan {
    /// Render the plan as an indented operator tree (the `EXPLAIN`
    /// output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan { table, filters } => {
                out.push_str(&format!("{pad}Scan {table}"));
                if !filters.is_empty() {
                    let fs: Vec<String> = filters
                        .iter()
                        .map(|(c, op, v)| format!("#{c} {op} {}", v.to_sql_literal()))
                        .collect();
                    out.push_str(&format!(" [{}]", fs.join(" AND ")));
                }
                out.push('\n');
            }
            Plan::Join { left, right, left_col, right_col } => {
                out.push_str(&format!("{pad}HashJoin left.#{left_col} = right.#{right_col}\n"));
                left.render_into(out, depth + 1);
                right.render_into(out, depth + 1);
            }
            Plan::Cross { left, right } => {
                out.push_str(&format!("{pad}CrossProduct\n"));
                left.render_into(out, depth + 1);
                right.render_into(out, depth + 1);
            }
            Plan::Filter { input, preds } => {
                let fs: Vec<String> = preds
                    .iter()
                    .map(|p| match p {
                        Pred::ColLit { col, op, value } => {
                            format!("#{col} {op} {}", value.to_sql_literal())
                        }
                        Pred::ColCol { left, op, right } => format!("#{left} {op} #{right}"),
                    })
                    .collect();
                out.push_str(&format!("{pad}Filter [{}]\n", fs.join(" AND ")));
                input.render_into(out, depth + 1);
            }
            Plan::Project { input, cols, names } => {
                let ps: Vec<String> = cols
                    .iter()
                    .zip(names)
                    .map(|(c, n)| format!("#{c} as {n}"))
                    .collect();
                out.push_str(&format!("{pad}Project [{}]\n", ps.join(", ")));
                input.render_into(out, depth + 1);
            }
            Plan::Aggregate { input, col } => {
                let what = col.map(|c| format!("#{c}")).unwrap_or_else(|| "*".to_string());
                out.push_str(&format!("{pad}Aggregate COUNT({what})\n"));
                input.render_into(out, depth + 1);
            }
            Plan::Empty { .. } => {
                out.push_str(&format!("{pad}Empty\n"));
            }
            Plan::SetOp { kind, left, right } => {
                out.push_str(&format!("{pad}{kind}\n"));
                left.render_into(out, depth + 1);
                right.render_into(out, depth + 1);
            }
        }
    }
}

/// Plan a query expression.
pub fn plan_query(catalog: &Catalog, q: &QueryExpr) -> Result<Plan> {
    match q {
        QueryExpr::Select(sel) => plan_select(catalog, sel),
        QueryExpr::SetOp { op, left, right } => {
            let l = plan_query(catalog, left)?;
            let r = plan_query(catalog, right)?;
            if l.arity(catalog) != r.arity(catalog) {
                return Err(Error::plan(format!(
                    "set operation arity mismatch: {} vs {}",
                    l.arity(catalog),
                    r.arity(catalog)
                )));
            }
            Ok(Plan::SetOp { kind: *op, left: Box::new(l), right: Box::new(r) })
        }
    }
}

/// Resolution context for one `SELECT` block.
struct Scope<'a> {
    catalog: &'a Catalog,
    /// `(alias, table name, arity)` in FROM order.
    tables: Vec<(String, String, usize)>,
}

impl Scope<'_> {
    /// Resolve a column reference to `(table position, column index)`.
    fn resolve(&self, c: &ColRef) -> Result<(usize, usize)> {
        match &c.qualifier {
            Some(q) => {
                let (ti, (_, tname, _)) = self
                    .tables
                    .iter()
                    .enumerate()
                    .find(|(_, (a, _, _))| a == q)
                    .ok_or_else(|| Error::plan(format!("unknown alias `{q}`")))?;
                let schema = self.catalog.require_table(tname)?;
                let ci = schema
                    .column_index(&c.column)
                    .ok_or_else(|| {
                        Error::plan(format!("unknown column `{q}.{}`", c.column))
                    })?;
                Ok((ti, ci))
            }
            None => {
                let mut hit = None;
                for (ti, (_, tname, _)) in self.tables.iter().enumerate() {
                    let schema = self.catalog.require_table(tname)?;
                    if let Some(ci) = schema.column_index(&c.column) {
                        if hit.is_some() {
                            return Err(Error::plan(format!(
                                "ambiguous column `{}`",
                                c.column
                            )));
                        }
                        hit = Some((ti, ci));
                    }
                }
                hit.ok_or_else(|| Error::plan(format!("unknown column `{}`", c.column)))
            }
        }
    }
}

fn plan_select(catalog: &Catalog, sel: &Select) -> Result<Plan> {
    if sel.from.is_empty() {
        return Err(Error::plan("FROM list is empty"));
    }
    let mut tables = Vec::new();
    for tr in &sel.from {
        let schema = catalog.require_table(&tr.table)?;
        if tables.iter().any(|(a, _, _)| a == &tr.alias) {
            return Err(Error::plan(format!("duplicate alias `{}`", tr.alias)));
        }
        tables.push((tr.alias.clone(), tr.table.clone(), schema.arity()));
    }
    let scope = Scope { catalog, tables };

    // Classify conditions.
    let mut scan_filters: Vec<Vec<(usize, SqlCmpOp, Value)>> =
        vec![Vec::new(); scope.tables.len()];
    // (table_a, col_a, table_b, col_b) equi-joins.
    let mut joins: Vec<(usize, usize, usize, usize)> = Vec::new();
    // Residual col-col predicates in (table, col) terms.
    type ColPos = (usize, usize);
    let mut residual: Vec<(ColPos, SqlCmpOp, ColPos)> = Vec::new();

    for cond in &sel.conditions {
        match (&cond.left, &cond.right) {
            (Operand::Lit(a), Operand::Lit(b)) => {
                if !cond.op.compare(a.to_value().as_ref(), b.to_value().as_ref()) {
                    let names = projection_names(sel);
                    return Ok(Plan::Empty { names });
                }
            }
            (Operand::Col(c), Operand::Lit(l)) => {
                let (ti, ci) = scope.resolve(c)?;
                scan_filters[ti].push((ci, cond.op, l.to_value()));
            }
            (Operand::Lit(l), Operand::Col(c)) => {
                let (ti, ci) = scope.resolve(c)?;
                scan_filters[ti].push((ci, flip(cond.op), l.to_value()));
            }
            (Operand::Col(a), Operand::Col(b)) => {
                let (ta, ca) = scope.resolve(a)?;
                let (tb, cb) = scope.resolve(b)?;
                if ta != tb && cond.op == SqlCmpOp::Eq {
                    joins.push((ta, ca, tb, cb));
                } else {
                    residual.push(((ta, ca), cond.op, (tb, cb)));
                }
            }
        }
    }

    // Greedy left-deep join order.
    let n = scope.tables.len();
    let mut placed: Vec<usize> = Vec::with_capacity(n); // table positions in placement order
    let mut base: Vec<Option<usize>> = vec![None; n]; // output offset base per table
    let mut used_join = vec![false; joins.len()];

    let mk_scan = |ti: usize| Plan::Scan {
        table: scope.tables[ti].1.clone(),
        filters: scan_filters[ti].clone(),
    };

    placed.push(0);
    base[0] = Some(0);
    let mut plan = mk_scan(0);
    let mut width = scope.tables[0].2;

    while placed.len() < n {
        // Find an unused equi-join linking a placed and an unplaced table.
        let next = joins.iter().enumerate().find_map(|(ji, &(ta, ca, tb, cb))| {
            if used_join[ji] {
                return None;
            }
            match (base[ta].is_some(), base[tb].is_some()) {
                (true, false) => Some((ji, ta, ca, tb, cb)),
                (false, true) => Some((ji, tb, cb, ta, ca)),
                _ => None,
            }
        });
        match next {
            Some((ji, placed_t, placed_c, new_t, new_c)) => {
                used_join[ji] = true;
                let right = mk_scan(new_t);
                base[new_t] = Some(width);
                placed.push(new_t);
                let left_col = base[placed_t].expect("placed") + placed_c;
                plan = Plan::Join {
                    left: Box::new(plan),
                    right: Box::new(right),
                    left_col,
                    right_col: new_c,
                };
                width += scope.tables[new_t].2;
            }
            None => {
                // No connecting join: cross product with the first
                // unplaced table.
                let new_t = (0..n).find(|t| base[*t].is_none()).expect("one remains");
                let right = mk_scan(new_t);
                base[new_t] = Some(width);
                placed.push(new_t);
                plan = Plan::Cross { left: Box::new(plan), right: Box::new(right) };
                width += scope.tables[new_t].2;
            }
        }
    }

    // Remaining equi-joins between already-placed tables and residual
    // comparisons become a filter.
    let mut preds: Vec<Pred> = Vec::new();
    for (ji, &(ta, ca, tb, cb)) in joins.iter().enumerate() {
        if !used_join[ji] {
            preds.push(Pred::ColCol {
                left: base[ta].expect("placed") + ca,
                op: SqlCmpOp::Eq,
                right: base[tb].expect("placed") + cb,
            });
        }
    }
    for ((ta, ca), op, (tb, cb)) in residual {
        preds.push(Pred::ColCol {
            left: base[ta].expect("placed") + ca,
            op,
            right: base[tb].expect("placed") + cb,
        });
    }
    if !preds.is_empty() {
        plan = Plan::Filter { input: Box::new(plan), preds };
    }

    // Projection. A single aggregate becomes an Aggregate node; mixing
    // aggregates with plain columns needs GROUP BY, which the dialect
    // does not have.
    if sel.projections.iter().any(Projection::is_aggregate) {
        if sel.projections.len() != 1 {
            return Err(Error::plan(
                "aggregates cannot be mixed with other projections (no GROUP BY)",
            ));
        }
        let col = match &sel.projections[0] {
            Projection::CountStar => None,
            Projection::Count(c) => {
                let (ti, ci) = scope.resolve(c)?;
                Some(base[ti].expect("placed") + ci)
            }
            Projection::Column(_) => unreachable!("is_aggregate checked"),
        };
        return Ok(Plan::Aggregate { input: Box::new(plan), col });
    }
    let mut cols = Vec::new();
    for p in &sel.projections {
        let Projection::Column(c) = p else { unreachable!("aggregates handled above") };
        let (ti, ci) = scope.resolve(c)?;
        cols.push(base[ti].expect("placed") + ci);
    }
    let names = projection_names(sel);
    Ok(Plan::Project { input: Box::new(plan), cols, names })
}

fn projection_names(sel: &Select) -> Vec<String> {
    sel.projections
        .iter()
        .map(|p| match p {
            Projection::Column(c) => c.column.clone(),
            Projection::CountStar | Projection::Count(_) => "count".to_string(),
        })
        .collect()
}

fn flip(op: SqlCmpOp) -> SqlCmpOp {
    match op {
        SqlCmpOp::Eq => SqlCmpOp::Eq,
        SqlCmpOp::Ne => SqlCmpOp::Ne,
        SqlCmpOp::Lt => SqlCmpOp::Gt,
        SqlCmpOp::Le => SqlCmpOp::Ge,
        SqlCmpOp::Gt => SqlCmpOp::Lt,
        SqlCmpOp::Ge => SqlCmpOp::Le,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Column, TableSchema};
    use crate::sql::parse_statement;
    use crate::sql::Statement;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for name in ["a", "b", "c"] {
            c.add_table(
                TableSchema::new(
                    name,
                    vec![
                        Column::new("id", DataType::Int).primary_key(),
                        Column::new("pid", DataType::Int).indexed(),
                        Column::new("v", DataType::Text),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        }
        c
    }

    fn plan(sql: &str) -> Result<Plan> {
        let c = catalog();
        match parse_statement(sql).unwrap() {
            Statement::Query(q) => plan_query(&c, &q),
            other => panic!("not a query: {other:?}"),
        }
    }

    #[test]
    fn pushes_constant_filters_into_scan() {
        let p = plan("SELECT id FROM a WHERE v = 'x' AND id > 3").unwrap();
        match p {
            Plan::Project { input, cols, names } => {
                assert_eq!(cols, vec![0]);
                assert_eq!(names, vec!["id"]);
                match *input {
                    Plan::Scan { table, filters } => {
                        assert_eq!(table, "a");
                        assert_eq!(filters.len(), 2);
                    }
                    other => panic!("expected scan, got {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builds_join_chain() {
        let p = plan(
            "SELECT y.id FROM a x, b y, c z \
             WHERE x.id = y.pid AND y.id = z.pid AND z.v = 'q'",
        )
        .unwrap();
        // Project over Join(Join(a,b),c); z's filter pushed to its scan.
        match p {
            Plan::Project { input, cols, .. } => {
                assert_eq!(cols, vec![3], "y.id at offset 3 (after a's 3 cols)");
                match *input {
                    Plan::Join { left, right, left_col, right_col } => {
                        assert_eq!(left_col, 3, "y.id");
                        assert_eq!(right_col, 1, "z.pid");
                        assert!(matches!(*left, Plan::Join { .. }));
                        match *right {
                            Plan::Scan { table, filters } => {
                                assert_eq!(table, "c");
                                assert_eq!(filters.len(), 1);
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flipped_literal_condition() {
        let p = plan("SELECT id FROM a WHERE 3 < id").unwrap();
        match p {
            Plan::Project { input, .. } => match *input {
                Plan::Scan { filters, .. } => {
                    assert_eq!(filters[0].1, SqlCmpOp::Gt, "3 < id becomes id > 3");
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cross_product_when_unconnected() {
        let p = plan("SELECT x.id FROM a x, b y").unwrap();
        match p {
            Plan::Project { input, .. } => assert!(matches!(*input, Plan::Cross { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_false_becomes_empty() {
        let p = plan("SELECT id FROM a WHERE 1 = 2").unwrap();
        assert!(matches!(p, Plan::Empty { .. }));
        let p = plan("SELECT id FROM a WHERE 1 = 1").unwrap();
        assert!(matches!(p, Plan::Project { .. }), "constant-true dropped");
    }

    #[test]
    fn non_equi_col_col_is_residual_filter() {
        let p = plan("SELECT x.id FROM a x, b y WHERE x.id = y.pid AND x.id < y.id").unwrap();
        match p {
            Plan::Project { input, .. } => match *input {
                Plan::Filter { preds, input } => {
                    assert_eq!(preds.len(), 1);
                    assert!(matches!(*input, Plan::Join { .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resolution_errors() {
        assert!(plan("SELECT id FROM missing").is_err());
        assert!(plan("SELECT nope FROM a").is_err());
        assert!(plan("SELECT w.id FROM a").is_err());
        assert!(plan("SELECT id FROM a x, b x").is_err(), "duplicate alias");
        assert!(plan("SELECT id FROM a, b").is_err(), "ambiguous bare column");
        assert!(
            plan("SELECT a.id FROM a UNION SELECT b.id, b.pid FROM b").is_err(),
            "set-op arity"
        );
    }

    #[test]
    fn setop_plan_shape() {
        let p = plan("SELECT id FROM a UNION SELECT id FROM b EXCEPT SELECT id FROM c").unwrap();
        // Left-associative: (a UNION b) EXCEPT c.
        match p {
            Plan::SetOp { kind: SetOpKind::Except, left, .. } => {
                assert!(matches!(*left, Plan::SetOp { kind: SetOpKind::Union, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
