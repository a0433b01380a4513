//! The database facade: catalog + storage + SQL entry point.

use crate::catalog::{Catalog, Column, TableSchema};
use crate::error::{Error, Result};
use crate::exec::{col_exec, row_exec, ResultSet};
use crate::plan::plan_query;
use crate::sql::{parse_script, parse_statement, Condition, Operand, SqlCmpOp, Statement};
use crate::storage::{ColTable, RowTable};
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use xac_obs::metrics::Counter;

/// Statements executed, across every engine instance in the process.
fn statements_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_reldb_statements_total"))
}

/// Rows signed through [`Database::update_signs`], process-wide.
fn batch_sign_rows_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_reldb_batch_sign_rows_total"))
}

/// Physical layout (and matching execution engine) of a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Row store + tuple-at-a-time executor (the PostgreSQL stand-in).
    Row,
    /// Column store + vectorized executor (the MonetDB/SQL stand-in).
    Column,
}

impl StorageKind {
    /// Short label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            StorageKind::Row => "row-store",
            StorageKind::Column => "column-store",
        }
    }
}

#[derive(Clone)]
enum Store {
    Row(BTreeMap<String, RowTable>),
    Col(BTreeMap<String, ColTable>),
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// A query's rows.
    Rows(ResultSet),
    /// Rows affected (INSERT/UPDATE/DELETE) or 0 for DDL.
    Count(usize),
}

impl QueryResult {
    /// The result set, if this was a query.
    pub fn rows(self) -> Option<ResultSet> {
        match self {
            QueryResult::Rows(r) => Some(r),
            QueryResult::Count(_) => None,
        }
    }

    /// The affected-row count, if this was a write.
    pub fn count(self) -> Option<usize> {
        match self {
            QueryResult::Count(c) => Some(c),
            QueryResult::Rows(_) => None,
        }
    }
}

/// An in-memory SQL database.
///
/// `Clone` produces a full table-image snapshot (catalog + every table's
/// storage): the relational half of `Backend::checkpoint`. Cost is linear
/// in the stored data, which the `fault-recovery` benchmark measures.
#[derive(Clone)]
pub struct Database {
    kind: StorageKind,
    catalog: Catalog,
    store: Store,
}

impl Database {
    /// Create an empty database with the chosen layout.
    pub fn new(kind: StorageKind) -> Self {
        let store = match kind {
            StorageKind::Row => Store::Row(BTreeMap::new()),
            StorageKind::Column => Store::Col(BTreeMap::new()),
        };
        Database { kind, catalog: Catalog::new(), store }
    }

    /// The storage kind.
    pub fn kind(&self) -> StorageKind {
        self.kind
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        statements_total().inc();
        self.run(&stmt)
    }

    /// Parse and execute a `;`-separated script, returning the number of
    /// statements run.
    pub fn execute_script(&mut self, sql: &str) -> Result<usize> {
        let stmts = parse_script(sql)?;
        let n = stmts.len();
        statements_total().add(n as u64);
        for stmt in &stmts {
            self.run(stmt)?;
        }
        Ok(n)
    }

    /// Plan a query and render its operator tree without executing it
    /// (the `EXPLAIN` facility).
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            Statement::Query(q) => Ok(plan_query(&self.catalog, &q)?.render_text()),
            _ => Err(Error::plan("EXPLAIN supports queries only")),
        }
    }

    /// Execute a query and return its rows (errors on non-queries).
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        match self.execute(sql)? {
            QueryResult::Rows(r) => Ok(r),
            QueryResult::Count(_) => Err(Error::exec("statement is not a query")),
        }
    }

    /// Execute a parsed statement.
    pub fn run(&mut self, stmt: &Statement) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let cols = columns
                    .iter()
                    .map(|c| {
                        let mut col = Column::new(c.name.clone(), c.dtype);
                        if c.primary_key {
                            col = col.primary_key();
                        } else if c.indexed {
                            col = col.indexed();
                        }
                        col
                    })
                    .collect();
                let schema = TableSchema::new(name.clone(), cols)?;
                self.catalog.add_table(schema.clone())?;
                match &mut self.store {
                    Store::Row(m) => {
                        m.insert(name.clone(), RowTable::new(schema));
                    }
                    Store::Col(m) => {
                        m.insert(name.clone(), ColTable::new(schema));
                    }
                }
                Ok(QueryResult::Count(0))
            }
            Statement::Insert { table, columns, rows } => {
                let schema = self.catalog.require_table(table)?.clone();
                // Map listed columns to schema positions once.
                let positions: Vec<usize> = columns
                    .iter()
                    .map(|c| {
                        schema.column_index(c).ok_or_else(|| {
                            Error::plan(format!("unknown column `{c}` in `{table}`"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let mut inserted = 0usize;
                for lits in rows {
                    if lits.len() != positions.len() {
                        return Err(Error::exec("VALUES arity differs from column list"));
                    }
                    let mut row = vec![Value::Null; schema.arity()];
                    for (pos, lit) in positions.iter().zip(lits) {
                        row[*pos] = lit.to_value();
                    }
                    self.append_row(table, row)?;
                    inserted += 1;
                }
                Ok(QueryResult::Count(inserted))
            }
            Statement::Query(q) => {
                let plan = plan_query(&self.catalog, q)?;
                let rs = match &self.store {
                    Store::Row(m) => row_exec::execute(&plan, &self.catalog, m)?,
                    Store::Col(m) => col_exec::execute(&plan, &self.catalog, m)?,
                };
                Ok(QueryResult::Rows(rs))
            }
            Statement::Update { table, assignments, conditions } => {
                let schema = self.catalog.require_table(table)?.clone();
                let sets: Vec<(usize, Value)> = assignments
                    .iter()
                    .map(|(c, lit)| {
                        schema
                            .column_index(c)
                            .map(|i| (i, lit.to_value()))
                            .ok_or_else(|| {
                                Error::plan(format!("unknown column `{c}` in `{table}`"))
                            })
                    })
                    .collect::<Result<_>>()?;
                let targets = self.matching_rows(table, &schema, conditions)?;
                for &slot in &targets {
                    for (col, value) in &sets {
                        match &mut self.store {
                            Store::Row(m) => m
                                .get_mut(table)
                                .expect("checked")
                                .update_cell(slot, *col, value.clone())?,
                            Store::Col(m) => m
                                .get_mut(table)
                                .expect("checked")
                                .update_cell(slot, *col, value.clone())?,
                        }
                    }
                }
                Ok(QueryResult::Count(targets.len()))
            }
            Statement::Delete { table, conditions } => {
                let schema = self.catalog.require_table(table)?.clone();
                let targets = self.matching_rows(table, &schema, conditions)?;
                for &slot in &targets {
                    match &mut self.store {
                        Store::Row(m) => m.get_mut(table).expect("checked").delete_row(slot)?,
                        Store::Col(m) => m.get_mut(table).expect("checked").delete_row(slot)?,
                    }
                }
                Ok(QueryResult::Count(targets.len()))
            }
        }
    }

    /// Append a pre-built row (fast path used by bulk loaders and tests).
    pub fn append_row(&mut self, table: &str, row: Vec<Value>) -> Result<usize> {
        match &mut self.store {
            Store::Row(m) => m
                .get_mut(table)
                .ok_or_else(|| Error::exec(format!("missing table `{table}`")))?
                .append(row),
            Store::Col(m) => m
                .get_mut(table)
                .ok_or_else(|| Error::exec(format!("missing table `{table}`")))?
                .append(row),
        }
    }

    /// Batched sign write: set the `s` column of every row whose `id` is
    /// in `ids` to `sign`, in one engine call.
    ///
    /// This is the write path behind the *compiled* annotation mode: the
    /// per-tuple Fig. 6 loop issues one `UPDATE … WHERE id = k` string per
    /// tuple, paying SQL parsing, planning and condition evaluation each
    /// time. Here the ids go straight to the primary-key hash index and
    /// the cell writes happen in place — same final table state, same
    /// per-row index maintenance, none of the per-statement overhead.
    pub fn update_signs(&mut self, table: &str, ids: &[i64], sign: char) -> Result<usize> {
        let schema = self.catalog.require_table(table)?;
        let id_col = schema
            .column_index("id")
            .ok_or_else(|| Error::plan(format!("table `{table}` has no `id` column")))?;
        let s_col = schema
            .column_index("s")
            .ok_or_else(|| Error::plan(format!("table `{table}` has no `s` column")))?;
        if !self.has_index(table, id_col) {
            return Err(Error::exec(format!("`{table}.id` is not indexed")));
        }
        let value = Value::Text(sign.to_string());
        let mut updated = 0usize;
        macro_rules! write_batch {
            ($t:expr) => {{
                for &id in ids {
                    let slots = $t.index_lookup(id_col, &Value::Int(id)).to_vec();
                    for slot in slots {
                        if $t.is_live(slot) {
                            $t.update_cell(slot, s_col, value.clone())?;
                            updated += 1;
                        }
                    }
                }
            }};
        }
        match &mut self.store {
            Store::Row(m) => {
                let t = m
                    .get_mut(table)
                    .ok_or_else(|| Error::exec(format!("missing table `{table}`")))?;
                write_batch!(t)
            }
            Store::Col(m) => {
                let t = m
                    .get_mut(table)
                    .ok_or_else(|| Error::exec(format!("missing table `{table}`")))?;
                write_batch!(t)
            }
        }
        batch_sign_rows_total().add(updated as u64);
        Ok(updated)
    }

    /// Vectorized sign reset: set the `s` column of every live row of
    /// `table` to `sign` in one sweep over the column, without SQL
    /// parsing or planning. The compiled annotation mode resets with
    /// this; final table state is byte-identical to
    /// `UPDATE {table} SET s = '{sign}'`.
    pub fn reset_signs(&mut self, table: &str, sign: char) -> Result<usize> {
        let schema = self.catalog.require_table(table)?;
        let s_col = schema
            .column_index("s")
            .ok_or_else(|| Error::plan(format!("table `{table}` has no `s` column")))?;
        let value = Value::Text(sign.to_string());
        let mut updated = 0usize;
        macro_rules! sweep {
            ($t:expr) => {{
                let rows: Vec<usize> = $t.live_rows().collect();
                for row in rows {
                    $t.update_cell(row, s_col, value.clone())?;
                    updated += 1;
                }
            }};
        }
        match &mut self.store {
            Store::Row(m) => {
                let t = m
                    .get_mut(table)
                    .ok_or_else(|| Error::exec(format!("missing table `{table}`")))?;
                sweep!(t)
            }
            Store::Col(m) => {
                let t = m
                    .get_mut(table)
                    .ok_or_else(|| Error::exec(format!("missing table `{table}`")))?;
                sweep!(t)
            }
        }
        batch_sign_rows_total().add(updated as u64);
        Ok(updated)
    }

    /// Live row count of a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        match &self.store {
            Store::Row(m) => m
                .get(table)
                .map(|t| t.row_count())
                .ok_or_else(|| Error::exec(format!("missing table `{table}`"))),
            Store::Col(m) => m
                .get(table)
                .map(|t| t.row_count())
                .ok_or_else(|| Error::exec(format!("missing table `{table}`"))),
        }
    }

    /// All live values of one column (used by the annotation loop that
    /// iterates every table's ids).
    pub fn column_values(&self, table: &str, column: &str) -> Result<Vec<Value>> {
        let schema = self.catalog.require_table(table)?;
        let col = schema
            .column_index(column)
            .ok_or_else(|| Error::plan(format!("unknown column `{column}`")))?;
        let out = match &self.store {
            Store::Row(m) => {
                let t = m.get(table).ok_or_else(|| Error::exec("missing table"))?;
                t.live_rows().map(|r| t.cell(r, col)).collect()
            }
            Store::Col(m) => {
                let t = m.get(table).ok_or_else(|| Error::exec("missing table"))?;
                t.live_rows().map(|r| t.cell(r, col)).collect()
            }
        };
        Ok(out)
    }

    /// Slots of live rows matching all conditions in one table, with an
    /// index fast path for `indexed-col = literal`.
    fn matching_rows(
        &self,
        table: &str,
        schema: &TableSchema,
        conditions: &[Condition],
    ) -> Result<Vec<usize>> {
        // Resolve conditions to (col, op, operand) over this table only.
        enum Rhs {
            Lit(Value),
            Col(usize),
        }
        let mut resolved: Vec<(usize, SqlCmpOp, Rhs)> = Vec::new();
        for cond in conditions {
            let (left_col, op, right) = match (&cond.left, &cond.right) {
                (Operand::Col(c), Operand::Lit(l)) => {
                    (self.resolve_local(schema, c)?, cond.op, Rhs::Lit(l.to_value()))
                }
                (Operand::Lit(l), Operand::Col(c)) => (
                    self.resolve_local(schema, c)?,
                    flip(cond.op),
                    Rhs::Lit(l.to_value()),
                ),
                (Operand::Col(a), Operand::Col(b)) => (
                    self.resolve_local(schema, a)?,
                    cond.op,
                    Rhs::Col(self.resolve_local(schema, b)?),
                ),
                (Operand::Lit(_), Operand::Lit(_)) => {
                    return Err(Error::plan(
                        "constant conditions are not supported in UPDATE/DELETE",
                    ))
                }
            };
            resolved.push((left_col, op, right));
        }

        // Candidate slots: index bucket when possible, else all live rows.
        let candidates: Vec<usize> = {
            let index_hit = resolved.iter().find_map(|(col, op, rhs)| match rhs {
                Rhs::Lit(v) if *op == SqlCmpOp::Eq && self.has_index(table, *col) => {
                    Some((*col, v.clone()))
                }
                _ => None,
            });
            match (&self.store, index_hit) {
                (Store::Row(m), Some((col, key))) => {
                    let t = m.get(table).ok_or_else(|| Error::exec("missing table"))?;
                    t.index_lookup(col, &key).to_vec()
                }
                (Store::Col(m), Some((col, key))) => {
                    let t = m.get(table).ok_or_else(|| Error::exec("missing table"))?;
                    t.index_lookup(col, &key).to_vec()
                }
                (Store::Row(m), None) => {
                    m.get(table).ok_or_else(|| Error::exec("missing table"))?.live_rows().collect()
                }
                (Store::Col(m), None) => {
                    m.get(table).ok_or_else(|| Error::exec("missing table"))?.live_rows().collect()
                }
            }
        };

        let cell = |slot: usize, col: usize| -> Value {
            match &self.store {
                Store::Row(m) => m.get(table).expect("checked").cell(slot, col),
                Store::Col(m) => m.get(table).expect("checked").cell(slot, col),
            }
        };
        let live = |slot: usize| -> bool {
            match &self.store {
                Store::Row(m) => m.get(table).expect("checked").is_live(slot),
                Store::Col(m) => m.get(table).expect("checked").is_live(slot),
            }
        };

        Ok(candidates
            .into_iter()
            .filter(|&slot| live(slot))
            .filter(|&slot| {
                resolved.iter().all(|(col, op, rhs)| {
                    let lhs = cell(slot, *col);
                    match rhs {
                        Rhs::Lit(v) => op.compare(&lhs, v),
                        Rhs::Col(rc) => op.compare(&lhs, &cell(slot, *rc)),
                    }
                })
            })
            .collect())
    }

    fn resolve_local(&self, schema: &TableSchema, c: &crate::sql::ColRef) -> Result<usize> {
        if let Some(q) = &c.qualifier {
            if q != &schema.name {
                return Err(Error::plan(format!(
                    "qualifier `{q}` does not match table `{}`",
                    schema.name
                )));
            }
        }
        schema
            .column_index(&c.column)
            .ok_or_else(|| Error::plan(format!("unknown column `{}`", c.column)))
    }

    fn has_index(&self, table: &str, col: usize) -> bool {
        match &self.store {
            Store::Row(m) => m.get(table).map(|t| t.has_index(col)).unwrap_or(false),
            Store::Col(m) => m.get(table).map(|t| t.has_index(col)).unwrap_or(false),
        }
    }
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

    fn both() -> Vec<Database> {
        vec![Database::new(StorageKind::Row), Database::new(StorageKind::Column)]
    }

    fn load(db: &mut Database) {
        db.execute_script(
            "CREATE TABLE parent (id INT PRIMARY KEY, pid INT INDEX, v TEXT, s TEXT);
             CREATE TABLE child (id INT PRIMARY KEY, pid INT INDEX, v TEXT, s TEXT);
             INSERT INTO parent (id, pid, v, s) VALUES (1, NULL, 'p1', '-'), (2, NULL, 'p2', '-');
             INSERT INTO child (id, pid, v, s) VALUES
               (10, 1, 'a', '-'), (11, 1, 'b', '-'), (12, 2, 'a', '-');",
        )
        .unwrap();
    }

    #[test]
    fn end_to_end_both_engines_agree() {
        let queries = [
            "SELECT id FROM child WHERE v = 'a'",
            "SELECT c.id FROM parent p, child c WHERE p.id = c.pid AND p.v = 'p1'",
            "(SELECT id FROM child) EXCEPT (SELECT id FROM child WHERE v = 'a')",
            "SELECT id FROM parent UNION SELECT id FROM child",
            "SELECT c.id FROM parent p, child c WHERE p.id = c.pid AND c.v != 'a'",
        ];
        for sql in queries {
            let mut results = Vec::new();
            for mut db in both() {
                load(&mut db);
                results.push(db.query(sql).unwrap().sorted());
            }
            assert_eq!(results[0], results[1], "engines disagree on `{sql}`");
        }
    }

    #[test]
    fn update_with_index_fast_path() {
        for mut db in both() {
            load(&mut db);
            let n = db.execute("UPDATE child SET s = '+' WHERE id = 11").unwrap();
            assert_eq!(n, QueryResult::Count(1));
            let rs = db.query("SELECT id FROM child WHERE s = '+'").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![11]);
        }
    }

    #[test]
    fn update_signs_matches_per_tuple_updates() {
        for mut db in both() {
            load(&mut db);
            let n = db.update_signs("child", &[10, 12], '+').unwrap();
            assert_eq!(n, 2);
            let rs = db.query("SELECT id FROM child WHERE s = '+'").unwrap();
            assert_eq!(rs.column_as_int_set(0), [10, 12].into_iter().collect());
            // A per-tuple reference run over the same ids lands on the
            // same table state.
            let mut reference = Database::new(db.kind());
            load(&mut reference);
            for id in [10, 12] {
                reference
                    .execute(&format!("UPDATE child SET s = '+' WHERE id = {id}"))
                    .unwrap();
            }
            assert_eq!(
                db.query("SELECT id, s FROM child").unwrap().sorted(),
                reference.query("SELECT id, s FROM child").unwrap().sorted(),
            );
        }
    }

    #[test]
    fn update_signs_skips_absent_ids_and_checks_schema() {
        for mut db in both() {
            load(&mut db);
            assert_eq!(db.update_signs("child", &[999], '+').unwrap(), 0);
            assert_eq!(db.update_signs("child", &[], '+').unwrap(), 0);
            assert!(db.update_signs("nope", &[1], '+').is_err());
            db.execute("CREATE TABLE bare (id INT PRIMARY KEY)").unwrap();
            assert!(db.update_signs("bare", &[1], '+').is_err(), "no `s` column");
        }
    }

    #[test]
    fn update_signs_maintains_sign_index_queries() {
        for mut db in both() {
            load(&mut db);
            db.update_signs("child", &[10, 11, 12], '+').unwrap();
            db.update_signs("child", &[11], '-').unwrap();
            let rs = db.query("SELECT COUNT(*) FROM child WHERE s = '+'").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![2]);
        }
    }

    #[test]
    fn update_multi_row_predicate() {
        for mut db in both() {
            load(&mut db);
            let n = db.execute("UPDATE child SET s = '+' WHERE v = 'a'").unwrap();
            assert_eq!(n, QueryResult::Count(2));
        }
    }

    #[test]
    fn delete_and_requery() {
        for mut db in both() {
            load(&mut db);
            let n = db.execute("DELETE FROM child WHERE pid = 1").unwrap();
            assert_eq!(n, QueryResult::Count(2));
            assert_eq!(db.row_count("child").unwrap(), 1);
            let rs = db.query("SELECT id FROM child").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![12]);
        }
    }

    #[test]
    fn insert_with_partial_columns() {
        for mut db in both() {
            load(&mut db);
            db.execute("INSERT INTO child (id, pid) VALUES (13, 2)").unwrap();
            let rs = db.query("SELECT v FROM child WHERE id = 13").unwrap();
            assert_eq!(rs.rows[0][0], Value::Null);
        }
    }

    #[test]
    fn primary_key_enforced_via_sql() {
        for mut db in both() {
            load(&mut db);
            assert!(db
                .execute("INSERT INTO child (id, pid) VALUES (10, 1)")
                .is_err());
        }
    }

    #[test]
    fn column_values_helper() {
        for mut db in both() {
            load(&mut db);
            let ids = db.column_values("child", "id").unwrap();
            assert_eq!(ids, vec![Value::Int(10), Value::Int(11), Value::Int(12)]);
            assert!(db.column_values("child", "nope").is_err());
        }
    }

    #[test]
    fn errors_are_reported() {
        for mut db in both() {
            assert!(db.execute("SELECT id FROM nope").is_err());
            assert!(db.execute("UPDATE nope SET a = 1").is_err());
            assert!(db.execute("CREATE TABLE t (id INT); CREATE TABLE t (id INT)").is_err());
        }
    }

    #[test]
    fn explain_renders_operator_tree() {
        let mut db = Database::new(StorageKind::Row);
        load(&mut db);
        let plan = db
            .explain("SELECT c.id FROM parent p, child c WHERE p.id = c.pid AND p.v = 'p1'")
            .unwrap();
        assert!(plan.starts_with("Project"), "{plan}");
        assert!(plan.contains("HashJoin"), "{plan}");
        assert!(plan.contains("Scan parent [#2 = 'p1']"), "{plan}");
        assert!(plan.contains("Scan child"), "{plan}");
        let plan = db.explain("SELECT COUNT(*) FROM child WHERE v = 'a'").unwrap();
        assert!(plan.starts_with("Aggregate COUNT(*)"), "{plan}");
        let plan = db
            .explain("(SELECT id FROM child) EXCEPT (SELECT id FROM child WHERE v = 'a')")
            .unwrap();
        assert!(plan.starts_with("EXCEPT"), "{plan}");
        assert!(db.explain("DELETE FROM child").is_err());
    }

    #[test]
    fn count_aggregates() {
        for mut db in both() {
            load(&mut db);
            let rs = db.query("SELECT COUNT(*) FROM child").unwrap();
            assert_eq!(rs.columns, vec!["count"]);
            assert_eq!(rs.column_as_ints(0), vec![3]);
            let rs = db.query("SELECT COUNT(*) FROM child WHERE v = 'a'").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![2]);
            // COUNT(col) skips NULLs.
            db.execute("INSERT INTO child (id, pid) VALUES (99, 1)").unwrap();
            let rs = db.query("SELECT COUNT(v) FROM child").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![3]);
            let rs = db.query("SELECT COUNT(*) FROM child").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![4]);
            // Joins under the aggregate.
            let rs = db
                .query("SELECT COUNT(c.id) FROM parent p, child c WHERE p.id = c.pid AND p.v = 'p1'")
                .unwrap();
            assert_eq!(rs.column_as_ints(0), vec![3]);
            // Empty input counts zero.
            let rs = db.query("SELECT COUNT(*) FROM child WHERE v = 'zz'").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![0]);
            // Aggregates cannot mix with plain columns.
            assert!(db.query("SELECT COUNT(*), id FROM child").is_err());
        }
    }

    #[test]
    fn count_is_not_a_reserved_word() {
        for mut db in both() {
            db.execute("CREATE TABLE t (count INT PRIMARY KEY)").unwrap();
            db.execute("INSERT INTO t (count) VALUES (5)").unwrap();
            let rs = db.query("SELECT count FROM t").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![5]);
            let rs = db.query("SELECT COUNT(count) FROM t").unwrap();
            assert_eq!(rs.column_as_ints(0), vec![1]);
        }
    }

    #[test]
    fn query_on_write_errors() {
        let mut db = Database::new(StorageKind::Row);
        db.execute("CREATE TABLE t (id INT)").unwrap();
        assert!(db.query("INSERT INTO t (id) VALUES (1)").is_err());
    }
}
