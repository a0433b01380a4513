//! The database facade: catalog + storage + SQL entry point.

use crate::catalog::{Catalog, Column, TableSchema};
use crate::error::{Error, Result};
use crate::exec::{col_exec, row_exec, ResultSet};
use crate::plan::plan_query;
use crate::sql::{parse_script, parse_statement, Condition, Operand, SqlCmpOp, Statement};
use crate::storage::{ColTable, RowTable};
use crate::value::{Value, ValueRef};
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

/// Table storage, by catalog position. The table vector and every table
/// sit behind their own `Arc`s: cloning a [`Database`] copies one
/// pointer, the first write after it copies the vector (one pointer per
/// table) and the table it writes ([`Arc::make_mut`]), and later writes
/// copy only the tables they touch. Readers and the executors only
/// dereference.
#[derive(Clone)]
enum Store {
    Row(Arc<Vec<Arc<RowTable>>>),
    Col(Arc<Vec<Arc<ColTable>>>),
}

fn missing_table(name: &str) -> Error {
    Error::exec(format!("missing table `{name}`"))
}

/// Read access to table `name`.
fn table_ref<'a, T>(catalog: &Catalog, tables: &'a [Arc<T>], name: &str) -> Result<&'a T> {
    catalog.position(name).map(|p| &*tables[p]).ok_or_else(|| missing_table(name))
}

/// Write access to table `name`, copying the table vector and the table
/// first when a clone of the database still shares them.
fn table_mut<'a, T: Clone>(
    catalog: &Catalog,
    tables: &'a mut Arc<Vec<Arc<T>>>,
    name: &str,
) -> Result<&'a mut T> {
    let p = catalog.position(name).ok_or_else(|| missing_table(name))?;
    Ok(Arc::make_mut(&mut Arc::make_mut(tables)[p]))
}

/// Evaluate `$body` with `$t` bound to table `$name` of either layout
/// (`ref`: read-only; `mut`: copy-on-write).
macro_rules! on_table {
    (ref $db:expr, $name:expr, |$t:ident| $body:expr) => {
        match &$db.store {
            Store::Row(m) => {
                let $t = table_ref(&$db.catalog, m, $name)?;
                $body
            }
            Store::Col(m) => {
                let $t = table_ref(&$db.catalog, m, $name)?;
                $body
            }
        }
    };
    (mut $db:expr, $name:expr, |$t:ident| $body:expr) => {
        match &mut $db.store {
            Store::Row(m) => {
                let $t = table_mut(&$db.catalog, m, $name)?;
                $body
            }
            Store::Col(m) => {
                let $t = table_mut(&$db.catalog, m, $name)?;
                $body
            }
        }
    };
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
/// `Clone` has value semantics and allocates nothing: the clone shares
/// the catalog (copied only by DDL), the table vector and every table
/// image with the original, and whichever side writes a table first
/// copies the vector and that one table. This is the relational half of
/// `Backend::checkpoint`, which therefore costs nothing per row; a
/// guarded update then copies only the tables it writes.
#[derive(Clone)]
pub struct Database {
    kind: StorageKind,
    catalog: Arc<Catalog>,
    store: Store,
}

impl Database {
    /// Create an empty database with the chosen layout.
    pub fn new(kind: StorageKind) -> Self {
        let store = match kind {
            StorageKind::Row => Store::Row(Arc::default()),
            StorageKind::Column => Store::Col(Arc::default()),
        };
        Database { kind, catalog: Arc::default(), store }
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
                let catalog = Arc::make_mut(&mut self.catalog);
                let at = catalog.add_table(schema)?;
                let schema = Arc::clone(catalog.schema_at(at));
                match &mut self.store {
                    Store::Row(m) => Arc::make_mut(m).push(Arc::new(RowTable::new(schema))),
                    Store::Col(m) => Arc::make_mut(m).push(Arc::new(ColTable::new(schema))),
                }
                Ok(QueryResult::Count(0))
            }
            Statement::Insert { table, columns, rows } => {
                let catalog = Arc::clone(&self.catalog);
                let schema = catalog.require_table(table)?;
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
                    on_table!(mut self, table, |t| t.append(&row))?;
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
                let catalog = Arc::clone(&self.catalog);
                let schema = catalog.require_table(table)?;
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
                let targets = self.matching_rows(table, schema, conditions)?;
                Ok(QueryResult::Count(self.set_cells(table, &targets, &sets)?))
            }
            Statement::Delete { table, conditions } => {
                let catalog = Arc::clone(&self.catalog);
                let targets = self.matching_rows(table, catalog.require_table(table)?, conditions)?;
                Ok(QueryResult::Count(self.delete_slots(table, &targets)?))
            }
        }
    }

    /// Append a pre-built row (fast path used by bulk loaders and tests).
    pub fn append_row(&mut self, table: &str, row: Vec<Value>) -> Result<usize> {
        on_table!(mut self, table, |t| t.append(&row))
    }

    /// Batched sign write: set the `s` column of every row whose `id` is
    /// in `ids` to `sign`, in one engine call.
    ///
    /// This is the write path behind the *compiled* annotation mode: the
    /// per-tuple Fig. 6 loop issues one `UPDATE … WHERE id = k` string per
    /// tuple, paying SQL parsing, planning and condition evaluation each
    /// time. Here the ids go straight to the primary-key hash index and
    /// the cell writes happen in place — same final table state, same
    /// per-row index maintenance, none of the per-statement overhead. A
    /// call that matches no live row leaves a shared table shared.
    pub fn update_signs(&mut self, table: &str, ids: &[i64], sign: char) -> Result<usize> {
        let slots = self.live_slots_of(table, ids)?;
        self.write_sign_cells(table, &slots, sign)
    }

    /// Batched point delete, the delete counterpart of
    /// [`Database::update_signs`]: remove the live rows of `table` whose
    /// `id` is in `ids` — the rows `DELETE FROM {table} WHERE id = k`
    /// removes for each `k` — through the primary-key index, without a
    /// statement per row. Absent, repeated and already-deleted ids are
    /// skipped. Returns the rows deleted.
    pub fn delete_ids(&mut self, table: &str, ids: &[i64]) -> Result<usize> {
        let mut slots = self.live_slots_of(table, ids)?;
        slots.sort_unstable();
        slots.dedup();
        self.delete_slots(table, &slots)
    }

    /// Delete the given live, distinct slots of `table`. Copies a shared
    /// table only when there is something to delete.
    fn delete_slots(&mut self, table: &str, slots: &[usize]) -> Result<usize> {
        if !slots.is_empty() {
            on_table!(mut self, table, |t| {
                for &slot in slots {
                    t.delete_row(slot)?;
                }
            });
        }
        Ok(slots.len())
    }

    /// The live slots of `table` whose `id` is in `ids`, through the
    /// index on `id`; errors when that column is missing or unindexed.
    fn live_slots_of(&self, table: &str, ids: &[i64]) -> Result<Vec<usize>> {
        let id_col = self.column_of(table, "id")?;
        if !self.has_index(table, id_col) {
            return Err(Error::exec(format!("`{table}.id` is not indexed")));
        }
        Ok(on_table!(ref self, table, |t| ids
            .iter()
            .flat_map(|&id| t.index_lookup(id_col, ValueRef::Int(id)))
            .collect()))
    }

    /// Vectorized sign reset: set the `s` column of every live row of
    /// `table` to `sign` in one sweep over the column, without SQL
    /// parsing or planning. The compiled annotation mode resets with
    /// this; final table state is byte-identical to
    /// `UPDATE {table} SET s = '{sign}'`.
    pub fn reset_signs(&mut self, table: &str, sign: char) -> Result<usize> {
        let slots: Vec<usize> = on_table!(ref self, table, |t| t.live_rows().collect());
        self.write_sign_cells(table, &slots, sign)
    }

    /// The read counterpart of [`Database::update_signs`]: call
    /// `visit(id, sign)` for every live row of `table`, reading the `id`
    /// and `s` cells in place — no SQL, no per-row allocation. Visits the
    /// pairs `SELECT id, s FROM {table}` returns, with `sign` the first
    /// character of `s`; rows whose `id` is not an integer or whose `s`
    /// is not non-empty text are skipped.
    pub fn scan_sign_cells(&self, table: &str, mut visit: impl FnMut(i64, char)) -> Result<()> {
        let (id_col, s_col) = (self.column_of(table, "id")?, self.column_of(table, "s")?);
        on_table!(ref self, table, |t| {
            for slot in t.live_rows() {
                if let (ValueRef::Int(id), ValueRef::Text(s)) = (t.get(slot, id_col), t.get(slot, s_col)) {
                    if let Some(sign) = s.chars().next() {
                        visit(id, sign);
                    }
                }
            }
        });
        Ok(())
    }

    /// Position of column `column` of `table`.
    fn column_of(&self, table: &str, column: &str) -> Result<usize> {
        self.catalog
            .require_table(table)?
            .column_index(column)
            .ok_or_else(|| Error::plan(format!("table `{table}` has no `{column}` column")))
    }

    /// Write `sign` into the `s` cells of the given live slots.
    fn write_sign_cells(&mut self, table: &str, slots: &[usize], sign: char) -> Result<usize> {
        let s_col = self.column_of(table, "s")?;
        let written = self.set_cells(table, slots, &[(s_col, Value::Text(sign.to_string()))])?;
        batch_sign_rows_total().add(written as u64);
        Ok(written)
    }

    /// Overwrite the `(column, value)` cells of the given live slots.
    /// Copies a shared table only when there is something to write.
    fn set_cells(&mut self, table: &str, slots: &[usize], sets: &[(usize, Value)]) -> Result<usize> {
        if !slots.is_empty() {
            on_table!(mut self, table, |t| {
                for &slot in slots {
                    for (col, value) in sets {
                        t.update_cell(slot, *col, value.as_ref())?;
                    }
                }
            });
        }
        Ok(slots.len())
    }

    /// Live row count of a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        on_table!(ref self, table, |t| Ok(t.row_count()))
    }

    /// All live values of one column, in slot order.
    pub fn column_values(&self, table: &str, column: &str) -> Result<Vec<Value>> {
        let schema = self.catalog.require_table(table)?;
        let col = schema
            .column_index(column)
            .ok_or_else(|| Error::plan(format!("unknown column `{column}`")))?;
        on_table!(ref self, table, |t| Ok(t.live_rows().map(|r| t.get(r, col).to_value()).collect()))
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
        let index_hit = resolved.iter().find_map(|(col, op, rhs)| match rhs {
            Rhs::Lit(v) if *op == SqlCmpOp::Eq && self.has_index(table, *col) => {
                Some((*col, v.clone()))
            }
            _ => None,
        });
        on_table!(ref self, table, |t| {
            let candidates: Vec<usize> = match &index_hit {
                Some((col, key)) => t.index_lookup(*col, key.as_ref()).collect(),
                None => t.live_rows().collect(),
            };
            Ok(candidates
                .into_iter()
                .filter(|&slot| {
                    resolved.iter().all(|(col, op, rhs)| {
                        let lhs = t.get(slot, *col);
                        match rhs {
                            Rhs::Lit(v) => op.compare(lhs, v.as_ref()),
                            Rhs::Col(rc) => op.compare(lhs, t.get(slot, *rc)),
                        }
                    })
                })
                .collect())
        })
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
        let Some(p) = self.catalog.position(table) else { return false };
        match &self.store {
            Store::Row(m) => m[p].has_index(col),
            Store::Col(m) => m[p].has_index(col),
        }
    }

    /// True when table `name` of `self` and of `other` are one shared
    /// image (the copy-on-write tests' probe).
    #[cfg(test)]
    fn shares_table(&self, other: &Database, name: &str) -> bool {
        let p = self.catalog.position(name).expect("a known table");
        match (&self.store, &other.store) {
            (Store::Row(a), Store::Row(b)) => Arc::ptr_eq(&a[p], &b[p]),
            (Store::Col(a), Store::Col(b)) => Arc::ptr_eq(&a[p], &b[p]),
            _ => false,
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
    fn delete_ids_matches_per_row_deletes() {
        for kind in [StorageKind::Row, StorageKind::Column] {
            let mut db = Database::new(kind);
            let mut reference = Database::new(kind);
            load(&mut db);
            load(&mut reference);
            // An absent id, a repeated one, then ids deleted already.
            for ids in [&[10, 999, 12, 10][..], &[12, 11], &[10, 11, 12]] {
                let n = db.delete_ids("child", ids).unwrap();
                let mut expected = 0;
                for id in ids {
                    let sql = format!("DELETE FROM child WHERE id = {id}");
                    expected += reference.execute(&sql).unwrap().count().unwrap();
                }
                assert_eq!(n, expected, "{kind:?} {ids:?}");
                assert_eq!(image(&db), image(&reference), "{kind:?} {ids:?}");
                for sql in ["SELECT id, pid, v, s FROM child", "SELECT id FROM child WHERE id = 11"] {
                    assert_eq!(
                        db.query(sql).unwrap().sorted(),
                        reference.query(sql).unwrap().sorted(),
                        "{kind:?} {ids:?}: {sql}"
                    );
                }
            }
            assert_eq!(db.row_count("child").unwrap(), 0);
            assert_eq!(db.row_count("parent").unwrap(), 2, "{kind:?}: other tables untouched");
        }
    }

    #[test]
    fn delete_ids_refuses_an_unindexed_id_and_skips_misses() {
        for mut db in both() {
            load(&mut db);
            db.execute("CREATE TABLE loose (id INT, s TEXT)").unwrap();
            db.execute("INSERT INTO loose (id, s) VALUES (1, '-')").unwrap();
            assert!(db.delete_ids("loose", &[1]).is_err(), "`loose.id` has no index");
            assert_eq!(db.row_count("loose").unwrap(), 1);
            assert!(db.delete_ids("nope", &[1]).is_err());
            assert_eq!(db.delete_ids("child", &[]).unwrap(), 0);
            assert_eq!(db.delete_ids("child", &[999, 1]).unwrap(), 0, "ids of other tables miss");
            assert_eq!(db.row_count("child").unwrap(), 3);
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

    /// Every column of every table, as `column_values` reports it.
    fn image(db: &Database) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for table in ["parent", "child"] {
            for column in ["id", "pid", "v", "s"] {
                out.push(db.column_values(table, column).unwrap());
            }
        }
        out
    }

    #[test]
    fn clone_shares_tables_and_copies_only_the_written_one() {
        type Write = fn(&mut Database);
        let writers: [(&str, Write); 6] = [
            ("INSERT", |db| {
                db.execute("INSERT INTO child (id, pid, v, s) VALUES (13, 2, 'c', '-')").unwrap();
            }),
            ("UPDATE", |db| {
                db.execute("UPDATE child SET v = 'z' WHERE id = 11").unwrap();
            }),
            ("DELETE", |db| {
                db.execute("DELETE FROM child WHERE id = 10").unwrap();
            }),
            ("update_signs", |db| {
                db.update_signs("child", &[10, 12], '+').unwrap();
            }),
            ("reset_signs", |db| {
                db.reset_signs("child", '+').unwrap();
            }),
            ("delete_ids", |db| {
                db.delete_ids("child", &[11]).unwrap();
            }),
        ];
        for kind in [StorageKind::Row, StorageKind::Column] {
            for (what, write) in writers {
                let mut db = Database::new(kind);
                load(&mut db);
                let clone = db.clone();
                assert!(db.shares_table(&clone, "parent") && db.shares_table(&clone, "child"));
                let before = image(&clone);
                write(&mut db);
                assert_eq!(image(&clone), before, "{kind:?} {what}: the clone keeps its value");
                assert_ne!(image(&db), before, "{kind:?} {what}: the write took effect");
                assert!(!db.shares_table(&clone, "child"), "{kind:?} {what}: written table copied");
                assert!(db.shares_table(&clone, "parent"), "{kind:?} {what}: other table shared");
            }
        }
    }

    /// A clone shares the catalog, so a checkpoint allocates no schema;
    /// DDL on one side copies it, and the other side keeps its tables.
    #[test]
    fn clone_shares_the_catalog_until_ddl() {
        for mut db in both() {
            load(&mut db);
            let clone = db.clone();
            assert!(Arc::ptr_eq(&db.catalog, &clone.catalog), "{:?}", db.kind());
            db.execute("CREATE TABLE extra (id INT PRIMARY KEY)").unwrap();
            assert!(!Arc::ptr_eq(&db.catalog, &clone.catalog));
            assert!(clone.catalog().table("extra").is_none() && clone.row_count("extra").is_err());
            assert!(db.shares_table(&clone, "parent") && db.shares_table(&clone, "child"));
            db.execute("INSERT INTO extra (id) VALUES (1)").unwrap();
            assert_eq!(db.row_count("extra").unwrap(), 1);
        }
    }

    #[test]
    fn writes_that_match_no_row_keep_the_table_shared() {
        for mut db in both() {
            load(&mut db);
            let clone = db.clone();
            db.execute("UPDATE child SET s = '+' WHERE id = 999").unwrap();
            db.execute("DELETE FROM child WHERE id = 999").unwrap();
            assert_eq!(db.update_signs("child", &[999], '+').unwrap(), 0);
            assert_eq!(db.delete_ids("child", &[999]).unwrap(), 0);
            assert!(db.shares_table(&clone, "child"), "{:?}", db.kind());
        }
    }

    #[test]
    fn scan_signs_visits_the_ids_the_sql_selects() {
        for mut db in both() {
            load(&mut db);
            db.update_signs("child", &[10, 12], '+').unwrap();
            db.update_signs("parent", &[2], '+').unwrap();
            db.execute("DELETE FROM child WHERE id = 11").unwrap();
            for table in ["parent", "child"] {
                let mut scanned = Vec::new();
                db.scan_sign_cells(table, |id, s| scanned.push((id, s))).unwrap();
                scanned.sort();
                for sign in ['+', '-'] {
                    let sql = format!("SELECT id FROM {table} WHERE s = '{sign}'");
                    let ids: std::collections::BTreeSet<i64> =
                        scanned.iter().filter(|c| c.1 == sign).map(|c| c.0).collect();
                    assert_eq!(db.query(&sql).unwrap().column_as_int_set(0), ids, "{sql}");
                }
                let sql = format!("SELECT id, s FROM {table}");
                let mut selected: Vec<(i64, char)> = db
                    .query(&sql)
                    .unwrap()
                    .rows
                    .iter()
                    .map(|r| match (&r[0], &r[1]) {
                        (Value::Int(id), Value::Text(s)) => (*id, s.chars().next().unwrap()),
                        other => panic!("{other:?}"),
                    })
                    .collect();
                selected.sort();
                assert_eq!(scanned, selected, "{sql}");
            }
            assert!(db.scan_sign_cells("nope", |_, _| {}).is_err());
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
