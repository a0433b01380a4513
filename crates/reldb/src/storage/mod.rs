//! Physical table storage: row-oriented and column-oriented layouts plus
//! hash indexes.
//!
//! Both layouts share one logical contract ([`Table`]: append / read
//! cell / update cell / tombstone delete, with index maintenance) and
//! differ in where a cell sits: [`row::Rows`] keeps each tuple's cells
//! contiguous, [`column::Cols`] keeps each column's cells contiguous.
//!
//! Everything is plain data, so a copy-on-write copy of a table is a few
//! `memcpy`s and its release a few `free`s. A cell is a fixed-size
//! `Cell`: text of up to `INLINE` (14) bytes (every sign cell) sits in the
//! cell itself, and a longer text is a span of a byte buffer — one per
//! table in the row layout, one per column in the column layout. A
//! rewritten long text appends its new bytes and leaves the old ones
//! unreferenced until they outweigh the rest, when the buffer is rebuilt
//! (`Cells`). A `HashIndex` keeps one `(first, last)` row pair per key
//! hash and a per-row link pair, with no allocation per key.

pub mod column;
pub mod row;

use crate::catalog::TableSchema;
use crate::error::{Error, Result};
use crate::value::{Value, ValueRef};
use std::collections::HashMap;
use std::sync::Arc;
use xac_obs::{fnv1a, FNV_OFFSET};

pub use column::Cols;
pub use row::Rows;

/// A row-store table (the PostgreSQL-like layout).
pub type RowTable = Table<Rows>;
/// A column-store table (the MonetDB-like layout).
pub type ColTable = Table<Cols>;

/// Longest text a [`Cell`] holds in place.
pub(crate) const INLINE: usize = 14;

/// One stored value, fixed-size. A long text's bytes live in the text
/// buffer its layout assigns to the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cell {
    /// SQL NULL.
    Null,
    /// An integer.
    Int(i64),
    /// A text of at most [`INLINE`] bytes: its length and bytes.
    Short(u8, [u8; INLINE]),
    /// A longer text: `(start, len)` in the text buffer.
    Long(u32, u32),
}

const _: () = assert!(std::mem::size_of::<Cell>() == 16);

impl Cell {
    /// Encode `value`, appending a long text's bytes to `text`.
    fn encode(value: ValueRef<'_>, text: &mut String) -> Cell {
        match value {
            ValueRef::Null => Cell::Null,
            ValueRef::Int(i) => Cell::Int(i),
            ValueRef::Text(t) if t.len() <= INLINE => {
                let mut bytes = [0; INLINE];
                bytes[..t.len()].copy_from_slice(t.as_bytes());
                Cell::Short(t.len() as u8, bytes)
            }
            ValueRef::Text(t) => {
                let start = u32::try_from(text.len()).expect("text buffer under 4 GiB");
                text.push_str(t);
                Cell::Long(start, u32::try_from(t.len()).expect("text under 4 GiB"))
            }
        }
    }

    /// The value, with a long text read from `text`.
    fn decode<'a>(&'a self, text: &'a str) -> ValueRef<'a> {
        match *self {
            Cell::Null => ValueRef::Null,
            Cell::Int(i) => ValueRef::Int(i),
            Cell::Short(len, ref bytes) => ValueRef::Text(
                std::str::from_utf8(&bytes[..len as usize]).expect("an inline text is whole UTF-8"),
            ),
            Cell::Long(start, len) => {
                let start = start as usize;
                ValueRef::Text(&text[start..start + len as usize])
            }
        }
    }
}

/// A run of cells and the bytes of their long texts. A rewritten long
/// text leaves its old bytes unreferenced; once those outweigh both the
/// referenced bytes and the cells themselves, the buffer is rebuilt. A
/// rebuild thus costs O(1) per byte rewritten, and the buffer stays
/// within the live text plus the larger of the live text and the cells.
#[derive(Debug, Clone, Default)]
pub(crate) struct Cells {
    cells: Vec<Cell>,
    text: String,
    /// Bytes of `text` that no cell references.
    dead: usize,
}

impl Cells {
    fn get(&self, i: usize) -> ValueRef<'_> {
        self.cells[i].decode(&self.text)
    }

    fn push(&mut self, value: ValueRef<'_>) {
        self.cells.push(Cell::encode(value, &mut self.text));
    }

    fn set(&mut self, i: usize, value: ValueRef<'_>) {
        if let Cell::Long(_, len) = self.cells[i] {
            self.dead += len as usize;
        }
        self.cells[i] = Cell::encode(value, &mut self.text);
        let cell_bytes = self.cells.len() * std::mem::size_of::<Cell>();
        if self.dead > (self.text.len() - self.dead).max(cell_bytes) {
            self.compact();
        }
    }

    /// Rebuild the text buffer from the referenced spans alone.
    fn compact(&mut self) {
        let Cells { cells, text, dead } = self;
        let mut live = String::with_capacity(text.len() - *dead);
        for cell in cells.iter_mut() {
            if let Cell::Long(start, len) = cell {
                let from = *start as usize;
                *start = live.len() as u32;
                live.push_str(&text[from..from + *len as usize]);
            }
        }
        *text = live;
        *dead = 0;
    }

    fn text_bytes(&self) -> usize {
        self.text.len()
    }
}

/// Where a layout keeps its cells: the one thing the two layouts do
/// differently.
pub trait Layout: Clone + std::fmt::Debug {
    /// Empty storage for `arity` columns.
    fn with_arity(arity: usize) -> Self;
    /// The cell at `(row, col)`.
    fn get(&self, row: usize, col: usize) -> ValueRef<'_>;
    /// Append one row of `values`, already checked against the schema.
    fn push_row(&mut self, values: &[Value]);
    /// Overwrite the cell at `(row, col)`.
    fn set(&mut self, row: usize, col: usize, value: ValueRef<'_>);
    /// Bytes held by the text buffers, referenced or not.
    fn text_bytes(&self) -> usize;
}

/// "No row": the end of an index chain.
const NIL: u32 = u32::MAX;

/// A hash index over one column: per key hash the first and last row of
/// its chain, and per row its previous and next row in that chain, in
/// filing order. A lookup walks the chain and keeps the rows whose cell
/// equals the key exactly, so a hash collision costs a step, never a
/// wrong row. Unique indexes (primary keys) reject duplicate keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashIndex {
    chains: HashMap<u64, (u32, u32)>,
    links: Vec<(u32, u32)>,
    unique: bool,
}

/// The chain hash of a key; `NULL` is not indexed.
fn key_hash(key: ValueRef<'_>) -> Option<u64> {
    match key {
        ValueRef::Null => None,
        ValueRef::Int(i) => Some(i as u64),
        ValueRef::Text(t) => Some(fnv1a(FNV_OFFSET, t.as_bytes())),
    }
}

impl HashIndex {
    /// Create an index; `unique` enforces at most one row per key.
    fn new(unique: bool) -> Self {
        HashIndex { unique, ..HashIndex::default() }
    }

    /// The rows filed under `key`'s hash, in filing order.
    fn chain(&self, key: ValueRef<'_>) -> impl Iterator<Item = usize> + '_ {
        let mut next = key_hash(key).and_then(|h| self.chains.get(&h)).map_or(NIL, |c| c.0);
        std::iter::from_fn(move || {
            let row = (next != NIL).then_some(next)?;
            next = self.links[row as usize].1;
            Some(row as usize)
        })
    }

    /// File `row` under `key` at the end of its chain.
    fn insert(&mut self, key: ValueRef<'_>, row: usize) {
        let Some(h) = key_hash(key) else { return };
        let r = u32::try_from(row).expect("under 2^32 rows");
        if self.links.len() <= row {
            self.links.resize(row + 1, (NIL, NIL));
        }
        match self.chains.get_mut(&h) {
            Some((_, last)) => {
                self.links[row] = (*last, NIL);
                self.links[*last as usize].1 = r;
                *last = r;
            }
            None => {
                self.links[row] = (NIL, NIL);
                self.chains.insert(h, (r, r));
            }
        }
    }

    /// Unlink `row`, filed under `key`.
    fn remove(&mut self, key: ValueRef<'_>, row: usize) {
        let Some(h) = key_hash(key) else { return };
        let (prev, next) = self.links[row];
        let chain = self.chains.get_mut(&h).expect("a filed row has a chain");
        match prev {
            NIL => chain.0 = next,
            p => self.links[p as usize].1 = next,
        }
        match next {
            NIL => chain.1 = prev,
            n => self.links[n as usize].0 = prev,
        }
        if chain.0 == NIL {
            self.chains.remove(&h);
        }
    }
}

/// A table: its schema, a [`Layout`]'s cells, liveness and indexes.
#[derive(Debug, Clone)]
pub struct Table<L> {
    schema: Arc<TableSchema>,
    cells: L,
    live: Vec<bool>,
    live_count: usize,
    /// `(column, index)` for every indexed column, in column order.
    indexes: Vec<(usize, HashIndex)>,
}

impl<L: Layout> Table<L> {
    /// Create an empty table for the schema.
    pub fn new(schema: Arc<TableSchema>) -> Self {
        let indexes = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.indexed)
            .map(|(i, c)| (i, HashIndex::new(c.primary_key)))
            .collect();
        let cells = L::with_arity(schema.arity());
        Table { schema, cells, live: Vec::new(), live_count: 0, indexes }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Live row count.
    pub fn row_count(&self) -> usize {
        self.live_count
    }

    /// Physical slot count (live + tombstoned).
    pub fn capacity(&self) -> usize {
        self.live.len()
    }

    /// Is the slot live?
    pub fn is_live(&self, row: usize) -> bool {
        self.live.get(row).copied().unwrap_or(false)
    }

    /// The cell at `(row, col)`, borrowed (caller checks liveness).
    pub fn get(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.cells.get(row, col)
    }

    /// An owned copy of a physical row.
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        (0..self.schema.arity()).map(|c| self.get(row, c).to_value()).collect()
    }

    /// Append a tuple; returns its slot.
    pub fn append(&mut self, row: &[Value]) -> Result<usize> {
        validate_row(&self.schema, row)?;
        for (col, index) in &self.indexes {
            if index.unique && self.index_lookup(*col, row[*col].as_ref()).next().is_some() {
                return Err(Error::exec("unique index violation"));
            }
        }
        let slot = self.live.len();
        self.cells.push_row(row);
        for (col, index) in &mut self.indexes {
            index.insert(row[*col].as_ref(), slot);
        }
        self.live.push(true);
        self.live_count += 1;
        Ok(slot)
    }

    /// Overwrite one cell, maintaining indexes.
    pub fn update_cell(&mut self, row: usize, col: usize, value: ValueRef<'_>) -> Result<()> {
        if !self.is_live(row) {
            return Err(Error::exec("update of a deleted row"));
        }
        let column = &self.schema.columns[col];
        if !value.fits(column.dtype) {
            return Err(Error::exec(format!(
                "value {value:?} does not fit column `{}`",
                column.name
            )));
        }
        if let Some(at) = self.indexes.iter().position(|(c, _)| *c == col) {
            let unique = self.indexes[at].1.unique;
            if unique && self.index_lookup(col, value).any(|r| r != row) {
                return Err(Error::exec("unique index violation"));
            }
            let index = &mut self.indexes[at].1;
            index.remove(self.cells.get(row, col), row);
            index.insert(value, row);
        }
        self.cells.set(row, col, value);
        Ok(())
    }

    /// Tombstone a row, maintaining indexes.
    pub fn delete_row(&mut self, row: usize) -> Result<()> {
        if !self.is_live(row) {
            return Err(Error::exec("double delete"));
        }
        for (col, index) in &mut self.indexes {
            index.remove(self.cells.get(row, *col), row);
        }
        self.live[row] = false;
        self.live_count -= 1;
        Ok(())
    }

    /// The live rows whose cell in `col` equals `key` exactly, through
    /// the index on `col` (none when the column has no index).
    pub fn index_lookup<'a>(
        &'a self,
        col: usize,
        key: ValueRef<'a>,
    ) -> impl Iterator<Item = usize> + 'a {
        let index = self.indexes.iter().find(|(c, _)| *c == col).map(|(_, i)| i);
        index.into_iter().flat_map(move |i| i.chain(key)).filter(move |&r| self.get(r, col) == key)
    }

    /// Whether `col` carries an index.
    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.iter().any(|(c, _)| *c == col)
    }

    /// Iterate live slots.
    pub fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.live.len()).filter(move |&r| self.live[r])
    }

    /// Bytes held by the layout's text buffers, live or not.
    pub fn text_bytes(&self) -> usize {
        self.cells.text_bytes()
    }
}

/// Check a row's arity and types against the schema.
fn validate_row(schema: &TableSchema, row: &[Value]) -> Result<()> {
    if row.len() != schema.arity() {
        return Err(Error::exec(format!(
            "arity mismatch for `{}`: expected {}, got {}",
            schema.name,
            schema.arity(),
            row.len()
        )));
    }
    for (v, c) in row.iter().zip(&schema.columns) {
        if !v.fits(c.dtype) {
            return Err(Error::exec(format!(
                "value {v:?} does not fit column `{}` of `{}`",
                c.name, schema.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalog::Column;
    use crate::value::DataType;

    /// `t (id INT PRIMARY KEY, pid INT INDEX, v TEXT INDEX, s TEXT)`.
    pub(crate) fn schema() -> Arc<TableSchema> {
        Arc::new(
            TableSchema::new(
                "t",
                vec![
                    Column::new("id", DataType::Int).primary_key(),
                    Column::new("pid", DataType::Int).indexed(),
                    Column::new("v", DataType::Text).indexed(),
                    Column::new("s", DataType::Text),
                ],
            )
            .unwrap(),
        )
    }

    /// A row of [`schema`] whose unindexed `s` is NULL.
    pub(crate) fn row(id: i64, pid: Option<i64>, v: &str) -> Vec<Value> {
        let pid = pid.map_or(Value::Null, Value::Int);
        vec![Value::Int(id), pid, Value::Text(v.into()), Value::Null]
    }

    pub(crate) fn lookup<L: Layout>(t: &Table<L>, col: usize, key: &Value) -> Vec<usize> {
        t.index_lookup(col, key.as_ref()).collect()
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = RowTable::new(schema());
        t.append(&row(1, None, "a")).unwrap();
        assert!(t.append(&row(1, None, "b")).is_err());
        assert_eq!(t.capacity(), 1, "a refused row leaves nothing behind");
        assert_eq!(lookup(&t, 0, &Value::Int(1)), vec![0]);
        t.append(&row(2, None, "b")).unwrap();
        assert!(t.update_cell(1, 0, ValueRef::Int(1)).is_err());
    }

    #[test]
    fn multi_index_accumulates() {
        let mut t = ColTable::new(schema());
        for (id, pid) in [(1, 7), (2, 8), (3, 7)] {
            t.append(&row(id, Some(pid), "x")).unwrap();
        }
        assert_eq!(lookup(&t, 1, &Value::Int(7)), vec![0, 2]);
        t.delete_row(0).unwrap();
        assert_eq!(lookup(&t, 1, &Value::Int(7)), vec![2]);
        t.delete_row(2).unwrap();
        assert!(lookup(&t, 1, &Value::Int(7)).is_empty());
        assert_eq!(lookup(&t, 1, &Value::Int(8)), vec![1]);
    }

    #[test]
    fn nulls_not_indexed() {
        let mut t = RowTable::new(schema());
        t.append(&row(1, None, "a")).unwrap();
        t.append(&row(2, None, "a")).unwrap();
        assert!(lookup(&t, 1, &Value::Null).is_empty());
        assert_eq!(lookup(&t, 2, &Value::Text("a".into())), vec![0, 1]);
    }

    /// A key that shares its chain hash with another (the integer whose
    /// bits are a text's hash) is filtered out by the exact comparison.
    #[test]
    fn colliding_hashes_return_only_exact_keys() {
        let text = "collide";
        let twin = fnv1a(FNV_OFFSET, text.as_bytes()) as i64;
        let mut t = RowTable::new(Arc::new(
            TableSchema::new("k", vec![Column::new("k", DataType::Int).indexed()]).unwrap(),
        ));
        t.append(&[Value::Int(twin)]).unwrap();
        let mut u = ColTable::new(schema());
        u.append(&row(twin, None, text)).unwrap();
        assert_eq!(lookup(&t, 0, &Value::Text(text.into())), Vec::<usize>::new());
        assert_eq!(lookup(&t, 0, &Value::Int(twin)), vec![0]);
        assert_eq!(lookup(&u, 2, &Value::Text(text.into())), vec![0]);
    }

    /// Long texts read back after a rewrite with a longer value, inline
    /// texts never touch the buffer, and multibyte UTF-8 survives both.
    #[test]
    fn long_text_rewrites_read_back_and_short_ones_stay_inline() {
        fn check<L: Layout>(mut t: Table<L>) {
            let long = "a value longer than fourteen bytes";
            t.append(&row(1, None, long)).unwrap();
            t.append(&row(2, None, "-")).unwrap();
            let after_load = t.text_bytes();
            assert_eq!(after_load, long.len(), "only the long text is buffered");
            let longer = format!("{long}, rewritten longer: naïve ✓ 東京");
            t.update_cell(0, 2, ValueRef::Text(&longer)).unwrap();
            assert_eq!(t.get(0, 2), ValueRef::Text(&longer));
            assert_eq!(lookup(&t, 2, &Value::Text(longer.clone())), vec![0]);
            let buffered = t.text_bytes();
            for sign in ["+", "-", "+", "東"] {
                t.update_cell(1, 2, ValueRef::Text(sign)).unwrap();
                assert_eq!(t.get(1, 2), ValueRef::Text(sign));
            }
            assert_eq!(t.text_bytes(), buffered, "sign rewrites do not grow the buffer");
            t.update_cell(0, 2, ValueRef::Text("short")).unwrap();
            assert_eq!(t.get(0, 2), ValueRef::Text("short"));
            assert_eq!(t.get(1, 1), ValueRef::Null);
        }
        check(RowTable::new(schema()));
        check(ColTable::new(schema()));
    }

    /// Rewriting long texts over and over keeps the text buffer within
    /// the live text plus the cells, and every value reads back.
    #[test]
    fn repeated_long_rewrites_keep_the_buffer_bounded() {
        fn check<L: Layout>(mut t: Table<L>) {
            t.append(&row(1, None, "first long value, indexed")).unwrap();
            t.append(&row(2, None, "-")).unwrap();
            let cell_bytes = 2 * t.schema().arity() * std::mem::size_of::<Cell>();
            let mut peak = 0;
            for i in 0..1000 {
                let v = format!("rewrite number {i:04}, long enough to buffer");
                let s = format!("unindexed text {i:04}, also buffered");
                t.update_cell(0, 2, ValueRef::Text(&v)).unwrap();
                t.update_cell(1, 3, ValueRef::Text(&s)).unwrap();
                assert_eq!(t.get(0, 2), ValueRef::Text(&v));
                assert_eq!(t.get(1, 3), ValueRef::Text(&s));
                assert_eq!(lookup(&t, 2, &Value::Text(v)), vec![0]);
                peak = peak.max(t.text_bytes());
            }
            let values = [t.row_values(0), t.row_values(1)].concat();
            let live: usize = values
                .iter()
                .map(|v| match v {
                    Value::Text(s) if s.len() > INLINE => s.len(),
                    _ => 0,
                })
                .sum();
            assert!(peak <= 2 * live + cell_bytes, "buffer peaked at {peak} bytes for {live} live");
        }
        check(RowTable::new(schema()));
        check(ColTable::new(schema()));
    }
}
