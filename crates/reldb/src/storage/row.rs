//! Row-oriented cell storage (the PostgreSQL-like layout).
//!
//! A tuple's cells sit contiguously in one row-major vector, and the long
//! texts of every row share one byte buffer. An append writes one run of
//! cells at the end, and reading a whole tuple is one slice away — the
//! access profile of a classic row store.

use super::{Cells, Layout};
use crate::value::{Value, ValueRef};

/// Row-major cells of one table.
#[derive(Debug, Clone)]
pub struct Rows {
    arity: usize,
    /// Cell `(row, col)` is cell `row * arity + col`.
    cells: Cells,
}

impl Layout for Rows {
    fn with_arity(arity: usize) -> Self {
        Rows { arity, cells: Cells::default() }
    }

    fn get(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.cells.get(row * self.arity + col)
    }

    fn push_row(&mut self, values: &[Value]) {
        for v in values {
            self.cells.push(v.as_ref());
        }
    }

    fn set(&mut self, row: usize, col: usize, value: ValueRef<'_>) {
        self.cells.set(row * self.arity + col, value);
    }

    fn text_bytes(&self) -> usize {
        self.cells.text_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::storage::tests::{lookup, row, schema};
    use crate::storage::RowTable;
    use crate::value::{Value, ValueRef};

    #[test]
    fn append_read_update_delete() {
        let mut t = RowTable::new(schema());
        let r0 = t.append(&row(1, None, "a")).unwrap();
        let r1 = t.append(&row(2, Some(1), "b")).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row_values(r1), row(2, Some(1), "b"));
        t.update_cell(r1, 2, ValueRef::Text("c")).unwrap();
        assert_eq!(t.get(r1, 2), ValueRef::Text("c"));
        t.delete_row(r0).unwrap();
        assert_eq!(t.row_count(), 1);
        assert!(!t.is_live(r0));
        assert!(t.delete_row(r0).is_err());
        assert!(t.update_cell(r0, 2, ValueRef::Null).is_err());
        assert_eq!(t.live_rows().collect::<Vec<_>>(), vec![r1]);
    }

    #[test]
    fn indexes_follow_mutations() {
        let mut t = RowTable::new(schema());
        t.append(&row(1, Some(9), "x")).unwrap();
        t.append(&row(2, Some(9), "x")).unwrap();
        assert_eq!(lookup(&t, 1, &Value::Int(9)), vec![0, 1]);
        t.update_cell(0, 1, ValueRef::Int(8)).unwrap();
        assert_eq!(lookup(&t, 1, &Value::Int(9)), vec![1]);
        assert_eq!(lookup(&t, 1, &Value::Int(8)), vec![0]);
        t.delete_row(1).unwrap();
        assert!(lookup(&t, 1, &Value::Int(9)).is_empty());
        assert!(t.has_index(0) && t.has_index(1) && t.has_index(2) && !t.has_index(3));
        // The unindexed column updates in place and answers no lookup.
        t.update_cell(0, 3, ValueRef::Text("y")).unwrap();
        assert_eq!(t.get(0, 3), ValueRef::Text("y"));
        assert!(lookup(&t, 3, &Value::Text("y".into())).is_empty());
        assert_eq!(lookup(&t, 1, &Value::Int(8)), vec![0], "other indexes are untouched");
    }

    #[test]
    fn constraint_violations() {
        let mut t = RowTable::new(schema());
        t.append(&row(1, None, "a")).unwrap();
        assert!(t.append(&row(1, None, "b")).is_err(), "duplicate primary key");
        assert!(t.append(&[Value::Int(2), Value::Null]).is_err(), "arity");
        assert!(
            t.append(&[Value::Text("x".into()), Value::Null, Value::Null, Value::Null]).is_err(),
            "type mismatch"
        );
        assert_eq!(t.capacity(), 1, "a refused row leaves nothing behind");
    }
}
