//! Column-oriented cell storage (the MonetDB-like layout).
//!
//! Each column is a dense cell vector with its own text buffer, so scans
//! touch only the columns a query reads, while assembling a full tuple
//! costs one hop per column — the classic column-store trade-off.
//! Per-row `INSERT`s must touch every column vector, which is exactly why
//! the paper measures MonetDB loading slower than PostgreSQL on
//! row-by-row `INSERT` files.

use super::{Cells, Layout};
use crate::value::{Value, ValueRef};

/// Column-major cells of one table: per column, its cells in slot order
/// and its long texts' bytes.
#[derive(Debug, Clone)]
pub struct Cols {
    columns: Vec<Cells>,
}

impl Layout for Cols {
    fn with_arity(arity: usize) -> Self {
        Cols { columns: vec![Cells::default(); arity] }
    }

    fn get(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.columns[col].get(row)
    }

    fn push_row(&mut self, values: &[Value]) {
        for (column, v) in self.columns.iter_mut().zip(values) {
            column.push(v.as_ref());
        }
    }

    fn set(&mut self, row: usize, col: usize, value: ValueRef<'_>) {
        self.columns[col].set(row, value);
    }

    fn text_bytes(&self) -> usize {
        self.columns.iter().map(Cells::text_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::storage::tests::{lookup, row, schema};
    use crate::storage::ColTable;
    use crate::value::{Value, ValueRef};

    #[test]
    fn append_read_update_delete() {
        let mut t = ColTable::new(schema());
        let r0 = t.append(&row(1, None, "a")).unwrap();
        let r1 = t.append(&row(2, Some(1), "b")).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get(r0, 1), ValueRef::Null);
        assert_eq!(t.get(r1, 2), ValueRef::Text("b"));
        t.update_cell(r1, 0, ValueRef::Int(3)).unwrap();
        assert_eq!(lookup(&t, 0, &Value::Int(3)), vec![r1]);
        assert!(lookup(&t, 0, &Value::Int(2)).is_empty());
        t.delete_row(r0).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.capacity(), 2, "tombstoned slot remains");
    }

    #[test]
    fn column_access_is_typed() {
        let mut t = ColTable::new(schema());
        t.append(&row(1, None, "x")).unwrap();
        let long = "a text too long to sit inline";
        t.append(&row(2, Some(1), long)).unwrap();
        let column = |c| (0..t.capacity()).map(|r| t.get(r, c)).collect::<Vec<_>>();
        assert_eq!(column(0), vec![ValueRef::Int(1), ValueRef::Int(2)]);
        assert_eq!(column(1), vec![ValueRef::Null, ValueRef::Int(1)]);
        assert_eq!(column(2), vec![ValueRef::Text("x"), ValueRef::Text(long)]);
        assert_eq!(column(3), vec![ValueRef::Null, ValueRef::Null]);
        assert_eq!(t.text_bytes(), long.len(), "only the long text is buffered");
    }

    #[test]
    fn type_errors_surface() {
        let mut t = ColTable::new(schema());
        let wrong = [Value::Text("no".into()), Value::Null, Value::Null, Value::Null];
        assert!(t.append(&wrong).is_err());
        t.append(&row(1, None, "a")).unwrap();
        assert!(t.update_cell(0, 0, ValueRef::Text("no")).is_err());
    }
}
