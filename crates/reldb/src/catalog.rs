//! Catalog: table schemas and column metadata.

use crate::error::{Error, Result};
use crate::value::DataType;
use std::collections::HashMap;
use std::sync::Arc;

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// `PRIMARY KEY` — unique, hash-indexed.
    pub primary_key: bool,
    /// `INDEX` — non-unique hash index.
    pub indexed: bool,
}

impl Column {
    /// A plain column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column { name: name.into(), dtype, primary_key: false, indexed: false }
    }

    /// Mark as primary key (implies an index).
    pub fn primary_key(mut self) -> Self {
        self.primary_key = true;
        self.indexed = true;
        self
    }

    /// Mark as indexed.
    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Create a schema, checking column-name uniqueness and that at most
    /// one primary key exists.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self> {
        let name = name.into();
        let mut seen = std::collections::BTreeSet::new();
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(Error::plan(format!(
                    "duplicate column `{}` in table `{name}`",
                    c.name
                )));
            }
        }
        if columns.iter().filter(|c| c.primary_key).count() > 1 {
            return Err(Error::plan(format!("table `{name}` has multiple primary keys")));
        }
        Ok(TableSchema { name, columns })
    }

    /// Index of a column by name.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == column)
    }

    /// Column metadata by name.
    pub fn column(&self, column: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == column)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the primary key column, if declared.
    pub fn primary_key_index(&self) -> Option<usize> {
        self.columns.iter().position(|c| c.primary_key)
    }

    /// Render as `CREATE TABLE` DDL.
    pub fn to_ddl(&self) -> String {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| {
                let mut s = format!("{} {}", c.name, c.dtype);
                if c.primary_key {
                    s.push_str(" PRIMARY KEY");
                } else if c.indexed {
                    s.push_str(" INDEX");
                }
                s
            })
            .collect();
        format!("CREATE TABLE {} ({})", self.name, cols.join(", "))
    }
}

/// The set of known tables, in creation order: a table's position is
/// where the database keeps its storage.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    schemas: Vec<Arc<TableSchema>>,
    positions: HashMap<String, usize>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table; errors when the name is taken. Returns its
    /// position.
    pub fn add_table(&mut self, schema: TableSchema) -> Result<usize> {
        if self.positions.contains_key(&schema.name) {
            return Err(Error::plan(format!("table `{}` already exists", schema.name)));
        }
        let position = self.schemas.len();
        self.positions.insert(schema.name.clone(), position);
        self.schemas.push(Arc::new(schema));
        Ok(position)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.position(name).map(|p| &*self.schemas[p])
    }

    /// The position of table `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.positions.get(name).copied()
    }

    /// The shared schema at `position`.
    pub(crate) fn schema_at(&self, position: usize) -> &Arc<TableSchema> {
        &self.schemas[position]
    }

    /// Look up a table or fail with a planning error.
    pub fn require_table(&self, name: &str) -> Result<&TableSchema> {
        self.table(name)
            .ok_or_else(|| Error::plan(format!("unknown table `{name}`")))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// True when no tables exist.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableSchema {
        TableSchema::new(
            "patient",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("pid", DataType::Int).indexed(),
                Column::new("s", DataType::Text),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lookup_and_arity() {
        let t = sample();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.column_index("pid"), Some(1));
        assert_eq!(t.column_index("nope"), None);
        assert_eq!(t.primary_key_index(), Some(0));
        assert!(t.column("id").unwrap().indexed, "primary key implies index");
    }

    #[test]
    fn rejects_duplicates() {
        assert!(TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Int), Column::new("a", DataType::Text)]
        )
        .is_err());
        let two_pks = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int).primary_key(),
                Column::new("b", DataType::Int).primary_key(),
            ],
        );
        assert!(two_pks.is_err());
    }

    #[test]
    fn catalog_registration() {
        let mut c = Catalog::new();
        c.add_table(sample()).unwrap();
        assert!(c.table("patient").is_some());
        assert!(c.require_table("absent").is_err());
        assert!(c.add_table(sample()).is_err(), "duplicate table");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn ddl_round_trip_shape() {
        let t = sample();
        assert_eq!(
            t.to_ddl(),
            "CREATE TABLE patient (id INT PRIMARY KEY, pid INT INDEX, s TEXT)"
        );
    }
}
