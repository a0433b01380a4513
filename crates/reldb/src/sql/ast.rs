//! SQL abstract syntax.

use crate::value::{DataType, Value, ValueRef};
use std::fmt;

/// A literal operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// `NULL`
    Null,
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
}

impl Literal {
    /// Convert to a runtime value.
    pub fn to_value(&self) -> Value {
        match self {
            Literal::Null => Value::Null,
            Literal::Int(i) => Value::Int(*i),
            Literal::Str(s) => Value::Text(s.clone()),
        }
    }
}

/// Comparison operators in `WHERE` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlCmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl SqlCmpOp {
    /// Apply to an ordering produced by [`Value::sql_cmp`].
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            SqlCmpOp::Eq => ord == Equal,
            SqlCmpOp::Ne => ord != Equal,
            SqlCmpOp::Lt => ord == Less,
            SqlCmpOp::Le => ord != Greater,
            SqlCmpOp::Gt => ord == Greater,
            SqlCmpOp::Ge => ord != Less,
        }
    }

    /// Three-valued application on values (`NULL` makes it false).
    pub fn compare(self, a: ValueRef<'_>, b: ValueRef<'_>) -> bool {
        a.sql_cmp(b).map(|o| self.eval(o)).unwrap_or(false)
    }
}

impl fmt::Display for SqlCmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SqlCmpOp::Eq => "=",
            SqlCmpOp::Ne => "!=",
            SqlCmpOp::Lt => "<",
            SqlCmpOp::Le => "<=",
            SqlCmpOp::Gt => ">",
            SqlCmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    /// Table alias qualifier (`a` in `a.id`), if any.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A column reference.
    Col(ColRef),
    /// A literal.
    Lit(Literal),
}

/// A conjunct of the `WHERE` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    pub left: Operand,
    pub op: SqlCmpOp,
    pub right: Operand,
}

/// A table in the `FROM` list with its alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Catalog table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: String,
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// A plain column reference.
    Column(ColRef),
    /// `COUNT(*)` — number of result rows.
    CountStar,
    /// `COUNT(col)` — number of rows with a non-NULL value.
    Count(ColRef),
}

impl Projection {
    /// True for the aggregate forms.
    pub fn is_aggregate(&self) -> bool {
        !matches!(self, Projection::Column(_))
    }
}

/// A conjunctive `SELECT` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Select {
    /// Projected columns (or a single aggregate).
    pub projections: Vec<Projection>,
    /// `FROM` tables (comma join).
    pub from: Vec<TableRef>,
    /// `WHERE` conjuncts.
    pub conditions: Vec<Condition>,
}

/// The set operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    Union,
    Except,
    Intersect,
}

impl fmt::Display for SetOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetOpKind::Union => f.write_str("UNION"),
            SetOpKind::Except => f.write_str("EXCEPT"),
            SetOpKind::Intersect => f.write_str("INTERSECT"),
        }
    }
}

/// A query expression: a select block or a set operation between two
/// query expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryExpr {
    /// A plain `SELECT`.
    Select(Select),
    /// `left OP right` (set semantics, duplicates eliminated).
    SetOp {
        op: SetOpKind,
        left: Box<QueryExpr>,
        right: Box<QueryExpr>,
    },
}

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub primary_key: bool,
    pub indexed: bool,
}

/// A SQL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE [PRIMARY KEY | INDEX], …)`
    CreateTable { name: String, columns: Vec<ColumnDef> },
    /// `INSERT INTO name (cols) VALUES (…), (…)`
    Insert { table: String, columns: Vec<String>, rows: Vec<Vec<Literal>> },
    /// A query expression.
    Query(QueryExpr),
    /// `UPDATE name SET col = lit [, …] WHERE …`
    Update { table: String, assignments: Vec<(String, Literal)>, conditions: Vec<Condition> },
    /// `DELETE FROM name WHERE …`
    Delete { table: String, conditions: Vec<Condition> },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval() {
        use std::cmp::Ordering::*;
        assert!(SqlCmpOp::Eq.eval(Equal));
        assert!(!SqlCmpOp::Eq.eval(Less));
        assert!(SqlCmpOp::Le.eval(Equal));
        assert!(SqlCmpOp::Le.eval(Less));
        assert!(!SqlCmpOp::Le.eval(Greater));
        assert!(SqlCmpOp::Ne.eval(Greater));
    }

    #[test]
    fn null_comparisons_false() {
        assert!(!SqlCmpOp::Eq.compare(ValueRef::Null, ValueRef::Null));
        assert!(!SqlCmpOp::Ne.compare(ValueRef::Null, ValueRef::Int(1)));
        assert!(SqlCmpOp::Gt.compare(ValueRef::Int(2), ValueRef::Int(1)));
    }

    #[test]
    fn literal_conversion() {
        assert_eq!(Literal::Null.to_value(), Value::Null);
        assert_eq!(Literal::Int(3).to_value(), Value::Int(3));
        assert_eq!(Literal::Str("a".into()).to_value(), Value::Text("a".into()));
    }

    #[test]
    fn colref_display() {
        let c = ColRef { qualifier: Some("a".into()), column: "id".into() };
        assert_eq!(c.to_string(), "a.id");
        let c = ColRef { qualifier: None, column: "id".into() };
        assert_eq!(c.to_string(), "id");
    }
}
