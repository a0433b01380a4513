//! Values and data types.
//!
//! The shredded representation needs only integers (universal identifiers)
//! and text (element values and the `s` sign column); `NULL` appears as
//! the root tuple's parent id. Comparisons follow the same coercion rule
//! as the XPath engine: when both operands look numeric they compare
//! numerically, otherwise lexicographically — so `WHERE v > 1000` works on
//! a `TEXT` column holding `"700"`.

use std::cmp::Ordering;
use std::fmt;

/// Column data types of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer (`INT`).
    Int,
    /// UTF-8 string (`TEXT`).
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => f.write_str("INT"),
            DataType::Text => f.write_str("TEXT"),
        }
    }
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL. Compares as unknown (excluded by every predicate).
    Null,
    /// An integer.
    Int(i64),
    /// A string.
    Text(String),
}

impl Value {
    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Does the value fit the declared column type? `NULL` fits anything.
    pub fn fits(&self, dtype: DataType) -> bool {
        self.as_ref().fits(dtype)
    }

    /// SQL comparison with numeric coercion. Returns `None` when either
    /// side is `NULL` (three-valued logic: the predicate is unknown).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        self.as_ref().sql_cmp(other.as_ref())
    }

    /// A borrowed view of the value.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Text(t) => ValueRef::Text(t),
        }
    }

    /// SQL equality (`None` when unknown).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Render as a SQL literal.
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Text(t) => format!("'{}'", t.replace('\'', "''")),
        }
    }
}

/// A cell value borrowed from a table: what the executors compare
/// without copying text out of the storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// An integer.
    Int(i64),
    /// A string.
    Text(&'a str),
}

impl ValueRef<'_> {
    /// True for [`ValueRef::Null`].
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// [`Value::fits`] on a borrowed value.
    pub fn fits(self, dtype: DataType) -> bool {
        matches!(
            (self, dtype),
            (ValueRef::Null, _)
                | (ValueRef::Int(_), DataType::Int)
                | (ValueRef::Text(_), DataType::Text)
        )
    }

    /// An owned copy.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Text(t) => Value::Text(t.to_string()),
        }
    }

    /// [`Value::sql_cmp`] on borrowed values.
    pub fn sql_cmp(self, other: ValueRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (ValueRef::Null, _) | (_, ValueRef::Null) => None,
            (ValueRef::Int(a), ValueRef::Int(b)) => Some(a.cmp(&b)),
            (ValueRef::Text(a), ValueRef::Text(b)) => Some(coerced_cmp(a, b)),
            (ValueRef::Int(a), ValueRef::Text(b)) => Some(num_text_cmp(a, b)),
            (ValueRef::Text(a), ValueRef::Int(b)) => Some(num_text_cmp(b, a).reverse()),
        }
    }
}

fn coerced_cmp(a: &str, b: &str) -> Ordering {
    if let (Ok(x), Ok(y)) = (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        return x.partial_cmp(&y).unwrap_or(Ordering::Equal);
    }
    a.cmp(b)
}

fn num_text_cmp(a: i64, b: &str) -> Ordering {
    if let Ok(y) = b.trim().parse::<f64>() {
        return (a as f64).partial_cmp(&y).unwrap_or(Ordering::Equal);
    }
    // Fall back to comparing the rendered integer, keeping totality.
    a.to_string().cmp(&b.to_string())
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(t) => f.write_str(t),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn integer_comparison() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Int(2).sql_eq(&Value::Int(2)), Some(true));
    }

    #[test]
    fn text_numeric_coercion() {
        let a = Value::Text("700".into());
        let b = Value::Text("1000".into());
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less), "numeric, not lexicographic");
        let a = Value::Text("abc".into());
        let b = Value::Text("abd".into());
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
    }

    #[test]
    fn mixed_int_text_coercion() {
        assert_eq!(Value::Int(1000).sql_cmp(&Value::Text("700".into())), Some(Ordering::Greater));
        assert_eq!(Value::Text("700".into()).sql_cmp(&Value::Int(1000)), Some(Ordering::Less));
        assert_eq!(Value::Int(5).sql_eq(&Value::Text("5".into())), Some(true));
    }

    #[test]
    fn type_fitting() {
        assert!(Value::Int(1).fits(DataType::Int));
        assert!(!Value::Int(1).fits(DataType::Text));
        assert!(Value::Text("x".into()).fits(DataType::Text));
        assert!(Value::Null.fits(DataType::Int));
        assert!(Value::Null.fits(DataType::Text));
    }

    #[test]
    fn literals() {
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Int(-3).to_sql_literal(), "-3");
        assert_eq!(Value::Text("o'hare".into()).to_sql_literal(), "'o''hare'");
    }
}
