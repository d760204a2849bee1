//! Data types, fields and schemas.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};

/// Physical type of a [`Column`](crate::column::Column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw bytes (e.g. message payloads).
    Bytes,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bytes => "bytes",
        };
        f.write_str(s)
    }
}

/// A named, typed column slot in a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    name: String,
    data_type: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.data_type)
    }
}

/// An ordered collection of uniquely named [`Field`]s.
///
/// Schemas are immutable and shared (`Arc`) between the partitions of a
/// [`DataFrame`](crate::frame::DataFrame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    index: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema from fields.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateColumn`] if two fields share a name.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if index.insert(f.name.clone(), i).is_some() {
                return Err(Error::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields, index })
    }

    /// Convenience constructor from `(name, type)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateColumn`] if two names collide.
    pub fn from_pairs<'a, I>(pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (&'a str, DataType)>,
    {
        Schema::new(
            pairs
                .into_iter()
                .map(|(n, t)| Field::new(n, t))
                .collect::<Vec<_>>(),
        )
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| Error::ColumnNotFound(name.to_string()))
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// `true` if the schema contains a column with this name.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Wraps the schema in an `Arc`.
    pub fn into_shared(self) -> Arc<Schema> {
        Arc::new(self)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let s = Schema::from_pairs([("t", DataType::Float), ("m_id", DataType::Int)]).unwrap();
        assert_eq!(s.index_of("m_id").unwrap(), 1);
        assert_eq!(s.field("t").unwrap().data_type(), DataType::Float);
        assert!(s.contains("t"));
        assert!(!s.contains("x"));
        assert!(matches!(s.index_of("x"), Err(Error::ColumnNotFound(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::from_pairs([("a", DataType::Int), ("a", DataType::Int)]);
        assert!(matches!(r, Err(Error::DuplicateColumn(_))));
    }

    #[test]
    fn display() {
        let s = Schema::from_pairs([("a", DataType::Int)]).unwrap();
        assert_eq!(s.to_string(), "[a: int]");
    }
}
