//! Row batches: one horizontal partition of a DataFrame.

use std::sync::Arc;

use crate::column::Column;
use crate::datatype::Schema;
use crate::error::{Error, Result};
use crate::value::Value;

/// A set of equally long [`Column`]s described by a shared [`Schema`].
///
/// A `Batch` is one horizontal partition of a
/// [`DataFrame`](crate::frame::DataFrame); partition-parallel operators map
/// over batches independently.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    rows: usize,
}

impl Batch {
    /// Creates a batch from a schema and matching columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if the column count or any column
    /// type disagrees with the schema, and [`Error::LengthMismatch`] if the
    /// columns differ in length.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::SchemaMismatch(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.data_type() != col.data_type() {
                return Err(Error::SchemaMismatch(format!(
                    "column {} declared {} but stores {}",
                    field.name(),
                    field.data_type(),
                    col.data_type()
                )));
            }
        }
        let rows = columns.first().map(Column::len).unwrap_or(0);
        for col in &columns {
            if col.len() != rows {
                return Err(Error::LengthMismatch {
                    left: rows,
                    right: col.len(),
                });
            }
        }
        Ok(Batch {
            schema,
            columns,
            rows,
        })
    }

    /// Creates an empty batch with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new_empty(f.data_type()))
            .collect();
        Batch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Builds a batch from row tuples.
    ///
    /// # Errors
    ///
    /// Propagates type mismatches between row values and the schema, and
    /// rejects rows whose arity differs from the schema.
    pub fn from_rows<I, R>(schema: Arc<Schema>, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = Value>,
    {
        let mut columns: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::new_empty(f.data_type()))
            .collect();
        let mut count = 0usize;
        for row in rows {
            let mut n = 0;
            for (i, v) in row.into_iter().enumerate() {
                let col = columns.get_mut(i).ok_or_else(|| {
                    Error::SchemaMismatch("row has more values than schema fields".into())
                })?;
                col.push(v)?;
                n = i + 1;
            }
            if n != schema.len() {
                return Err(Error::SchemaMismatch(format!(
                    "row has {n} values but schema has {} fields",
                    schema.len()
                )));
            }
            count += 1;
        }
        Ok(Batch {
            schema,
            columns,
            rows: count,
        })
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// `true` if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] for unknown names.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Materializes row `i` as a vector of values.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_rows()`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Rows selected by `indices`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn take(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// Rows where `mask` is `true`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the mask length differs from the
    /// row count.
    pub fn filter(&self, mask: &[bool]) -> Result<Batch> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.filter(mask))
            .collect::<Result<Vec<_>>>()?;
        let rows = mask.iter().filter(|&&m| m).count();
        Ok(Batch {
            schema: self.schema.clone(),
            columns,
            rows,
        })
    }

    /// Contiguous row slice `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, len)).collect(),
            rows: len,
        }
    }

    /// Replaces an existing column, keeping its position.
    ///
    /// The new column may have a different data type; the schema is updated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] for unknown names and
    /// [`Error::LengthMismatch`] if lengths differ.
    pub fn replace_column(&self, name: &str, column: Column) -> Result<Batch> {
        if column.len() != self.rows {
            return Err(Error::LengthMismatch {
                left: self.rows,
                right: column.len(),
            });
        }
        let idx = self.schema.index_of(name)?;
        let mut fields = self.schema.fields().to_vec();
        fields[idx] = crate::datatype::Field::new(name, column.data_type());
        let schema = Arc::new(Schema::new(fields)?);
        let mut columns = self.columns.clone();
        columns[idx] = column;
        Ok(Batch {
            schema,
            columns,
            rows: self.rows,
        })
    }

    /// Vertically concatenates batches sharing one schema.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if any batch disagrees with the
    /// first one's schema, and [`Error::InvalidArgument`] for empty input.
    pub fn concat(batches: &[Batch]) -> Result<Batch> {
        let first = batches
            .first()
            .ok_or_else(|| Error::InvalidArgument("concat of zero batches".into()))?;
        let mut columns: Vec<Column> = first.columns.clone();
        let mut rows = first.rows;
        for b in &batches[1..] {
            if b.schema.as_ref() != first.schema.as_ref() {
                return Err(Error::SchemaMismatch(format!(
                    "cannot concat {} with {}",
                    first.schema, b.schema
                )));
            }
            for (dst, src) in columns.iter_mut().zip(&b.columns) {
                dst.extend_from(src)?;
            }
            rows += b.rows;
        }
        Ok(Batch {
            schema: first.schema.clone(),
            columns,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;

    fn sample() -> Batch {
        let schema = Schema::from_pairs([("t", DataType::Float), ("id", DataType::Int)])
            .unwrap()
            .into_shared();
        Batch::from_rows(
            schema,
            vec![
                vec![Value::Float(1.0), Value::Int(10)],
                vec![Value::Float(2.0), Value::Int(20)],
                vec![Value::Float(3.0), Value::Int(30)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_and_access() {
        let b = sample();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 2);
        assert_eq!(b.row(1), vec![Value::Float(2.0), Value::Int(20)]);
        assert_eq!(b.column_by_name("id").unwrap().get(2), Value::Int(30));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Int)])
            .unwrap()
            .into_shared();
        let r = Batch::from_rows(schema, vec![vec![Value::Int(1)]]);
        assert!(matches!(r, Err(Error::SchemaMismatch(_))));
    }

    #[test]
    fn filter_take_slice() {
        let b = sample();
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(1), vec![Value::Float(3.0), Value::Int(30)]);
        let t = b.take(&[2, 0]);
        assert_eq!(t.row(0), vec![Value::Float(3.0), Value::Int(30)]);
        let s = b.slice(1, 1);
        assert_eq!(s.row(0), vec![Value::Float(2.0), Value::Int(20)]);
    }

    #[test]
    fn replace_column_retypes_in_place() {
        let b = sample();
        let r = b
            .replace_column("t", Column::Str(vec![None, None, None]))
            .unwrap();
        assert_eq!(r.num_columns(), 2);
        assert_eq!(r.schema().fields()[0].name(), "t");
        assert_eq!(r.schema().field("t").unwrap().data_type(), DataType::Str);
        assert_eq!(r.column(1), b.column(1));
        assert!(r.replace_column("id", Column::Int(vec![Some(1)])).is_err());
        assert!(r.replace_column("zz", Column::Int(vec![None; 3])).is_err());
    }

    #[test]
    fn concat_batches() {
        let b = sample();
        let c = Batch::concat(&[b.clone(), b.clone()]).unwrap();
        assert_eq!(c.num_rows(), 6);
        assert_eq!(c.row(3), c.row(0));
        assert!(Batch::concat(&[]).is_err());
    }

    #[test]
    fn schema_column_count_checked() {
        let schema = Schema::from_pairs([("a", DataType::Int)])
            .unwrap()
            .into_shared();
        let r = Batch::new(schema, vec![]);
        assert!(matches!(r, Err(Error::SchemaMismatch(_))));
    }

    #[test]
    fn empty_has_zero_rows() {
        let schema = Schema::from_pairs([("a", DataType::Int)])
            .unwrap()
            .into_shared();
        let b = Batch::empty(schema);
        assert!(b.is_empty());
    }
}
