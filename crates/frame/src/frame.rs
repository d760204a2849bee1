//! The partitioned DataFrame.

use std::sync::Arc;

use crate::batch::Batch;
use crate::datatype::Schema;
use crate::error::{Error, Result};
use crate::exec::Executor;
use crate::join::hash_join;
use crate::value::Value;

/// A horizontally partitioned, immutable table.
///
/// `DataFrame` is the embedded stand-in for a Spark DataFrame: a shared
/// [`Schema`] plus a vector of [`Batch`] partitions. Join probes execute on
/// all partitions in parallel via the crate [`Executor`]; results keep
/// partition order, so output is deterministic for any worker count.
///
/// # Examples
///
/// ```
/// # use ivnt_frame::prelude::*;
/// # fn main() -> ivnt_frame::Result<()> {
/// let schema = Schema::from_pairs([("t", DataType::Float), ("m_id", DataType::Int)])?
///     .into_shared();
/// let trace = DataFrame::from_rows(
///     schema,
///     vec![
///         vec![Value::Float(2.0), Value::Int(3)],
///         vec![Value::Float(2.5), Value::Int(3)],
///         vec![Value::Float(2.6), Value::Int(7)],
///     ],
/// )?;
/// let rules = DataFrame::from_rows(
///     Schema::from_pairs([("rule_mid", DataType::Int), ("s_id", DataType::Str)])?
///         .into_shared(),
///     vec![vec![Value::Int(3), Value::from("wpos")]],
/// )?;
/// // K_pre ⋈ U_comb: every message with a rule, tagged with its signal.
/// let relevant = trace.join(&rules, &["m_id"], &["rule_mid"])?;
/// assert_eq!(relevant.num_rows(), 2);
/// assert_eq!(relevant.column_values("s_id")?[1], Value::from("wpos"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DataFrame {
    schema: Arc<Schema>,
    partitions: Vec<Batch>,
    executor: Executor,
}

impl DataFrame {
    /// Creates a DataFrame from existing partitions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if any partition's schema differs
    /// from `schema`.
    pub fn from_partitions(schema: Arc<Schema>, partitions: Vec<Batch>) -> Result<Self> {
        for p in &partitions {
            if p.schema().as_ref() != schema.as_ref() {
                return Err(Error::SchemaMismatch(format!(
                    "partition schema {} differs from frame schema {}",
                    p.schema(),
                    schema
                )));
            }
        }
        Ok(DataFrame {
            schema,
            partitions,
            executor: Executor::default(),
        })
    }

    /// Creates a single-partition DataFrame from row tuples.
    ///
    /// # Errors
    ///
    /// Propagates [`Batch::from_rows`] errors.
    pub fn from_rows<I, R>(schema: Arc<Schema>, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = Value>,
    {
        let batch = Batch::from_rows(schema.clone(), rows)?;
        DataFrame::from_partitions(schema, vec![batch])
    }

    /// Creates an empty DataFrame with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        DataFrame {
            schema,
            partitions: Vec::new(),
            executor: Executor::default(),
        }
    }

    /// Overrides the executor (worker count) used by this frame's operators.
    ///
    /// Derived frames inherit the setting.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The executor used by this frame's parallel operators.
    pub fn executor(&self) -> Executor {
        self.executor
    }

    /// The frame's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The partitions.
    pub fn partitions(&self) -> &[Batch] {
        &self.partitions
    }

    /// Consumes the frame, returning its partitions.
    pub fn into_partitions(self) -> Vec<Batch> {
        self.partitions
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of rows across partitions.
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(Batch::num_rows).sum()
    }

    /// `true` if the frame holds no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    fn derive(&self, schema: Arc<Schema>, partitions: Vec<Batch>) -> DataFrame {
        DataFrame {
            schema,
            partitions,
            executor: self.executor,
        }
    }

    /// Inner-joins with `other` on positionally paired keys (⋈).
    ///
    /// Builds a hash table on `other` and probes this frame's partitions in
    /// parallel — the shape of the paper's `K_pre ⋈ U_comb` interpretation
    /// join. Output contains all of this frame's columns plus `other`'s
    /// non-key columns; rows without a match are dropped, and null keys
    /// never match.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] on empty/unequal key lists,
    /// [`Error::DuplicateColumn`] on output name collisions and
    /// [`Error::ColumnNotFound`] for unknown keys.
    pub fn join(
        &self,
        other: &DataFrame,
        self_keys: &[&str],
        other_keys: &[&str],
    ) -> Result<DataFrame> {
        hash_join(self, other, self_keys, other_keys, self.executor)
    }

    /// Globally sorts rows by `keys` (each ascending when `ascending` holds).
    ///
    /// The result is a single partition; follow with
    /// [`DataFrame::repartition`] to restore parallelism. The sort is stable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `keys` and `ascending` lengths
    /// differ or are empty, and [`Error::ColumnNotFound`] for unknown keys.
    pub fn sort_by(&self, keys: &[&str], ascending: &[bool]) -> Result<DataFrame> {
        if keys.is_empty() || keys.len() != ascending.len() {
            return Err(Error::InvalidArgument(
                "sort_by requires equally many keys and directions".into(),
            ));
        }
        let merged = self.to_single_batch()?;
        let key_idx: Vec<usize> = keys
            .iter()
            .map(|k| self.schema.index_of(k))
            .collect::<Result<_>>()?;
        let mut order: Vec<usize> = (0..merged.num_rows()).collect();
        order.sort_by(|&a, &b| {
            for (&ci, &asc) in key_idx.iter().zip(ascending) {
                let va = merged.column(ci).get(a);
                let vb = merged.column(ci).get(b);
                let ord = va.total_cmp(&vb);
                if !ord.is_eq() {
                    return if asc { ord } else { ord.reverse() };
                }
            }
            std::cmp::Ordering::Equal
        });
        let sorted = merged.take(&order);
        Ok(self.derive(self.schema.clone(), vec![sorted]))
    }

    /// Vertically concatenates with `other` (∪, bag semantics).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if schemas differ.
    pub fn union(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.schema.as_ref() != other.schema.as_ref() {
            return Err(Error::SchemaMismatch(format!(
                "cannot union {} with {}",
                self.schema, other.schema
            )));
        }
        let mut parts = self.partitions.clone();
        // Re-anchor the other side's batches on this frame's schema Arc so
        // partition schema pointers stay uniform.
        for b in &other.partitions {
            parts.push(Batch::new(self.schema.clone(), b.columns().to_vec())?);
        }
        Ok(self.derive(self.schema.clone(), parts))
    }

    /// Redistributes rows into `n` evenly sized partitions, preserving
    /// global row order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `n == 0`.
    pub fn repartition(&self, n: usize) -> Result<DataFrame> {
        if n == 0 {
            return Err(Error::InvalidArgument("repartition to 0 partitions".into()));
        }
        let merged = self.to_single_batch()?;
        let rows = merged.num_rows();
        if rows == 0 {
            return Ok(self.derive(self.schema.clone(), vec![merged]));
        }
        let chunk = rows.div_ceil(n);
        let mut parts = Vec::new();
        let mut start = 0;
        while start < rows {
            let len = chunk.min(rows - start);
            parts.push(merged.slice(start, len));
            start += len;
        }
        Ok(self.derive(self.schema.clone(), parts))
    }

    /// Merges all partitions into one [`Batch`].
    ///
    /// # Errors
    ///
    /// Propagates concatenation errors.
    pub fn to_single_batch(&self) -> Result<Batch> {
        if self.partitions.is_empty() {
            return Ok(Batch::empty(self.schema.clone()));
        }
        if self.partitions.len() == 1 {
            return Ok(self.partitions[0].clone());
        }
        Batch::concat(&self.partitions)
    }

    /// Materializes every row, in global row order.
    ///
    /// # Errors
    ///
    /// Propagates partition merge errors.
    pub fn collect_rows(&self) -> Result<Vec<Vec<Value>>> {
        let merged = self.to_single_batch()?;
        Ok((0..merged.num_rows()).map(|i| merged.row(i)).collect())
    }

    /// Column values by name, in global row order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] for unknown names.
    pub fn column_values(&self, name: &str) -> Result<Vec<Value>> {
        self.schema.index_of(name)?;
        let mut out = Vec::with_capacity(self.num_rows());
        for b in &self.partitions {
            out.extend(b.column_by_name(name)?.iter());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;

    fn df() -> DataFrame {
        DataFrame::from_rows(
            Schema::from_pairs([("t", DataType::Float), ("v", DataType::Int)])
                .unwrap()
                .into_shared(),
            (0..10).map(|i| vec![Value::Float(i as f64 * 0.5), Value::Int(i)]),
        )
        .unwrap()
    }

    #[test]
    fn repartition_preserves_order() {
        let d = df().repartition(3).unwrap();
        assert_eq!(d.num_partitions(), 3);
        let vals = d.column_values("v").unwrap();
        assert_eq!(vals, (0..10).map(Value::Int).collect::<Vec<_>>());
        assert!(df().repartition(0).is_err());
    }

    #[test]
    fn sort_desc_and_stability() {
        let d = df().sort_by(&["v"], &[false]).unwrap();
        assert_eq!(d.column_values("v").unwrap()[0], Value::Int(9));
        assert!(df().sort_by(&[], &[]).is_err());
    }

    #[test]
    fn union_appends_other_rows() {
        let d = df().repartition(3).unwrap();
        let u = d.union(&df()).unwrap();
        assert_eq!(u.num_rows(), 20);
        assert_eq!(u.num_partitions(), 4);
        let rows = u.collect_rows().unwrap();
        assert_eq!(rows[..10], rows[10..]);
    }

    #[test]
    fn union_schema_checked() {
        let other = DataFrame::from_rows(
            Schema::from_pairs([("t", DataType::Float), ("w", DataType::Int)])
                .unwrap()
                .into_shared(),
            vec![vec![Value::Float(0.0), Value::Int(0)]],
        )
        .unwrap();
        assert!(matches!(df().union(&other), Err(Error::SchemaMismatch(_))));
    }
}
