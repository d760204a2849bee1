//! # ivnt-frame — embedded columnar DataFrame engine
//!
//! A small, partition-parallel relational engine standing in for Apache
//! Spark in the DAC'18 reproduction *"Automated Interpretation and Reduction
//! of In-Vehicle Network Traces at a Large Scale"*. The paper's Algorithm 1
//! is written in relational algebra (selection σ, join ⋈, row-wise map `F`,
//! union ∪) over horizontally partitioned tables; this crate provides
//! exactly those operators:
//!
//! * [`DataFrame`] — immutable, horizontally partitioned
//!   table of typed [`Column`]s,
//! * hash [`join`](frame::DataFrame::join), stable
//!   [`sort_by`](frame::DataFrame::sort_by), bag
//!   [`union`](frame::DataFrame::union) and order-preserving
//!   [`repartition`](frame::DataFrame::repartition),
//! * an [`Executor`] that runs row-wise operators on all
//!   partitions in parallel with deterministic output order.
//!
//! Selection σ and the row map `F` run directly on typed column slices
//! ([`Batch::filter`] with a boolean mask, [`Batch::replace_column`]), so
//! the engine carries no expression language of its own.
//!
//! # Examples
//!
//! ```
//! use ivnt_frame::prelude::*;
//!
//! # fn main() -> ivnt_frame::Result<()> {
//! let schema = Schema::from_pairs([
//!     ("t", DataType::Float),
//!     ("m_id", DataType::Int),
//!     ("b_id", DataType::Str),
//! ])?
//! .into_shared();
//! let trace = DataFrame::from_rows(
//!     schema,
//!     vec![
//!         vec![Value::Float(2.0), Value::Int(3), Value::from("FC")],
//!         vec![Value::Float(2.5), Value::Int(3), Value::from("FC")],
//!         vec![Value::Float(2.6), Value::Int(11), Value::from("K-LIN")],
//!     ],
//! )?
//! .repartition(2)?;
//!
//! // Preselection: keep only messages relevant to the wiper domain.
//! let pre: Vec<Batch> = trace
//!     .partitions()
//!     .iter()
//!     .map(|b| {
//!         let m_id = b.column(1).as_int_slice().expect("int column");
//!         let b_id = b.column(2).as_str_slice().expect("str column");
//!         let mask: Vec<bool> = m_id
//!             .iter()
//!             .zip(b_id)
//!             .map(|(m, bus)| *m == Some(3) && bus.as_deref() == Some("FC"))
//!             .collect();
//!         b.filter(&mask)
//!     })
//!     .collect::<ivnt_frame::Result<_>>()?;
//! let pre = DataFrame::from_partitions(trace.schema().clone(), pre)?;
//! assert_eq!(pre.num_rows(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod column;
pub mod csv;
pub mod datatype;
pub mod error;
pub mod exec;
pub mod frame;
pub mod join;
pub mod value;

pub use batch::Batch;
pub use column::Column;
pub use datatype::{DataType, Field, Schema};
pub use error::{Error, Result};
pub use exec::Executor;
pub use frame::DataFrame;
pub use value::Value;

/// Convenient glob import of the engine's common types.
pub mod prelude {
    pub use crate::batch::Batch;
    pub use crate::column::Column;
    pub use crate::datatype::{DataType, Field, Schema};
    pub use crate::exec::Executor;
    pub use crate::frame::DataFrame;
    pub use crate::value::Value;
}
