//! Error type for the frame engine.

use std::fmt;

/// Result alias used throughout [`ivnt_frame`](crate).
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by DataFrame operations.
///
/// All relational operators validate their inputs eagerly (schema and column
/// lookups, type compatibility, row-length invariants) and report failures
/// through this type rather than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A referenced column does not exist in the schema.
    ColumnNotFound(String),
    /// A column with this name already exists where a fresh name was required.
    DuplicateColumn(String),
    /// An operation received a value or column of an unexpected data type.
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it actually got.
        actual: String,
    },
    /// Two inputs that must have equal row counts did not.
    LengthMismatch {
        /// Row count of the left/first input.
        left: usize,
        /// Row count of the right/second input.
        right: usize,
    },
    /// Two inputs that must share a schema did not.
    SchemaMismatch(String),
    /// A malformed argument (empty key list, zero partitions, ...).
    InvalidArgument(String),
    /// A value could not be read or written (malformed CSV cell, I/O failure, ...).
    Eval(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            Error::DuplicateColumn(name) => write!(f, "duplicate column: {name}"),
            Error::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, got {actual}")
            }
            Error::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            Error::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::Eval(msg) => write!(f, "evaluation error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::ColumnNotFound("wpos".into());
        assert_eq!(e.to_string(), "column not found: wpos");
        let e = Error::LengthMismatch { left: 3, right: 4 };
        assert_eq!(e.to_string(), "length mismatch: 3 vs 4");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
