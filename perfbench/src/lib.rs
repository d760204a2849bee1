//! End-to-end and per-layer benchmark of the ivnt workspace.
//!
//! One binary (`src/main.rs`) runs one closed-loop workload per call: a
//! single client in one process that waits for each result before it
//! sends the next request. Every operation's output is checked against a
//! reference computed at set-up by a retained oracle. With `--trace 1`
//! the same operations are re-executed by composing the public layer
//! calls in pipeline order, timed from here, to break the end-to-end
//! numbers down per layer. See `README.md` for the workloads and metrics.

pub mod args;
pub mod compose;
pub mod data;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod record;
pub mod spans;
pub mod workloads;

/// Error type of every fallible benchmark step.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Result alias over [`Error`].
pub type Result<T> = std::result::Result<T, Error>;
