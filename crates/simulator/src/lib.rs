//! # ivnt-simulator — in-vehicle network and trace simulator
//!
//! The data substitute of the DAC'18 reproduction. The paper evaluates on
//! proprietary BMW fleet recordings (20 h of driving, 1.5 TB/day across 500
//! cars); this crate synthesizes traces with the same observable structure:
//!
//! * ECUs emitting **cyclic and event-driven messages** on CAN / LIN /
//!   SOME/IP channels ([`network`]),
//! * signal trajectories from realistic [`behavior`] models (sine sweeps,
//!   bounded random walks, dwelling state machines, counters),
//! * **gateways** re-transmitting messages across channels — the source of
//!   the duplicate signal instances Algorithm 1's dedup step exploits,
//! * **fault injection** ([`faults`]): cycle-time violations, outlier
//!   spikes, stuck signals, forced invalid labels,
//! * the recorded byte sequence `K_b` as a [`trace::Trace`] of the store's
//!   [`Record`] tuples (persisted as `.ivns` through [`store`]),
//! * [`scenario`] generators reproducing the *shape* of the paper's
//!   SYN / LIG / STA data sets (Table 5) and multi-journey workloads
//!   (Table 6), plus hand-modelled [`functions`] (wiper, lights,
//!   drivetrain, body, climate) for the qualitative examples.
//!
//! Everything is deterministic under a fixed seed.
//!
//! # Examples
//!
//! ```
//! use ivnt_simulator::scenario::{generate, DataSetSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = generate(&DataSetSpec::syn().with_duration_s(2.0))?;
//! assert_eq!(data.signal_classes.len(), 13); // Table 5: SYN has 13 signal types
//! assert!(!data.trace.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod adas;
pub mod behavior;
pub mod error;
pub mod faults;
pub mod functions;
pub mod network;
pub mod scenario;
pub mod stats;
pub mod store;
pub mod trace;

pub use behavior::{Behavior, BehaviorState};
pub use error::{Error, Result};
pub use faults::{Fault, FaultPlan};
pub use network::{GatewayRoute, NetworkModel, Sender};
pub use scenario::{generate, journeys, BranchHint, DataSetSpec, GeneratedDataSet};
pub use trace::{Record, Trace};

/// Convenient glob import of the simulator's common types.
pub mod prelude {
    pub use crate::behavior::Behavior;
    pub use crate::faults::{Fault, FaultPlan};
    pub use crate::network::{GatewayRoute, NetworkModel, Sender};
    pub use crate::scenario::{generate, journeys, BranchHint, DataSetSpec, GeneratedDataSet};
    pub use crate::trace::{Record, Trace};
}
