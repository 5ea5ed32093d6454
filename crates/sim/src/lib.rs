//! Synthetic indoor positioning workloads.
//!
//! The paper demonstrates TRIPS on "a dataset obtained from a Wi-Fi based
//! positioning system in a 7-floor shopping mall in Hangzhou, China from
//! 2017-01-01 to 2017-01-07" (§4). That dataset is proprietary, so this crate
//! generates the closest synthetic equivalent (see DESIGN.md §2):
//!
//! 1. [`mobility`] — shopper agents walk itineraries over a mall DSM
//!    (ground-truth trajectories *and* ground-truth mobility semantics, which
//!    the real dataset does not even have);
//! 2. [`error`] — a Wi-Fi error model (Gaussian planar noise, floor
//!    misreads, outlier bursts, irregular sampling, record drops) degrades
//!    ground truth into realistic raw positioning records;
//! 3. [`scenario`] — end-to-end dataset assembly: N devices over D days in a
//!    multi-floor mall, anonymized MAC-style device ids.

#![forbid(unsafe_code)]

pub mod error;
pub mod mobility;
pub mod rng;
pub mod scenario;

pub use error::ErrorModel;
pub use mobility::{AgentProfile, TrueVisit, VisitKind};
pub use scenario::{CampusBuilding, CampusDataset, DeviceTrace, ScenarioConfig, SimulatedDataset};
