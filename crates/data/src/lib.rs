//! Indoor positioning data model and the Data Selector.
//!
//! This crate owns the *raw* side of TRIPS: positioning records as emitted by
//! an indoor positioning system (`object, (x, y, floor), timestamp` — Table 1
//! of the paper), per-device sequences, readers/writers for the multi-source
//! ingestion the Configurator supports (text files, tables, stream APIs), and
//! the rule-based [`selector`] that picks the sequences of interest.

#![forbid(unsafe_code)]

pub mod io;
pub mod selector;

mod name;
mod record;
mod sequence;
mod timestamp;

pub use name::Name;
pub use record::{DeviceId, RawRecord};
pub use selector::{glob_match, Quantifier, RuleExpr, SelectionRule, Selector};
pub use sequence::{PositioningSequence, SequenceStats};
pub use timestamp::{Duration, Timestamp};
