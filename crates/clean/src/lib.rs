//! The Cleaning layer of the three-layer translation framework (paper §3).
//!
//! Raw indoor positioning data carries characteristic errors: planar noise,
//! outlier jumps, floor misreads, and gaps. The Cleaning layer "identifies
//! and repairs the distinct raw data errors" by checking the *indoor speed
//! constraint* — people cannot move faster than a walking-speed bound along
//! the **minimum indoor walking distance** between consecutive records
//! (Yang et al., paper ref \[13\]). An invalid record is repaired in two
//! steps:
//!
//! 1. **floor value correction** — fix an erroneous floor attribute;
//! 2. **location interpolation** — if the violation persists, re-derive the
//!    location from the walking path between the surrounding valid records
//!    using the DSM's geometry and topology.
//!
//! The entry point is [`Cleaner`]; its [`Cleaner::clean`] returns both the
//! cleaned sequence and a per-record audit trail ([`RepairKind`]) that the
//! Viewer uses to display raw vs cleaned data side by side.
//!
//! Each check is exact but cheap, and every per-record geometry query is a
//! table read:
//!
//! * `clean` anchors every record on the walking graph once (again only
//!   when a repair moves it). The anchor is a raster read for most fixes;
//!   a fix outside every walkable area takes a nearest-area search that
//!   measures only areas whose bounding box could beat the best so far.
//!   The anchor carries its area's dense slot, which indexes the area's
//!   graph nodes and polygon with no map lookup.
//! * [`SpeedChecker`] decides cross-area pairs with
//!   `trips_dsm::PathQuery::within` — a lookup in the DSM's shared
//!   node-to-node distance table that defers to the Dijkstra search only
//!   when the implied speed is within a few ulps of the limit.
//! * Interpolation asks `trips_dsm::PathQuery::point_at_fraction` for the
//!   one point it needs; a route read from the node tables yields it
//!   without building the path.
//!
//! `clean` copies no input record up front: it keeps each record's place,
//! time and anchor, and clones only the kept records into the output, which
//! is already in time order. Every speed-check decision is the one the
//! Dijkstra search gives. An interpolated location lies on a shortest walk
//! as the node tables order them: where two walks tie, it may lie on
//! another one than the search's.

mod cleaner;
mod speed;

pub use cleaner::{
    CleanedSequence, Cleaner, CleanerConfig, CleaningAudit, CleaningReport, RepairKind,
};
pub use speed::{SpeedChecker, SpeedViolation};
