//! The mobility-semantics triplet — TRIPS's output representation.
//!
//! A semantics names its event and its region with [`Name`] handles, not
//! `String`s. A `Name` is a `Copy` pointer into a process-wide, append-only
//! table that holds each distinct string once. Building, cloning and
//! comparing a semantics therefore never touches a string. The handle
//! prints, serializes and deserializes exactly as the `String` did, so the
//! export JSON, the wire and journal bytes and the `Debug` form are
//! unchanged.
//!
//! Strings are interned once per distinct value, never per semantics:
//! - the Annotator interns its model's labels and the DSM's region names
//!   when it is built, and the Complementor its two inferred labels and
//!   the region names;
//! - the store's per-shard tables hold handles, so answers copy them, and
//!   WAL replay and snapshot load intern a name only when a shard first
//!   sees it;
//! - decoding a semantics from the wire or from JSON interns its two names.
//!
//! Entries are never freed, which keeps a handle valid for the process's
//! life. The table is bounded by the vocabularies names come from: the
//! DSM's regions, the event model's labels, and what a journal or an
//! answer carries, which those produced.

use serde::{Deserialize, Serialize};
use std::fmt;
use trips_data::{DeviceId, Duration, Name, Timestamp};
use trips_dsm::{DigitalSpaceModel, RegionId, RegionIndex};
use trips_geom::IndoorPoint;

/// One mobility semantics: an event annotation, a spatial annotation and a
/// temporal annotation (paper Table 1, right column):
///
/// ```text
/// (stay, Adidas, 1:02:05-1:18:15pm)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilitySemantics {
    pub device: DeviceId,
    /// Event annotation: the matched mobility-event pattern name
    /// (user-defined in the Event Editor; `"stay"` / `"pass-by"` by default).
    pub event: Name,
    /// Spatial annotation: the matched semantic region.
    pub region: RegionId,
    pub region_name: Name,
    /// Temporal annotation.
    pub start: Timestamp,
    pub end: Timestamp,
    /// `true` when produced by the Complementing layer rather than observed.
    pub inferred: bool,
    /// The display point the Viewer renders this entry at (selected from the
    /// covered raw records; `None` for inferred semantics, which display at
    /// the region anchor).
    pub display_point: Option<IndoorPoint>,
}

/// A DSM's region names as interned handles, built once per layer so that
/// annotating a region copies a handle instead of cloning its name.
#[derive(Debug, Clone)]
pub struct RegionNames {
    index: RegionIndex,
    /// Aligned with `index` positions (the DSM's region order).
    names: Vec<Name>,
}

impl RegionNames {
    /// Interns every region name of `dsm`.
    pub fn new(dsm: &DigitalSpaceModel) -> Self {
        RegionNames {
            index: dsm.region_index().clone(),
            names: dsm.regions().map(|r| Name::new(&r.name)).collect(),
        }
    }

    /// The name of region `id`, if the DSM has it.
    #[inline]
    pub fn get(&self, id: RegionId) -> Option<Name> {
        self.index.get(id).map(|at| self.names[at])
    }
}

impl MobilitySemantics {
    /// Duration of the temporal annotation.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// Whether this semantics temporally overlaps `[from, to]`.
    pub fn overlaps(&self, from: Timestamp, to: Timestamp) -> bool {
        self.start <= to && self.end >= from
    }

    /// Renders the paper's triplet form: `(event, Region, start-end)`.
    pub fn triplet(&self) -> String {
        format!(
            "({}, {}, {}-{})",
            self.event, self.region_name, self.start, self.end
        )
    }
}

impl fmt::Display for MobilitySemantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.triplet(),
            if self.inferred { " [inferred]" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sem() -> MobilitySemantics {
        MobilitySemantics {
            device: DeviceId::new("oi"),
            event: "stay".into(),
            region: RegionId(3),
            region_name: "Adidas".into(),
            start: Timestamp::from_dhms(0, 13, 2, 5),
            end: Timestamp::from_dhms(0, 13, 18, 15),
            inferred: false,
            display_point: None,
        }
    }

    #[test]
    fn triplet_form_matches_table1() {
        assert_eq!(sem().triplet(), "(stay, Adidas, d0 13:02:05-d0 13:18:15)");
    }

    #[test]
    fn duration_and_overlap() {
        let s = sem();
        assert_eq!(
            s.duration(),
            Duration::from_mins(16) + Duration::from_secs(10)
        );
        assert!(s.overlaps(
            Timestamp::from_dhms(0, 13, 10, 0),
            Timestamp::from_dhms(0, 14, 0, 0)
        ));
        assert!(!s.overlaps(
            Timestamp::from_dhms(0, 14, 0, 0),
            Timestamp::from_dhms(0, 15, 0, 0)
        ));
        // Boundary touch counts.
        assert!(s.overlaps(s.end, s.end + Duration::from_secs(1)));
    }

    #[test]
    fn inferred_marker_in_display() {
        let mut s = sem();
        assert!(!s.to_string().contains("[inferred]"));
        s.inferred = true;
        assert!(s.to_string().contains("[inferred]"));
    }
}
