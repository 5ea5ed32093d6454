//! The unified mobility-data abstraction: a timeline of entries.

use trips_annotate::MobilitySemantics;
use trips_data::{RawRecord, Timestamp};
use trips_dsm::DigitalSpaceModel;
use trips_geom::IndoorPoint;

/// Which data sequence an entry came from (the legend's toggle unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceKind {
    /// Raw positioning records as ingested.
    Raw,
    /// Records after the Cleaning layer.
    Cleaned,
    /// The ground-truth trajectory (available for simulated data).
    GroundTruth,
    /// The mobility semantics sequence (observed or inferred).
    Semantics,
}

impl SourceKind {
    /// Display name used in the legend panel.
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::Raw => "raw",
            SourceKind::Cleaned => "cleaned",
            SourceKind::GroundTruth => "ground-truth",
            SourceKind::Semantics => "semantics",
        }
    }

    /// Render colour (SVG).
    pub fn color(self) -> &'static str {
        match self {
            SourceKind::Raw => "#d62728",
            SourceKind::Cleaned => "#1f77b4",
            SourceKind::GroundTruth => "#2ca02c",
            SourceKind::Semantics => "#9467bd",
        }
    }

    /// All source kinds in render order (background first).
    pub fn all() -> [SourceKind; 4] {
        [
            SourceKind::GroundTruth,
            SourceKind::Raw,
            SourceKind::Cleaned,
            SourceKind::Semantics,
        ]
    }
}

/// One timeline entry: "a display point and a time range" (paper §3).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Where this entry renders on the map view.
    pub display_point: IndoorPoint,
    /// The entry's coverage of the timeline.
    pub start: Timestamp,
    pub end: Timestamp,
    pub source: SourceKind,
    /// Tooltip text (the semantics triplet, or the record line).
    pub label: String,
}

impl Entry {
    /// Abstracts a positioning record: "its display point and time range are
    /// the location and timestamp in that record".
    pub fn from_record(r: &RawRecord, source: SourceKind) -> Entry {
        Entry {
            display_point: r.location,
            start: r.ts,
            end: r.ts,
            source,
            label: r.to_string(),
        }
    }

    /// Abstracts a ground-truth sample.
    pub fn from_truth(ts: Timestamp, p: IndoorPoint) -> Entry {
        Entry {
            display_point: p,
            start: ts,
            end: ts,
            source: SourceKind::GroundTruth,
            label: format!("truth {p} @ {ts}"),
        }
    }

    /// Abstracts a mobility semantics: "its display point is selected from
    /// the positioning location(s) in \[its\] corresponding raw record(s), and
    /// its time range uses the temporal annotation directly". Inferred
    /// semantics have no raw records; they display at the region anchor.
    pub fn from_semantics(s: &MobilitySemantics, dsm: &DigitalSpaceModel) -> Entry {
        let display_point = s.display_point.unwrap_or_else(|| {
            let (xy, floor) = dsm
                .region(s.region)
                .map(|r| (r.anchor(), r.floor))
                .unwrap_or((trips_geom::Point::origin(), 0));
            IndoorPoint { xy, floor }
        });
        Entry {
            display_point,
            start: s.start,
            end: s.end,
            source: SourceKind::Semantics,
            label: s.to_string(),
        }
    }

    /// Whether the entry's range covers instant `t` (closed interval).
    pub fn covers(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether the entry's range intersects `[from, to]`.
    pub fn overlaps(&self, from: Timestamp, to: Timestamp) -> bool {
        self.start <= to && self.end >= from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::DeviceId;
    use trips_dsm::builder::MallBuilder;

    #[test]
    fn record_entry_is_instantaneous() {
        let r = RawRecord::new(
            DeviceId::new("d"),
            1.0,
            2.0,
            3,
            Timestamp::from_millis(5000),
        );
        let e = Entry::from_record(&r, SourceKind::Raw);
        assert_eq!(e.start, e.end);
        assert_eq!(e.display_point, r.location);
        assert!(e.covers(r.ts));
        assert!(!e.covers(Timestamp::from_millis(5001)));
    }

    #[test]
    fn semantics_entry_uses_temporal_annotation() {
        let dsm = MallBuilder::new().shops_per_row(2).build();
        let region = dsm.regions().next().unwrap();
        let s = MobilitySemantics {
            device: DeviceId::new("d"),
            event: "stay".into(),
            region: region.id,
            region_name: region.name.as_str().into(),
            start: Timestamp::from_millis(0),
            end: Timestamp::from_millis(60_000),
            inferred: false,
            display_point: Some(IndoorPoint::new(3.0, 3.0, 0)),
        };
        let e = Entry::from_semantics(&s, &dsm);
        assert_eq!(e.start, s.start);
        assert_eq!(e.end, s.end);
        assert_eq!(e.display_point, IndoorPoint::new(3.0, 3.0, 0));
        assert!(e.covers(Timestamp::from_millis(30_000)));
        assert!(e.label.contains("stay"));
    }

    #[test]
    fn inferred_semantics_fall_back_to_region_anchor() {
        let dsm = MallBuilder::new().shops_per_row(2).build();
        let region = dsm.regions().next().unwrap();
        let s = MobilitySemantics {
            device: DeviceId::new("d"),
            event: "pass-by".into(),
            region: region.id,
            region_name: region.name.as_str().into(),
            start: Timestamp::from_millis(0),
            end: Timestamp::from_millis(1000),
            inferred: true,
            display_point: None,
        };
        let e = Entry::from_semantics(&s, &dsm);
        assert!(region.contains(e.display_point.xy), "anchor inside region");
        assert_eq!(e.display_point.floor, region.floor);
    }

    #[test]
    fn overlap_semantics() {
        let e = Entry {
            display_point: IndoorPoint::new(0.0, 0.0, 0),
            start: Timestamp::from_millis(100),
            end: Timestamp::from_millis(200),
            source: SourceKind::Cleaned,
            label: String::new(),
        };
        assert!(e.overlaps(Timestamp::from_millis(150), Timestamp::from_millis(300)));
        assert!(e.overlaps(Timestamp::from_millis(200), Timestamp::from_millis(300)));
        assert!(!e.overlaps(Timestamp::from_millis(201), Timestamp::from_millis(300)));
    }

    #[test]
    fn source_kind_metadata() {
        assert_eq!(SourceKind::Raw.name(), "raw");
        assert_eq!(SourceKind::all().len(), 4);
        // Colors distinct.
        let colors: std::collections::BTreeSet<&str> =
            SourceKind::all().iter().map(|s| s.color()).collect();
        assert_eq!(colors.len(), 4);
    }
}
