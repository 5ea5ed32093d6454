//! The Mobility Semantics Annotator (paper §2, Translator module 2): reads a
//! cleaned sequence and "extracts a sequence of mobility semantics by
//! matching proper annotations according to the relevant contexts".

use crate::features::FeatureVector;
use crate::model::{Classifier, EventModel};
use crate::semantics::{MobilitySemantics, RegionNames};
use crate::spatial::{dominant_region, region_runs};
use crate::split::{split, SnippetKind, SplitConfig};
use trips_data::{Duration, Name, PositioningSequence, RawRecord};
use trips_dsm::DigitalSpaceModel;
use trips_geom::{algorithms, IndoorPoint};

/// How a semantics entry's display point is selected from its covered raw
/// records (paper footnote 1: "the temporally middle or the spatially
/// central positioning location according to the user configuration").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisplayPointPolicy {
    /// The record at the temporal middle of the covered range.
    #[default]
    TemporalMiddle,
    /// The medoid of the covered locations.
    SpatialCenter,
}

/// Annotator configuration.
#[derive(Debug, Clone, Default)]
pub struct AnnotatorConfig {
    pub split: SplitConfig,
    pub display_point: DisplayPointPolicy,
    /// Adjacent semantics with the same event and region merge when the gap
    /// between them is at most this.
    pub merge_gap: Duration,
}

impl AnnotatorConfig {
    /// Defaults with a 15 s merge gap.
    pub fn standard() -> Self {
        AnnotatorConfig {
            split: SplitConfig::default(),
            display_point: DisplayPointPolicy::TemporalMiddle,
            merge_gap: Duration::from_secs(15),
        }
    }
}

/// The Annotator: owns the trained event model and its label vocabulary.
///
/// The labels and the DSM's region names are interned once, here, so each
/// semantics the Annotator builds copies two [`Name`] handles.
pub struct Annotator<'a> {
    dsm: &'a DigitalSpaceModel,
    model: EventModel,
    labels: Vec<String>,
    /// `labels`, interned.
    label_names: Vec<Name>,
    region_names: RegionNames,
    config: AnnotatorConfig,
}

impl<'a> Annotator<'a> {
    /// Creates an annotator.
    ///
    /// # Panics
    /// Panics if `labels` is empty (the model must map to pattern names).
    pub fn new(
        dsm: &'a DigitalSpaceModel,
        model: EventModel,
        labels: Vec<String>,
        config: AnnotatorConfig,
    ) -> Self {
        assert!(!labels.is_empty(), "label vocabulary must not be empty");
        Annotator {
            dsm,
            model,
            label_names: labels.iter().map(Name::from).collect(),
            labels,
            region_names: RegionNames::new(dsm),
            config,
        }
    }

    /// The label vocabulary.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The model in use (diagnostics / benches).
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    fn event_label(&self, records: &[RawRecord]) -> Name {
        let f = FeatureVector::extract(records);
        let idx = self.model.predict(f.values()).min(self.labels.len() - 1);
        self.label_names[idx]
    }

    fn region_name(&self, region: trips_dsm::RegionId) -> Name {
        self.region_names.get(region).expect("region from dsm")
    }

    fn display_point(&self, records: &[RawRecord]) -> Option<IndoorPoint> {
        if records.is_empty() {
            return None;
        }
        match self.config.display_point {
            DisplayPointPolicy::TemporalMiddle => Some(records[records.len() / 2].location),
            DisplayPointPolicy::SpatialCenter => {
                let pts: Vec<_> = records.iter().map(|r| r.location.xy).collect();
                let m = algorithms::medoid(&pts)?;
                records
                    .iter()
                    .find(|r| r.location.xy == m)
                    .map(|r| r.location)
            }
        }
    }

    /// Annotates one cleaned sequence into its original (pre-complementing)
    /// mobility semantics sequence.
    pub fn annotate(&self, seq: &PositioningSequence) -> Vec<MobilitySemantics> {
        let mut out: Vec<MobilitySemantics> = Vec::new();
        let snippets = split(seq, &self.config.split);
        for snippet in &snippets {
            let records = snippet.records(seq);
            match snippet.kind {
                SnippetKind::Dense => {
                    // One semantics for the whole dwell, in its dominant region.
                    let Some(region_id) = dominant_region(self.dsm, records) else {
                        continue;
                    };
                    out.push(MobilitySemantics {
                        device: seq.device().clone(),
                        event: self.event_label(records),
                        region: region_id,
                        region_name: self.region_name(region_id),
                        start: records[0].ts,
                        end: records[records.len() - 1].ts,
                        inferred: false,
                        display_point: self.display_point(records),
                    });
                }
                SnippetKind::Transit => {
                    // One semantics per region traversed.
                    for run in region_runs(self.dsm, records) {
                        let run_records = &records[run.first..=run.last];
                        out.push(MobilitySemantics {
                            device: seq.device().clone(),
                            event: self.event_label(run_records),
                            region: run.region,
                            region_name: self.region_name(run.region),
                            start: run_records[0].ts,
                            end: run_records[run_records.len() - 1].ts,
                            inferred: false,
                            display_point: self.display_point(run_records),
                        });
                    }
                }
            }
        }
        out.sort_by_key(|s| s.start);
        self.merge_adjacent(&mut out);
        out
    }

    /// Merges adjacent same-event same-region semantics separated by at most
    /// `merge_gap` (splitting artefacts at snippet boundaries), in place.
    fn merge_adjacent(&self, sems: &mut Vec<MobilitySemantics>) {
        sems.dedup_by(|s, prev| {
            let merge = prev.region == s.region
                && prev.event == s.event
                && s.start - prev.end <= self.config.merge_gap;
            if merge {
                prev.end = prev.end.max(s.end);
            }
            merge
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::editor::EventEditor;
    use trips_data::{DeviceId, Timestamp};
    use trips_dsm::builder::MallBuilder;

    fn rec(x: f64, y: f64, secs: i64) -> RawRecord {
        RawRecord::new(
            DeviceId::new("d"),
            x,
            y,
            0,
            Timestamp::from_millis(secs * 1000),
        )
    }

    fn mall() -> DigitalSpaceModel {
        MallBuilder::new()
            .shops_per_row(4)
            .with_cashiers(false)
            .build()
    }

    fn trained_editor() -> EventEditor {
        let mut e = EventEditor::with_default_patterns();
        for k in 0..10usize {
            // Stays: tight dwells, ~7 s sampling.
            let stay: Vec<RawRecord> = (0..(12 + k))
                .map(|i| rec(5.0 + 0.1 * (i % 3) as f64, 4.0, (i as i64) * 7))
                .collect();
            e.designate_segment("stay", &stay).unwrap();
            // Pass-bys: steady 1.3 m/s walks.
            let walk: Vec<RawRecord> = (0..(4 + k))
                .map(|i| rec(10.0 + 9.0 * i as f64, 11.0, (i as i64) * 7))
                .collect();
            e.designate_segment("pass-by", &walk).unwrap();
        }
        e
    }

    fn annotator(dsm: &DigitalSpaceModel) -> Annotator<'_> {
        let (model, labels) = trained_editor().train_default_model().unwrap();
        Annotator::new(dsm, model, labels, AnnotatorConfig::standard())
    }

    /// Shopper: dwell in south shop 1, walk the hallway, dwell in south
    /// shop 3.
    fn shopping_trip() -> PositioningSequence {
        let mut recs = Vec::new();
        let mut t = 0i64;
        for i in 0..20 {
            recs.push(rec(5.0 + 0.1 * (i % 3) as f64, 4.0, t));
            t += 7;
        }
        // Exit shop 1 (door at (5, 8)), walk hallway to (25, 11), enter shop 3.
        for (x, y) in [
            (5.0, 8.0),
            (5.0, 11.0),
            (12.0, 11.0),
            (19.0, 11.0),
            (25.0, 11.0),
            (25.0, 8.0),
        ] {
            recs.push(rec(x, y, t));
            t += 7;
        }
        for i in 0..20 {
            recs.push(rec(25.0 + 0.1 * (i % 3) as f64, 4.0, t));
            t += 7;
        }
        PositioningSequence::from_records(DeviceId::new("d"), recs)
    }

    #[test]
    fn annotates_stay_hall_stay() {
        let dsm = mall();
        let a = annotator(&dsm);
        let sems = a.annotate(&shopping_trip());
        assert!(sems.len() >= 3, "semantics: {sems:#?}");
        // First and last semantics are stays in shops.
        let first = &sems[0];
        assert_eq!(first.event, "stay");
        assert!(!first.region_name.starts_with("Center Hall"));
        let last = sems.last().unwrap();
        assert_eq!(last.event, "stay");
        // Some middle semantics covers the hallway.
        assert!(
            sems.iter()
                .any(|s| s.region_name.starts_with("Center Hall")),
            "hall traversal annotated: {sems:#?}"
        );
        // Chronological order.
        for w in sems.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn semantics_are_concise() {
        let dsm = mall();
        let a = annotator(&dsm);
        let seq = shopping_trip();
        let sems = a.annotate(&seq);
        assert!(
            sems.len() * 5 < seq.len(),
            "{} semantics for {} records — not concise",
            sems.len(),
            seq.len()
        );
    }

    #[test]
    fn display_points_come_from_records() {
        let dsm = mall();
        let a = annotator(&dsm);
        let seq = shopping_trip();
        let sems = a.annotate(&seq);
        for s in &sems {
            let dp = s
                .display_point
                .expect("observed semantics have display points");
            assert!(
                seq.records().iter().any(|r| r.location == dp),
                "display point must be a raw location"
            );
        }
    }

    #[test]
    fn spatial_center_policy() {
        let dsm = mall();
        let (model, labels) = trained_editor().train_default_model().unwrap();
        let a = Annotator::new(
            &dsm,
            model,
            labels,
            AnnotatorConfig {
                display_point: DisplayPointPolicy::SpatialCenter,
                ..AnnotatorConfig::standard()
            },
        );
        let sems = a.annotate(&shopping_trip());
        assert!(!sems.is_empty());
        for s in &sems {
            assert!(s.display_point.is_some());
        }
    }

    #[test]
    fn empty_sequence_no_semantics() {
        let dsm = mall();
        let a = annotator(&dsm);
        let sems = a.annotate(&PositioningSequence::new(DeviceId::new("d")));
        assert!(sems.is_empty());
    }

    #[test]
    fn outside_building_records_yield_nothing() {
        let dsm = mall();
        let a = annotator(&dsm);
        let recs: Vec<RawRecord> = (0..30).map(|i| rec(-500.0, -500.0, i * 7)).collect();
        let seq = PositioningSequence::from_records(DeviceId::new("d"), recs);
        assert!(a.annotate(&seq).is_empty());
    }

    #[test]
    fn merge_collapses_fragments() {
        let dsm = mall();
        let a = annotator(&dsm);
        // A long dwell should produce exactly one stay, not several.
        let recs: Vec<RawRecord> = (0..60)
            .map(|i| rec(5.0 + 0.1 * (i % 4) as f64, 4.0, i * 7))
            .collect();
        let seq = PositioningSequence::from_records(DeviceId::new("d"), recs);
        let sems = a.annotate(&seq);
        assert_eq!(sems.len(), 1, "single dwell: {sems:#?}");
        assert_eq!(sems[0].event, "stay");
    }

    #[test]
    fn temporal_annotations_nest_in_sequence_span() {
        let dsm = mall();
        let a = annotator(&dsm);
        let seq = shopping_trip();
        let sems = a.annotate(&seq);
        let start = seq.start().unwrap();
        let end = seq.end().unwrap();
        for s in &sems {
            assert!(s.start >= start && s.end <= end);
            assert!(s.start <= s.end);
        }
    }
}
