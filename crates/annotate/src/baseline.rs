//! Literature baselines the paper positions TRIPS against (§1).
//!
//! * [`StopMoveAnnotator`] — the two-pattern stop/move vocabulary of the
//!   semantic trajectory annotation platform (Yan et al., TIST 2013 — the
//!   paper's ref \[12\]): a device *stops* when it dwells inside one region
//!   long enough, and *moves* otherwise. No learning, no custom patterns.
//! * [`ThresholdClassifier`] — the parameter-only feature extraction of the
//!   trajectory-warehouse reconstruction manager (Marketos et al., MobiDE
//!   2008 — ref \[10\]): fixed thresholds on speed and spatial tolerance,
//!   "temporal and spatial gaps, maximum speed, maximum noise duration, and
//!   tolerance distance in a stop".
//!
//! Both map onto the snippet-classification interface so experiment F3b can
//! compare them to the learning-based identification model head-on.

use crate::features::FeatureVector;
use crate::model::Classifier;
use crate::semantics::MobilitySemantics;
use crate::spatial::region_runs;
use trips_data::{Duration, PositioningSequence};
use trips_dsm::DigitalSpaceModel;

/// SMoT-style stop/move annotation over semantic regions.
pub struct StopMoveAnnotator<'a> {
    dsm: &'a DigitalSpaceModel,
    /// Minimum dwell inside one region to count as a stop.
    pub min_stop: Duration,
}

impl<'a> StopMoveAnnotator<'a> {
    /// Creates the baseline annotator.
    pub fn new(dsm: &'a DigitalSpaceModel, min_stop: Duration) -> Self {
        StopMoveAnnotator { dsm, min_stop }
    }

    /// Produces stop/move semantics: one entry per region run, labelled
    /// `"stop"` when the run's dwell reaches `min_stop`, `"move"` otherwise.
    pub fn annotate(&self, seq: &PositioningSequence) -> Vec<MobilitySemantics> {
        let records = seq.records();
        region_runs(self.dsm, records)
            .into_iter()
            .map(|run| {
                let rr = &records[run.first..=run.last];
                let dwell = rr[rr.len() - 1].ts - rr[0].ts;
                let region = self.dsm.region(run.region).expect("region from dsm");
                MobilitySemantics {
                    device: seq.device().clone(),
                    event: if dwell >= self.min_stop {
                        "stop".into()
                    } else {
                        "move".into()
                    },
                    region: run.region,
                    region_name: region.name.as_str().into(),
                    start: rr[0].ts,
                    end: rr[rr.len() - 1].ts,
                    inferred: false,
                    display_point: Some(rr[rr.len() / 2].location),
                }
            })
            .collect()
    }
}

/// Threshold-based snippet classifier (no training): class 0 = stay/stop
/// when mean speed and covering range fall below fixed tolerances, class 1 =
/// pass-by/move otherwise.
#[derive(Debug, Clone)]
pub struct ThresholdClassifier {
    /// Maximum mean speed of a stop, m/s.
    pub max_stop_speed: f64,
    /// Tolerance distance in a stop (covering-range bound), metres.
    pub tolerance_distance: f64,
}

impl Default for ThresholdClassifier {
    fn default() -> Self {
        ThresholdClassifier {
            max_stop_speed: 0.3,
            tolerance_distance: 8.0,
        }
    }
}

impl Classifier for ThresholdClassifier {
    fn predict(&self, x: &[f64]) -> usize {
        // Feature layout per crate::features::FEATURE_NAMES:
        // [variance, distance, mean_speed, max_leg_speed, covering_range, ...]
        let mean_speed = x[2];
        let covering = x[4];
        if mean_speed <= self.max_stop_speed && covering <= self.tolerance_distance {
            0
        } else {
            1
        }
    }

    fn name(&self) -> &'static str {
        "threshold-baseline"
    }
}

impl ThresholdClassifier {
    /// Classifies a record slice directly (extracts features internally).
    pub fn classify_records(&self, records: &[trips_data::RawRecord]) -> usize {
        self.predict(FeatureVector::extract(records).values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::{DeviceId, RawRecord, Timestamp};
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

    #[test]
    fn stop_move_finds_stop_in_shop() {
        let dsm = mall();
        let b = StopMoveAnnotator::new(&dsm, Duration::from_secs(90));
        // 2 min dwell in the first shop, then a quick hallway crossing.
        let mut recs: Vec<RawRecord> = (0..18).map(|i| rec(5.0, 4.0, i * 7)).collect();
        recs.push(rec(5.0, 11.0, 18 * 7));
        recs.push(rec(15.0, 11.0, 19 * 7));
        let seq = PositioningSequence::from_records(DeviceId::new("d"), recs);
        let sems = b.annotate(&seq);
        assert_eq!(sems.len(), 2, "{sems:#?}");
        assert_eq!(sems[0].event, "stop");
        assert_eq!(sems[1].event, "move");
        assert!(sems[1].region_name.starts_with("Center Hall"));
    }

    #[test]
    fn stop_move_vocabulary_is_fixed() {
        let dsm = mall();
        let b = StopMoveAnnotator::new(&dsm, Duration::from_secs(60));
        let recs: Vec<RawRecord> = (0..40).map(|i| rec(5.0 + i as f64, 11.0, i * 7)).collect();
        let seq = PositioningSequence::from_records(DeviceId::new("d"), recs);
        for s in b.annotate(&seq) {
            assert!(s.event == "stop" || s.event == "move");
        }
    }

    #[test]
    fn threshold_classifier_on_synthetic_features() {
        let c = ThresholdClassifier::default();
        // Tight dwell.
        let stay: Vec<RawRecord> = (0..20).map(|i| rec(5.0, 4.0, i * 7)).collect();
        assert_eq!(c.classify_records(&stay), 0);
        // Brisk walk.
        let walk: Vec<RawRecord> = (0..20)
            .map(|i| rec(1.4 * 7.0 * i as f64, 0.0, i * 7))
            .collect();
        assert_eq!(c.classify_records(&walk), 1);
    }

    #[test]
    fn threshold_classifier_fooled_by_slow_wander() {
        // A slow but wide wander: a human browsing a large store. Mean speed
        // is below the stop threshold but covering range exceeds tolerance —
        // the fixed-threshold method calls it a move; this is exactly the
        // kind of case the learning-based model handles better (experiment
        // F3b quantifies the gap).
        let c = ThresholdClassifier::default();
        let recs: Vec<RawRecord> = (0..40)
            .map(|i| rec((i as f64 * 0.9) % 12.0, (i as f64 * 0.35) % 9.0, i * 30))
            .collect();
        let f = FeatureVector::extract(&recs);
        assert!(f.values()[2] < 0.3, "slow: {}", f.values()[2]);
        assert_eq!(c.predict(f.values()), 1, "wide range forces 'move'");
    }

    #[test]
    fn baseline_name() {
        assert_eq!(ThresholdClassifier::default().name(), "threshold-baseline");
    }
}
