//! Translation-quality assessment against ground truth.
//!
//! The paper's third challenge: "the translation result needs to be assessed
//! properly". The real deployment can only eyeball raw-vs-semantics in the
//! Viewer; the simulator gives us real ground truth (true visits), so this
//! module computes quantitative quality — the numbers behind experiments
//! F3a–F3c and F5.

use trips_annotate::MobilitySemantics;
use trips_data::{Duration, Timestamp};
use trips_sim::TrueVisit;

/// Quality of one device's translated semantics vs its true visits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssessmentReport {
    /// Fraction of true visit time where the predicted region matches.
    pub region_time_accuracy: f64,
    /// Fraction of true visit time covered by *any* semantics entry.
    pub coverage: f64,
    /// Among overlapping (semantics, visit) pairs with matching region,
    /// fraction whose event annotation also matches.
    pub event_accuracy: f64,
    /// Total true visit duration assessed.
    pub truth_duration: Duration,
    /// Number of semantics entries assessed.
    pub semantics_count: usize,
    /// Number of true visits assessed.
    pub visit_count: usize,
}

fn overlap(a0: Timestamp, a1: Timestamp, b0: Timestamp, b1: Timestamp) -> Duration {
    let start = a0.max(b0);
    let end = a1.min(b1);
    if end > start {
        end - start
    } else {
        Duration::ZERO
    }
}

/// Assesses one device's semantics against its ground-truth visits.
pub fn assess(semantics: &[MobilitySemantics], truth: &[TrueVisit]) -> AssessmentReport {
    let mut report = AssessmentReport {
        semantics_count: semantics.len(),
        visit_count: truth.len(),
        ..AssessmentReport::default()
    };
    if truth.is_empty() {
        return report;
    }

    let total_ms: i64 = truth.iter().map(|v| v.duration().as_millis()).sum();
    report.truth_duration = Duration(total_ms);
    if total_ms == 0 {
        return report;
    }

    let mut matched_ms = 0i64;
    let mut covered_ms = 0i64;
    let mut event_pairs = 0usize;
    let mut event_hits = 0usize;

    for visit in truth {
        // Coverage: union of semantics overlaps. Semantics are
        // non-overlapping in time, so summing is exact.
        for s in semantics {
            let ov = overlap(visit.start, visit.end, s.start, s.end);
            if ov == Duration::ZERO {
                continue;
            }
            covered_ms += ov.as_millis();
            if s.region == visit.region {
                matched_ms += ov.as_millis();
                // Event agreement judged on substantial overlaps only
                // (≥ 50 % of the shorter interval), where the comparison is
                // meaningful.
                let shorter = visit
                    .duration()
                    .as_millis()
                    .min(s.duration().as_millis())
                    .max(1);
                if ov.as_millis() * 2 >= shorter {
                    event_pairs += 1;
                    if s.event == visit.kind.name() {
                        event_hits += 1;
                    }
                }
            }
        }
    }

    report.region_time_accuracy = matched_ms as f64 / total_ms as f64;
    report.coverage = (covered_ms as f64 / total_ms as f64).min(1.0);
    report.event_accuracy = if event_pairs == 0 {
        0.0
    } else {
        event_hits as f64 / event_pairs as f64
    };
    report
}

/// Aggregates per-device reports into a macro average (weighted by truth
/// duration).
pub fn aggregate(reports: &[AssessmentReport]) -> AssessmentReport {
    let total_ms: i64 = reports.iter().map(|r| r.truth_duration.as_millis()).sum();
    if total_ms == 0 {
        return AssessmentReport::default();
    }
    let w = |f: fn(&AssessmentReport) -> f64| {
        reports
            .iter()
            .map(|r| f(r) * r.truth_duration.as_millis() as f64)
            .sum::<f64>()
            / total_ms as f64
    };
    AssessmentReport {
        region_time_accuracy: w(|r| r.region_time_accuracy),
        coverage: w(|r| r.coverage),
        event_accuracy: w(|r| r.event_accuracy),
        truth_duration: Duration(total_ms),
        semantics_count: reports.iter().map(|r| r.semantics_count).sum(),
        visit_count: reports.iter().map(|r| r.visit_count).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::DeviceId;
    use trips_dsm::RegionId;
    use trips_sim::VisitKind;

    fn sem(region: u32, event: &str, start_s: i64, end_s: i64) -> MobilitySemantics {
        MobilitySemantics {
            device: DeviceId::new("d"),
            event: event.into(),
            region: RegionId(region),
            region_name: format!("r{region}").into(),
            start: Timestamp::from_millis(start_s * 1000),
            end: Timestamp::from_millis(end_s * 1000),
            inferred: false,
            display_point: None,
        }
    }

    fn visit(region: u32, kind: VisitKind, start_s: i64, end_s: i64) -> TrueVisit {
        TrueVisit {
            region: RegionId(region),
            region_name: format!("r{region}"),
            kind,
            start: Timestamp::from_millis(start_s * 1000),
            end: Timestamp::from_millis(end_s * 1000),
        }
    }

    #[test]
    fn perfect_translation_scores_one() {
        let truth = vec![
            visit(1, VisitKind::Stay, 0, 200),
            visit(2, VisitKind::PassBy, 200, 230),
        ];
        let sems = vec![sem(1, "stay", 0, 200), sem(2, "pass-by", 200, 230)];
        let r = assess(&sems, &truth);
        assert!((r.region_time_accuracy - 1.0).abs() < 1e-9);
        assert!((r.coverage - 1.0).abs() < 1e-9);
        assert!((r.event_accuracy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_region_halves_accuracy() {
        let truth = vec![
            visit(1, VisitKind::Stay, 0, 100),
            visit(2, VisitKind::Stay, 100, 200),
        ];
        // Second semantics points at the wrong region.
        let sems = vec![sem(1, "stay", 0, 100), sem(9, "stay", 100, 200)];
        let r = assess(&sems, &truth);
        assert!((r.region_time_accuracy - 0.5).abs() < 1e-9);
        assert!((r.coverage - 1.0).abs() < 1e-9, "time still covered");
    }

    #[test]
    fn wrong_event_detected() {
        let truth = vec![visit(1, VisitKind::Stay, 0, 100)];
        let sems = vec![sem(1, "pass-by", 0, 100)];
        let r = assess(&sems, &truth);
        assert!((r.region_time_accuracy - 1.0).abs() < 1e-9);
        assert_eq!(r.event_accuracy, 0.0);
    }

    #[test]
    fn gaps_reduce_coverage() {
        let truth = vec![visit(1, VisitKind::Stay, 0, 100)];
        let sems = vec![sem(1, "stay", 0, 40)];
        let r = assess(&sems, &truth);
        assert!((r.coverage - 0.4).abs() < 1e-9);
        assert!((r.region_time_accuracy - 0.4).abs() < 1e-9);
    }

    #[test]
    fn tiny_overlaps_do_not_judge_events() {
        let truth = vec![visit(1, VisitKind::Stay, 0, 1000)];
        // 10 s sliver of a 1000 s visit, with the wrong event: region time
        // counts, but the event comparison is skipped (< 50 % overlap).
        let sems = vec![sem(1, "pass-by", 0, 10)];
        let r = assess(&sems, &truth);
        assert_eq!(r.event_accuracy, 0.0, "no qualified pairs → 0");
        assert!((r.region_time_accuracy - 0.01).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let r = assess(&[], &[]);
        assert_eq!(r, AssessmentReport::default());
        let truth = vec![visit(1, VisitKind::Stay, 0, 100)];
        let r = assess(&[], &truth);
        assert_eq!(r.coverage, 0.0);
        assert_eq!(r.visit_count, 1);
    }

    #[test]
    fn aggregate_weights_by_duration() {
        let a = AssessmentReport {
            region_time_accuracy: 1.0,
            coverage: 1.0,
            event_accuracy: 1.0,
            truth_duration: Duration::from_secs(300),
            semantics_count: 3,
            visit_count: 2,
        };
        let b = AssessmentReport {
            region_time_accuracy: 0.0,
            coverage: 0.5,
            event_accuracy: 0.0,
            truth_duration: Duration::from_secs(100),
            semantics_count: 1,
            visit_count: 1,
        };
        let agg = aggregate(&[a, b]);
        assert!((agg.region_time_accuracy - 0.75).abs() < 1e-9);
        assert!((agg.coverage - 0.875).abs() < 1e-9);
        assert_eq!(agg.semantics_count, 4);
        assert_eq!(agg.visit_count, 3);
        assert_eq!(aggregate(&[]), AssessmentReport::default());
    }
}
