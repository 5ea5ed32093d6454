//! The cleaning pipeline: detect → floor-correct → interpolate → (drop).

use crate::speed::{Fix, SpeedChecker};
use trips_data::{PositioningSequence, RawRecord};
use trips_dsm::{DigitalSpaceModel, DsmError};
use trips_geom::FloorId;

/// What happened to each input record during cleaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// The record passed the speed constraint unchanged.
    Valid,
    /// The floor attribute was rewritten (floor value correction).
    FloorCorrected { from: FloorId, to: FloorId },
    /// The location was re-derived on the walking path between neighbours.
    Interpolated,
    /// The record could not be repaired and was removed.
    Dropped,
}

/// Cleaning configuration.
#[derive(Debug, Clone)]
pub struct CleanerConfig {
    /// Maximum feasible indoor speed, m/s. 3.0 m/s ≈ brisk walking; faster
    /// implied movement marks a record invalid.
    pub max_speed: f64,
    /// Enable floor value correction (ablation A1 switches this off).
    pub floor_correction: bool,
    /// Enable location interpolation (ablation A1 switches this off).
    pub interpolation: bool,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            max_speed: 3.0,
            floor_correction: true,
            interpolation: true,
        }
    }
}

/// Aggregate statistics of one cleaning run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleaningReport {
    pub input_records: usize,
    pub valid: usize,
    pub floor_corrected: usize,
    pub interpolated: usize,
    pub dropped: usize,
}

impl CleaningReport {
    /// Fraction of input records that needed any repair.
    pub fn repair_rate(&self) -> f64 {
        if self.input_records == 0 {
            return 0.0;
        }
        (self.floor_corrected + self.interpolated + self.dropped) as f64 / self.input_records as f64
    }

    /// Records in the cleaned sequence: every input record not dropped.
    pub fn kept(&self) -> usize {
        self.input_records - self.dropped
    }
}

/// The result of cleaning one sequence: the cleaned records plus the audit
/// trail aligned with the *input* records.
#[derive(Debug, Clone)]
pub struct CleanedSequence {
    pub sequence: PositioningSequence,
    /// `repairs[i]` tells what happened to input record `i`.
    pub repairs: Vec<RepairKind>,
    pub report: CleaningReport,
}

impl CleanedSequence {
    /// The audit trail alone, dropping the cleaned records.
    pub fn into_audit(self) -> CleaningAudit {
        CleaningAudit {
            repairs: self.repairs,
            report: self.report,
        }
    }
}

/// What cleaning did to one sequence, without the cleaned records: the
/// Cleaner is deterministic, so cleaning the same input with the same
/// configuration again yields them, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningAudit {
    /// `repairs[i]` tells what happened to input record `i`.
    pub repairs: Vec<RepairKind>,
    pub report: CleaningReport,
}

/// The Raw Data Cleaner (paper §2, Translator module 1).
pub struct Cleaner<'a> {
    dsm: &'a DigitalSpaceModel,
    checker: SpeedChecker<'a>,
    config: CleanerConfig,
}

impl<'a> Cleaner<'a> {
    /// Creates a cleaner over a frozen DSM.
    pub fn new(dsm: &'a DigitalSpaceModel, config: CleanerConfig) -> Result<Self, DsmError> {
        Ok(Cleaner {
            dsm,
            checker: SpeedChecker::new(dsm, config.max_speed)?,
            config,
        })
    }

    /// Creates a cleaner with default configuration.
    pub fn with_defaults(dsm: &'a DigitalSpaceModel) -> Result<Self, DsmError> {
        Self::new(dsm, CleanerConfig::default())
    }

    /// Cleans one positioning sequence.
    pub fn clean(&self, seq: &PositioningSequence) -> CleanedSequence {
        let input = seq.records();
        let n = input.len();
        // `fixes[i]`: where record `i` stands now, with its walking-graph
        // anchor; a repair rewrites both. The records themselves are cloned
        // once, into the output, and only if kept.
        let mut fixes: Vec<Fix> = input
            .iter()
            .map(|r| self.checker.fix(r.location, r.ts))
            .collect();
        let mut repairs = vec![RepairKind::Valid; n];
        // `alive[i]`: record i currently participates in the output.
        let mut alive = vec![true; n];
        // `settled[i]`: record i is known to satisfy the constraint w.r.t.
        // its settled predecessor.
        let mut settled = vec![false; n];

        // Pass 1: forward scan marking invalid records.
        let mut last_valid: Option<usize> = None;
        let mut invalid: Vec<usize> = Vec::new();
        for i in 0..n {
            let ok = match last_valid {
                None => true, // first record is trusted until contradicted
                Some(j) => self.checker.feasible_fixes(&fixes[j], &fixes[i]),
            };
            if ok {
                settled[i] = true;
                last_valid = Some(i);
            } else {
                invalid.push(i);
            }
        }

        // Pass 2: repair invalid records in time order. When record `i` is
        // repaired, every record before it is final and no record after it
        // has been touched yet. So its settled predecessor is the last
        // settled record before it, and its settled successor the first
        // record after it that pass 1 settled. Two cursors that only move
        // forward find both: O(n) in all, not O(k²) for a run of k invalid
        // records.
        let mut last_settled: Option<usize> = None;
        let mut swept = 0;
        let mut ahead = 0;
        for &i in &invalid {
            for j in swept..i {
                if alive[j] && settled[j] {
                    last_settled = Some(j);
                }
            }
            swept = i;
            ahead = ahead.max(i + 1);
            while ahead < n && !settled[ahead] {
                ahead += 1;
            }
            let (prev, next) = (last_settled, (ahead < n).then_some(ahead));

            // Step 1: floor value correction — only meaningful when the
            // record's floor disagrees with its valid neighbours.
            if self.config.floor_correction {
                if let Some(target) = self.consensus_floor(&fixes, prev, next) {
                    let from = fixes[i].at.floor;
                    if target != from {
                        let candidate = self
                            .checker
                            .fix(fixes[i].at.with_floor(target), fixes[i].ts);
                        if self.repair_fits(&fixes, prev, next, &candidate) {
                            fixes[i] = candidate;
                            repairs[i] = RepairKind::FloorCorrected { from, to: target };
                            settled[i] = true;
                            continue;
                        }
                    }
                }
            }

            // Step 2: location interpolation between valid neighbours.
            if self.config.interpolation {
                if let (Some(p), Some(nx)) = (prev, next) {
                    if let Some(loc) = self.interpolate(&fixes, p, nx, i) {
                        let candidate = self.checker.fix(loc, fixes[i].ts);
                        if self.repair_fits(&fixes, Some(p), Some(nx), &candidate) {
                            fixes[i] = candidate;
                            repairs[i] = RepairKind::Interpolated;
                            settled[i] = true;
                            continue;
                        }
                    }
                }
            }

            // Unrepairable: drop.
            alive[i] = false;
            repairs[i] = RepairKind::Dropped;
        }

        let mut report = CleaningReport {
            input_records: n,
            ..CleaningReport::default()
        };
        for r in &repairs {
            match r {
                RepairKind::Valid => report.valid += 1,
                RepairKind::FloorCorrected { .. } => report.floor_corrected += 1,
                RepairKind::Interpolated => report.interpolated += 1,
                RepairKind::Dropped => report.dropped += 1,
            }
        }

        // The live records, each at its final place. They keep the input's
        // device and time order, so the sequence needs no filter or sort.
        let mut cleaned = Vec::with_capacity(report.kept());
        for ((record, fix), _) in input.iter().zip(&fixes).zip(&alive).filter(|(_, &a)| a) {
            cleaned.push(RawRecord {
                device: record.device.clone(),
                location: fix.at,
                ts: record.ts,
            });
        }

        CleanedSequence {
            sequence: PositioningSequence::from_ordered_records(seq.device().clone(), cleaned),
            repairs,
            report,
        }
    }

    /// The floor both valid neighbours agree on (or the single neighbour's
    /// floor when only one side exists).
    fn consensus_floor(
        &self,
        fixes: &[Fix],
        prev: Option<usize>,
        next: Option<usize>,
    ) -> Option<FloorId> {
        match (prev, next) {
            (Some(p), Some(n)) => {
                let (fp, fn_) = (fixes[p].at.floor, fixes[n].at.floor);
                (fp == fn_).then_some(fp)
            }
            (Some(p), None) => Some(fixes[p].at.floor),
            (None, Some(n)) => Some(fixes[n].at.floor),
            (None, None) => None,
        }
    }

    /// Whether a candidate repair satisfies the constraint against both
    /// neighbours (where they exist).
    fn repair_fits(
        &self,
        fixes: &[Fix],
        prev: Option<usize>,
        next: Option<usize>,
        candidate: &Fix,
    ) -> bool {
        if let Some(p) = prev {
            if !self.checker.feasible_fixes(&fixes[p], candidate) {
                return false;
            }
        }
        if let Some(n) = next {
            if !self.checker.feasible_fixes(candidate, &fixes[n]) {
                return false;
            }
        }
        true
    }

    /// Derives the location of record `mid` on the walking path from record
    /// `prev` to record `next` at the time-proportional fraction (paper:
    /// "deriving the possible locations at the time of that record based on
    /// the indoor geometrical and topological information").
    fn interpolate(
        &self,
        fixes: &[Fix],
        prev: usize,
        next: usize,
        mid: usize,
    ) -> Option<trips_geom::IndoorPoint> {
        let (p, n, m) = (&fixes[prev], &fixes[next], &fixes[mid]);
        let total = (n.ts - p.ts).as_secs_f64();
        if total <= 0.0 {
            return None;
        }
        let frac = ((m.ts - p.ts).as_secs_f64() / total).clamp(0.0, 1.0);
        self.checker
            .path_query()
            .point_at_fraction(&p.at, p.anchor?, &n.at, n.anchor?, frac)
    }

    /// The DSM this cleaner operates on.
    pub fn dsm(&self) -> &DigitalSpaceModel {
        self.dsm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::{DeviceId, Timestamp};
    use trips_dsm::builder::MallBuilder;

    fn rec(x: f64, y: f64, floor: i16, secs: i64) -> RawRecord {
        RawRecord::new(
            DeviceId::new("d"),
            x,
            y,
            floor,
            Timestamp::from_millis(secs * 1000),
        )
    }

    fn seq(recs: Vec<RawRecord>) -> PositioningSequence {
        PositioningSequence::from_records(DeviceId::new("d"), recs)
    }

    fn mall() -> DigitalSpaceModel {
        MallBuilder::new().floors(3).shops_per_row(4).build()
    }

    #[test]
    fn clean_sequence_passes_through() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        let s = seq((0..10)
            .map(|i| rec(10.0 + i as f64, 11.0, 0, i * 7))
            .collect());
        let out = cleaner.clean(&s);
        assert_eq!(out.report.valid, 10);
        assert_eq!(out.report.repair_rate(), 0.0);
        assert_eq!(out.sequence.len(), 10);
        assert_eq!(out.sequence.records(), s.records());
    }

    #[test]
    fn floor_misread_corrected() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        // Stationary in the hallway on floor 0; one record reads floor 1.
        let mut recs: Vec<RawRecord> = (0..6).map(|i| rec(20.0, 11.0, 0, i * 7)).collect();
        recs[3] = rec(20.0, 11.0, 1, 21);
        let out = cleaner.clean(&seq(recs));
        assert_eq!(out.report.floor_corrected, 1);
        assert_eq!(out.report.dropped, 0);
        assert!(matches!(
            out.repairs[3],
            RepairKind::FloorCorrected { from: 1, to: 0 }
        ));
        assert!(out.sequence.records().iter().all(|r| r.location.floor == 0));
    }

    #[test]
    fn outlier_interpolated_onto_path() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        // Walking along the hallway; one wild outlier mid-way.
        let mut recs: Vec<RawRecord> = (0..7)
            .map(|i| rec(10.0 + 2.0 * i as f64, 11.0, 0, i * 7))
            .collect();
        recs[3] = rec(39.0, 20.5, 0, 21); // far off the hallway line
        let out = cleaner.clean(&seq(recs));
        assert_eq!(out.report.interpolated, 1, "report: {:?}", out.report);
        let repaired = &out.sequence.records()[3];
        // Interpolated between (14,11)@14s and (18,11)@28s → (16,11)@21s.
        assert!((repaired.location.xy.x - 16.0).abs() < 0.5);
        assert!((repaired.location.xy.y - 11.0).abs() < 0.5);
    }

    #[test]
    fn tail_outlier_dropped() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        let mut recs: Vec<RawRecord> = (0..5)
            .map(|i| rec(10.0 + i as f64, 11.0, 0, i * 7))
            .collect();
        recs.push(rec(500.0, 500.0, 0, 35)); // unreachable tail
        let out = cleaner.clean(&seq(recs));
        assert_eq!(out.report.dropped, 1);
        assert_eq!(out.sequence.len(), 5);
        assert_eq!(out.repairs[5], RepairKind::Dropped);
    }

    #[test]
    fn disabled_repairs_drop_instead() {
        let dsm = mall();
        let cleaner = Cleaner::new(
            &dsm,
            CleanerConfig {
                floor_correction: false,
                interpolation: false,
                ..CleanerConfig::default()
            },
        )
        .unwrap();
        let mut recs: Vec<RawRecord> = (0..6).map(|i| rec(20.0, 11.0, 0, i * 7)).collect();
        recs[3] = rec(20.0, 11.0, 2, 21);
        let out = cleaner.clean(&seq(recs));
        assert_eq!(out.report.floor_corrected, 0);
        assert_eq!(out.report.dropped, 1);
    }

    #[test]
    fn cleaning_is_idempotent() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        let mut recs: Vec<RawRecord> = (0..8)
            .map(|i| rec(10.0 + 2.0 * i as f64, 11.0, 0, i * 7))
            .collect();
        recs[2] = rec(14.0, 11.0, 1, 14); // floor error
        recs[5] = rec(55.0, 18.0, 0, 35); // outlier
        let once = cleaner.clean(&seq(recs));
        let twice = cleaner.clean(&once.sequence);
        assert_eq!(twice.report.repair_rate(), 0.0, "second pass finds nothing");
        assert_eq!(once.sequence.records(), twice.sequence.records());
    }

    #[test]
    fn empty_and_singleton_sequences() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        let empty = cleaner.clean(&seq(vec![]));
        assert_eq!(empty.report.input_records, 0);
        assert!(empty.sequence.is_empty());
        let single = cleaner.clean(&seq(vec![rec(5.0, 5.0, 0, 0)]));
        assert_eq!(single.report.valid, 1);
        assert_eq!(single.sequence.len(), 1);
    }

    #[test]
    fn duplicate_timestamp_dropped() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        let recs = vec![
            rec(10.0, 11.0, 0, 0),
            rec(10.5, 11.0, 0, 0), // same timestamp: infeasible
            rec(11.0, 11.0, 0, 7),
        ];
        let out = cleaner.clean(&seq(recs));
        assert_eq!(out.report.dropped, 1);
        assert_eq!(out.sequence.len(), 2);
    }

    #[test]
    fn long_run_of_duplicate_timestamps_is_linear() {
        // 20k fixes at one instant: the first is settled, the other
        // 19,999 are invalid (no time passes). None can be floor-corrected
        // (same floor) or interpolated (it would sit at its predecessor's
        // instant), so all are dropped. Finding each one's settled
        // neighbours by scanning made this run quadratic.
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        let mut recs = vec![rec(10.0, 11.0, 0, 0)];
        recs.extend((0..20_000).map(|i| rec(10.0 + (i % 7) as f64, 11.0, 0, 1)));
        recs.push(rec(12.0, 11.0, 0, 60));
        let out = cleaner.clean(&seq(recs));
        assert_eq!(
            out.report,
            CleaningReport {
                input_records: 20_002,
                valid: 3,
                floor_corrected: 0,
                interpolated: 0,
                dropped: 19_999,
            }
        );
        assert_eq!(out.sequence.len(), 3);
    }

    #[test]
    fn audit_trail_alignment() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        let mut recs: Vec<RawRecord> = (0..5)
            .map(|i| rec(10.0 + i as f64, 11.0, 0, i * 7))
            .collect();
        recs[2] = rec(70.0, 11.0, 0, 14);
        let s = seq(recs);
        let out = cleaner.clean(&s);
        assert_eq!(out.repairs.len(), s.len());
        // Exactly one non-valid entry, at index 2.
        let non_valid: Vec<usize> = out
            .repairs
            .iter()
            .enumerate()
            .filter(|(_, r)| **r != RepairKind::Valid)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(non_valid, vec![2]);
    }

    #[test]
    fn report_counts_sum_to_input() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        let mut recs: Vec<RawRecord> = (0..20)
            .map(|i| rec(10.0 + i as f64, 11.0, 0, i * 7))
            .collect();
        recs[4] = rec(70.0, 11.0, 0, 28);
        recs[10] = rec(20.0, 11.0, 2, 70);
        recs[19] = rec(500.0, 500.0, 0, 133);
        let out = cleaner.clean(&seq(recs));
        let r = out.report;
        assert_eq!(
            r.valid + r.floor_corrected + r.interpolated + r.dropped,
            r.input_records
        );
    }

    #[test]
    fn floor_corrected_record_anchors_the_next_check() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        // Standing in the hallway, one record a second: too little time to
        // take the stairs. Records 3 and 4 both read floor 1. After
        // record 3 is corrected it is record 4's valid predecessor, so
        // record 4's repair is checked from record 3's *corrected* place.
        let mut recs: Vec<RawRecord> = (0..8).map(|i| rec(20.0, 11.0, 0, i)).collect();
        recs[3] = rec(20.0, 11.0, 1, 3);
        recs[4] = rec(20.0, 11.0, 1, 4);
        let out = cleaner.clean(&seq(recs));
        let corrected = RepairKind::FloorCorrected { from: 1, to: 0 };
        let mut want = vec![RepairKind::Valid; 8];
        want[3] = corrected;
        want[4] = corrected;
        assert_eq!(out.repairs, want);
        assert_eq!(
            out.report,
            CleaningReport {
                input_records: 8,
                valid: 6,
                floor_corrected: 2,
                interpolated: 0,
                dropped: 0,
            }
        );
        assert!(out.sequence.records().iter().all(|r| r.location.floor == 0));
    }

    #[test]
    fn interpolated_record_anchors_the_next_check() {
        let dsm = mall();
        let cleaner = Cleaner::with_defaults(&dsm).unwrap();
        // Walking east along the hallway at 1 m/s; records 3 and 4 jump
        // into the south-east shop. Record 3 is interpolated to (13, 11)
        // and is then record 4's valid predecessor.
        let mut recs: Vec<RawRecord> = (0..9).map(|i| rec(10.0 + i as f64, 11.0, 0, i)).collect();
        recs[3] = rec(35.0, 2.0, 0, 3);
        recs[4] = rec(35.0, 2.0, 0, 4);
        let out = cleaner.clean(&seq(recs));
        let mut want = vec![RepairKind::Valid; 9];
        want[3] = RepairKind::Interpolated;
        want[4] = RepairKind::Interpolated;
        assert_eq!(out.repairs, want);
        assert_eq!(
            out.report,
            CleaningReport {
                input_records: 9,
                valid: 7,
                floor_corrected: 0,
                interpolated: 2,
                dropped: 0,
            }
        );
        // Time-proportional places on the hallway line: 13 m and 14 m.
        let cleaned = out.sequence.records();
        for (i, x) in [(3, 13.0), (4, 14.0)] {
            assert!(
                (cleaned[i].location.xy.x - x).abs() < 1e-9,
                "{:?}",
                cleaned[i]
            );
            assert!((cleaned[i].location.xy.y - 11.0).abs() < 1e-9);
        }
    }
}
