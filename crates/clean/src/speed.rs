//! The indoor speed constraint.

use trips_data::{RawRecord, Timestamp};
use trips_dsm::{Anchor, DigitalSpaceModel, DsmError, PathQuery};
use trips_geom::IndoorPoint;

/// A detected speed-constraint violation between two records.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedViolation {
    /// Index of the earlier (reference) record.
    pub from_idx: usize,
    /// Index of the violating record.
    pub to_idx: usize,
    /// Implied speed over the minimum walking distance, m/s.
    pub implied_speed: f64,
}

/// What the speed check reads of a record: its place and time, and the
/// walking-graph anchor of that place (`PathQuery::anchor`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fix {
    pub(crate) at: IndoorPoint,
    pub(crate) ts: Timestamp,
    pub(crate) anchor: Option<Anchor>,
}

/// Checks the indoor speed constraint over the minimum walking distance.
pub struct SpeedChecker<'a> {
    pq: PathQuery<'a>,
    /// Maximum feasible indoor speed, m/s.
    pub max_speed: f64,
}

impl<'a> SpeedChecker<'a> {
    /// Creates a checker. Fails if the DSM is not frozen.
    pub fn new(dsm: &'a DigitalSpaceModel, max_speed: f64) -> Result<Self, DsmError> {
        assert!(max_speed > 0.0, "max_speed must be positive");
        Ok(SpeedChecker {
            pq: PathQuery::new(dsm)?,
            max_speed,
        })
    }

    /// The walking-distance engine behind the checker.
    pub(crate) fn path_query(&self) -> &PathQuery<'a> {
        &self.pq
    }

    /// Minimum walking distance between two record locations (inside one
    /// room it *is* the Euclidean distance, no graph search needed).
    pub fn walking_distance(&self, a: &RawRecord, b: &RawRecord) -> Option<f64> {
        self.pq.distance(&a.location, &b.location)
    }

    /// Whether moving from `a` to `b` is feasible under the constraint.
    ///
    /// Infeasible when: timestamps do not advance, the points are mutually
    /// unreachable, or the implied speed exceeds `max_speed`.
    pub fn feasible(&self, a: &RawRecord, b: &RawRecord) -> bool {
        self.feasible_fixes(&self.fix(a.location, a.ts), &self.fix(b.location, b.ts))
    }

    /// The fix of a record at `at` and `ts`, anchored.
    pub(crate) fn fix(&self, at: IndoorPoint, ts: Timestamp) -> Fix {
        Fix {
            at,
            ts,
            anchor: self.pq.anchor(&at),
        }
    }

    /// [`feasible`](Self::feasible) between two anchored fixes.
    pub(crate) fn feasible_fixes(&self, a: &Fix, b: &Fix) -> bool {
        let dt = (b.ts - a.ts).as_secs_f64();
        if dt <= 0.0 {
            return false;
        }
        let (Some(anchor_a), Some(anchor_b)) = (a.anchor, b.anchor) else {
            return false;
        };
        self.pq.within(
            &a.at,
            anchor_a,
            &b.at,
            anchor_b,
            dt,
            self.max_speed * (1.0 + 1e-9),
        )
    }

    /// Implied speed from `a` to `b` over the walking distance (m/s);
    /// `f64::INFINITY` when infeasible by time or reachability.
    pub fn implied_speed(&self, a: &RawRecord, b: &RawRecord) -> f64 {
        let dt = (b.ts - a.ts).as_secs_f64();
        if dt <= 0.0 {
            return f64::INFINITY;
        }
        match self.walking_distance(a, b) {
            None => f64::INFINITY,
            Some(d) => d / dt,
        }
    }

    /// Scans a record slice and reports all violations against the previous
    /// *valid* record (greedy forward scan — the standard online filter).
    pub fn scan(&self, records: &[RawRecord]) -> Vec<SpeedViolation> {
        let mut violations = Vec::new();
        let mut last_valid: Option<usize> = None;
        for i in 0..records.len() {
            match last_valid {
                None => {
                    last_valid = Some(i);
                }
                Some(j) => {
                    if self.feasible(&records[j], &records[i]) {
                        last_valid = Some(i);
                    } else {
                        violations.push(SpeedViolation {
                            from_idx: j,
                            to_idx: i,
                            implied_speed: self.implied_speed(&records[j], &records[i]),
                        });
                    }
                }
            }
        }
        violations
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

    fn mall() -> DigitalSpaceModel {
        MallBuilder::new().floors(2).shops_per_row(4).build()
    }

    #[test]
    fn slow_movement_is_feasible() {
        let dsm = mall();
        let c = SpeedChecker::new(&dsm, 3.0).unwrap();
        // 5 m in 10 s inside the hallway.
        let a = rec(10.0, 11.0, 0, 0);
        let b = rec(15.0, 11.0, 0, 10);
        assert!(c.feasible(&a, &b));
        assert!((c.implied_speed(&a, &b) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn teleport_violates() {
        let dsm = mall();
        let c = SpeedChecker::new(&dsm, 3.0).unwrap();
        // 60 m in 1 s.
        let a = rec(5.0, 11.0, 0, 0);
        let b = rec(65.0, 11.0, 0, 1);
        assert!(!c.feasible(&a, &b));
    }

    #[test]
    fn wall_detour_counts() {
        let dsm = mall();
        let c = SpeedChecker::new(&dsm, 3.0).unwrap();
        // Adjacent shops: 10 m apart planar, but the walk goes via both
        // doors through the hallway (~ 18+ m). At 4 s the planar speed is
        // 2.5 m/s (feasible) but the walking speed exceeds 3 m/s.
        let a = rec(5.0, 4.0, 0, 0);
        let b = rec(15.0, 4.0, 0, 4);
        let walk = c.walking_distance(&a, &b).unwrap();
        assert!(walk > 12.0, "walking distance must detour: {walk}");
        assert!(!c.feasible(&a, &b));
        // With more time it becomes feasible.
        let b_slow = rec(15.0, 4.0, 0, 20);
        assert!(c.feasible(&a, &b_slow));
    }

    #[test]
    fn same_room_fast_path_equals_euclidean() {
        let dsm = mall();
        let c = SpeedChecker::new(&dsm, 3.0).unwrap();
        let a = rec(2.0, 2.0, 0, 0);
        let b = rec(6.0, 5.0, 0, 10);
        assert!((c.walking_distance(&a, &b).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn floor_jump_requires_staircase_time() {
        let dsm = mall();
        let c = SpeedChecker::new(&dsm, 3.0).unwrap();
        // Same planar spot, different floor, 2 s apart: the staircase walk
        // makes this infeasible.
        let a = rec(20.0, 11.0, 0, 0);
        let b = rec(20.0, 11.0, 1, 2);
        assert!(!c.feasible(&a, &b));
        // Same transition with 60 s is fine.
        let b_slow = rec(20.0, 11.0, 1, 60);
        assert!(c.feasible(&a, &b_slow));
    }

    #[test]
    fn non_advancing_time_is_infeasible() {
        let dsm = mall();
        let c = SpeedChecker::new(&dsm, 3.0).unwrap();
        let a = rec(1.0, 1.0, 0, 10);
        let b = rec(1.5, 1.0, 0, 10);
        assert!(!c.feasible(&a, &b));
        assert!(c.implied_speed(&a, &b).is_infinite());
        let c2 = rec(1.5, 1.0, 0, 5);
        assert!(!c.feasible(&a, &c2), "time regression");
    }

    #[test]
    fn scan_flags_outlier_and_recovers() {
        let dsm = mall();
        let c = SpeedChecker::new(&dsm, 3.0).unwrap();
        let records = vec![
            rec(10.0, 11.0, 0, 0),
            rec(11.0, 11.0, 0, 7),
            rec(70.0, 11.0, 0, 14), // outlier jump
            rec(13.0, 11.0, 0, 21), // back on track
        ];
        let v = c.scan(&records);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].from_idx, 1);
        assert_eq!(v[0].to_idx, 2);
        assert!(v[0].implied_speed > 3.0);
    }

    #[test]
    fn scan_clean_sequence_no_violations() {
        let dsm = mall();
        let c = SpeedChecker::new(&dsm, 3.0).unwrap();
        let records: Vec<RawRecord> = (0..20)
            .map(|i| rec(10.0 + i as f64, 11.0, 0, i * 7))
            .collect();
        assert!(c.scan(&records).is_empty());
        assert!(c.scan(&[]).is_empty());
        assert!(c.scan(&records[..1]).is_empty());
    }

    #[test]
    #[should_panic(expected = "max_speed must be positive")]
    fn rejects_bad_speed() {
        let dsm = mall();
        let _ = SpeedChecker::new(&dsm, 0.0);
    }
}
