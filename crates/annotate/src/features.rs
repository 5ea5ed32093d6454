//! Feature extraction for event identification.
//!
//! The paper (§3): "The feature extraction considers the information of
//! positioning location variance, traveling distance and speed, covering
//! range, number of turns, etc." — this module computes exactly that
//! vector from a record slice.

use trips_data::RawRecord;
use trips_geom::{BoundingBox, Point, EPSILON};

/// Names of the extracted features, aligned with [`FeatureVector::values`].
pub const FEATURE_NAMES: [&str; 9] = [
    "location_variance",
    "traveling_distance",
    "mean_speed",
    "max_leg_speed",
    "covering_range",
    "turn_count",
    "duration_secs",
    "record_count",
    "floor_changes",
];

/// Number of features.
pub const FEATURE_DIM: usize = FEATURE_NAMES.len();

/// Minimum direction change that counts as a turn (radians ≈ 30°).
pub const TURN_ANGLE: f64 = 0.52;

/// `TURN_ANGLE.cos()`: a turn is a leg pair whose direction cosine is at
/// most this.
const COS_TURN_ANGLE: f64 = 0.867_819_179_677_649_9;

/// Half-width of the cosine band around [`COS_TURN_ANGLE`] inside which
/// the turn test falls back to `acos(cos) >= TURN_ANGLE`. Outside it the
/// two tests agree whatever `acos` rounds to; inside it only `acos`
/// reproduces the angle comparison exactly.
const COS_BAND: f64 = 1e-9;

/// The extracted feature vector of one snippet.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: [f64; FEATURE_DIM],
}

impl FeatureVector {
    /// Extracts features from a record slice.
    ///
    /// Returns a zero vector for an empty slice (degenerate snippets are the
    /// caller's responsibility to filter).
    ///
    /// One walk over the legs computes each leg's length once and reuses it
    /// for the traveling distance, the max leg speed and the turn test, and
    /// grows the bounding box and counts floor changes on the way; a second
    /// walk takes the variance around the mean. Nothing is allocated, and
    /// every value is bit-identical to the per-feature definitions (the
    /// `geom` algorithms, `RawRecord::planar_speed_from` and
    /// `Polyline::count_turns`).
    pub fn extract(records: &[RawRecord]) -> FeatureVector {
        let mut v = [0.0f64; FEATURE_DIM];
        let Some((first, rest)) = records.split_first() else {
            return FeatureVector { values: v };
        };
        let duration = (records[records.len() - 1].ts - first.ts).as_secs_f64();

        let mut sum = Point::origin() + first.location.xy;
        let mut bbox = BoundingBox::empty();
        bbox.expand(first.location.xy);
        // The empty sum, so a one-record slice reads exactly as
        // `Iterator::sum` over no legs does.
        let mut dist = std::iter::empty::<f64>().sum::<f64>();
        let mut max_leg_speed = 0.0f64;
        let mut turns = 0usize;
        let mut floor_changes = 0usize;
        // The previous leg's vector and length, for the turn test.
        let mut prev_leg: Option<(Point, f64)> = None;
        let mut prev = first;
        for r in rest {
            let p = r.location.xy;
            sum = sum + p;
            bbox.expand(p);
            let leg = p - prev.location.xy;
            let len = leg.norm();
            dist += len;
            let dt = (r.ts - prev.ts).as_secs_f64();
            if dt > 0.0 {
                max_leg_speed = max_leg_speed.max(len / dt);
            }
            if let Some((v1, n1)) = prev_leg {
                if n1 > EPSILON && len > EPSILON && is_turn(v1.dot(leg) / (n1 * len)) {
                    turns += 1;
                }
            }
            prev_leg = Some((leg, len));
            floor_changes += usize::from(r.location.floor != prev.location.floor);
            prev = r;
        }

        let n = records.len() as f64;
        let mean = sum * (1.0 / n);
        v[0] = records
            .iter()
            .map(|r| r.location.xy.distance_sq(mean))
            .sum::<f64>()
            / n;
        v[1] = dist;
        v[2] = if duration > 0.0 { dist / duration } else { 0.0 };
        v[3] = max_leg_speed;
        // Covering range: bbox diagonal (hull diameter collapses for
        // near-collinear transits; the diagonal is stable).
        v[4] = bbox.diagonal();
        v[5] = turns as f64;
        v[6] = duration;
        v[7] = n;
        v[8] = floor_changes as f64;
        FeatureVector { values: v }
    }

    /// The raw feature values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Feature by name (test/diagnostic convenience).
    pub fn get(&self, name: &str) -> Option<f64> {
        FEATURE_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| self.values[i])
    }
}

/// Whether two legs whose direction cosine is `cos` turn by at least
/// [`TURN_ANGLE`]: `acos(cos) >= TURN_ANGLE`, taking the `acos` only inside
/// the band where a plain cosine comparison could round the other way.
#[inline]
fn is_turn(cos: f64) -> bool {
    let cos = cos.clamp(-1.0, 1.0);
    if cos < COS_TURN_ANGLE - COS_BAND {
        true
    } else if cos > COS_TURN_ANGLE + COS_BAND {
        false
    } else {
        cos.acos() >= TURN_ANGLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::{DeviceId, Timestamp};

    fn rec(x: f64, y: f64, floor: i16, secs: i64) -> RawRecord {
        RawRecord::new(
            DeviceId::new("d"),
            x,
            y,
            floor,
            Timestamp::from_millis(secs * 1000),
        )
    }

    #[test]
    fn stay_features_are_small() {
        // Tight dwell: low variance, short distance, low speed.
        let recs: Vec<RawRecord> = (0..20)
            .map(|i| rec(5.0 + 0.05 * (i % 3) as f64, 5.0, 0, i * 7))
            .collect();
        let f = FeatureVector::extract(&recs);
        assert!(f.get("location_variance").unwrap() < 0.1);
        assert!(f.get("mean_speed").unwrap() < 0.1);
        assert!(f.get("covering_range").unwrap() < 0.5);
        assert_eq!(f.get("floor_changes").unwrap(), 0.0);
        assert_eq!(f.get("record_count").unwrap(), 20.0);
    }

    #[test]
    fn walk_features_are_large() {
        let recs: Vec<RawRecord> = (0..20).map(|i| rec(1.3 * i as f64, 0.0, 0, i)).collect();
        let f = FeatureVector::extract(&recs);
        assert!(f.get("traveling_distance").unwrap() > 20.0);
        assert!((f.get("mean_speed").unwrap() - 1.3).abs() < 0.01);
        assert!(f.get("covering_range").unwrap() > 20.0);
    }

    #[test]
    fn turn_counting_in_zigzag() {
        let recs = vec![
            rec(0.0, 0.0, 0, 0),
            rec(5.0, 0.0, 0, 5),
            rec(5.0, 5.0, 0, 10),
            rec(10.0, 5.0, 0, 15),
        ];
        let f = FeatureVector::extract(&recs);
        assert_eq!(f.get("turn_count").unwrap(), 2.0);
    }

    #[test]
    fn floor_changes_counted() {
        let recs = vec![
            rec(0.0, 0.0, 0, 0),
            rec(0.0, 0.0, 1, 30),
            rec(0.0, 0.0, 1, 60),
            rec(0.0, 0.0, 2, 90),
        ];
        let f = FeatureVector::extract(&recs);
        assert_eq!(f.get("floor_changes").unwrap(), 2.0);
    }

    #[test]
    fn max_leg_speed_exceeds_mean() {
        // Slow-slow-fast pattern.
        let recs = vec![
            rec(0.0, 0.0, 0, 0),
            rec(1.0, 0.0, 0, 10),
            rec(20.0, 0.0, 0, 12),
        ];
        let f = FeatureVector::extract(&recs);
        assert!(f.get("max_leg_speed").unwrap() > f.get("mean_speed").unwrap());
        assert!((f.get("max_leg_speed").unwrap() - 9.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = FeatureVector::extract(&[]);
        assert!(empty.values().iter().all(|&x| x == 0.0));
        let single = FeatureVector::extract(&[rec(3.0, 3.0, 0, 0)]);
        assert_eq!(single.get("record_count").unwrap(), 1.0);
        assert_eq!(single.get("traveling_distance").unwrap(), 0.0);
        assert_eq!(single.get("mean_speed").unwrap(), 0.0);
    }

    #[test]
    fn turn_cosine_matches_the_angle() {
        assert!((TURN_ANGLE.cos() - COS_TURN_ANGLE).abs() < 1e-15);
        // NaN (degenerate legs) is never a turn, as `acos` made it.
        assert!(!is_turn(f64::NAN));
    }

    #[test]
    fn names_align_with_dim() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
        let f = FeatureVector::extract(&[rec(0.0, 0.0, 0, 0)]);
        assert_eq!(f.values().len(), FEATURE_DIM);
        assert!(f.get("not_a_feature").is_none());
    }
}
