//! `FeatureVector::extract` against the multi-pass definition it replaced,
//! bit for bit. The reference below is that definition, kept verbatim: one
//! `geom` algorithm or record method per feature, each walking the slice
//! again.

use proptest::prelude::*;
use trips_annotate::features::{FeatureVector, FEATURE_DIM, TURN_ANGLE};
use trips_data::{DeviceId, RawRecord, Timestamp};
use trips_geom::{algorithms, BoundingBox, Point, Polyline};

/// The multi-pass extractor, as it was before the one-pass rewrite.
fn reference(records: &[RawRecord]) -> [f64; FEATURE_DIM] {
    let mut v = [0.0f64; FEATURE_DIM];
    if records.is_empty() {
        return v;
    }
    let points: Vec<Point> = records.iter().map(|r| r.location.xy).collect();
    let duration = (records[records.len() - 1].ts - records[0].ts).as_secs_f64();
    v[0] = algorithms::location_variance(&points);
    let dist = algorithms::path_length(&points);
    v[1] = dist;
    v[2] = if duration > 0.0 { dist / duration } else { 0.0 };
    v[3] = records
        .windows(2)
        .filter_map(|w| w[1].planar_speed_from(&w[0]))
        .fold(0.0, f64::max);
    v[4] = BoundingBox::from_points(points.iter().copied()).diagonal();
    v[5] = if points.len() >= 3 {
        Polyline::new(points.clone()).count_turns(TURN_ANGLE) as f64
    } else {
        0.0
    };
    v[6] = duration;
    v[7] = records.len() as f64;
    v[8] = records
        .windows(2)
        .filter(|w| w[0].location.floor != w[1].location.floor)
        .count() as f64;
    v
}

fn assert_bit_identical(records: &[RawRecord]) -> Result<(), TestCaseError> {
    let got = FeatureVector::extract(records);
    let want = reference(records);
    for (i, (g, w)) in got.values().iter().zip(want).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "feature {} of {:?}: {} vs {}",
            i,
            records,
            g,
            w
        );
    }
    Ok(())
}

fn rec(x: f64, y: f64, floor: i16, ms: i64) -> RawRecord {
    RawRecord::new(DeviceId::new("f"), x, y, floor, Timestamp::from_millis(ms))
}

/// Slices of 0–3 records (and some longer) on a coarse grid, so repeated
/// points (zero-length legs), equal timestamps and floor changes are
/// common.
fn arb_slice(max_len: usize) -> impl Strategy<Value = Vec<RawRecord>> {
    prop::collection::vec((0i32..4, 0i32..4, 0i16..2, 0i64..3), 0..max_len + 1).prop_map(|steps| {
        let mut t = 0i64;
        steps
            .into_iter()
            .map(|(x, y, floor, dt)| {
                t += dt * 1500;
                rec(f64::from(x) * 2.5, f64::from(y) * 1.5, floor, t)
            })
            .collect()
    })
}

/// Slices with real-valued coordinates and irregular timing.
fn arb_walk() -> impl Strategy<Value = Vec<RawRecord>> {
    prop::collection::vec((-60.0f64..60.0, -60.0f64..60.0, 0i16..3, 0i64..9000), 0..40).prop_map(
        |steps| {
            let mut t = 0i64;
            steps
                .into_iter()
                .map(|(x, y, floor, dt)| {
                    t += dt;
                    rec(x, y, floor, t)
                })
                .collect()
        },
    )
}

/// Three records whose two legs turn by `TURN_ANGLE + offset`, at a random
/// heading, position and leg lengths, turning either way.
fn turn(
    (x, y, heading, l1, l2, offset, left): (f64, f64, f64, f64, f64, f64, bool),
) -> Vec<RawRecord> {
    let angle = heading + if left { 1.0 } else { -1.0 } * (TURN_ANGLE + offset);
    let p1 = (x + l1 * heading.cos(), y + l1 * heading.sin());
    let p2 = (p1.0 + l2 * angle.cos(), p1.1 + l2 * angle.sin());
    vec![
        rec(x, y, 0, 0),
        rec(p1.0, p1.1, 0, 4000),
        rec(p2.0, p2.1, 0, 8000),
    ]
}

fn arb_turn(max_offset: f64) -> impl Strategy<Value = Vec<RawRecord>> {
    (
        -30.0f64..30.0,
        -30.0f64..30.0,
        -3.2f64..3.2,
        0.5f64..20.0,
        0.5f64..20.0,
        -max_offset..max_offset,
        0u8..2,
    )
        .prop_map(|(x, y, h, l1, l2, off, left)| turn((x, y, h, l1, l2, off, left == 1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn short_grid_slices_match(records in arb_slice(3)) {
        assert_bit_identical(&records)?;
    }

    #[test]
    fn longer_grid_slices_match(records in arb_slice(24)) {
        assert_bit_identical(&records)?;
    }

    #[test]
    fn real_valued_walks_match(records in arb_walk()) {
        assert_bit_identical(&records)?;
    }

    #[test]
    fn turns_within_a_nanoradian_of_the_threshold_match(records in arb_turn(1e-9)) {
        assert_bit_identical(&records)?;
    }

    #[test]
    fn turns_within_a_few_ulps_of_the_threshold_match(records in arb_turn(1e-15)) {
        assert_bit_identical(&records)?;
    }
}

#[test]
fn degenerate_slices_match() {
    let cases: Vec<Vec<RawRecord>> = vec![
        vec![],
        vec![rec(1.0, 2.0, 0, 0)],
        vec![rec(-0.0, -0.0, 0, 0)],
        vec![rec(1.0, 2.0, 0, 0), rec(1.0, 2.0, 0, 0)],
        vec![rec(1.0, 2.0, 0, 0), rec(4.0, 6.0, 1, 0)],
        vec![
            rec(0.0, 0.0, 0, 0),
            rec(0.0, 0.0, 0, 1000),
            rec(3.0, 0.0, 0, 1000),
        ],
        vec![
            rec(0.0, 0.0, 0, 0),
            rec(3.0, 0.0, 0, 0),
            rec(3.0, 0.0, 2, 0),
        ],
    ];
    for records in cases {
        assert_bit_identical(&records).unwrap();
    }
}
