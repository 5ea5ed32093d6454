//! `PathQuery::path` reads most routes from the node tables; it must return
//! exactly what the Dijkstra search returns: the same waypoints and a
//! bitwise-equal `distance`. `PathQuery::within`, which decides the speed
//! check from the tables, must make the search's decision. The random
//! models are those of `index_equivalence.rs` (free and lattice-snapped
//! rectangles, L-shaped rooms, nested areas, multi-floor staircases) with
//! doors added on entity edges, so lattice-snapped models have many
//! equal-length routes. Two symmetric models add routes that tie exactly:
//! a mirror-symmetric one (ties between node pairs, and inside one pair's
//! route with equal legs) and a half-turn-symmetric one (ties inside one
//! pair's route whose legs come in a different order, so the search's sums
//! may break the tie).

use proptest::prelude::*;
use trips_dsm::{DigitalSpaceModel, Entity, EntityKind, PathQuery, WalkPath};
use trips_geom::{IndoorPoint, Point, Polygon};

/// Raw material for one random entity: position, size, floor, kind tag,
/// shape tag, and a snap tag (1: snap it onto a coarse lattice).
type RawEntity = (f64, f64, f64, f64, i16, u8, u8, u8);

fn arb_entities() -> impl Strategy<Value = Vec<RawEntity>> {
    proptest::collection::vec(
        (
            -50.0f64..150.0,
            -50.0f64..150.0,
            0.5f64..40.0,
            0.5f64..40.0,
            0i16..3,
            0u8..6,
            0u8..6,
            0u8..2,
        ),
        1..40,
    )
}

/// Lattice pitch for snapped entities and query points.
const PITCH: f64 = 10.0;

fn snapped(&(x, y, w, h, floor, _, _, snap): &RawEntity) -> (f64, f64, f64, f64, i16) {
    if snap == 1 {
        let (x, y) = ((x / PITCH).round() * PITCH, (y / PITCH).round() * PITCH);
        let (w, h) = ((w / PITCH).ceil() * PITCH, (h / PITCH).ceil() * PITCH);
        (x, y, w, h, floor)
    } else {
        (x, y, w, h, floor)
    }
}

/// The entity's outline and floor, as in `index_equivalence.rs`: shape
/// tags 0–2 a rectangle, 3 an L, 4 nested in the previous entity, 5 a twin
/// of the previous entity.
fn outline(raw: &[RawEntity], i: usize) -> (Polygon, i16) {
    let (x, y, w, h, floor) = snapped(&raw[i]);
    match raw[i].6 {
        3 => {
            let (mx, my) = (x + w / 2.0, y + h / 2.0);
            let l = Polygon::new(vec![
                Point::new(x, y),
                Point::new(x + w, y),
                Point::new(x + w, my),
                Point::new(mx, my),
                Point::new(mx, y + h),
                Point::new(x, y + h),
            ]);
            (l, floor)
        }
        4 if i > 0 => {
            let (px, py, pw, ph, pfloor) = snapped(&raw[i - 1]);
            let inner = Polygon::rectangle(
                Point::new(px + pw / 4.0, py + ph / 4.0),
                Point::new(px + pw * 3.0 / 4.0, py + ph * 3.0 / 4.0),
            );
            (inner, pfloor)
        }
        5 if i > 0 => outline(raw, i - 1),
        _ => (
            Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + h)),
            floor,
        ),
    }
}

/// Walkable areas from raw entities (every seventh a two-floor staircase),
/// each with doors at the midpoints of its left and bottom bbox edges, where
/// they join whatever areas abut there. Frozen.
fn build_model(raw: &[RawEntity]) -> DigitalSpaceModel {
    let mut dsm = DigitalSpaceModel::new("random");
    for (i, &(_, _, _, _, _, kind, _, _)) in raw.iter().enumerate() {
        let (poly, floor) = outline(raw, i);
        let id = dsm.next_entity_id();
        let entity = if i % 7 == 6 {
            Entity::staircase(
                id,
                &format!("stairs-{i}"),
                poly.clone(),
                &[floor, floor + 1],
            )
        } else {
            let kind = if kind == 2 {
                EntityKind::Hallway
            } else {
                EntityKind::Room
            };
            Entity::area(id, kind, floor, &format!("e-{i}"), poly.clone())
        };
        dsm.add_entity(entity).unwrap();
        let bb = poly.bbox();
        for anchor in [
            Point::new(bb.min.x, (bb.min.y + bb.max.y) / 2.0),
            Point::new((bb.min.x + bb.max.x) / 2.0, bb.min.y),
        ] {
            let door = dsm.next_entity_id();
            dsm.add_entity(Entity::door(door, floor, "door", anchor, 1.0))
                .unwrap();
        }
    }
    dsm.freeze();
    dsm
}

fn arb_point() -> impl Strategy<Value = IndoorPoint> {
    // Every other point snapped to half the lattice pitch: onto walls,
    // doors and the midlines of snapped entities.
    (-80.0f64..200.0, -80.0f64..200.0, 0i16..4, 0u8..2).prop_map(|(x, y, f, snap)| {
        let half = PITCH / 2.0;
        if snap == 1 {
            IndoorPoint::new((x / half).round() * half, (y / half).round() * half, f)
        } else {
            IndoorPoint::new(x, y, f)
        }
    })
}

/// What a path is compared by: its waypoints and its distance's bits.
fn key(path: Option<WalkPath>) -> Option<(Vec<IndoorPoint>, u64)> {
    path.map(|p| (p.points, p.distance.to_bits()))
}

/// Asserts `path` equals the search on every ordered pair of `points`, and
/// that `within` makes the search's speed decision, at times around the
/// search's own threshold too.
fn assert_routes_equal(dsm: &DigitalSpaceModel, points: &[IndoorPoint]) {
    let q = PathQuery::new(dsm).unwrap();
    let limit = 3.0;
    for a in points {
        for b in points {
            let searched = q.path_by_search(a, b);
            let distance = searched.as_ref().map(|p| p.distance);
            assert_eq!(
                key(q.path(a, b)),
                key(searched),
                "path diverged from the search: {a:?} -> {b:?}"
            );
            let (Some(aa), Some(ab)) = (q.anchor(a), q.anchor(b)) else {
                continue;
            };
            let at_limit = distance.map_or(1.0, |d| d / limit);
            // Times within a few ulps of the threshold, where a table
            // estimate a bit off the search's sum would decide wrongly.
            let near = (-3i64..=3).map(|k| f64::from_bits((at_limit.to_bits() as i64 + k) as u64));
            for dt in [0.5, 2.0, 30.0].into_iter().chain(near) {
                if dt > 0.0 {
                    assert_eq!(
                        q.within(a, aa, b, ab, dt, limit),
                        distance.is_some_and(|d| d / dt <= limit),
                        "within diverged from the search: {a:?} -> {b:?} in {dt}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_routes_equal_search_routes(
        raw in arb_entities(),
        points in proptest::collection::vec(arb_point(), 1..24),
    ) {
        assert_routes_equal(&build_model(&raw), &points);
    }
}

/// Two rooms `A` and `B` joined through hubs `X` and `Y` by two corridors
/// `N` and `S` that mirror each other across `y = 0`:
///
/// ```text
///             +----N----+
///   +--+  +---+         +---+  +--+
///   |A |--| X |         | Y |--|B |
///   +--+  +---+         +---+  +--+
///             +----S----+
/// ```
///
/// From `A` to `B` the route leaves through one door and arrives through
/// one door, and in between runs through `N` or `S` at exactly equal length.
/// From `X` to `Y` two door pairs tie the same way. A staircase in each hub
/// climbs to one room on floor 1, so routes via the two staircases tie too.
fn mirror_model() -> DigitalSpaceModel {
    let mut dsm = DigitalSpaceModel::new("mirror");
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1))
    };
    let areas = [
        ("A", rect(0.0, -5.0, 10.0, 5.0), 0),
        ("X", rect(10.0, -15.0, 20.0, 15.0), 0),
        ("N", rect(20.0, 5.0, 40.0, 15.0), 0),
        ("S", rect(20.0, -15.0, 40.0, -5.0), 0),
        ("Y", rect(40.0, -15.0, 50.0, 15.0), 0),
        ("B", rect(50.0, -5.0, 60.0, 5.0), 0),
        ("Up", rect(10.0, -15.0, 50.0, 15.0), 1),
    ];
    for (name, poly, floor) in areas {
        let id = dsm.next_entity_id();
        let kind = if name == "X" || name == "Y" {
            EntityKind::Hallway
        } else {
            EntityKind::Room
        };
        dsm.add_entity(Entity::area(id, kind, floor, name, poly))
            .unwrap();
    }
    for (x, y) in [
        (10.0, 0.0),
        (20.0, 10.0),
        (20.0, -10.0),
        (40.0, 10.0),
        (40.0, -10.0),
        (50.0, 0.0),
    ] {
        let id = dsm.next_entity_id();
        dsm.add_entity(Entity::door(id, 0, "door", Point::new(x, y), 1.0))
            .unwrap();
    }
    for x in [12.0, 46.0] {
        let id = dsm.next_entity_id();
        dsm.add_entity(Entity::staircase(
            id,
            "stairs",
            rect(x, -1.0, x + 2.0, 1.0),
            &[0, 1],
        ))
        .unwrap();
    }
    dsm.freeze();
    dsm
}

/// Rooms `A` and `B` joined through `R1` and `R2`, which share two doors.
/// The model is symmetric under a half turn about `(10, 0)`, which swaps
/// the doors: the route `u → y1 → v` walks `√101` then `√149`, the route
/// `u → y2 → v` the same two legs in the other order. The tables see one
/// exact tie; the search, which adds the legs onto the walk from the
/// source point, may see either route shorter by an ulp.
///
/// ```text
///   +----+------y1------+----+
///   | A  u  R1  |  R2   v  B |
///   +----+------y2------+----+
/// ```
fn half_turn_model() -> DigitalSpaceModel {
    let mut dsm = DigitalSpaceModel::new("half-turn");
    let rect = |x0: f64, x1: f64| Polygon::rectangle(Point::new(x0, -10.0), Point::new(x1, 10.0));
    for (name, x0, x1) in [
        ("A", -10.0, 0.0),
        ("R1", 0.0, 10.0),
        ("R2", 10.0, 20.0),
        ("B", 20.0, 30.0),
    ] {
        let id = dsm.next_entity_id();
        dsm.add_entity(Entity::area(id, EntityKind::Room, 0, name, rect(x0, x1)))
            .unwrap();
    }
    for (x, y) in [(0.0, 3.0), (10.0, 4.0), (10.0, -4.0), (20.0, -3.0)] {
        let id = dsm.next_entity_id();
        dsm.add_entity(Entity::door(id, 0, "door", Point::new(x, y), 1.0))
            .unwrap();
    }
    dsm.freeze();
    dsm
}

#[test]
fn half_turn_ties_inside_one_route_equal_search_routes() {
    let dsm = half_turn_model();
    let mut points = Vec::new();
    for i in 0..40 {
        let t = f64::from(i);
        // Irrational-looking offsets, so the legs from the points to the
        // doors round differently from point to point.
        let (x, y) = (
            (t * 0.731).rem_euclid(9.5),
            (t * 1.913).rem_euclid(19.0) - 9.5,
        );
        points.push(IndoorPoint::new(-10.0 + x + 0.25, y, 0));
        points.push(IndoorPoint::new(20.0 + x + 0.25, y, 0));
    }
    assert_routes_equal(&dsm, &points);
}

#[test]
fn mirrored_routes_tie_and_still_equal_search_routes() {
    let dsm = mirror_model();
    // Mirror-image pairs of points, on and off the axis, in every area,
    // on both floors.
    let mut points = Vec::new();
    for floor in 0..2 {
        for x in [3.0, 5.0, 15.0, 30.0, 45.0, 55.0, 57.0] {
            for y in [0.0, 2.5, -2.5, 10.0, -10.0] {
                points.push(IndoorPoint::new(x, y, floor));
            }
        }
    }
    assert_routes_equal(&dsm, &points);

    // The ties are real: both corridors give one A -> B distance.
    let q = PathQuery::new(&dsm).unwrap();
    let (a, b) = (
        IndoorPoint::new(5.0, 0.0, 0),
        IndoorPoint::new(55.0, 0.0, 0),
    );
    let route = q.path(&a, &b).unwrap();
    let mirrored: Vec<IndoorPoint> = route
        .points
        .iter()
        .map(|p| IndoorPoint::new(p.xy.x, -p.xy.y, p.floor))
        .collect();
    assert_ne!(route.points, mirrored, "the route runs through N or S");
    let via = |y: f64| {
        let leg = |p: Point, r: Point| p.distance(r);
        let stops = [
            Point::new(5.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, y),
            Point::new(40.0, y),
            Point::new(50.0, 0.0),
            Point::new(55.0, 0.0),
        ];
        stops.windows(2).map(|w| leg(w[0], w[1])).sum::<f64>()
    };
    assert_eq!(via(10.0), via(-10.0));
}

/// Two rooms joined by one door, and pairs of points on straight lines
/// through it: the walking distance is the straight line, so the planar
/// lower bound `within` tries first meets it to the last bits.
#[test]
fn straight_lines_through_a_door_decide_like_the_search() {
    let mut dsm = DigitalSpaceModel::new("one-door");
    for (name, x0) in [("A", 0.0), ("B", 10.0)] {
        let id = dsm.next_entity_id();
        let poly = Polygon::rectangle(Point::new(x0, 0.0), Point::new(x0 + 10.0, 10.0));
        dsm.add_entity(Entity::area(id, EntityKind::Room, 0, name, poly))
            .unwrap();
    }
    let id = dsm.next_entity_id();
    dsm.add_entity(Entity::door(id, 0, "door", Point::new(10.0, 5.0), 1.0))
        .unwrap();
    dsm.freeze();
    for i in 0..200 {
        let t = f64::from(i);
        let angle = (t * 0.618).rem_euclid(1.4) - 0.7;
        let (dx, dy) = (angle.cos(), angle.sin());
        let (ra, rb) = (
            1.0 + (t * 0.377).rem_euclid(5.0),
            1.0 + (t * 0.253).rem_euclid(5.0),
        );
        let a = IndoorPoint::new(10.0 - ra * dx, 5.0 - ra * dy, 0);
        let b = IndoorPoint::new(10.0 + rb * dx, 5.0 + rb * dy, 0);
        assert_routes_equal(&dsm, &[a, b]);
    }
}
