//! Property-based tests for the DSM: the minimum indoor walking distance
//! must behave like a metric over the mall, and location queries must be
//! consistent.

use proptest::prelude::*;
use trips_dsm::builder::MallBuilder;
use trips_dsm::{DigitalSpaceModel, Entity, EntityKind, PathQuery};
use trips_geom::{IndoorPoint, Point, Polygon};

fn mall() -> DigitalSpaceModel {
    MallBuilder::new().floors(2).shops_per_row(3).build()
}

/// The speed limit the Cleaner checks against (3 m/s plus its tolerance).
const LIMIT: f64 = 3.0 * (1.0 + 1e-9);

/// The mall plus parts no route reaches: a room alone on floor 5, and on
/// floor 0 two rooms joined by a door of their own, 40 m east of the mall.
fn mall_with_islands() -> DigitalSpaceModel {
    let mut dsm = mall();
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1))
    };
    let lonely = dsm.next_entity_id();
    dsm.add_entity(Entity::area(
        lonely,
        EntityKind::Room,
        5,
        "Lonely",
        rect(0.0, 0.0, 5.0, 5.0),
    ))
    .unwrap();
    for (name, x0) in [("Island W", 70.0), ("Island E", 80.0)] {
        let id = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            id,
            EntityKind::Room,
            0,
            name,
            rect(x0, 0.0, x0 + 10.0, 10.0),
        ))
        .unwrap();
    }
    let door = dsm.next_entity_id();
    dsm.add_entity(Entity::door(
        door,
        0,
        "island door",
        Point::new(80.0, 5.0),
        1.0,
    ))
    .unwrap();
    dsm.freeze();
    dsm
}

/// Points that stress the speed check's exact predicate: anywhere around
/// the footprint (outside every area the point snaps), inside the two
/// staircase cells, on the islands of [`mall_with_islands`], or on floors
/// 2 and 5 (no walkable area, or only the lonely room).
fn arb_check_point() -> impl Strategy<Value = IndoorPoint> {
    (0u8..4, 0.0f64..1.0, 0.0f64..1.0, 0i16..3).prop_map(|(kind, u, v, f)| match kind {
        0 => IndoorPoint::new(-4.0 + 38.0 * u, -4.0 + 30.0 * v, f),
        1 => {
            let x0 = if f == 1 { 27.0 } else { 1.0 };
            IndoorPoint::new(x0 + 2.0 * u, 9.0 + 4.0 * v, f.min(1))
        }
        2 => IndoorPoint::new(70.0 + 20.0 * u, 10.0 * v, 0),
        _ => IndoorPoint::new(6.0 * u, 6.0 * v, if f == 0 { 5 } else { 2 }),
    })
}

/// The decision `within` must reproduce.
fn path_decision(pq: &PathQuery<'_>, a: &IndoorPoint, b: &IndoorPoint, dt: f64) -> bool {
    pq.path(a, b).is_some_and(|p| p.distance / dt <= LIMIT)
}

/// Points constrained to the mall's footprint on floors 0-1.
fn arb_point() -> impl Strategy<Value = IndoorPoint> {
    (0.0f64..30.0, 0.0f64..22.0, 0i16..2).prop_map(|(x, y, f)| IndoorPoint::new(x, y, f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn walking_distance_symmetric(a in arb_point(), b in arb_point()) {
        let dsm = mall();
        let pq = PathQuery::new(&dsm).unwrap();
        let d1 = pq.distance(&a, &b);
        let d2 = pq.distance(&b, &a);
        match (d1, d2) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-6, "{x} vs {y}"),
            (None, None) => {}
            _ => prop_assert!(false, "reachability must be symmetric"),
        }
    }

    #[test]
    fn walking_distance_nonnegative_and_zero_on_self(a in arb_point()) {
        let dsm = mall();
        let pq = PathQuery::new(&dsm).unwrap();
        if let Some(d) = pq.distance(&a, &a) {
            prop_assert!(d.abs() < 1e-9, "self distance {d}");
        }
        let b = IndoorPoint::new(a.xy.x + 0.5, a.xy.y, a.floor);
        if let Some(d) = pq.distance(&a, &b) {
            prop_assert!(d >= 0.0);
        }
    }

    #[test]
    fn walking_distance_at_least_planar_on_same_floor(a in arb_point(), b in arb_point()) {
        prop_assume!(a.floor == b.floor);
        let dsm = mall();
        let pq = PathQuery::new(&dsm).unwrap();
        if let Some(d) = pq.distance(&a, &b) {
            // Walking distance can undercut planar distance only by snapping
            // slack when a point lies outside every walkable area.
            let inside = dsm.locate(&a).is_some() && dsm.locate(&b).is_some();
            if inside {
                prop_assert!(d + 1e-6 >= a.planar_distance(&b),
                    "walking {d} < planar {}", a.planar_distance(&b));
            }
        }
    }

    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        let dsm = mall();
        let pq = PathQuery::new(&dsm).unwrap();
        if let (Some(ab), Some(bc), Some(ac)) =
            (pq.distance(&a, &b), pq.distance(&b, &c), pq.distance(&a, &c))
        {
            prop_assert!(ac <= ab + bc + 1e-6, "ac {ac} > ab {ab} + bc {bc}");
        }
    }

    #[test]
    fn path_endpoints_match_query(a in arb_point(), b in arb_point()) {
        let dsm = mall();
        let pq = PathQuery::new(&dsm).unwrap();
        if let Some(path) = pq.path(&a, &b) {
            prop_assert_eq!(path.points[0], a);
            prop_assert_eq!(*path.points.last().unwrap(), b);
            prop_assert!(path.distance.is_finite());
            // Fraction endpoints are exact.
            prop_assert_eq!(path.point_at_fraction(0.0), a);
            prop_assert_eq!(path.point_at_fraction(1.0), b);
        }
    }

    #[test]
    fn locate_agrees_with_entity_contains(p in arb_point()) {
        let dsm = mall();
        if let Some(e) = dsm.locate(&p) {
            prop_assert!(e.contains(p.xy), "located entity must contain the point");
            prop_assert!(e.on_floor(p.floor));
        }
    }

    #[test]
    fn region_at_returns_containing_region(p in arb_point()) {
        let dsm = mall();
        if let Some(r) = dsm.region_at(&p) {
            prop_assert!(r.contains(p.xy));
            prop_assert_eq!(r.floor, p.floor);
        }
    }

    #[test]
    fn json_roundtrip_preserves_queries(p in arb_point()) {
        let dsm = mall();
        let back = trips_dsm::json::from_json(&trips_dsm::json::to_json(&dsm).unwrap()).unwrap();
        let r1 = dsm.region_at(&p).map(|r| r.id);
        let r2 = back.region_at(&p).map(|r| r.id);
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn within_agrees_with_path(a in arb_check_point(), b in arb_check_point(), dt in 0.05f64..90.0) {
        let dsm = mall_with_islands();
        let pq = PathQuery::new(&dsm).unwrap();
        match (pq.anchor(&a), pq.anchor(&b)) {
            (Some(aa), Some(ab)) => {
                prop_assert_eq!(pq.within(&a, aa, &b, ab, dt, LIMIT), path_decision(&pq, &a, &b, dt));
            }
            _ => prop_assert!(pq.path(&a, &b).is_none(), "no anchor, no path"),
        }
    }

    #[test]
    fn within_agrees_with_path_near_the_limit(
        a in arb_check_point(),
        b in arb_check_point(),
        stretch in 0.999f64..1.001,
    ) {
        let dsm = mall_with_islands();
        let pq = PathQuery::new(&dsm).unwrap();
        let (Some(aa), Some(ab)) = (pq.anchor(&a), pq.anchor(&b)) else {
            return Ok(());
        };
        let d = pq.distance(&a, &b);
        prop_assume!(d.is_some_and(|d| d > 0.0));
        // The time at which the implied speed is `LIMIT / stretch`.
        let dt = d.unwrap() * stretch / LIMIT;
        prop_assert_eq!(pq.within(&a, aa, &b, ab, dt, LIMIT), path_decision(&pq, &a, &b, dt));
    }
}

#[test]
fn node_table_invariants() {
    let dsm = mall_with_islands();
    let topo = dsm.topology().unwrap();
    let n = topo.nodes.len();
    let table = topo.node_distances().expect("small graphs get a table");
    assert_eq!(table.len(), n * n);
    // Built once, then shared.
    assert!(std::ptr::eq(table, topo.node_distances().unwrap()));
    for s in 0..n {
        // Reachability over the edges, by graph search without weights.
        let mut seen = vec![false; n];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for e in &topo.edges[u] {
                if !seen[e.to] {
                    seen[e.to] = true;
                    stack.push(e.to);
                }
            }
        }
        assert_eq!(table[s * n + s], 0.0, "zero diagonal at {s}");
        for v in 0..n {
            let d = table[s * n + v];
            assert_eq!(d == f64::INFINITY, !seen[v], "reachability {s} -> {v}");
            assert!(d >= 0.0 && !d.is_nan());
            for m in 0..n {
                let via = table[s * n + m] + table[m * n + v];
                assert!(
                    d <= via + 1e-9 * via.min(1e12),
                    "triangle {s} -> {m} -> {v}"
                );
            }
        }
    }
    // The island door is a node no mall node reaches.
    assert!(table.iter().any(|d| d.is_infinite()));
}
