//! The spatial grid index must be observationally invisible: on any model,
//! every query (`locate`, `region_at`, `nearest_walkable`, `nearest_region`)
//! answered through the frozen model's grid returns exactly what the
//! unfrozen model's linear scan returns — same ids, bitwise-equal
//! distances, same tie-breaks. The random models mix free and
//! lattice-snapped rectangles (equal-area ties, shared walls), L-shaped
//! rooms, nested walkable areas and multi-part regions.

use proptest::prelude::*;
use trips_dsm::{DigitalSpaceModel, Entity, EntityKind, RegionId, SemanticRegion, SemanticTag};
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

/// Lattice pitch for snapped entities and query points: snapped sizes are
/// whole multiples of it, so areas tie and walls are shared.
const PITCH: f64 = 10.0;

/// The entity's outline and floor. Shape tags: 0–2 a rectangle; 3 an L
/// (the rectangle without its upper-right quarter, non-convex); 4 a
/// rectangle nested in the previous entity's; 5 a twin of the previous
/// entity's outline (an exact equal-area tie). Nested and twin entities
/// share the previous entity's floor.
fn outline(raw: &[RawEntity], i: usize) -> (Polygon, i16) {
    let snapped = |&(x, y, w, h, floor, _, _, snap): &RawEntity| {
        if snap == 1 {
            let (x, y) = ((x / PITCH).round() * PITCH, (y / PITCH).round() * PITCH);
            let (w, h) = ((w / PITCH).ceil() * PITCH, (h / PITCH).ceil() * PITCH);
            (x, y, w, h, floor)
        } else {
            (x, y, w, h, floor)
        }
    };
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

/// Builds a model from raw entities. Every third entity also gets a
/// semantic region, and every fifth other one becomes a further part of
/// the latest region on its floor; every seventh entity becomes a
/// multi-floor staircase. Returned unfrozen (linear-scan queries).
fn build_model(raw: &[RawEntity]) -> DigitalSpaceModel {
    let mut dsm = DigitalSpaceModel::new("random");
    let mut regions: Vec<SemanticRegion> = Vec::new();
    for (i, &(x, y, w, h, _, kind, _, _)) in raw.iter().enumerate() {
        let (poly, floor) = outline(raw, i);
        let id = dsm.next_entity_id();
        if i % 7 == 6 {
            dsm.add_entity(Entity::staircase(
                id,
                &format!("stairs-{i}"),
                poly.clone(),
                &[floor, floor + 1],
            ))
            .unwrap();
        } else {
            let kind = match kind {
                0 | 1 => EntityKind::Room,
                2 => EntityKind::Hallway,
                3 => EntityKind::Obstacle,
                4 => EntityKind::Wall,
                _ => EntityKind::Room,
            };
            let entity = if kind == EntityKind::Wall {
                Entity::wall(
                    id,
                    floor,
                    &format!("wall-{i}"),
                    trips_geom::Polyline::new(vec![Point::new(x, y), Point::new(x + w, y + h)]),
                )
            } else {
                Entity::area(id, kind, floor, &format!("e-{i}"), poly.clone())
            };
            dsm.add_entity(entity).unwrap();
        }
        if i % 3 == 0 {
            regions.push(SemanticRegion::new(
                RegionId(regions.len() as u32),
                &format!("region-{i}"),
                SemanticTag::new("shop", "shop"),
                floor,
                poly,
                id,
            ));
        } else if i % 5 == 4 {
            if let Some(r) = regions.iter_mut().rev().find(|r| r.floor == floor) {
                r.add_part(poly, id);
            }
        }
    }
    for r in regions {
        dsm.add_region(r).unwrap();
    }
    dsm
}

fn arb_query_point() -> impl Strategy<Value = IndoorPoint> {
    // Deliberately wider than the entity extent (points far outside the
    // grid) and one floor beyond the populated range (empty floors). Every
    // other point is snapped to half the lattice pitch, onto the walls,
    // corners and midlines of snapped entities.
    (-120.0f64..250.0, -120.0f64..250.0, 0i16..5, 0u8..2).prop_map(|(x, y, f, snap)| {
        let half = PITCH / 2.0;
        if snap == 1 {
            IndoorPoint::new((x / half).round() * half, (y / half).round() * half, f)
        } else {
            IndoorPoint::new(x, y, f)
        }
    })
}

/// A point at relative position `(u, v)` of entity `k`'s bbox, on its
/// floor; snapped (`snap == 1`) to quarters, the walls, midlines and
/// nesting insets of the shapes above.
fn anchored_point(raw: &[RawEntity], k: usize, u: f64, v: f64, snap: u8) -> IndoorPoint {
    let (poly, floor) = outline(raw, k);
    let bb = poly.bbox();
    let (u, v) = if snap == 1 {
        ((u * 4.0).round() / 4.0, (v * 4.0).round() / 4.0)
    } else {
        (u, v)
    };
    IndoorPoint::new(bb.min.x + u * bb.width(), bb.min.y + v * bb.height(), floor)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_queries_equal_linear_queries(
        raw in arb_entities(),
        points in proptest::collection::vec(arb_query_point(), 1..24),
        anchored in proptest::collection::vec(
            (0usize..64, -0.25f64..1.25, -0.25f64..1.25, 0u8..2),
            1..24,
        ),
    ) {
        let linear = build_model(&raw);
        let mut indexed = linear.clone();
        indexed.freeze();
        prop_assert!(indexed.spatial_index().is_some());
        prop_assert!(linear.spatial_index().is_none());

        let anchored = anchored
            .into_iter()
            .map(|(k, u, v, snap)| anchored_point(&raw, k % raw.len(), u, v, snap));
        for p in &points.iter().copied().chain(anchored).collect::<Vec<_>>() {
            prop_assert_eq!(
                linear.locate(p).map(|e| e.id),
                indexed.locate(p).map(|e| e.id),
                "locate diverged at {:?}", p
            );
            prop_assert_eq!(
                linear.region_at(p).map(|r| r.id),
                indexed.region_at(p).map(|r| r.id),
                "region_at diverged at {:?}", p
            );
            prop_assert_eq!(
                linear.nearest_walkable(p).map(|(e, d)| (e.id, d)),
                indexed.nearest_walkable(p).map(|(e, d)| (e.id, d)),
                "nearest_walkable diverged at {:?}", p
            );
            prop_assert_eq!(
                linear.nearest_region(p).map(|(r, d)| (r.id, d)),
                indexed.nearest_region(p).map(|(r, d)| (r.id, d)),
                "nearest_region diverged at {:?}", p
            );
        }
    }

    #[test]
    fn queries_on_shared_boundaries_agree(
        cols in 1usize..6,
        rows in 1usize..6,
        floor in 0i16..2,
    ) {
        // Abutting 10×10 rooms: probe exactly on the shared edges and
        // corners, where bbox/cell boundary handling is most delicate.
        let mut dsm = DigitalSpaceModel::new("lattice");
        for cy in 0..rows {
            for cx in 0..cols {
                let (x, y) = (cx as f64 * 10.0, cy as f64 * 10.0);
                let poly = Polygon::rectangle(Point::new(x, y), Point::new(x + 10.0, y + 10.0));
                let id = dsm.next_entity_id();
                dsm.add_entity(Entity::area(id, EntityKind::Room, floor, "r", poly.clone()))
                    .unwrap();
                let rid = dsm.next_region_id();
                dsm.add_region(SemanticRegion::new(
                    rid, "reg", SemanticTag::new("shop", "shop"), floor, poly, id,
                )).unwrap();
            }
        }
        let linear = dsm.clone();
        let mut indexed = dsm;
        indexed.freeze();

        for gy in 0..=rows {
            for gx in 0..=cols {
                let p = IndoorPoint::new(gx as f64 * 10.0, gy as f64 * 10.0, floor);
                prop_assert_eq!(
                    linear.locate(&p).map(|e| e.id),
                    indexed.locate(&p).map(|e| e.id)
                );
                prop_assert_eq!(
                    linear.region_at(&p).map(|r| r.id),
                    indexed.region_at(&p).map(|r| r.id)
                );
                prop_assert_eq!(
                    linear.nearest_walkable(&p).map(|(e, d)| (e.id, d)),
                    indexed.nearest_walkable(&p).map(|(e, d)| (e.id, d))
                );
                prop_assert_eq!(
                    linear.nearest_region(&p).map(|(r, d)| (r.id, d)),
                    indexed.nearest_region(&p).map(|(r, d)| (r.id, d))
                );
            }
        }
    }
}
