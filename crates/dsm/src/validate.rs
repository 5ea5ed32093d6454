//! DSM validation: floorplan lints for the Space Modeler.
//!
//! Hand-traced floorplans contain predictable mistakes — doors drawn off
//! their wall, rooms accidentally overlapping, areas that no door reaches.
//! Each breaks a downstream layer silently (a dangling door disconnects the
//! walking graph; an unreachable shop can never be annotated). `validate`
//! finds them before a translation task is submitted.

use crate::entity::{EntityId, EntityKind};
use crate::model::DigitalSpaceModel;
use crate::semantic::RegionId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One detected problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationIssue {
    /// A door attached to fewer than two walkable areas connects nothing.
    DanglingDoor { door: EntityId, attached: usize },
    /// Two room interiors overlap (each contains the other's anchor).
    OverlappingRooms(EntityId, EntityId),
    /// A walkable area with no connection to the building's main component.
    UnreachableArea(EntityId),
    /// A semantic region whose backing entities are all non-walkable.
    RegionWithoutWalkableEntity(RegionId),
    /// A staircase spanning a single floor connects nothing vertically.
    SingleFloorStaircase(EntityId),
}

impl std::fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationIssue::DanglingDoor { door, attached } => {
                write!(f, "door {door} attaches to {attached} area(s), needs 2")
            }
            ValidationIssue::OverlappingRooms(a, b) => {
                write!(f, "rooms {a} and {b} overlap")
            }
            ValidationIssue::UnreachableArea(e) => {
                write!(
                    f,
                    "walkable area {e} is unreachable from the main component"
                )
            }
            ValidationIssue::RegionWithoutWalkableEntity(r) => {
                write!(f, "region {r} has no walkable backing entity")
            }
            ValidationIssue::SingleFloorStaircase(e) => {
                write!(f, "staircase {e} spans a single floor")
            }
        }
    }
}

/// Validates a frozen DSM. Returns all detected issues (empty = clean).
///
/// # Panics
/// Panics if the DSM is not frozen (validation needs the topology).
pub fn validate(dsm: &DigitalSpaceModel) -> Vec<ValidationIssue> {
    let topo = dsm.topology().expect("validate requires a frozen DSM");
    let mut issues = Vec::new();

    // Dangling doors.
    for door in dsm.entities().filter(|e| e.kind == EntityKind::Door) {
        let attached = topo.areas_of_door(door.id).len();
        if attached < 2 {
            issues.push(ValidationIssue::DanglingDoor {
                door: door.id,
                attached,
            });
        }
    }

    // Overlapping rooms: same floor, each contains the other's interior
    // anchor (cheap but effective for traced rectangles; partial edge
    // overlaps register through the anchor of the smaller room).
    let rooms: Vec<_> = dsm
        .entities()
        .filter(|e| e.kind == EntityKind::Room)
        .collect();
    for (i, a) in rooms.iter().enumerate() {
        let Some(pa) = a.footprint.as_area() else {
            continue;
        };
        for b in &rooms[i + 1..] {
            if a.floor != b.floor {
                continue;
            }
            let Some(pb) = b.footprint.as_area() else {
                continue;
            };
            if !pa.bbox().intersects(&pb.bbox()) {
                continue;
            }
            if pa.contains(pb.interior_point()) || pb.contains(pa.interior_point()) {
                issues.push(ValidationIssue::OverlappingRooms(a.id, b.id));
            }
        }
    }

    // Reachability: areas form a graph through shared walking-graph nodes
    // (doors, staircase ports). The largest connected component is "the
    // building"; everything else is unreachable.
    let walkables: Vec<EntityId> = dsm
        .entities()
        .filter(|e| e.kind.is_walkable())
        .map(|e| e.id)
        .collect();
    if walkables.len() > 1 {
        // node index -> areas touching it.
        let mut node_areas: BTreeMap<usize, Vec<EntityId>> = BTreeMap::new();
        for (area, nodes) in dsm.entities().map(|e| e.id).zip(&topo.area_nodes) {
            for &n in nodes {
                node_areas.entry(n).or_default().push(area);
            }
        }
        // BFS over areas.
        let mut component: BTreeMap<EntityId, usize> = BTreeMap::new();
        let mut next_comp = 0usize;
        for &start in &walkables {
            if component.contains_key(&start) {
                continue;
            }
            let comp = next_comp;
            next_comp += 1;
            let mut queue = VecDeque::from([start]);
            component.insert(start, comp);
            while let Some(area) = queue.pop_front() {
                let slot = dsm.entity_slot(area).expect("entity in the model");
                for &n in &topo.area_nodes[slot] {
                    // Nodes are shared between areas; edges connect nodes.
                    let mut reach: BTreeSet<usize> = BTreeSet::from([n]);
                    for e in &topo.edges[n] {
                        reach.insert(e.to);
                    }
                    for r in reach {
                        if let Some(areas) = node_areas.get(&r) {
                            for &other in areas {
                                if let std::collections::btree_map::Entry::Vacant(v) =
                                    component.entry(other)
                                {
                                    v.insert(comp);
                                    queue.push_back(other);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Largest component wins.
        let mut sizes: BTreeMap<usize, usize> = BTreeMap::new();
        for &c in component.values() {
            *sizes.entry(c).or_default() += 1;
        }
        if let Some((&main, _)) = sizes.iter().max_by_key(|(_, &n)| n) {
            for &area in &walkables {
                if component.get(&area) != Some(&main) {
                    issues.push(ValidationIssue::UnreachableArea(area));
                }
            }
        }
    }

    // Regions without walkable backing.
    for region in dsm.regions() {
        let any_walkable = region.entities.iter().any(|&e| {
            dsm.entity(e)
                .map(|ent| ent.kind.is_walkable())
                .unwrap_or(false)
        });
        if !any_walkable {
            issues.push(ValidationIssue::RegionWithoutWalkableEntity(region.id));
        }
    }

    // Single-floor staircases.
    for stair in dsm.entities().filter(|e| e.kind == EntityKind::Staircase) {
        if stair.floors().count() < 2 {
            issues.push(ValidationIssue::SingleFloorStaircase(stair.id));
        }
    }

    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MallBuilder;
    use crate::entity::Entity;
    use crate::semantic::{SemanticRegion, SemanticTag};
    use trips_geom::{Point, Polygon};

    fn sq(x: f64, y: f64, w: f64) -> Polygon {
        Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + w))
    }

    #[test]
    fn builder_mall_is_clean() {
        let dsm = MallBuilder::new().floors(3).shops_per_row(4).build();
        let issues = validate(&dsm);
        assert!(issues.is_empty(), "builder mall must validate: {issues:?}");
    }

    #[test]
    fn dangling_door_detected() {
        let mut dsm = MallBuilder::new().shops_per_row(2).build();
        let d = dsm.next_entity_id();
        dsm.add_entity(Entity::door(d, 0, "nowhere", Point::new(500.0, 500.0), 1.0))
            .unwrap();
        dsm.freeze();
        let issues = validate(&dsm);
        assert!(issues.iter().any(
            |i| matches!(i, ValidationIssue::DanglingDoor { door, attached: 0 } if *door == d)
        ));
    }

    #[test]
    fn overlapping_rooms_detected() {
        let mut dsm = DigitalSpaceModel::new("t");
        let a = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            a,
            EntityKind::Room,
            0,
            "A",
            sq(0.0, 0.0, 10.0),
        ))
        .unwrap();
        let b = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            b,
            EntityKind::Room,
            0,
            "B",
            sq(5.0, 5.0, 10.0),
        ))
        .unwrap();
        dsm.freeze();
        let issues = validate(&dsm);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::OverlappingRooms(x, y) if *x == a && *y == b)));
        // Different floors don't overlap.
        let mut dsm2 = DigitalSpaceModel::new("t2");
        let a2 = dsm2.next_entity_id();
        dsm2.add_entity(Entity::area(
            a2,
            EntityKind::Room,
            0,
            "A",
            sq(0.0, 0.0, 10.0),
        ))
        .unwrap();
        let b2 = dsm2.next_entity_id();
        dsm2.add_entity(Entity::area(
            b2,
            EntityKind::Room,
            1,
            "B",
            sq(5.0, 5.0, 10.0),
        ))
        .unwrap();
        dsm2.freeze();
        assert!(!validate(&dsm2)
            .iter()
            .any(|i| matches!(i, ValidationIssue::OverlappingRooms(..))));
    }

    #[test]
    fn unreachable_area_detected() {
        let mut dsm = MallBuilder::new().shops_per_row(2).build();
        let island = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            island,
            EntityKind::Room,
            0,
            "Island",
            sq(500.0, 500.0, 10.0),
        ))
        .unwrap();
        dsm.freeze();
        let issues = validate(&dsm);
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, ValidationIssue::UnreachableArea(e) if *e == island)),
            "island must be unreachable: {issues:?}"
        );
    }

    #[test]
    fn region_on_wall_detected() {
        let mut dsm = MallBuilder::new().shops_per_row(2).build();
        let wall = dsm.next_entity_id();
        dsm.add_entity(Entity::wall(
            wall,
            0,
            "w",
            trips_geom::Polyline::new(vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)]),
        ))
        .unwrap();
        let r = dsm.next_region_id();
        dsm.add_region(SemanticRegion::new(
            r,
            "Wall Region",
            SemanticTag::new("x", "shop"),
            0,
            sq(0.0, 0.0, 5.0),
            wall,
        ))
        .unwrap();
        dsm.freeze();
        let issues = validate(&dsm);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::RegionWithoutWalkableEntity(x) if *x == r)));
    }

    #[test]
    fn single_floor_staircase_detected() {
        let mut dsm = MallBuilder::new().shops_per_row(2).build();
        let s = dsm.next_entity_id();
        dsm.add_entity(Entity::staircase(s, "stub", sq(15.0, 9.0, 1.0), &[0]))
            .unwrap();
        dsm.freeze();
        let issues = validate(&dsm);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::SingleFloorStaircase(x) if *x == s)));
    }

    #[test]
    fn issues_display() {
        let i = ValidationIssue::DanglingDoor {
            door: EntityId(3),
            attached: 1,
        };
        assert!(i.to_string().contains("e3"));
        assert!(ValidationIssue::UnreachableArea(EntityId(9))
            .to_string()
            .contains("unreachable"));
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn requires_frozen_dsm() {
        let dsm = DigitalSpaceModel::new("x");
        validate(&dsm);
    }
}
