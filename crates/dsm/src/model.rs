use crate::entity::{Entity, EntityId};
use crate::index::SpatialIndex;
use crate::semantic::{DenseId, DenseIndex, RegionId, RegionIndex, SemanticRegion};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use trips_geom::{BoundingBox, FloorId, IndoorPoint, Point};

/// Errors raised by DSM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsmError {
    /// A topology-dependent query was issued before [`DigitalSpaceModel::freeze`].
    NotFrozen,
    /// Referenced an entity id that is not in the model.
    UnknownEntity(EntityId),
    /// Referenced a region id that is not in the model.
    UnknownRegion(RegionId),
    /// Attempted to register a duplicate id.
    DuplicateId(String),
    /// JSON (de)serialization failure.
    Serde(String),
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::NotFrozen => {
                write!(f, "DSM topology not computed; call freeze() first")
            }
            DsmError::UnknownEntity(id) => write!(f, "unknown entity {id}"),
            DsmError::UnknownRegion(id) => write!(f, "unknown region {id}"),
            DsmError::DuplicateId(id) => write!(f, "duplicate id {id}"),
            DsmError::Serde(e) => write!(f, "DSM serialization error: {e}"),
        }
    }
}

impl std::error::Error for DsmError {}

/// Per-floor metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloorInfo {
    pub id: FloorId,
    /// Display name, e.g. `"Ground Floor"`, `"3F"`.
    pub name: String,
}

/// The Digital Space Model: geometric attributes and topological relations
/// for indoor entities and semantic regions, plus the entity↔region mapping
/// (paper §2, Space Modeler).
///
/// Build workflow: add entities and regions (directly, via the
/// [`crate::canvas::FloorplanCanvas`], or via [`crate::builder::MallBuilder`]),
/// then call [`freeze`](Self::freeze) to compute topology. Queries that rely
/// on topological relations return [`DsmError::NotFrozen`] before that.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DigitalSpaceModel {
    /// Human-readable model name (e.g. the building name).
    pub name: String,
    /// Floor-to-floor height in metres (vertical cost of staircases).
    pub floor_height: f64,
    floors: BTreeMap<FloorId, FloorInfo>,
    entities: Table<EntityId, Entity>,
    regions: Table<RegionId, SemanticRegion>,
    #[serde(skip)]
    topology: Option<Topology>,
    /// Uniform-grid index over entities/regions, built by [`freeze`](Self::freeze)
    /// together with the topology; linear scans answer queries before that.
    #[serde(skip)]
    index: Option<SpatialIndex>,
    next_entity_id: u32,
    next_region_id: u32,
}

/// Entities or regions in id order, with a [`DenseIndex`] from id to
/// position (the item's *slot*), so a lookup by id is one slot read.
/// Serializes, deserializes and prints exactly as the `BTreeMap<Id, T>` it
/// replaces.
#[derive(Clone)]
struct Table<Id, T> {
    items: Vec<T>,
    index: DenseIndex<Id>,
}

impl<Id, T> Default for Table<Id, T> {
    fn default() -> Self {
        Table {
            items: Vec::new(),
            index: DenseIndex::default(),
        }
    }
}

impl<Id: DenseId, T> Table<Id, T> {
    fn get(&self, id: Id) -> Option<&T> {
        self.index.get(id).map(|at| &self.items[at])
    }

    /// Inserts `item` under `id`, which must be absent.
    fn insert(&mut self, id: Id, item: T) {
        let at = self.index.insert(id);
        self.items.insert(at, item);
    }

    fn entries(&self) -> impl Iterator<Item = (&Id, &T)> {
        self.index.ids().iter().zip(&self.items)
    }
}

impl<Id: DenseId, T> std::ops::Index<Id> for Table<Id, T> {
    type Output = T;

    fn index(&self, id: Id) -> &T {
        self.get(id).expect("id in the table")
    }
}

impl<Id: DenseId + fmt::Debug, T: fmt::Debug> fmt::Debug for Table<Id, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries()).finish()
    }
}

impl<Id: DenseId + Serialize, T: Serialize> Serialize for Table<Id, T> {
    fn to_value(&self) -> serde::Value {
        self.entries().collect::<BTreeMap<_, _>>().to_value()
    }
}

impl<Id: DenseId + Deserialize, T: Deserialize> Deserialize for Table<Id, T> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = BTreeMap::<Id, T>::from_value(v)?;
        let ids = map.keys().copied().collect();
        Ok(Table {
            items: map.into_values().collect(),
            index: DenseIndex::new(ids),
        })
    }
}

impl DigitalSpaceModel {
    /// Creates an empty model.
    pub fn new(name: &str) -> Self {
        DigitalSpaceModel {
            name: name.to_string(),
            floor_height: 4.0,
            floors: BTreeMap::new(),
            entities: Table::default(),
            regions: Table::default(),
            topology: None,
            index: None,
            next_entity_id: 0,
            next_region_id: 0,
        }
    }

    /// Registers a floor (idempotent on id).
    pub fn add_floor(&mut self, id: FloorId, name: &str) {
        self.floors.insert(
            id,
            FloorInfo {
                id,
                name: name.to_string(),
            },
        );
    }

    /// All registered floors in ascending id order.
    pub fn floors(&self) -> impl Iterator<Item = &FloorInfo> {
        self.floors.values()
    }

    /// Number of registered floors.
    pub fn floor_count(&self) -> usize {
        self.floors.len()
    }

    /// Allocates the next free entity id.
    pub fn next_entity_id(&mut self) -> EntityId {
        let id = EntityId(self.next_entity_id);
        self.next_entity_id += 1;
        id
    }

    /// Allocates the next free region id.
    pub fn next_region_id(&mut self) -> RegionId {
        let id = RegionId(self.next_region_id);
        self.next_region_id += 1;
        id
    }

    /// Inserts an entity. Invalidate topology.
    pub fn add_entity(&mut self, entity: Entity) -> Result<EntityId, DsmError> {
        if self.entities.get(entity.id).is_some() {
            return Err(DsmError::DuplicateId(entity.id.to_string()));
        }
        self.next_entity_id = self.next_entity_id.max(entity.id.0 + 1);
        // Auto-register floors the entity touches.
        for f in entity.floors().collect::<Vec<_>>() {
            self.floors.entry(f).or_insert_with(|| FloorInfo {
                id: f,
                name: format!("{f}F"),
            });
        }
        let id = entity.id;
        self.entities.insert(id, entity);
        self.topology = None;
        self.index = None;
        Ok(id)
    }

    /// Inserts a semantic region. Invalidates topology.
    pub fn add_region(&mut self, region: SemanticRegion) -> Result<RegionId, DsmError> {
        if self.regions.get(region.id).is_some() {
            return Err(DsmError::DuplicateId(region.id.to_string()));
        }
        for &e in &region.entities {
            if self.entities.get(e).is_none() {
                return Err(DsmError::UnknownEntity(e));
            }
        }
        self.next_region_id = self.next_region_id.max(region.id.0 + 1);
        let id = region.id;
        self.regions.insert(id, region);
        self.topology = None;
        self.index = None;
        Ok(id)
    }

    /// Looks up an entity.
    pub fn entity(&self, id: EntityId) -> Result<&Entity, DsmError> {
        self.entities.get(id).ok_or(DsmError::UnknownEntity(id))
    }

    /// Looks up a region.
    pub fn region(&self, id: RegionId) -> Result<&SemanticRegion, DsmError> {
        self.regions.get(id).ok_or(DsmError::UnknownRegion(id))
    }

    /// All entities in id order.
    pub fn entities(&self) -> impl Iterator<Item = &Entity> {
        self.entities.items.iter()
    }

    /// All semantic regions in id order.
    pub fn regions(&self) -> impl Iterator<Item = &SemanticRegion> {
        self.regions.items.iter()
    }

    /// Region id → dense position in [`regions`](Self::regions) order.
    pub fn region_index(&self) -> &RegionIndex {
        &self.regions.index
    }

    /// Number of entities.
    pub fn entity_count(&self) -> usize {
        self.entities.items.len()
    }

    /// Number of semantic regions.
    pub fn region_count(&self) -> usize {
        self.regions.items.len()
    }

    /// Entities touching a floor.
    pub fn entities_on_floor(&self, floor: FloorId) -> impl Iterator<Item = &Entity> {
        self.entities().filter(move |e| e.on_floor(floor))
    }

    /// Regions on a floor.
    pub fn regions_on_floor(&self, floor: FloorId) -> impl Iterator<Item = &SemanticRegion> {
        self.regions().filter(move |r| r.floor == floor)
    }

    /// The walkable entity (room/hallway/staircell) containing `p`, if any.
    ///
    /// Prefers the *smallest* containing area so a staircell inside a hallway
    /// ring wins over the hallway. Answered through the grid index on a
    /// frozen model; by linear scan otherwise — both return the same entity,
    /// ties included (lowest id among equal areas).
    pub fn locate(&self, p: &IndoorPoint) -> Option<&Entity> {
        if self.index.is_some() {
            return self.locate_id(p).map(|id| &self.entities[id]);
        }
        let walkable_area = |e: &Entity| {
            (e.kind.is_walkable() && e.contains(p.xy)).then(|| {
                e.footprint
                    .as_area()
                    .map(|poly| poly.area())
                    .unwrap_or(f64::INFINITY)
            })
        };
        self.entities_on_floor(p.floor)
            .filter_map(|e| walkable_area(e).map(|area| (e, area)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite areas"))
            .map(|(e, _)| e)
    }

    /// The id of [`locate`](Self::locate)'s entity; on a frozen model
    /// usually one raster read, and otherwise a walk that reads each
    /// candidate's polygon by slot.
    pub(crate) fn locate_id(&self, p: &IndoorPoint) -> Option<EntityId> {
        match &self.index {
            Some(index) => index.walkable_at(p.floor, p.xy, |id| {
                self.entities[id]
                    .footprint
                    .as_area()
                    .map_or(&[], std::slice::from_ref)
            }),
            None => self.locate(p).map(|e| e.id),
        }
    }

    /// The dense slot of entity `id`: its position in
    /// [`entities`](Self::entities) order, `0..entity_count()`. Per-area
    /// tables ([`Topology::area_nodes`]) are indexed by it.
    pub fn entity_slot(&self, id: EntityId) -> Option<usize> {
        self.entities.index.get(id)
    }

    /// The semantic region containing `p`, if any (smallest wins, ties to
    /// the lowest id).
    pub fn region_at(&self, p: &IndoorPoint) -> Option<&SemanticRegion> {
        if self.index.is_some() {
            return self.region_id_at(p).map(|id| &self.regions[id]);
        }
        self.regions_on_floor(p.floor)
            .filter(|r| r.contains(p.xy))
            .min_by(|a, b| a.area().partial_cmp(&b.area()).expect("finite areas"))
    }

    /// The id of [`region_at`](Self::region_at)'s region; on a frozen model
    /// usually one raster read, with no region lookup.
    pub fn region_id_at(&self, p: &IndoorPoint) -> Option<RegionId> {
        match &self.index {
            Some(index) => {
                index.region_at(p.floor, p.xy, |id| self.regions[id].polygons.as_slice())
            }
            None => self.region_at(p).map(|r| r.id),
        }
    }

    /// The nearest walkable entity on `p`'s floor and the distance to it
    /// (zero if `p` is inside one). `None` when the floor has no walkable
    /// entities.
    pub fn nearest_walkable(&self, p: &IndoorPoint) -> Option<(&Entity, f64)> {
        if self.index.is_some() {
            return self
                .nearest_walkable_id(p)
                .map(|(id, d)| (&self.entities[id], d));
        }
        self.entities_on_floor(p.floor)
            .filter(|e| e.kind.is_walkable())
            .filter_map(|e| {
                e.footprint
                    .as_area()
                    .map(|poly| (e, poly.distance_to_point(p.xy)))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
    }

    /// The id of [`nearest_walkable`](Self::nearest_walkable)'s entity and
    /// the distance; on a frozen model a pruned grid search that reads each
    /// measured candidate's polygon by slot.
    pub(crate) fn nearest_walkable_id(&self, p: &IndoorPoint) -> Option<(EntityId, f64)> {
        match &self.index {
            Some(index) => index.nearest_walkable(p.floor, p.xy, |id| {
                self.entities[id]
                    .footprint
                    .as_area()
                    .expect("indexed walkables are areas")
                    .distance_to_point(p.xy)
            }),
            None => self.nearest_walkable(p).map(|(e, d)| (e.id, d)),
        }
    }

    /// The nearest semantic region on `p`'s floor and distance to it.
    pub fn nearest_region(&self, p: &IndoorPoint) -> Option<(&SemanticRegion, f64)> {
        if let Some(index) = &self.index {
            return index
                .nearest_region(p.floor, p.xy, |id| self.regions[id].distance_to_point(p.xy))
                .map(|(id, d)| (&self.regions[id], d));
        }
        self.regions_on_floor(p.floor)
            .map(|r| (r, r.distance_to_point(p.xy)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
    }

    /// Bounding box of all entities on a floor.
    pub fn floor_bbox(&self, floor: FloorId) -> BoundingBox {
        let mut bb = BoundingBox::empty();
        for e in self.entities_on_floor(floor) {
            match &e.footprint {
                crate::entity::Footprint::Area(p) => bb = bb.union(&p.bbox()),
                crate::entity::Footprint::Opening { anchor, .. } => bb.expand(*anchor),
                crate::entity::Footprint::Line(l) => bb = bb.union(&l.bbox()),
            }
        }
        bb
    }

    /// Computes (or recomputes) the topological relations and the spatial
    /// grid index. Must be called after the last mutation and before
    /// topology-dependent queries.
    pub fn freeze(&mut self) {
        self.topology = Some(Topology::compute(self));
        self.index = Some(SpatialIndex::from_model(self));
    }

    /// The spatial grid index, present on a frozen model.
    pub fn spatial_index(&self) -> Option<&SpatialIndex> {
        self.index.as_ref()
    }

    /// Whether [`freeze`](Self::freeze) has been called since the last
    /// mutation.
    pub fn is_frozen(&self) -> bool {
        self.topology.is_some()
    }

    /// The computed topology.
    pub fn topology(&self) -> Result<&Topology, DsmError> {
        self.topology.as_ref().ok_or(DsmError::NotFrozen)
    }

    /// Convenience: the region containing a planar point on a floor.
    pub fn region_at_xy(&self, x: f64, y: f64, floor: FloorId) -> Option<&SemanticRegion> {
        self.region_at(&IndoorPoint {
            xy: Point::new(x, y),
            floor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityKind;
    use crate::semantic::SemanticTag;
    use trips_geom::Polygon;

    fn sq(x: f64, y: f64, w: f64) -> Polygon {
        Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + w))
    }

    fn small_model() -> DigitalSpaceModel {
        let mut dsm = DigitalSpaceModel::new("test-building");
        let room = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            room,
            EntityKind::Room,
            0,
            "RoomA",
            sq(0.0, 0.0, 10.0),
        ))
        .unwrap();
        let hall = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            hall,
            EntityKind::Hallway,
            0,
            "Hall",
            sq(10.0, 0.0, 10.0),
        ))
        .unwrap();
        let rid = dsm.next_region_id();
        dsm.add_region(SemanticRegion::new(
            rid,
            "Nike Store",
            SemanticTag::new("sportswear", "shop"),
            0,
            sq(0.0, 0.0, 10.0),
            room,
        ))
        .unwrap();
        dsm
    }

    #[test]
    fn entity_and_region_lookup() {
        let dsm = small_model();
        assert_eq!(dsm.entity_count(), 2);
        assert_eq!(dsm.region_count(), 1);
        assert!(dsm.entity(EntityId(0)).is_ok());
        assert!(matches!(
            dsm.entity(EntityId(99)),
            Err(DsmError::UnknownEntity(_))
        ));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut dsm = small_model();
        let dup = Entity::area(EntityId(0), EntityKind::Room, 0, "dup", sq(0.0, 0.0, 1.0));
        assert!(matches!(dsm.add_entity(dup), Err(DsmError::DuplicateId(_))));
    }

    #[test]
    fn region_with_unknown_entity_rejected() {
        let mut dsm = small_model();
        let r = SemanticRegion::new(
            RegionId(5),
            "ghost",
            SemanticTag::new("x", "shop"),
            0,
            sq(0.0, 0.0, 1.0),
            EntityId(42),
        );
        assert!(matches!(dsm.add_region(r), Err(DsmError::UnknownEntity(_))));
    }

    #[test]
    fn locate_picks_smallest_containing() {
        let mut dsm = small_model();
        // A staircell inside RoomA.
        let sc = dsm.next_entity_id();
        dsm.add_entity(Entity::staircase(sc, "stairs", sq(1.0, 1.0, 2.0), &[0, 1]))
            .unwrap();
        let inside_stairs = IndoorPoint::new(2.0, 2.0, 0);
        assert_eq!(dsm.locate(&inside_stairs).unwrap().name, "stairs");
        let in_room = IndoorPoint::new(8.0, 8.0, 0);
        assert_eq!(dsm.locate(&in_room).unwrap().name, "RoomA");
        let outside = IndoorPoint::new(50.0, 50.0, 0);
        assert!(dsm.locate(&outside).is_none());
        let wrong_floor = IndoorPoint::new(8.0, 8.0, 5);
        assert!(dsm.locate(&wrong_floor).is_none());
    }

    #[test]
    fn region_queries() {
        let dsm = small_model();
        assert_eq!(
            dsm.region_at(&IndoorPoint::new(5.0, 5.0, 0)).unwrap().name,
            "Nike Store"
        );
        assert!(dsm.region_at(&IndoorPoint::new(15.0, 5.0, 0)).is_none());
        let (r, d) = dsm.nearest_region(&IndoorPoint::new(12.0, 5.0, 0)).unwrap();
        assert_eq!(r.name, "Nike Store");
        assert!((d - 2.0).abs() < 1e-9);
    }

    #[test]
    fn floors_auto_registered() {
        let dsm = small_model();
        assert_eq!(dsm.floor_count(), 1);
        let mut dsm2 = dsm.clone();
        let sc = dsm2.next_entity_id();
        dsm2.add_entity(Entity::staircase(sc, "s", sq(0.0, 0.0, 1.0), &[0, 1, 2]))
            .unwrap();
        assert_eq!(dsm2.floor_count(), 3);
    }

    #[test]
    fn freeze_gates_topology() {
        let mut dsm = small_model();
        assert!(matches!(dsm.topology(), Err(DsmError::NotFrozen)));
        dsm.freeze();
        assert!(dsm.topology().is_ok());
        // Mutation invalidates.
        let e = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            e,
            EntityKind::Room,
            0,
            "B",
            sq(30.0, 0.0, 5.0),
        ))
        .unwrap();
        assert!(matches!(dsm.topology(), Err(DsmError::NotFrozen)));
    }

    #[test]
    fn floor_bbox_covers_entities() {
        let dsm = small_model();
        let bb = dsm.floor_bbox(0);
        assert!(bb.contains(Point::new(0.0, 0.0)));
        assert!(bb.contains(Point::new(20.0, 10.0)));
    }

    #[test]
    fn nearest_walkable() {
        let dsm = small_model();
        let (e, d) = dsm
            .nearest_walkable(&IndoorPoint::new(-3.0, 5.0, 0))
            .unwrap();
        assert_eq!(e.name, "RoomA");
        assert!((d - 3.0).abs() < 1e-9);
        assert!(dsm
            .nearest_walkable(&IndoorPoint::new(0.0, 0.0, 9))
            .is_none());
    }
}
