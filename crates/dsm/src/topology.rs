//! Topological relations: which door opens into which walkable areas, which
//! areas are adjacent, how semantic regions connect, and the node/edge graph
//! the walking-distance engine runs on.

use crate::distance::HeapEntry;
use crate::entity::{EntityId, EntityKind, Footprint};
use crate::model::DigitalSpaceModel;
use crate::semantic::RegionId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::OnceLock;
use trips_geom::{FloorId, Point};

/// How close (metres) a door anchor must be to an area boundary for the door
/// to be considered an opening of that area.
pub const DOOR_ATTACH_TOLERANCE: f64 = 0.5;

/// Largest walking graph that gets node-to-node tables
/// ([`Topology::node_distances`] and the routes beside it): 2048² entries
/// are 48 MiB. Larger graphs answer every query with a Dijkstra search
/// instead.
pub const MAX_TABLE_NODES: usize = 2048;

/// Walking cost (metres) of climbing a staircase from floor `a` to floor
/// `b`: about 3x the vertical rise in path length (run + rise of typical
/// stairs). The one definition of the vertical cost: staircase edges,
/// the legs into and out of the graph, and the speed check's lower bound
/// in [`crate::distance`] all use it.
pub(crate) fn stair_cost(a: FloorId, b: FloorId, floor_height: f64) -> f64 {
    (i32::from(a) - i32::from(b)).abs() as f64 * floor_height * 3.0
}

/// [`NodeTables::pred`] entry of a row's own node and of unreachable nodes.
const NO_PRED: u32 = u32::MAX;

/// A node of the walking graph: a door anchor or a staircase port.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphNode {
    /// The entity (door or staircase) this node represents.
    pub entity: EntityId,
    pub point: Point,
    pub floor: FloorId,
}

/// A weighted edge of the walking graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphEdge {
    pub to: usize,
    pub weight: f64,
}

/// The computed topology of a DSM.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    /// door id → walkable areas the door opens into (usually 2).
    pub door_areas: BTreeMap<EntityId, Vec<EntityId>>,
    /// walkable area id → (neighbour area, connecting door).
    pub area_adjacency: BTreeMap<EntityId, Vec<(EntityId, EntityId)>>,
    /// region id → directly reachable neighbour regions.
    pub region_adjacency: BTreeMap<RegionId, Vec<RegionId>>,
    /// entity id → regions mapped onto it.
    pub entity_regions: BTreeMap<EntityId, Vec<RegionId>>,
    /// Walking-graph nodes (door anchors + staircase ports).
    pub nodes: Vec<GraphNode>,
    /// Per entity slot ([`DigitalSpaceModel::entity_slot`]): the indices
    /// into `nodes` reachable from inside that walkable area, in the order
    /// they were attached; empty for every other entity.
    pub area_nodes: Vec<Vec<usize>>,
    /// Adjacency list aligned with `nodes`.
    pub edges: Vec<Vec<GraphEdge>>,
    /// Node-to-node tables over `edges`, built on the first
    /// [`node_distances`](Self::node_distances) or route query.
    #[serde(skip)]
    tables: OnceLock<NodeTables>,
}

/// What one Dijkstra search per node leaves behind, for the distance
/// queries of [`crate::distance`].
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeTables {
    /// Row-major `n²` shortest walking distances (`n = nodes.len()`):
    /// entry `u * n + v` runs from `nodes[u]` to `nodes[v]`, `INFINITY`
    /// when unreachable.
    pub(crate) dist: Vec<f64>,
    /// Entry `u * n + v`: the node before `v` on the route row `u`'s search
    /// settled on (the last strict improvement of `v`'s distance).
    pub(crate) pred: Vec<u32>,
}

impl Topology {
    /// Computes all topological relations of `dsm`.
    pub fn compute(dsm: &DigitalSpaceModel) -> Topology {
        let mut topo = Topology::default();

        let walkables: Vec<&crate::entity::Entity> =
            dsm.entities().filter(|e| e.kind.is_walkable()).collect();
        let slot = |id: EntityId| dsm.entity_slot(id).expect("entity in the model");
        topo.area_nodes = vec![Vec::new(); dsm.entity_count()];

        // --- door ↔ area attachment -------------------------------------
        for door in dsm.entities().filter(|e| e.kind == EntityKind::Door) {
            let Footprint::Opening { anchor, .. } = &door.footprint else {
                continue;
            };
            let mut areas = Vec::new();
            for w in &walkables {
                if !w.on_floor(door.floor) {
                    continue;
                }
                if let Some(poly) = w.footprint.as_area() {
                    if poly.distance_to_point(*anchor) <= DOOR_ATTACH_TOLERANCE {
                        areas.push(w.id);
                    }
                }
            }
            topo.door_areas.insert(door.id, areas);
        }

        // --- area adjacency through doors --------------------------------
        for (door, areas) in &topo.door_areas {
            for (i, &a) in areas.iter().enumerate() {
                for &b in &areas[i + 1..] {
                    topo.area_adjacency.entry(a).or_default().push((b, *door));
                    topo.area_adjacency.entry(b).or_default().push((a, *door));
                }
            }
        }

        // --- staircases join their footprint areas across floors ---------
        // A staircase port on floor f belongs to the walkable area that
        // contains its anchor on f (often a hallway, or the staircell itself).
        // Build walking-graph nodes while we are at it.
        for door in dsm.entities().filter(|e| e.kind == EntityKind::Door) {
            let Footprint::Opening { anchor, .. } = &door.footprint else {
                continue;
            };
            let idx = topo.nodes.len();
            topo.nodes.push(GraphNode {
                entity: door.id,
                point: *anchor,
                floor: door.floor,
            });
            if let Some(areas) = topo.door_areas.get(&door.id) {
                for &a in areas {
                    topo.area_nodes[slot(a)].push(idx);
                }
            }
        }

        // Staircase ports: one node per floor the staircase touches.
        let mut stair_ports: BTreeMap<EntityId, Vec<usize>> = BTreeMap::new();
        for stair in dsm.entities().filter(|e| e.kind == EntityKind::Staircase) {
            let Some(poly) = stair.footprint.as_area() else {
                continue;
            };
            let anchor = poly.interior_point();
            for f in stair.floors() {
                let idx = topo.nodes.len();
                topo.nodes.push(GraphNode {
                    entity: stair.id,
                    point: anchor,
                    floor: f,
                });
                stair_ports.entry(stair.id).or_default().push(idx);
                // The port is reachable from inside the staircell itself...
                topo.area_nodes[slot(stair.id)].push(idx);
                // ...and from every walkable area whose footprint contains or
                // abuts the staircase anchor on this floor.
                for w in &walkables {
                    if w.id == stair.id || !w.on_floor(f) {
                        continue;
                    }
                    if let Some(wpoly) = w.footprint.as_area() {
                        if wpoly.distance_to_point(anchor)
                            <= DOOR_ATTACH_TOLERANCE.max(poly.perimeter() / 4.0)
                        {
                            topo.area_nodes[slot(w.id)].push(idx);
                        }
                    }
                }
            }
        }

        // --- edges --------------------------------------------------------
        topo.edges = vec![Vec::new(); topo.nodes.len()];

        // Intra-area edges: all node pairs sharing a walkable area, weighted
        // by planar Euclidean distance (areas are room-scale and near-convex
        // in floorplans; the straight line is the walking distance).
        for indices in &topo.area_nodes {
            for (i, &u) in indices.iter().enumerate() {
                for &v in &indices[i + 1..] {
                    if topo.nodes[u].floor != topo.nodes[v].floor {
                        continue;
                    }
                    let w = topo.nodes[u].point.distance(topo.nodes[v].point);
                    topo.edges[u].push(GraphEdge { to: v, weight: w });
                    topo.edges[v].push(GraphEdge { to: u, weight: w });
                }
            }
        }

        // Vertical edges between consecutive staircase ports.
        for ports in stair_ports.values() {
            let mut sorted: Vec<usize> = ports.clone();
            sorted.sort_by_key(|&i| topo.nodes[i].floor);
            for w in sorted.windows(2) {
                let (u, v) = (w[0], w[1]);
                let weight = stair_cost(topo.nodes[u].floor, topo.nodes[v].floor, dsm.floor_height);
                topo.edges[u].push(GraphEdge { to: v, weight });
                topo.edges[v].push(GraphEdge { to: u, weight });
            }
        }

        // --- entity → regions mapping ------------------------------------
        for region in dsm.regions() {
            for &e in &region.entities {
                topo.entity_regions.entry(e).or_default().push(region.id);
            }
        }

        // --- region adjacency ---------------------------------------------
        // Regions A, B are adjacent iff some backing area of A is adjacent to
        // (or identical with) some backing area of B.
        let region_ids: Vec<RegionId> = dsm.regions().map(|r| r.id).collect();
        let mut adj: BTreeMap<RegionId, BTreeSet<RegionId>> = BTreeMap::new();
        for &rid in &region_ids {
            adj.entry(rid).or_default();
        }
        for region in dsm.regions() {
            for &e in &region.entities {
                // Same-entity regions.
                if let Some(shared) = topo.entity_regions.get(&e) {
                    for &other in shared {
                        if other != region.id {
                            adj.entry(region.id).or_default().insert(other);
                        }
                    }
                }
                // Door-adjacent entities' regions.
                if let Some(neigh) = topo.area_adjacency.get(&e) {
                    for (area, _door) in neigh {
                        if let Some(rids) = topo.entity_regions.get(area) {
                            for &other in rids {
                                if other != region.id {
                                    adj.entry(region.id).or_default().insert(other);
                                }
                            }
                        }
                    }
                }
                // Staircase-linked entities' regions: if a staircase port is
                // reachable from this entity, regions of other areas sharing
                // that staircase are reachable too.
                for &n in &topo.area_nodes[slot(e)] {
                    let node_entity = topo.nodes[n].entity;
                    if let Some(rids) = topo.entity_regions.get(&node_entity) {
                        for &other in rids {
                            if other != region.id {
                                adj.entry(region.id).or_default().insert(other);
                            }
                        }
                    }
                }
            }
        }
        topo.region_adjacency = adj
            .into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect();

        topo
    }

    /// The walkable areas a door opens into.
    pub fn areas_of_door(&self, door: EntityId) -> &[EntityId] {
        self.door_areas.get(&door).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Neighbour regions of `region`.
    pub fn neighbours(&self, region: RegionId) -> &[RegionId] {
        self.region_adjacency
            .get(&region)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether two regions are directly connected.
    pub fn regions_adjacent(&self, a: RegionId, b: RegionId) -> bool {
        self.neighbours(a).contains(&b)
    }

    /// The node-to-node walking-distance table: entry `u * n + v` is the
    /// shortest distance from `nodes[u]` to `nodes[v]` over `edges`
    /// (`f64::INFINITY` when `v` is unreachable from `u`), with
    /// `n = nodes.len()`.
    ///
    /// Built on first use — one Dijkstra search per node — and then shared
    /// by every reader of this topology; `freeze()` does not pay for it.
    /// `None` for graphs of more than [`MAX_TABLE_NODES`] nodes.
    pub fn node_distances(&self) -> Option<&[f64]> {
        self.tables().map(|t| t.dist.as_slice())
    }

    /// The node-to-node tables, built on first use like
    /// [`node_distances`](Self::node_distances); `None` above
    /// [`MAX_TABLE_NODES`].
    pub(crate) fn tables(&self) -> Option<&NodeTables> {
        if self.nodes.len() > MAX_TABLE_NODES {
            return None;
        }
        Some(self.tables.get_or_init(|| self.build_tables()))
    }

    fn build_tables(&self) -> NodeTables {
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n * n];
        let mut pred = vec![NO_PRED; n * n];
        let mut heap = BinaryHeap::new();
        for (s, (dist, pred)) in dist
            .chunks_exact_mut(n.max(1))
            .zip(pred.chunks_exact_mut(n.max(1)))
            .enumerate()
        {
            dist[s] = 0.0;
            heap.push(HeapEntry { dist: 0.0, node: s });
            while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for e in &self.edges[u] {
                    let nd = d + e.weight;
                    if nd < dist[e.to] {
                        dist[e.to] = nd;
                        pred[e.to] = u as u32;
                        heap.push(HeapEntry {
                            dist: nd,
                            node: e.to,
                        });
                    }
                }
            }
        }
        NodeTables { dist, pred }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;
    use crate::semantic::{SemanticRegion, SemanticTag};
    use trips_geom::Polygon;

    fn sq(x: f64, y: f64, w: f64, h: f64) -> Polygon {
        Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + h))
    }

    /// Two rooms joined to a hallway by one door each, a staircase in the
    /// hallway rising to floor 1 with one room there.
    ///
    /// ```text
    /// floor 0:  [RoomA][ Hall +stairs ][RoomB]     floor 1: [RoomC over hall]
    /// ```
    fn two_room_model() -> (DigitalSpaceModel, Vec<EntityId>, Vec<RegionId>) {
        let mut dsm = DigitalSpaceModel::new("t");
        let a = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            a,
            EntityKind::Room,
            0,
            "A",
            sq(0.0, 0.0, 10.0, 10.0),
        ))
        .unwrap();
        let hall = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            hall,
            EntityKind::Hallway,
            0,
            "Hall",
            sq(10.0, 0.0, 10.0, 10.0),
        ))
        .unwrap();
        let b = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            b,
            EntityKind::Room,
            0,
            "B",
            sq(20.0, 0.0, 10.0, 10.0),
        ))
        .unwrap();
        let d1 = dsm.next_entity_id();
        dsm.add_entity(Entity::door(d1, 0, "door-A", Point::new(10.0, 5.0), 1.0))
            .unwrap();
        let d2 = dsm.next_entity_id();
        dsm.add_entity(Entity::door(d2, 0, "door-B", Point::new(20.0, 5.0), 1.0))
            .unwrap();
        let stairs = dsm.next_entity_id();
        dsm.add_entity(Entity::staircase(
            stairs,
            "stairs",
            sq(14.0, 8.0, 2.0, 2.0),
            &[0, 1],
        ))
        .unwrap();
        let c = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            c,
            EntityKind::Room,
            1,
            "C",
            sq(10.0, 0.0, 10.0, 10.0),
        ))
        .unwrap();

        let ra = dsm.next_region_id();
        dsm.add_region(SemanticRegion::new(
            ra,
            "Shop A",
            SemanticTag::new("shop-a", "shop"),
            0,
            sq(0.0, 0.0, 10.0, 10.0),
            a,
        ))
        .unwrap();
        let rhall = dsm.next_region_id();
        dsm.add_region(SemanticRegion::new(
            rhall,
            "Center Hall",
            SemanticTag::new("atrium", "circulation"),
            0,
            sq(10.0, 0.0, 10.0, 10.0),
            hall,
        ))
        .unwrap();
        let rb = dsm.next_region_id();
        dsm.add_region(SemanticRegion::new(
            rb,
            "Shop B",
            SemanticTag::new("shop-b", "shop"),
            0,
            sq(20.0, 0.0, 10.0, 10.0),
            b,
        ))
        .unwrap();
        let rc = dsm.next_region_id();
        dsm.add_region(SemanticRegion::new(
            rc,
            "Shop C",
            SemanticTag::new("shop-c", "shop"),
            1,
            sq(10.0, 0.0, 10.0, 10.0),
            c,
        ))
        .unwrap();

        dsm.freeze();
        (
            dsm,
            vec![a, hall, b, d1, d2, stairs, c],
            vec![ra, rhall, rb, rc],
        )
    }

    #[test]
    fn doors_attach_to_both_sides() {
        let (dsm, e, _) = two_room_model();
        let topo = dsm.topology().unwrap();
        let d1_areas = topo.areas_of_door(e[3]);
        assert!(d1_areas.contains(&e[0]) && d1_areas.contains(&e[1]));
        let d2_areas = topo.areas_of_door(e[4]);
        assert!(d2_areas.contains(&e[1]) && d2_areas.contains(&e[2]));
    }

    #[test]
    fn area_adjacency_via_doors() {
        let (dsm, e, _) = two_room_model();
        let topo = dsm.topology().unwrap();
        let a_neigh = &topo.area_adjacency[&e[0]];
        assert!(a_neigh.iter().any(|(n, d)| *n == e[1] && *d == e[3]));
        // A and B are NOT directly adjacent (must go through the hall).
        assert!(!a_neigh.iter().any(|(n, _)| *n == e[2]));
    }

    #[test]
    fn region_adjacency_follows_area_adjacency() {
        let (dsm, _, r) = two_room_model();
        let topo = dsm.topology().unwrap();
        assert!(topo.regions_adjacent(r[0], r[1]), "Shop A ↔ Hall");
        assert!(topo.regions_adjacent(r[1], r[2]), "Hall ↔ Shop B");
        assert!(!topo.regions_adjacent(r[0], r[2]), "Shop A ↮ Shop B");
    }

    #[test]
    fn graph_nodes_cover_doors_and_stair_ports() {
        let (dsm, _, _) = two_room_model();
        let topo = dsm.topology().unwrap();
        // 2 doors + 2 staircase ports (floors 0 and 1).
        assert_eq!(topo.nodes.len(), 4);
        let floors: Vec<FloorId> = topo.nodes.iter().map(|n| n.floor).collect();
        assert_eq!(floors.iter().filter(|&&f| f == 0).count(), 3);
        assert_eq!(floors.iter().filter(|&&f| f == 1).count(), 1);
    }

    #[test]
    fn hallway_reaches_both_doors_and_stairs() {
        let (dsm, e, _) = two_room_model();
        let topo = dsm.topology().unwrap();
        let hall_nodes = &topo.area_nodes[dsm.entity_slot(e[1]).unwrap()];
        assert_eq!(hall_nodes.len(), 3, "two doors + stair port on floor 0");
    }

    #[test]
    fn vertical_edges_exist() {
        let (dsm, _, _) = two_room_model();
        let topo = dsm.topology().unwrap();
        let port0 = topo
            .nodes
            .iter()
            .position(|n| n.floor == 0 && n.entity == EntityId(5))
            .unwrap();
        let port1 = topo
            .nodes
            .iter()
            .position(|n| n.floor == 1 && n.entity == EntityId(5))
            .unwrap();
        assert!(topo.edges[port0].iter().any(|e| e.to == port1));
        let w = topo.edges[port0]
            .iter()
            .find(|e| e.to == port1)
            .unwrap()
            .weight;
        assert!((w - dsm.floor_height * 3.0).abs() < 1e-9);
    }

    #[test]
    fn upstairs_region_connected_through_staircase() {
        let (dsm, _, r) = two_room_model();
        let topo = dsm.topology().unwrap();
        // Shop C (floor 1) has no regions adjacency except via the staircase,
        // whose entity has no region. The hall's region connects to the
        // staircase node, and Shop C's room contains the stair anchor on
        // floor 1 — region adjacency includes both directions through the
        // staircase entity only if the staircase is region-mapped. Without
        // mapping, C connects to nothing at region level.
        assert!(topo.neighbours(r[3]).is_empty());
        // But the hall's neighbour set contains only shops A and B.
        let hall_neigh = topo.neighbours(r[1]);
        assert!(hall_neigh.contains(&r[0]) && hall_neigh.contains(&r[2]));
    }

    #[test]
    fn dangling_door_attaches_to_nothing() {
        let mut dsm = DigitalSpaceModel::new("t");
        let d = dsm.next_entity_id();
        dsm.add_entity(Entity::door(d, 0, "nowhere", Point::new(100.0, 100.0), 1.0))
            .unwrap();
        dsm.freeze();
        assert!(dsm.topology().unwrap().areas_of_door(d).is_empty());
    }

    #[test]
    fn no_distance_table_above_the_node_cap() {
        let node = GraphNode {
            entity: EntityId(0),
            point: Point::new(0.0, 0.0),
            floor: 0,
        };
        let over = Topology {
            nodes: vec![node; MAX_TABLE_NODES + 1],
            edges: vec![Vec::new(); MAX_TABLE_NODES + 1],
            ..Topology::default()
        };
        assert!(over.node_distances().is_none());
        let small = Topology {
            nodes: vec![node; 3],
            edges: vec![Vec::new(); 3],
            ..Topology::default()
        };
        let table = small.node_distances().unwrap();
        assert_eq!(table.iter().filter(|d| **d == 0.0).count(), 3);
        assert_eq!(table.iter().filter(|d| d.is_infinite()).count(), 6);
    }
}
