//! Minimum indoor walking distance (paper §3 Cleaning; definition from
//! Yang et al., "Probabilistic threshold kNN queries over moving objects in
//! symbolic indoor space", EDBT 2010 — the paper's ref \[13\]).
//!
//! People cannot cross walls: the shortest walkable route between two indoor
//! points threads through doors and staircases. This module answers distance
//! and path queries over the door graph computed by [`crate::topology`].
//!
//! The reference answer is a Dijkstra search from a virtual source joined
//! to the nodes the first point may enter the graph through, to a virtual
//! target joined from the second point's. [`PathQuery::distance`] runs it
//! without predecessor bookkeeping. The Cleaner's two per-record questions
//! are answered from node-to-node tables instead, with the search's own
//! answer:
//!
//! * The speed check — is the distance within `dt · limit`? —
//!   [`PathQuery::within`] answers with one min-plus lookup over the two
//!   points' eligible nodes in [`Topology::node_distances`]. The table's
//!   estimate can differ from the search's value in the last bits, so a
//!   quotient within a few ulps of the limit is re-decided by the search
//!   (the error argument is on `within`).
//! * Interpolation needs a point on the route: [`PathQuery::path`] picks
//!   the node pair of that min-plus lookup, reads the route between them
//!   from a predecessor table filled by the same per-node searches, and
//!   adds up its legs in route order, as the search does. This is the
//!   search's path bit for bit whenever the route is unique within
//!   `within`'s margin; otherwise (an exact or near tie between two
//!   routes, at the ends or at any hop) `path` falls back to the search.
//!   The argument is on `PathQuery::table_route`. The route is read into a
//!   fixed array, so [`PathQuery::point_at_fraction`], which needs one
//!   point of it, allocates nothing unless it falls back.
//!
//! Every query starts from the points' [`Anchor`]s. An anchor carries its
//! area's dense slot, so the area's graph nodes
//! ([`Topology::area_nodes`]) are one slot read, not a map lookup.
//!
//! The tables are built on the first query that needs them (one Dijkstra
//! per node, about 1–2 ms on the 98-node, 7-floor benchmark mall), not at
//! `freeze()`, and are then shared by every `PathQuery` of that frozen
//! model, across threads. Graphs above
//! [`crate::topology::MAX_TABLE_NODES`] nodes get no tables and search
//! instead.

use crate::entity::EntityId;
use crate::model::{DigitalSpaceModel, DsmError};
use crate::topology::{stair_cost, NodeTables, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use trips_geom::{IndoorPoint, Polyline};

/// Target legs [`PathQuery::within`] keeps on the stack; an area with more
/// graph nodes spills them to the heap.
const STACK_LEGS: usize = 32;

/// A walkable route between two indoor points.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkPath {
    /// Total walking distance in metres (includes staircase legs).
    pub distance: f64,
    /// Waypoints from source to target, floor-annotated.
    pub points: Vec<IndoorPoint>,
}

impl WalkPath {
    /// The planar projection of the path on a single floor (for rendering).
    pub fn planar_polyline(&self) -> Polyline {
        Polyline::new(self.points.iter().map(|p| p.xy).collect())
    }

    /// Point at the given fraction of total walking distance, with the floor
    /// of the path leg it falls on. Used by location interpolation.
    pub fn point_at_fraction(&self, fraction: f64) -> IndoorPoint {
        point_along(
            self.distance,
            self.points.len(),
            |i| self.points[i],
            fraction,
        )
    }
}

/// [`WalkPath::point_at_fraction`] of the path of `len` points `point(0)`,
/// …, `point(len - 1)` and walking distance `distance`: the one definition,
/// shared by paths that are not built as a `WalkPath`.
fn point_along(
    distance: f64,
    len: usize,
    point: impl Fn(usize) -> IndoorPoint,
    fraction: f64,
) -> IndoorPoint {
    let f = fraction.clamp(0.0, 1.0);
    if len < 2 || distance <= f64::EPSILON || f <= 0.0 {
        return point(0);
    }
    if f >= 1.0 {
        return point(len - 1);
    }
    let mut remaining = f * distance;
    for i in 1..len {
        let (a, b) = (point(i - 1), point(i));
        // Leg length: planar when same floor, vertical cost otherwise.
        let leg = if a.floor == b.floor {
            a.xy.distance(b.xy)
        } else {
            // Vertical leg weight is embedded in `distance`; approximate
            // by the remaining proportional share.
            distance / (len - 1) as f64
        };
        if remaining <= leg && leg > 0.0 {
            let t = remaining / leg;
            return IndoorPoint {
                xy: a.xy.lerp(b.xy, t),
                floor: if t < 0.5 { a.floor } else { b.floor },
            };
        }
        remaining -= leg;
    }
    point(len - 1)
}

/// Min-heap entry for Dijkstra.
#[derive(Debug, Copy, Clone, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("finite distances")
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Where a point enters the walking graph: the walkable area containing it
/// (or, outside every area, the nearest one on its floor), that area's
/// dense slot ([`DigitalSpaceModel::entity_slot`]), which indexes its node
/// list, and the snap distance to the area (0 when the point is inside).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    pub area: EntityId,
    pub slot: u32,
    pub snap: f64,
}

/// Most graph nodes a route read from the node tables may pass through; a
/// longer route is left to the search, which finds the same one.
const ROUTE_CAP: usize = 64;

/// A route read from the node tables: its graph nodes, last first (none
/// for the straight line inside one area), and its walking distance
/// between the two points it joins. Node indices fit `u16`: only graphs of
/// at most [`crate::topology::MAX_TABLE_NODES`] nodes have tables.
struct TableRoute {
    reversed: [u16; ROUTE_CAP],
    len: usize,
    distance: f64,
}

impl TableRoute {
    /// Graph node `j` of the route, first to last.
    fn node(&self, j: usize) -> usize {
        self.reversed[self.len - 1 - j] as usize
    }
}

/// A path as [`PathQuery::route`] finds it.
enum Route {
    /// Read without a search: no `Vec` is built.
    Read(TableRoute),
    Searched(WalkPath),
}

/// What lets the search that backs up [`PathQuery::table_route`] skip the
/// part of the graph no shortest route passes through.
///
/// The search skips a relaxation that would give graph node `x` the
/// distance `d` when `d + rest(x) > limit`, where `rest(x)` is the table's
/// least `D[x][v] + w_b(v)` over the target's eligible nodes and `limit` is
/// `L·(1 + 2δ)` for the table's estimate `L` ([`PathQuery::pair_min`]) and
/// `within`'s margin `δ`.
///
/// Why the result is the unpruned search's, bit for bit: for a node `x` on
/// the route `R` that search returns, with the distance `d` it ends at, `d`
/// is `R`'s rounded prefix and `rest(x)` at most the table's rounded sum of
/// `R`'s suffix, so `d + rest(x)` is within the rounding `γ` (see `within`)
/// of `R`'s real length — which is within `2γ` of the real shortest
/// distance, itself within `γ` of `L`. `2δ` exceeds those few `γ`, so no
/// relaxation that sets a node of `R` to its final distance is skipped.
/// A skipped relaxation can only leave some node's distance higher, never
/// lower, so every node of `R` reaches the same final distance, first set
/// by the same predecessor in the same `(distance, node)` pop order, and
/// the target is settled as before.
#[derive(Clone, Copy)]
struct Prune<'t> {
    tables: &'t NodeTables,
    /// `L·(1 + 2δ)`; `INFINITY` when the estimate cannot bound the search.
    limit: f64,
}

/// The result of [`PathQuery::pair_min`]: the least term, its node pair
/// and legs, the least term of every other pair, and whether any term was
/// NaN (which no comparison picks).
struct PairMin {
    length: f64,
    u: usize,
    v: usize,
    wa: f64,
    wb: f64,
    runner_up: f64,
    nan: bool,
}

/// Distance/path query interface over a frozen DSM.
pub struct PathQuery<'a> {
    dsm: &'a DigitalSpaceModel,
    topo: &'a Topology,
}

impl<'a> PathQuery<'a> {
    /// Creates a query handle. Fails if the DSM is not frozen.
    pub fn new(dsm: &'a DigitalSpaceModel) -> Result<Self, DsmError> {
        Ok(PathQuery {
            dsm,
            topo: dsm.topology()?,
        })
    }

    /// The anchor every query computes for `p`; `None` when `p`'s floor has
    /// no walkable area (then nothing is reachable from `p`).
    pub fn anchor(&self, p: &IndoorPoint) -> Option<Anchor> {
        let (area, snap) = match self.dsm.locate_id(p) {
            Some(area) => (area, 0.0),
            None => self.dsm.nearest_walkable_id(p)?,
        };
        let slot = self.dsm.entity_slot(area)? as u32;
        Some(Anchor { area, slot, snap })
    }

    /// Minimum indoor walking distance between two points.
    ///
    /// Returns `None` when no walkable route exists (disconnected floors,
    /// or a floor without walkable areas).
    pub fn distance(&self, a: &IndoorPoint, b: &IndoorPoint) -> Option<f64> {
        let (anchor_a, anchor_b) = (self.anchor(a)?, self.anchor(b)?);
        self.anchored_distance(a, anchor_a, b, anchor_b)
    }

    /// Shortest walkable path between two points.
    pub fn path(&self, a: &IndoorPoint, b: &IndoorPoint) -> Option<WalkPath> {
        let (anchor_a, anchor_b) = (self.anchor(a)?, self.anchor(b)?);
        self.path_anchored(a, anchor_a, b, anchor_b)
    }

    /// [`path`](Self::path) given the points' own [`anchor`](Self::anchor)s.
    ///
    /// A cross-area pair is routed from the node tables when its route is
    /// unique (see the module docs) and by the Dijkstra search otherwise;
    /// both give the same points and the same `distance` bits.
    pub fn path_anchored(
        &self,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
    ) -> Option<WalkPath> {
        self.path_using(self.topo.tables(), a, anchor_a, b, anchor_b)
    }

    /// The path the Dijkstra search finds, without the node tables: the
    /// reference [`path`](Self::path) must reproduce exactly.
    pub fn path_by_search(&self, a: &IndoorPoint, b: &IndoorPoint) -> Option<WalkPath> {
        let (anchor_a, anchor_b) = (self.anchor(a)?, self.anchor(b)?);
        self.path_using(None, a, anchor_a, b, anchor_b)
    }

    fn path_using(
        &self,
        tables: Option<&NodeTables>,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
    ) -> Option<WalkPath> {
        Some(match self.route(tables, a, anchor_a, b, anchor_b)? {
            Route::Read(route) => WalkPath {
                distance: route.distance,
                points: (0..route.len + 2)
                    .map(|i| self.route_point(&route, a, b, i))
                    .collect(),
            },
            Route::Searched(path) => path,
        })
    }

    /// The point at `fraction` of the walking distance along the path from
    /// `a` to `b`, given the points' own [`anchor`](Self::anchor)s: exactly
    /// `path_anchored(a, anchor_a, b, anchor_b).map(|p| p.point_at_fraction(fraction))`,
    /// the same float operations in the same order. Location interpolation
    /// asks this once per repaired record. A same-area pair or a route read
    /// from the node tables builds no path; only the search's fallback
    /// does.
    pub fn point_at_fraction(
        &self,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
        fraction: f64,
    ) -> Option<IndoorPoint> {
        Some(
            match self.route(self.topo.tables(), a, anchor_a, b, anchor_b)? {
                Route::Read(route) => point_along(
                    route.distance,
                    route.len + 2,
                    |i| self.route_point(&route, a, b, i),
                    fraction,
                ),
                Route::Searched(path) => path.point_at_fraction(fraction),
            },
        )
    }

    /// The path from `a` to `b`: the straight line inside one area, else
    /// the route read from `tables` when they vouch for it, else the
    /// search's path (pruned by the tables' bound when there are tables).
    fn route(
        &self,
        tables: Option<&NodeTables>,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
    ) -> Option<Route> {
        if let Some(distance) = same_area_distance(a, anchor_a, b, anchor_b) {
            return Some(Route::Read(TableRoute {
                reversed: [0; ROUTE_CAP],
                len: 0,
                distance,
            }));
        }
        let prune = match tables {
            Some(tables) => match self.table_route(tables, a, anchor_a, b, anchor_b) {
                Ok(route) => return Some(Route::Read(route)),
                Err(limit) => Some(Prune { tables, limit }),
            },
            None => None,
        };
        self.searched_path(a, anchor_a, b, anchor_b, prune)
            .map(Route::Searched)
    }

    /// Point `i` of the path from `a` along `route` to `b`: `a`, then the
    /// route's nodes, then `b`.
    fn route_point(
        &self,
        route: &TableRoute,
        a: &IndoorPoint,
        b: &IndoorPoint,
        i: usize,
    ) -> IndoorPoint {
        if i == 0 {
            *a
        } else if i > route.len {
            *b
        } else {
            self.waypoint(route.node(i - 1))
        }
    }

    fn searched_path(
        &self,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
        prune: Option<Prune<'_>>,
    ) -> Option<WalkPath> {
        let n = self.topo.nodes.len();
        let mut prev: Vec<Option<usize>> = vec![None; n + 2];
        let distance = self.search(a, anchor_a, b, anchor_b, Some(prev.as_mut_slice()), prune)?;

        // Reconstruct waypoints; `n` is the virtual source, `n + 1` the
        // virtual target.
        let mut rev = vec![*b];
        let mut cur = prev[n + 1];
        while let Some(u) = cur {
            if u == n {
                break;
            }
            rev.push(self.waypoint(u));
            cur = prev[u];
        }
        rev.push(*a);
        rev.reverse();
        Some(WalkPath {
            distance,
            points: rev,
        })
    }

    fn waypoint(&self, v: usize) -> IndoorPoint {
        let node = self.topo.nodes[v];
        IndoorPoint {
            xy: node.point,
            floor: node.floor,
        }
    }

    /// The search's path read from the node tables, or `None` when the
    /// tables cannot vouch for it (the caller then searches).
    ///
    /// The candidate is the eligible pair `(u, v)` minimising
    /// `(w_a(u) + D[u][v]) + w_b(v)` ([`pair_min`](Self::pair_min)), with
    /// the interior route
    /// read back through row `u` of the predecessor table. It is the
    /// search's route when it is *unique within the margin* `δ` of
    /// [`within`](Self::within), relative to its length `L`:
    ///
    /// * every other pair's estimate exceeds `L·(1 + δ)`, and
    /// * at every hop `y → x` of the interior route, every other neighbour
    ///   `z` of `x` reaches it longer: `D[u][z] + w(z, x) > D[u][x] + δ·L`
    ///   (the graph is undirected, so `x`'s edges are its in-edges too).
    ///
    /// Any other route then either leaves through another pair or leaves
    /// the interior route at some hop, and in both cases is longer than `L`
    /// by more than the two computations' rounding (the argument on
    /// `within`). The search returns the route minimising its own rounded
    /// sum, so it returns this one, and its distance is that sum:
    /// `w_a(u)`, then each hop's edge weight, then `w_b(v)`, added in route
    /// order — which is how it is recomputed here, bit for bit. A tie, a
    /// non-finite estimate, an unreachable pair or a route of more than
    /// [`ROUTE_CAP`] nodes falls back to the search: the error is the
    /// [`Prune::limit`] that search may use. The route is read into a fixed
    /// array: nothing is allocated.
    fn table_route(
        &self,
        tables: &NodeTables,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
    ) -> Result<TableRoute, f64> {
        let n = self.topo.nodes.len();
        let PairMin {
            length,
            u,
            v,
            wa,
            wb,
            runner_up,
            nan,
        } = self.pair_min(tables, a, anchor_a, b, anchor_b);
        let slack = length * self.margin();
        let limit = if nan {
            f64::INFINITY
        } else {
            length + 2.0 * slack
        };
        if nan || !length.is_finite() || runner_up <= length + slack {
            return Err(limit);
        }
        let row = &tables.dist[u * n..(u + 1) * n];
        let pred = &tables.pred[u * n..(u + 1) * n];
        // The interior route, from `v` back to `u`.
        let mut route = TableRoute {
            reversed: [0; ROUTE_CAP],
            len: 1,
            distance: wa,
        };
        route.reversed[0] = v as u16;
        let mut x = v;
        while x != u {
            let y = pred[x] as usize;
            let unique = self.topo.edges[x]
                .iter()
                .all(|e| e.to == y || row[e.to] + e.weight > row[x] + slack);
            if !unique || route.len == ROUTE_CAP {
                return Err(limit);
            }
            route.reversed[route.len] = y as u16;
            route.len += 1;
            x = y;
        }
        for j in 1..route.len {
            let (from, to) = (route.node(j - 1), route.node(j));
            // Parallel edges: the search's relaxation keeps the lightest.
            route.distance += self.topo.edges[from]
                .iter()
                .filter(|e| e.to == to)
                .map(|e| e.weight)
                .fold(f64::INFINITY, f64::min);
        }
        route.distance += wb;
        Ok(route)
    }

    /// Whether `b` is reachable from `a` within `dt` seconds at `limit` m/s:
    /// the same decision as
    /// `path(a, b).is_some_and(|p| p.distance / dt <= limit)`, given the
    /// points' own [`anchor`](Self::anchor)s, without a graph search in
    /// all but a vanishing share of calls.
    ///
    /// A same-area pair evaluates the very expression `path` does. Any other
    /// pair takes `min over (u, v)` of `(w_a(u) + D[u][v]) + w_b(v)`, where
    /// `w_a`, `w_b` are the legs from the points to the nodes they may
    /// enter and leave the graph through (the search's virtual source and
    /// target edges, same eligibility, same expressions) and `D` is
    /// [`Topology::node_distances`]. Only when the quotient lands within a
    /// relative margin `δ = (n + 8)·4·ε` of `limit` does the exact search
    /// decide. Two cheaper checks come first and decide most cross-area
    /// pairs alone: a lower bound on every route (planar distance plus the
    /// floors' `stair_cost`) that exceeds `limit` by the margin rejects,
    /// and the route through a node both areas reach (usually the door
    /// between them) accepts when it passes.
    ///
    /// Why the margin suffices: every term is non-negative and finite, and
    /// both the search and the table evaluate each candidate route as a
    /// floating-point sum of at most `n + 2` of the same terms, the search
    /// in path order and the table in a different order. Rounding is
    /// monotone, so each computes the minimum over routes of its own sum,
    /// and either sum of a route lies within a relative `γ = (n + 1)·ε/2`
    /// (first order) of the route's real length. Both results are
    /// therefore within `γ` of the real shortest distance and within `2γ`
    /// of each other; one division adds `ε/2` to each quotient. `δ`
    /// exceeds `2γ + ε` with room to spare, so outside the margin both
    /// quotients fall on the same side of `limit`. An unreachable pair has
    /// no eligible route in either computation (`INFINITY` in the table).
    pub fn within(
        &self,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
        dt: f64,
        limit: f64,
    ) -> bool {
        self.within_using(self.topo.tables(), a, anchor_a, b, anchor_b, dt, limit)
    }

    #[allow(clippy::too_many_arguments)]
    fn within_using(
        &self,
        tables: Option<&NodeTables>,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
        dt: f64,
        limit: f64,
    ) -> bool {
        let exact = || {
            self.anchored_distance(a, anchor_a, b, anchor_b)
                .is_some_and(|d| d / dt <= limit)
        };
        if let Some(d) = same_area_distance(a, anchor_a, b, anchor_b) {
            return d / dt <= limit;
        }
        let tables = match tables {
            Some(tables) if dt > 0.0 && limit > 0.0 => tables,
            // Over the node cap, or outside the margin argument's premise
            // of a positive time and speed.
            _ => return exact(),
        };
        let margin = self.margin();
        // Every route is at least the planar distance plus the stair cost
        // of the floors between the points: staircase edges join ports at
        // one planar point, and a leg to another floor pays its stair cost.
        // A bound that fails by the margin fails the search's distance too
        // (it lies within the rounding of the real one).
        let bound =
            a.xy.distance(b.xy) + stair_cost(a.floor, b.floor, self.dsm.floor_height).max(0.0);
        if bound / dt > limit * (1.0 + margin) {
            return false;
        }
        // The route through a node both areas reach (the door between a
        // shop and its hallway) is the likeliest to pass, for two legs, not
        // one per node. Its term `(w_a + 0) + w_b` is the very sum the
        // search forms for that route, and the search's distance is at
        // most that, so a term that passes needs no margin.
        if self.shared_node_term(tables, a, anchor_a, b, anchor_b) / dt <= limit {
            return true;
        }
        let estimate = self.pair_min(tables, a, anchor_a, b, anchor_b).length;
        if estimate == f64::INFINITY {
            return false;
        }
        let q = estimate / dt;
        if q <= limit * (1.0 - margin) {
            true
        } else if q > limit * (1.0 + margin) {
            false
        } else {
            exact()
        }
    }

    /// The relative margin `δ = (n + 8)·4·ε` of [`within`](Self::within).
    fn margin(&self) -> f64 {
        (self.topo.nodes.len() + 8) as f64 * 4.0 * f64::EPSILON
    }

    /// `min over (u, v)` of `(w_a(u) + D[u][v]) + w_b(v)` over the eligible
    /// nodes of the two points' areas, with its pair and legs; `INFINITY`
    /// when no eligible node pair is connected.
    fn pair_min(
        &self,
        tables: &NodeTables,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
    ) -> PairMin {
        let n = self.topo.nodes.len();
        let mut min = PairMin {
            length: f64::INFINITY,
            u: 0,
            v: 0,
            wa: 0.0,
            wb: 0.0,
            runner_up: f64::INFINITY,
            nan: false,
        };
        let (src, dst) = (self.area_nodes(anchor_a), self.area_nodes(anchor_b));
        // Each target leg once, before the `u` loop. An ineligible node's
        // leg is `INFINITY`, which no minimum can pick: the same minimum as
        // skipping it.
        let mut stack = [f64::INFINITY; STACK_LEGS];
        let mut heap = Vec::new();
        let legs_b = if dst.len() <= STACK_LEGS {
            &mut stack[..dst.len()]
        } else {
            heap.resize(dst.len(), f64::INFINITY);
            &mut heap[..]
        };
        for (leg, &v) in legs_b.iter_mut().zip(dst) {
            *leg = self.leg(b, anchor_b, v).unwrap_or(f64::INFINITY);
        }
        for &u in src {
            let Some(wa) = self.leg(a, anchor_a, u) else {
                continue;
            };
            let row = &tables.dist[u * n..(u + 1) * n];
            for (&v, &wb) in dst.iter().zip(&*legs_b) {
                let t = (wa + row[v]) + wb;
                min.nan |= t.is_nan();
                if t < min.length {
                    min = PairMin {
                        length: t,
                        u,
                        v,
                        wa,
                        wb,
                        runner_up: min.length,
                        nan: min.nan,
                    };
                } else if t < min.runner_up {
                    min.runner_up = t;
                }
            }
        }
        min
    }

    /// The least `(w_a(v) + D[v][v]) + w_b(v)` over nodes `v` eligible from
    /// both points' areas: [`pair_min`](Self::pair_min)'s terms with
    /// `u = v`. `INFINITY` when there is none.
    fn shared_node_term(
        &self,
        tables: &NodeTables,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
    ) -> f64 {
        let n = self.topo.nodes.len();
        let (src, dst) = (self.area_nodes(anchor_a), self.area_nodes(anchor_b));
        let mut best = f64::INFINITY;
        for &v in dst {
            if !src.contains(&v) {
                continue;
            }
            if let (Some(wa), Some(wb)) = (self.leg(a, anchor_a, v), self.leg(b, anchor_b, v)) {
                best = best.min((wa + tables.dist[v * n + v]) + wb);
            }
        }
        best
    }

    /// The graph nodes the search may enter or leave through at `anchor`'s
    /// area: one slot read.
    fn area_nodes(&self, anchor: Anchor) -> &'a [usize] {
        &self.topo.area_nodes[anchor.slot as usize]
    }

    /// The leg between `p` and graph node `v` of its anchor area, `None`
    /// when the search may not enter or leave the graph there: only through
    /// nodes on `p`'s floor, except inside a staircase cell, whose ports on
    /// other floors are reachable at the staircase's vertical cost.
    fn leg(&self, p: &IndoorPoint, anchor: Anchor, v: usize) -> Option<f64> {
        let node = self.topo.nodes[v];
        if node.floor != p.floor && anchor.area != node.entity {
            return None;
        }
        let vertical = stair_cost(node.floor, p.floor, self.dsm.floor_height);
        Some(anchor.snap + p.xy.distance(node.point) + vertical)
    }

    fn anchored_distance(
        &self,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
    ) -> Option<f64> {
        same_area_distance(a, anchor_a, b, anchor_b)
            .or_else(|| self.search(a, anchor_a, b, anchor_b, None, None))
    }

    /// Dijkstra over the door graph plus a virtual source (node `n`)
    /// joined to `a`'s eligible nodes and a virtual target (node `n + 1`)
    /// joined from `b`'s. Records predecessors only when `prev` is given.
    /// With `prune`, a node is not reached through a relaxation that no
    /// route within [`Prune::limit`] continues; the distance and the
    /// predecessors along the returned route are the unpruned search's.
    fn search(
        &self,
        a: &IndoorPoint,
        anchor_a: Anchor,
        b: &IndoorPoint,
        anchor_b: Anchor,
        mut prev: Option<&mut [Option<usize>]>,
        prune: Option<Prune<'_>>,
    ) -> Option<f64> {
        let n = self.topo.nodes.len();
        if n == 0 {
            return None;
        }
        let (src_nodes, dst_nodes) = (self.area_nodes(anchor_a), self.area_nodes(anchor_b));
        if src_nodes.is_empty() || dst_nodes.is_empty() {
            return None;
        }

        let mut dist = vec![f64::INFINITY; n + 2];
        let src = n;
        let dst = n + 1;
        dist[src] = 0.0;
        // With `prune`: the target legs, and per graph node the table's
        // least distance on to the target (`NAN` until first needed).
        let (legs_b, mut rest) = match prune {
            Some(_) => (
                dst_nodes
                    .iter()
                    .map(|&v| self.leg(b, anchor_b, v).unwrap_or(f64::INFINITY))
                    .collect(),
                vec![f64::NAN; n],
            ),
            None => (Vec::new(), Vec::new()),
        };

        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });
        let mut relax =
            |heap: &mut BinaryHeap<HeapEntry>, dist: &mut [f64], v: usize, nd: f64, u| {
                if nd < dist[v] {
                    if let Some(prune) = prune.filter(|_| v < n) {
                        if rest[v].is_nan() {
                            let row = &prune.tables.dist[v * n..(v + 1) * n];
                            rest[v] = dst_nodes
                                .iter()
                                .zip(&legs_b)
                                .map(|(&x, &wb)| row[x] + wb)
                                .fold(f64::INFINITY, f64::min);
                        }
                        if nd + rest[v] > prune.limit {
                            return;
                        }
                    }
                    dist[v] = nd;
                    if let Some(prev) = prev.as_deref_mut() {
                        prev[v] = Some(u);
                    }
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            };

        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == dst {
                break;
            }
            if u == src {
                for &v in src_nodes {
                    if let Some(w) = self.leg(a, anchor_a, v) {
                        relax(&mut heap, &mut dist, v, d + w, u);
                    }
                }
                continue;
            }

            // Regular node: graph edges plus possible hop to the target.
            for e in &self.topo.edges[u] {
                relax(&mut heap, &mut dist, e.to, d + e.weight, u);
            }
            if dst_nodes.contains(&u) {
                if let Some(w) = self.leg(b, anchor_b, u) {
                    relax(&mut heap, &mut dist, dst, d + w, u);
                }
            }
        }

        dist[dst].is_finite().then_some(dist[dst])
    }

    /// Maximum feasible walking speed check helper: the minimum time (s)
    /// needed to get from `a` to `b` at `max_speed` (m/s); `None` when
    /// unreachable.
    pub fn min_travel_time(&self, a: &IndoorPoint, b: &IndoorPoint, max_speed: f64) -> Option<f64> {
        assert!(max_speed > 0.0, "max_speed must be positive");
        self.distance(a, b).map(|d| d / max_speed)
    }
}

/// Inside one area on one floor the straight line is walkable.
fn same_area_distance(
    a: &IndoorPoint,
    anchor_a: Anchor,
    b: &IndoorPoint,
    anchor_b: Anchor,
) -> Option<f64> {
    (anchor_a.area == anchor_b.area && a.floor == b.floor)
        .then(|| a.xy.distance(b.xy) + anchor_a.snap + anchor_b.snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Entity, EntityKind};
    use trips_geom::{Point, Polygon};

    fn sq(x: f64, y: f64, w: f64, h: f64) -> Polygon {
        Polygon::rectangle(Point::new(x, y), Point::new(x + w, y + h))
    }

    /// floor 0: RoomA (0..10) – door(10,5) – Hall (10..20) – door(20,5) – RoomB (20..30)
    /// stairs in hall to floor 1 with RoomC above the hall.
    fn model() -> DigitalSpaceModel {
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
        dsm.add_entity(Entity::door(d1, 0, "dA", Point::new(10.0, 5.0), 1.0))
            .unwrap();
        let d2 = dsm.next_entity_id();
        dsm.add_entity(Entity::door(d2, 0, "dB", Point::new(20.0, 5.0), 1.0))
            .unwrap();
        let s = dsm.next_entity_id();
        dsm.add_entity(Entity::staircase(s, "st", sq(14.0, 8.0, 2.0, 2.0), &[0, 1]))
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
        dsm.freeze();
        dsm
    }

    #[test]
    fn same_room_is_euclidean() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(1.0, 1.0, 0);
        let b = IndoorPoint::new(4.0, 5.0, 0);
        assert!((q.distance(&a, &b).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn adjacent_rooms_route_through_door() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(5.0, 5.0, 0); // RoomA
        let b = IndoorPoint::new(15.0, 5.0, 0); // Hall
        let path = q.path(&a, &b).unwrap();
        // 5 to the door + 5 beyond = 10, strictly more than planar 10? equal
        // here since door is collinear: exactly 10.
        assert!((path.distance - 10.0).abs() < 1e-9);
        assert_eq!(path.points.len(), 3, "a, door, b");
        assert_eq!(path.points[1].xy, Point::new(10.0, 5.0));
    }

    #[test]
    fn distance_exceeds_euclidean_when_door_detours() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(5.0, 9.0, 0); // RoomA top
        let b = IndoorPoint::new(15.0, 9.0, 0); // Hall top
        let d = q.distance(&a, &b).unwrap();
        let euclid = a.planar_distance(&b);
        assert!(
            d > euclid,
            "walking through door (10,5) must detour: {d} vs {euclid}"
        );
    }

    #[test]
    fn two_door_route() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(5.0, 5.0, 0); // RoomA
        let b = IndoorPoint::new(25.0, 5.0, 0); // RoomB
        let path = q.path(&a, &b).unwrap();
        assert!((path.distance - 20.0).abs() < 1e-9);
        assert_eq!(path.points.len(), 4, "a, dA, dB, b");
    }

    #[test]
    fn cross_floor_route_uses_staircase() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(15.0, 5.0, 0); // Hall, floor 0
        let b = IndoorPoint::new(15.0, 5.0, 1); // RoomC, floor 1
        let path = q.path(&a, &b).unwrap();
        // to stairs (~ (15,9)) + vertical (4*3=12) + back ≈ 4+12+4 = 20.
        assert!(path.distance > 12.0);
        assert!(path.points.iter().any(|p| p.floor == 1));
        assert!(path.points.iter().any(|p| p.floor == 0));
    }

    #[test]
    fn unreachable_floor_returns_none() {
        let mut dsm = model();
        let lonely = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            lonely,
            EntityKind::Room,
            5,
            "Lonely",
            sq(0.0, 0.0, 5.0, 5.0),
        ))
        .unwrap();
        dsm.freeze();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(5.0, 5.0, 0);
        let b = IndoorPoint::new(2.0, 2.0, 5);
        assert!(q.path(&a, &b).is_none());
    }

    #[test]
    fn point_outside_any_area_snaps() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let outside = IndoorPoint::new(-2.0, 5.0, 0); // 2 m left of RoomA
        let inside = IndoorPoint::new(5.0, 5.0, 0);
        let d = q.distance(&outside, &inside).unwrap();
        assert!(d >= 7.0 - 1e-9, "snap distance must be charged: {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(3.0, 8.0, 0);
        let b = IndoorPoint::new(27.0, 2.0, 0);
        let d1 = q.distance(&a, &b).unwrap();
        let d2 = q.distance(&b, &a).unwrap();
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality_over_rooms() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(5.0, 5.0, 0);
        let m = IndoorPoint::new(15.0, 5.0, 0);
        let b = IndoorPoint::new(25.0, 5.0, 0);
        let dab = q.distance(&a, &b).unwrap();
        let dam = q.distance(&a, &m).unwrap();
        let dmb = q.distance(&m, &b).unwrap();
        assert!(dab <= dam + dmb + 1e-9);
    }

    #[test]
    fn path_fraction_interpolation() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(5.0, 5.0, 0);
        let b = IndoorPoint::new(25.0, 5.0, 0);
        let path = q.path(&a, &b).unwrap();
        let mid = path.point_at_fraction(0.5);
        assert_eq!(mid.floor, 0);
        assert!((mid.xy.x - 15.0).abs() < 1e-6, "midpoint of 20 m route");
        assert_eq!(path.point_at_fraction(0.0), a);
        assert_eq!(path.point_at_fraction(1.0), b);
    }

    #[test]
    fn min_travel_time() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(5.0, 5.0, 0);
        let b = IndoorPoint::new(25.0, 5.0, 0);
        let t = q.min_travel_time(&a, &b, 2.0).unwrap();
        assert!((t - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dsm_has_no_paths() {
        let mut dsm = DigitalSpaceModel::new("empty");
        dsm.freeze();
        let q = PathQuery::new(&dsm).unwrap();
        assert!(q
            .path(
                &IndoorPoint::new(0.0, 0.0, 0),
                &IndoorPoint::new(1.0, 1.0, 0)
            )
            .is_none());
    }

    /// The speed-check decision `within` must reproduce.
    fn path_decision(
        q: &PathQuery<'_>,
        a: &IndoorPoint,
        b: &IndoorPoint,
        dt: f64,
        limit: f64,
    ) -> bool {
        q.path(a, b).is_some_and(|p| p.distance / dt <= limit)
    }

    /// Points in every room, in the staircase cell, outside the building
    /// (snapped), on both floors.
    fn probe_points() -> Vec<IndoorPoint> {
        let mut pts = Vec::new();
        for floor in 0..2 {
            for &(x, y) in &[
                (3.0, 8.0),
                (5.0, 5.0),
                (15.0, 9.0),
                (15.0, 2.0),
                (27.0, 2.0),
                (-2.0, 5.0),
                (33.0, 12.0),
                (15.0, -3.0),
            ] {
                pts.push(IndoorPoint::new(x, y, floor));
            }
        }
        pts
    }

    #[test]
    fn within_matches_path_with_and_without_table() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let limit = 3.0 * (1.0 + 1e-9);
        let pts = probe_points();
        for a in &pts {
            for b in &pts {
                let (aa, ab) = (q.anchor(a).unwrap(), q.anchor(b).unwrap());
                for dt in [0.5, 2.0, 4.0, 7.5, 30.0] {
                    let want = path_decision(&q, a, b, dt, limit);
                    assert_eq!(
                        q.within(a, aa, b, ab, dt, limit),
                        want,
                        "{a:?} -> {b:?} in {dt}"
                    );
                    // The over-cap branch: no table, the search decides.
                    assert_eq!(q.within_using(None, a, aa, b, ab, dt, limit), want);
                }
            }
        }
    }

    #[test]
    fn within_decides_exactly_at_the_limit() {
        let dsm = model();
        let q = PathQuery::new(&dsm).unwrap();
        let tables = dsm.topology().unwrap().tables().unwrap();
        let margin = (dsm.topology().unwrap().nodes.len() + 8) as f64 * 4.0 * f64::EPSILON;
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        // Cross-area pairs, the second one across floors.
        for (a, b) in [
            (
                IndoorPoint::new(3.0, 8.0, 0),
                IndoorPoint::new(27.0, 2.0, 0),
            ),
            (
                IndoorPoint::new(5.0, 1.0, 0),
                IndoorPoint::new(12.0, 3.0, 1),
            ),
        ] {
            let (aa, ab) = (q.anchor(&a).unwrap(), q.anchor(&b).unwrap());
            let d = q.distance(&a, &b).unwrap();
            let dt = 7.0;
            let limit = d / dt;
            // The table's estimate lands inside the margin: the search decides.
            let estimate = q.pair_min(tables, &a, aa, &b, ab).length;
            assert!((estimate / dt - limit).abs() <= margin * limit);
            for l in [ulp_down(limit), limit, ulp_up(limit)] {
                assert_eq!(
                    q.within(&a, aa, &b, ab, dt, l),
                    path_decision(&q, &a, &b, dt, l)
                );
            }
            assert!(q.within(&a, aa, &b, ab, dt, limit));
            assert!(!q.within(&a, aa, &b, ab, dt, ulp_down(limit)));
            // The same by moving the time one ulp either side.
            for t in [ulp_down(dt), dt, ulp_up(dt)] {
                assert_eq!(
                    q.within(&a, aa, &b, ab, t, limit),
                    path_decision(&q, &a, &b, t, limit)
                );
            }
        }
    }

    /// `point_at_fraction` against the point of the built path, bit for bit.
    fn assert_point_at_fraction_matches_path(dsm: &DigitalSpaceModel, pts: &[IndoorPoint]) {
        let q = PathQuery::new(dsm).unwrap();
        let bits =
            |p: Option<IndoorPoint>| p.map(|p| (p.xy.x.to_bits(), p.xy.y.to_bits(), p.floor));
        for a in pts {
            for b in pts {
                let (Some(aa), Some(ab)) = (q.anchor(a), q.anchor(b)) else {
                    continue;
                };
                let path = q.path_anchored(a, aa, b, ab);
                for f in [-0.5, 0.0, 1e-12, 0.1, 0.25, 0.3, 0.5, 0.7, 0.999, 1.0, 2.0] {
                    assert_eq!(
                        bits(q.point_at_fraction(a, aa, b, ab, f)),
                        bits(path.as_ref().map(|p| p.point_at_fraction(f))),
                        "{a:?} -> {b:?} at {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn point_at_fraction_matches_the_built_path() {
        assert_point_at_fraction_matches_path(&model(), &probe_points());
        let mall = crate::builder::MallBuilder::new()
            .floors(3)
            .shops_per_row(4)
            .build();
        let pts: Vec<IndoorPoint> = (0..3)
            .flat_map(|floor| {
                (0..9).flat_map(move |i| {
                    (0..5).map(move |j| {
                        IndoorPoint::new(
                            -3.0 + 7.3 * f64::from(i),
                            -2.0 + 5.9 * f64::from(j),
                            floor,
                        )
                    })
                })
            })
            .collect();
        assert_point_at_fraction_matches_path(&mall, &pts);
    }

    #[test]
    fn within_is_false_for_unreachable_floor() {
        let mut dsm = model();
        let lonely = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            lonely,
            EntityKind::Room,
            5,
            "Lonely",
            sq(0.0, 0.0, 5.0, 5.0),
        ))
        .unwrap();
        dsm.freeze();
        let q = PathQuery::new(&dsm).unwrap();
        let a = IndoorPoint::new(5.0, 5.0, 0);
        let b = IndoorPoint::new(2.0, 2.0, 5);
        let (aa, ab) = (q.anchor(&a).unwrap(), q.anchor(&b).unwrap());
        assert!(!q.within(&a, aa, &b, ab, 1e9, 3.0));
        assert!(!q.within_using(None, &a, aa, &b, ab, 1e9, 3.0));
        // Inside the lonely room the straight line still counts.
        let b2 = IndoorPoint::new(4.0, 2.0, 5);
        assert!(q.within(&b, ab, &b2, q.anchor(&b2).unwrap(), 1.0, 3.0));
    }
}
