//! Uniform-grid spatial index over a frozen DSM.
//!
//! Every per-record spatial query of the Translator hot path
//! ([`locate`](crate::DigitalSpaceModel::locate),
//! [`region_at`](crate::DigitalSpaceModel::region_at),
//! [`nearest_walkable`](crate::DigitalSpaceModel::nearest_walkable),
//! [`nearest_region`](crate::DigitalSpaceModel::nearest_region)) used to be
//! an O(entities) linear
//! scan, making translation O(records × entities). The index buckets, per
//! floor, exactly what those queries can return — walkable area entities
//! and semantic regions — into a uniform grid keyed by bounding box, built
//! once at topology-freeze time, so point and nearest queries touch only a
//! handful of candidates.
//!
//! **Equivalence contract:** every query answered through the grid returns
//! *exactly* what the linear scan returns, including tie-breaks. The linear
//! scans use `Iterator::min_by` over id-ordered iteration, which keeps the
//! *first* minimal element — i.e. the lowest id among equal keys.
//!
//! * Point queries want the smallest containing item. Each layer keeps its
//!   items sorted by `(area, id)` — the point queries' own key, computed
//!   once here — and every cell lists its items in that order, so the
//!   answer is the **first hit in `(area, id)` order**: the first candidate
//!   whose cached, tolerance-inflated bbox and exact geometry both contain
//!   the point. Nothing after it is tested.
//! * Nearest queries compare `(distance, id)` lexicographically, and the
//!   ring search keeps expanding while a ring could still contain an
//!   *equal*-distance candidate (`lower_bound <= best`), not just a
//!   strictly closer one. An item spanning several cells is measured once,
//!   in the covered cell nearest the query's cell, which sits on the first
//!   ring that reaches the item. An item whose (tolerance-inflated) bbox
//!   lies farther from the query than the best distance so far plus
//!   [`trips_geom::EPSILON`] is not measured at all. **Contract:** the
//!   caller's distance for an item is at least the distance from the query
//!   to the item's bbox — true of a polygon's (or a region's nearest
//!   polygon's) distance, since every polygon lies inside its bbox and the
//!   inflation exceeds the rounding of both distances. Such an item can
//!   neither beat nor tie the best, so skipping it changes no answer.
//!
//! **Point raster.** Most fixes lie well inside one room, where the walk
//! above always gives the same answer. Each floor therefore also has a fine
//! raster of square cells ([`RASTER_SIDE`] on the floor's longer side) that
//! remembers, per cell and layer, the answer every point of the cell gets,
//! so a point query is one read. A cell is classified on its first query
//! (no raster work at `freeze()`), and only when the answer is provably
//! uniform:
//!
//! * the cell's rectangle `R` is widened by a margin `m` that exceeds the
//!   rounding of the point-to-cell arithmetic, so every point the raster
//!   maps to the cell lies in `R`;
//! * walking the layer in `(area, id)` order, every item before the answer
//!   has a (tolerance-inflated) bbox disjoint from `R`, so the walk skips it
//!   for every point of the cell;
//! * the answer has a polygon no edge of which comes within `m` of `R`, and
//!   whose crossing test puts `R`'s centre inside. Then every point of `R`
//!   is inside the polygon at least `m` from its boundary, far beyond the
//!   crossing test's rounding, so `Polygon::contains` accepts it.
//!
//! A cell no item's bbox meets answers `None`. Any other cell is *mixed*
//! and takes the exact walk, as does any point outside the raster (or with
//! a NaN coordinate). Cells are atomics written once with a value that
//! depends only on the frozen model, so threads may race to classify the
//! same cell: both store the same answer.
//!
//! The `index_equivalence` proptest pins this down over random models.

use crate::entity::{EntityId, Footprint};
use crate::semantic::RegionId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::OnceLock;
use trips_geom::{BoundingBox, FloorId, Point, Polygon};

/// Grid cells per axis are capped so degenerate floor extents can't blow up
/// memory; with the `sqrt(items)` sizing rule the cap only binds beyond
/// ~4096 items on one floor.
const MAX_CELLS_PER_AXIS: usize = 64;

/// Point-raster cells along a floor's longer side: the benchmark mall's
/// 60 × 22 m floors get 128 × 47 cells of about 0.47 m, small beside its
/// 10 × 8 m shops.
/// The shorter side gets as many cells of the same size as it needs, so a
/// floor has at most `RASTER_SIDE²` cells per layer.
pub const RASTER_SIDE: usize = 128;

/// Raster cell states: not yet classified, mixed (the exact walk answers),
/// no item, and `FIRST_ITEM + i` for the layer's item `i`. A cell whose
/// answer is an item past `u16::MAX - FIRST_ITEM` is stored as mixed.
const UNBUILT: u16 = 0;
const MIXED: u16 = 1;
const EMPTY: u16 = 2;
const FIRST_ITEM: u16 = 3;

/// One indexed entity or region.
#[derive(Debug, Clone, Copy)]
struct Item<Id> {
    id: Id,
    /// Bounding box inflated by the geometry crate's boundary tolerance:
    /// `Polygon::contains` accepts points up to [`trips_geom::EPSILON`]
    /// outside the raw bbox (wall-snap pass), so this is the exact
    /// prefilter for containment and the extent the grid registers.
    bbox: BoundingBox,
    /// Inclusive cell range `[x0, x1] × [y0, y1]` the bbox covers.
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
}

/// One query family's items on one floor, sorted by `(area, id)`, and per
/// cell the positions of the items registered there, ascending — so every
/// cell lists its candidates in `(area, id)` order. The layer's raster
/// cells sit beside them.
#[derive(Debug, Clone)]
struct Layer<Id> {
    items: Vec<Item<Id>>,
    /// Cell `c`'s candidates are `entries[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    entries: Vec<u32>,
    raster: Cells,
}

impl<Id: Copy + Ord> Layer<Id> {
    /// Sorts `items` by `(area, id)` and registers each in every cell its
    /// bbox overlaps.
    fn build(grid: &GridShape, mut items: Vec<(Id, f64, BoundingBox)>) -> Self {
        items.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite areas")
                .then(a.0.cmp(&b.0))
        });
        let items: Vec<Item<Id>> = items
            .into_iter()
            .map(|(id, _, bbox)| {
                let (x0, y0) = grid.cell_of(bbox.min);
                let (x1, y1) = grid.cell_of(bbox.max);
                Item {
                    id,
                    bbox,
                    x0,
                    y0,
                    x1,
                    y1,
                }
            })
            .collect();
        let cells = grid.nx * grid.ny;
        let nx = grid.nx;
        let covered = |it: &Item<Id>| {
            let (x0, x1) = (it.x0, it.x1);
            (it.y0..=it.y1).flat_map(move |iy| (x0..=x1).map(move |ix| iy * nx + ix))
        };
        let mut starts = vec![0u32; cells + 1];
        for c in items.iter().flat_map(covered) {
            starts[c + 1] += 1;
        }
        for c in 0..cells {
            starts[c + 1] += starts[c];
        }
        let mut fill = starts.clone();
        let mut entries = vec![0u32; starts[cells] as usize];
        for (i, it) in items.iter().enumerate() {
            for c in covered(it) {
                entries[fill[c] as usize] = i as u32;
                fill[c] += 1;
            }
        }
        Layer {
            items,
            starts,
            entries,
            raster: Cells::default(),
        }
    }

    fn cell(&self, c: usize) -> &[u32] {
        &self.entries[self.starts[c] as usize..self.starts[c + 1] as usize]
    }
}

/// The geometry of one floor's uniform grid.
#[derive(Debug, Clone)]
struct GridShape {
    bounds: BoundingBox,
    nx: usize,
    ny: usize,
    cell_w: f64,
    cell_h: f64,
}

impl GridShape {
    /// A `sqrt(items)`-per-axis grid over the union of the item bboxes.
    fn covering<'b>(bboxes: impl Iterator<Item = &'b BoundingBox>) -> Self {
        let mut bounds = BoundingBox::empty();
        let mut n_items = 0usize;
        for bb in bboxes {
            bounds = bounds.union(bb);
            n_items += 1;
        }
        let side = ((n_items as f64).sqrt().ceil() as usize).clamp(1, MAX_CELLS_PER_AXIS);
        let (nx, ny) = (side, side);
        // Degenerate extents (a single point, a vertical wall) still get a
        // positive cell size so index arithmetic stays finite.
        let cell_w = (bounds.width() / nx as f64).max(1e-9);
        let cell_h = (bounds.height() / ny as f64).max(1e-9);
        GridShape {
            bounds,
            nx,
            ny,
            cell_w,
            cell_h,
        }
    }

    /// The cell containing `p`, clamped to the grid. The same division maps
    /// item bboxes and query points, so a point contained in an item's bbox
    /// always lands inside that item's registered cell range.
    ///
    /// The cast truncates toward zero where `floor` would round down, but
    /// after the clamp to `[0, n - 1]` both give the same cell: they differ
    /// only on negative fractions, which clamp to 0 either way, and a NaN
    /// (cast to 0) or ±∞ (saturated) clamps the same as its `floor` does.
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let ix = ((p.x - self.bounds.min.x) / self.cell_w) as isize;
        let iy = ((p.y - self.bounds.min.y) / self.cell_h) as isize;
        (
            ix.clamp(0, self.nx as isize - 1) as usize,
            iy.clamp(0, self.ny as isize - 1) as usize,
        )
    }

    /// The candidates of `layer` whose bbox contains `p`, in `(area, id)`
    /// order.
    fn at<'s, Id: Copy + Ord>(
        &self,
        layer: &'s Layer<Id>,
        p: Point,
    ) -> impl Iterator<Item = Id> + 's {
        let (ix, iy) = self.cell_of(p);
        layer
            .cell(iy * self.nx + ix)
            .iter()
            .map(|&i| &layer.items[i as usize])
            .filter(move |it| it.bbox.contains(p))
            .map(|it| it.id)
    }

    /// Expanding-ring nearest search over one layer.
    ///
    /// The best candidate is tracked as `(distance, id)` with the id as
    /// tie-break, and rings keep expanding while
    /// `lower_bound(ring) <= best_distance` so every item that could
    /// *equal* the best is examined — matching the linear scan's
    /// first-minimal-in-id-order semantics exactly.
    ///
    /// `dist(id)` must be at least the distance from `p` to the item's
    /// bbox: an item whose bbox lies farther than the best distance so far
    /// (plus [`trips_geom::EPSILON`]) cannot equal it and is not measured.
    fn nearest<Id: Copy + Ord>(
        &self,
        layer: &Layer<Id>,
        p: Point,
        mut dist: impl FnMut(Id) -> f64,
    ) -> Option<(Id, f64)> {
        let (cx, cy) = self.cell_of(p);
        let cell_min = self.cell_w.min(self.cell_h);
        let max_r = cx.max(self.nx - 1 - cx).max(cy.max(self.ny - 1 - cy));
        let mut best: Option<(Id, f64)> = None;

        for r in 0..=max_r {
            if let Some((_, bd)) = best {
                // A cell in ring r is at least (r-1) whole cells away from
                // p's cell along some axis, wherever p sits inside (or
                // beyond) the grid. The EPSILON slack absorbs the geometry
                // crate's boundary tolerance so an equal-distance candidate
                // on a ring edge is never pruned.
                let lower_bound = r.saturating_sub(1) as f64 * cell_min;
                if lower_bound > bd + trips_geom::EPSILON {
                    break;
                }
            }
            self.for_ring(cx, cy, r, |ix, iy| {
                for &i in layer.cell(iy * self.nx + ix) {
                    let it = &layer.items[i as usize];
                    // Measure each item once: in its covered cell nearest
                    // p's cell, the one on the first ring that reaches it.
                    if (ix, iy) != (cx.clamp(it.x0, it.x1), cy.clamp(it.y0, it.y1)) {
                        continue;
                    }
                    // The bbox is inflated by the boundary tolerance, so its
                    // distance is below the item's by more than rounding.
                    if best.is_some_and(|(_, bd)| {
                        it.bbox.distance_to_point(p) > bd + trips_geom::EPSILON
                    }) {
                        continue;
                    }
                    let d = dist(it.id);
                    best = match best {
                        Some((bid, bd)) if bd < d || (bd == d && bid < it.id) => Some((bid, bd)),
                        _ => Some((it.id, d)),
                    };
                }
            });
        }
        best
    }

    /// Visits every in-bounds cell `(ix, iy)` at Chebyshev distance `r` from
    /// `(cx, cy)`.
    fn for_ring(&self, cx: usize, cy: usize, r: usize, mut visit: impl FnMut(usize, usize)) {
        let (cx, cy, r) = (cx as isize, cy as isize, r as isize);
        let in_x = |x: isize| x >= 0 && x < self.nx as isize;
        let in_y = |y: isize| y >= 0 && y < self.ny as isize;
        if r == 0 {
            if in_x(cx) && in_y(cy) {
                visit(cx as usize, cy as usize);
            }
            return;
        }
        for ix in (cx - r)..=(cx + r) {
            if !in_x(ix) {
                continue;
            }
            if in_y(cy - r) {
                visit(ix as usize, (cy - r) as usize);
            }
            if in_y(cy + r) {
                visit(ix as usize, (cy + r) as usize);
            }
        }
        for iy in (cy - r + 1)..=(cy + r - 1) {
            if !in_y(iy) {
                continue;
            }
            if in_x(cx - r) {
                visit((cx - r) as usize, iy as usize);
            }
            if in_x(cx + r) {
                visit((cx + r) as usize, iy as usize);
            }
        }
    }
}

/// One layer's raster cells, allocated on the layer's first point query
/// (so `freeze()` allocates nothing for them) and classified one by one.
#[derive(Debug, Default)]
struct Cells(OnceLock<Box<[AtomicU16]>>);

impl Cells {
    fn get(&self, n: usize) -> &[AtomicU16] {
        self.0
            .get_or_init(|| (0..n).map(|_| AtomicU16::new(UNBUILT)).collect())
    }
}

/// A clone starts unclassified: its cells are rebuilt on first touch, to
/// the same states.
impl Clone for Cells {
    fn clone(&self) -> Self {
        Cells::default()
    }
}

/// The geometry of one floor's point raster: square cells over the floor
/// grid's bounds (each layer holds its own cell states).
#[derive(Debug, Clone)]
struct Raster {
    bounds: BoundingBox,
    side: f64,
    inv_side: f64,
    nx: usize,
    ny: usize,
    /// Widening of each cell's rectangle; see the module docs.
    margin: f64,
}

impl Raster {
    /// A raster over `bounds`; `None` for an empty or degenerate extent,
    /// whose points all take the exact walk.
    fn covering(bounds: BoundingBox) -> Option<Self> {
        let (w, h) = (bounds.width(), bounds.height());
        let side = w.max(h) / RASTER_SIDE as f64;
        if !(side > 0.0 && side.is_finite()) {
            return None;
        }
        let cells_for = |extent: f64| ((extent / side).ceil() as usize).clamp(1, RASTER_SIDE);
        let (nx, ny) = (cells_for(w), cells_for(h));
        // Rounding of `(p - min) * inv_side` and of the cell bounds is a few
        // ulps of the largest coordinate; this margin is a million times
        // that and far below a cell.
        let scale = [bounds.min.x, bounds.min.y, bounds.max.x, bounds.max.y]
            .iter()
            .fold(side, |m, v| m.max(v.abs()));
        Some(Raster {
            bounds,
            side,
            inv_side: 1.0 / side,
            nx,
            ny,
            margin: trips_geom::EPSILON * scale,
        })
    }

    /// `p`'s cell `(ix, iy)`; `None` outside the raster or for NaN.
    fn cell_of(&self, p: Point) -> Option<(usize, usize)> {
        if !self.bounds.contains(p) {
            return None;
        }
        let ix = ((p.x - self.bounds.min.x) * self.inv_side) as usize;
        let iy = ((p.y - self.bounds.min.y) * self.inv_side) as usize;
        Some((ix.min(self.nx - 1), iy.min(self.ny - 1)))
    }

    /// A rectangle holding every point [`cell_of`](Self::cell_of) maps to
    /// cell `(ix, iy)`. The last column and row reach the raster's bounds.
    fn cell_rect(&self, ix: usize, iy: usize) -> BoundingBox {
        let edge = |i: usize, n: usize, min: f64, max: f64| {
            let lo = min + i as f64 * self.side;
            let hi = if i + 1 == n {
                max.max(min + n as f64 * self.side)
            } else {
                min + (i + 1) as f64 * self.side
            };
            (lo, hi)
        };
        let (x0, x1) = edge(ix, self.nx, self.bounds.min.x, self.bounds.max.x);
        let (y0, y1) = edge(iy, self.ny, self.bounds.min.y, self.bounds.max.y);
        BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1)).inflated(self.margin)
    }

    /// The uniform answer of cell `(ix, iy)` in `layer`: `EMPTY`,
    /// `FIRST_ITEM + i`, or `MIXED` (see the module docs).
    fn classify<'m, Id: Copy + Ord>(
        &self,
        shape: &GridShape,
        layer: &Layer<Id>,
        (ix, iy): (usize, usize),
        parts: impl Fn(Id) -> &'m [Polygon],
    ) -> u16 {
        let rect = self.cell_rect(ix, iy);
        // Every item whose bbox meets `rect` is registered in one of the
        // grid cells `rect` spans (`GridShape::cell_of` is monotone).
        let (x0, y0) = shape.cell_of(rect.min);
        let (x1, y1) = shape.cell_of(rect.max);
        let mut candidates: Vec<u32> = (y0..=y1)
            .flat_map(|cy| (x0..=x1).flat_map(move |cx| layer.cell(cy * shape.nx + cx)))
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        for i in candidates {
            let it = &layer.items[i as usize];
            if !it.bbox.intersects(&rect) {
                continue;
            }
            let guard = rect.inflated(self.margin);
            let state = u16::try_from(i)
                .ok()
                .and_then(|i| i.checked_add(FIRST_ITEM));
            return match state {
                Some(state) if parts(it.id).iter().any(|poly| covers(poly, &rect, &guard)) => state,
                _ => MIXED,
            };
        }
        EMPTY
    }
}

/// Whether every point of `rect` is strictly inside `poly`: no edge meets
/// `guard` (`rect` widened by the raster margin) and the crossing test puts
/// `rect`'s centre inside. The centre is then at least the margin from
/// every edge, so `contains` answers it by the crossing test alone.
fn covers(poly: &Polygon, rect: &BoundingBox, guard: &BoundingBox) -> bool {
    poly.edges().all(|e| !segment_meets(e.a, e.b, guard)) && poly.contains(rect.center())
}

/// Conservative segment–box test: `false` only when the segment's bbox
/// misses the box or all four box corners lie strictly on one side of the
/// segment's line.
fn segment_meets(a: Point, b: Point, bb: &BoundingBox) -> bool {
    if a.x.max(b.x) < bb.min.x
        || a.x.min(b.x) > bb.max.x
        || a.y.max(b.y) < bb.min.y
        || a.y.min(b.y) > bb.max.y
    {
        return false;
    }
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let side = |x: f64, y: f64| dx * (y - a.y) - dy * (x - a.x);
    let s = [
        side(bb.min.x, bb.min.y),
        side(bb.max.x, bb.min.y),
        side(bb.min.x, bb.max.y),
        side(bb.max.x, bb.max.y),
    ];
    !(s.iter().all(|&v| v > 0.0) || s.iter().all(|&v| v < 0.0))
}

/// One floor's grid: walkable area entities (answering `locate` and
/// `nearest_walkable`) and regions (answering `region_at` and
/// `nearest_region`) over one shared cell geometry, plus the point raster.
#[derive(Debug, Clone)]
struct FloorGrid {
    shape: GridShape,
    walkable: Layer<EntityId>,
    regions: Layer<RegionId>,
    raster: Option<Raster>,
}

impl FloorGrid {
    /// The first item of `layer` in `(area, id)` order whose bbox and
    /// polygons (`parts`) contain `p`: one raster read when `p`'s cell is
    /// uniform, the exact walk otherwise.
    fn first_at<'m, Id: Copy + Ord>(
        &self,
        layer: &Layer<Id>,
        p: Point,
        parts: impl Fn(Id) -> &'m [Polygon],
    ) -> Option<Id> {
        if let Some(raster) = &self.raster {
            // The raster spans every item's bbox: a point outside it (or
            // NaN) is in none of them.
            let cell = raster.cell_of(p)?;
            // `Relaxed` suffices: a cell's value publishes no other data (it
            // names an item of the immutable layer), and racing threads
            // store the same value.
            let slot = &layer.raster.get(raster.nx * raster.ny)[cell.1 * raster.nx + cell.0];
            let mut state = slot.load(Ordering::Relaxed);
            if state == UNBUILT {
                state = raster.classify(&self.shape, layer, cell, &parts);
                slot.store(state, Ordering::Relaxed);
            }
            match state {
                EMPTY => return None,
                MIXED => {}
                item => return Some(layer.items[(item - FIRST_ITEM) as usize].id),
            }
        }
        self.shape
            .at(layer, p)
            .find(|&id| parts(id).iter().any(|poly| poly.contains(p)))
    }
}

type FloorItems = (
    Vec<(EntityId, f64, BoundingBox)>,
    Vec<(RegionId, f64, BoundingBox)>,
);

/// The spatial index: one uniform grid per floor, built by
/// [`freeze`](crate::DigitalSpaceModel::freeze) and invalidated by any
/// mutation.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    /// Every indexed floor's grid, ascending by floor.
    grids: Vec<FloorGrid>,
    /// `grid_at[f - first]`: the position in `grids` of floor `f`'s grid,
    /// or [`NO_GRID`] — a query finds its floor with one slot read.
    grid_at: Vec<u32>,
    first: FloorId,
}

/// [`SpatialIndex::grid_at`] entry of a floor without a grid.
const NO_GRID: u32 = u32::MAX;

impl SpatialIndex {
    /// Builds the index from `(id, floors, area, inflated bbox)` walkable
    /// area entities and `(id, floor, area, inflated bbox)` regions.
    pub(crate) fn build(
        walkable: impl Iterator<Item = (EntityId, Vec<FloorId>, f64, BoundingBox)>,
        regions: impl Iterator<Item = (RegionId, FloorId, f64, BoundingBox)>,
    ) -> Self {
        let mut per_floor: BTreeMap<FloorId, FloorItems> = BTreeMap::new();
        for (id, floors, area, bb) in walkable {
            for f in floors {
                per_floor.entry(f).or_default().0.push((id, area, bb));
            }
        }
        for (id, floor, area, bb) in regions {
            per_floor.entry(floor).or_default().1.push((id, area, bb));
        }
        let first = per_floor.keys().next().copied().unwrap_or(0);
        let last = per_floor.keys().next_back().copied().unwrap_or(first);
        let mut grid_at = vec![NO_GRID; (i32::from(last) - i32::from(first)) as usize + 1];
        let mut grids = Vec::with_capacity(per_floor.len());
        for (f, (es, rs)) in per_floor {
            let shape = GridShape::covering(es.iter().map(|e| &e.2).chain(rs.iter().map(|r| &r.2)));
            grid_at[(i32::from(f) - i32::from(first)) as usize] = grids.len() as u32;
            grids.push(FloorGrid {
                walkable: Layer::build(&shape, es),
                regions: Layer::build(&shape, rs),
                raster: Raster::covering(shape.bounds),
                shape,
            });
        }
        SpatialIndex {
            grids,
            grid_at,
            first,
        }
    }

    /// Floor `floor`'s grid, if it has one.
    fn grid(&self, floor: FloorId) -> Option<&FloorGrid> {
        let offset = usize::try_from(i32::from(floor) - i32::from(self.first)).ok()?;
        let at = *self.grid_at.get(offset)?;
        self.grids.get(at as usize)
    }

    /// Indexes what the model's point and nearest queries can return: its
    /// walkable area entities (only an area footprint contains a point or
    /// has a distance) and its regions (a region's area and bbox span all
    /// its backing polygons).
    pub(crate) fn from_model(dsm: &crate::model::DigitalSpaceModel) -> Self {
        let inflated = |bb: BoundingBox| bb.inflated(trips_geom::EPSILON);
        Self::build(
            dsm.entities()
                .filter(|e| e.kind.is_walkable())
                .filter_map(|e| match &e.footprint {
                    Footprint::Area(poly) => Some((
                        e.id,
                        e.floors().collect(),
                        poly.area(),
                        inflated(poly.bbox()),
                    )),
                    _ => None,
                }),
            dsm.regions().map(|r| {
                let bb = r
                    .polygons
                    .iter()
                    .fold(BoundingBox::empty(), |bb, p| bb.union(&p.bbox()));
                (r.id, r.floor, r.area(), inflated(bb))
            }),
        )
    }

    /// `locate`'s answer: the smallest (ties: lowest id) walkable area
    /// entity on `floor` whose footprint, given by `parts`, contains `p`.
    pub(crate) fn walkable_at<'m>(
        &self,
        floor: FloorId,
        p: Point,
        parts: impl Fn(EntityId) -> &'m [Polygon],
    ) -> Option<EntityId> {
        let g = self.grid(floor)?;
        g.first_at(&g.walkable, p, parts)
    }

    /// `region_at`'s answer: the smallest (ties: lowest id) region on
    /// `floor` one of whose polygons, given by `parts`, contains `p`.
    pub(crate) fn region_at<'m>(
        &self,
        floor: FloorId,
        p: Point,
        parts: impl Fn(RegionId) -> &'m [Polygon],
    ) -> Option<RegionId> {
        let g = self.grid(floor)?;
        g.first_at(&g.regions, p, parts)
    }

    /// Nearest walkable area entity on `floor` under `dist`, ties broken to
    /// the lowest id.
    pub(crate) fn nearest_walkable(
        &self,
        floor: FloorId,
        p: Point,
        dist: impl FnMut(EntityId) -> f64,
    ) -> Option<(EntityId, f64)> {
        self.grid(floor)
            .and_then(|g| g.shape.nearest(&g.walkable, p, dist))
    }

    /// Nearest region on `floor` under `dist`, ties broken to the lowest id.
    pub(crate) fn nearest_region(
        &self,
        floor: FloorId,
        p: Point,
        dist: impl FnMut(RegionId) -> f64,
    ) -> Option<(RegionId, f64)> {
        self.grid(floor)
            .and_then(|g| g.shape.nearest(&g.regions, p, dist))
    }

    /// Number of indexed floors (diagnostics).
    pub fn floor_count(&self) -> usize {
        self.grids.len()
    }

    /// `(cells, bucketed walkable-entity entries, bucketed region entries)`
    /// for one floor — exposed for diagnostics and index tests.
    pub fn floor_stats(&self, floor: FloorId) -> Option<(usize, usize, usize)> {
        self.grid(floor).map(|g| {
            (
                g.shape.nx * g.shape.ny,
                g.walkable.entries.len(),
                g.regions.entries.len(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x0: f64, y0: f64, x1: f64, y1: f64) -> BoundingBox {
        BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// The bbox-filtered walkable candidates at `p`, in walk order.
    fn candidates(idx: &SpatialIndex, floor: FloorId, p: Point) -> Vec<EntityId> {
        idx.grid(floor)
            .map(|g| g.shape.at(&g.walkable, p).collect())
            .unwrap_or_default()
    }

    /// An index of walkable entities `(id, floors, bbox)`, area = bbox area.
    fn index_of(entities: Vec<(u32, Vec<FloorId>, BoundingBox)>) -> SpatialIndex {
        SpatialIndex::build(
            entities
                .into_iter()
                .map(|(id, fs, b)| (EntityId(id), fs, b.width() * b.height(), b)),
            std::iter::empty(),
        )
    }

    #[test]
    fn point_candidates_cover_containing_boxes() {
        let idx = index_of(vec![
            (0, vec![0], bb(0.0, 0.0, 10.0, 10.0)),
            (1, vec![0], bb(20.0, 0.0, 30.0, 10.0)),
            (2, vec![1], bb(0.0, 0.0, 10.0, 10.0)),
        ]);
        let cands = candidates(&idx, 0, Point::new(5.0, 5.0));
        assert_eq!(cands, vec![EntityId(0)], "bbox-filtered, floor 0 only");
        assert!(candidates(&idx, 7, Point::new(5.0, 5.0)).is_empty());
    }

    #[test]
    fn candidates_in_area_then_id_order() {
        // Nested boxes: ids descend as the boxes shrink, and two pairs tie
        // on area.
        let idx = index_of(
            (0..20u32)
                .map(|i| {
                    let half = 50.0 - f64::from(i / 2);
                    (
                        i,
                        vec![0],
                        bb(50.0 - half, 50.0 - half, 50.0 + half, 50.0 + half),
                    )
                })
                .collect(),
        );
        let cands: Vec<u32> = candidates(&idx, 0, Point::new(50.0, 50.0))
            .into_iter()
            .map(|e| e.0)
            .collect();
        let expected: Vec<u32> = (0..10u32).rev().flat_map(|k| [2 * k, 2 * k + 1]).collect();
        assert_eq!(cands, expected);
    }

    #[test]
    fn nearest_ties_break_to_lowest_id() {
        // Two unit boxes equidistant from the probe point.
        let idx = index_of(vec![
            (3, vec![0], bb(10.0, 0.0, 11.0, 1.0)),
            (7, vec![0], bb(-11.0, 0.0, -10.0, 1.0)),
        ]);
        let centers = [Point::new(10.0, 0.5), Point::new(-10.0, 0.5)];
        let got = idx.nearest_walkable(0, Point::new(0.0, 0.5), |id| {
            let c = if id == EntityId(3) {
                centers[0]
            } else {
                centers[1]
            };
            c.distance(Point::new(0.0, 0.5))
        });
        assert_eq!(got, Some((EntityId(3), 10.0)));
    }

    #[test]
    fn nearest_measures_each_item_once() {
        // One wide box spanning every cell plus small ones around it.
        let mut items = vec![(0, vec![0], bb(0.0, 0.0, 100.0, 100.0))];
        items.extend((1..16).map(|i| {
            let x = f64::from(i) * 6.0;
            (i, vec![0], bb(x, x, x + 1.0, x + 1.0))
        }));
        let idx = index_of(items);
        let mut measured = Vec::new();
        // Above every item's bbox distance (at most ~700 m), as the pruned
        // search requires.
        idx.nearest_walkable(0, Point::new(500.0, 500.0), |id| {
            measured.push(id);
            1000.0 + f64::from(id.0)
        });
        let mut unique = measured.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(measured.len(), unique.len(), "measured twice: {measured:?}");
        assert!(measured.contains(&EntityId(0)));
    }

    #[test]
    fn nearest_none_on_unindexed_floor() {
        let idx = index_of(vec![(0, vec![0], bb(0.0, 0.0, 1.0, 1.0))]);
        assert_eq!(idx.nearest_walkable(9, Point::new(0.0, 0.0), |_| 0.0), None);
        assert_eq!(idx.nearest_region(0, Point::new(0.0, 0.0), |_| 0.0), None);
    }

    /// A hallway with two shops along it and a kiosk inside the hallway,
    /// indexed as walkables with their polygons.
    fn floor_plan() -> (SpatialIndex, Vec<Polygon>) {
        let rect = |x0, y0, x1, y1| Polygon::rectangle(Point::new(x0, y0), Point::new(x1, y1));
        let polys = vec![
            rect(0.0, 0.0, 60.0, 6.0),
            rect(0.0, 6.0, 10.0, 14.0),
            rect(10.0, 6.0, 20.0, 14.0),
            rect(30.0, 2.0, 32.0, 4.0),
        ];
        let idx = SpatialIndex::build(
            polys.iter().enumerate().map(|(i, p)| {
                let bb = p.bbox().inflated(trips_geom::EPSILON);
                (EntityId(i as u32), vec![0], p.area(), bb)
            }),
            std::iter::empty(),
        );
        (idx, polys)
    }

    #[test]
    fn raster_answers_equal_the_exact_walk() {
        let (idx, polys) = floor_plan();
        let parts = |id: EntityId| std::slice::from_ref(&polys[id.0 as usize]);
        let g = idx.grid(0).unwrap();
        let raster = g.raster.as_ref().unwrap();
        // A lattice finer than the raster, offset from it, plus the walls,
        // corners and door-free edges themselves; first queries classify.
        let mut points: Vec<Point> = (0..=700)
            .flat_map(|i| (0..=170).map(move |j| (i, j)))
            .map(|(i, j)| Point::new(-2.0 + f64::from(i) * 0.0931, -1.0 + f64::from(j) * 0.0937))
            .collect();
        points.extend(
            (0..=60).flat_map(|x| [0.0, 2.0, 4.0, 6.0, 14.0].map(|y| Point::new(f64::from(x), y))),
        );
        for p in points {
            let exact = g
                .shape
                .at(&g.walkable, p)
                .find(|&id| parts(id).iter().any(|poly| poly.contains(p)));
            assert_eq!(idx.walkable_at(0, p, parts), exact, "at {p:?}");
        }
        let cells = g.walkable.raster.get(raster.nx * raster.ny);
        let state = |x: f64, y: f64| {
            let (ix, iy) = raster.cell_of(Point::new(x, y)).unwrap();
            cells[iy * raster.nx + ix].load(Ordering::Relaxed)
        };
        // Deep inside the hallway, a shop and the kiosk: uniform answers.
        assert_eq!(state(45.0, 3.0), FIRST_ITEM + 3, "hallway (largest)");
        assert_eq!(state(5.0, 10.0), FIRST_ITEM + 1, "shop");
        assert_eq!(state(31.0, 3.0), FIRST_ITEM, "kiosk (smallest)");
        // On the shop wall and around the kiosk: mixed. Beyond the shops: none.
        assert_eq!(state(10.0, 10.0), MIXED);
        assert_eq!(state(32.0, 3.0), MIXED);
        assert_eq!(state(45.0, 10.0), EMPTY);
        let resolved = cells.iter().filter(|c| c.load(Ordering::Relaxed) > MIXED);
        assert!(
            resolved.count() * 10 > cells.len() * 8,
            "most cells uniform"
        );
    }

    #[test]
    fn points_off_the_raster_or_nan_find_nothing() {
        let (idx, polys) = floor_plan();
        let parts = |id: EntityId| std::slice::from_ref(&polys[id.0 as usize]);
        for p in [
            Point::new(-1.0, 3.0),
            Point::new(70.0, 3.0),
            Point::new(5.0, -0.5),
            Point::new(f64::NAN, 3.0),
            Point::new(5.0, f64::INFINITY),
        ] {
            assert_eq!(idx.walkable_at(0, p, parts), None, "at {p:?}");
        }
        assert_eq!(idx.walkable_at(1, Point::new(5.0, 3.0), parts), None);
    }

    #[test]
    fn multi_floor_entities_registered_per_floor() {
        let idx = index_of(vec![(0, vec![0, 1, 2], bb(0.0, 0.0, 2.0, 2.0))]);
        for f in 0..3 {
            assert_eq!(candidates(&idx, f, Point::new(1.0, 1.0)), vec![EntityId(0)]);
        }
        assert_eq!(idx.floor_count(), 3);
    }
}
