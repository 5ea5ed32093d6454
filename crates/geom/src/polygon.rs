use crate::segment::orient;
use crate::{BoundingBox, Point, Segment, EPSILON};
use serde::{Deserialize, Serialize};

/// A simple polygon given by its vertex ring (implicitly closed; the last
/// vertex connects back to the first).
///
/// Polygons are the footprint shape of rooms, shops, staircells and
/// user-drawn semantic regions. Vertex order may be clockwise or
/// counter-clockwise; predicates normalise internally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex ring.
    ///
    /// # Panics
    /// Panics if fewer than 3 vertices are supplied — degenerate shapes must
    /// be rejected at the drawing layer.
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(
            vertices.len() >= 3,
            "polygon needs at least 3 vertices, got {}",
            vertices.len()
        );
        Polygon { vertices }
    }

    /// Fallible constructor used by file loaders: returns `None` for rings
    /// with fewer than 3 vertices or non-finite coordinates.
    pub fn try_new(vertices: Vec<Point>) -> Option<Self> {
        if vertices.len() < 3 || vertices.iter().any(|v| !v.is_finite()) {
            None
        } else {
            Some(Polygon { vertices })
        }
    }

    /// Axis-aligned rectangle from two opposite corners.
    pub fn rectangle(a: Point, b: Point) -> Self {
        let bb = BoundingBox::new(a, b);
        Polygon::new(vec![
            bb.min,
            Point::new(bb.max.x, bb.min.y),
            bb.max,
            Point::new(bb.min.x, bb.max.y),
        ])
    }

    /// The vertex ring.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always `false`: construction guarantees ≥ 3 vertices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over the boundary edges (closing edge included).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area via the shoelace formula: positive when the ring is
    /// counter-clockwise.
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            acc += p.cross(q);
        }
        acc / 2.0
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Area centroid. Falls back to the vertex mean for near-zero-area rings.
    pub fn centroid(&self) -> Point {
        let a = self.signed_area();
        if a.abs() <= EPSILON {
            let n = self.vertices.len() as f64;
            let sum = self
                .vertices
                .iter()
                .fold(Point::origin(), |acc, p| acc + *p);
            return sum * (1.0 / n);
        }
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Bounding box of the polygon.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::from_points(self.vertices.iter().copied())
    }

    /// Point-in-polygon test (boundary counts as inside).
    ///
    /// Ray casting with an explicit boundary pass; robust for the rectilinear
    /// and mildly irregular shapes floorplans are made of. The crossing test
    /// runs first: the boundary pass (one `sqrt` per edge) only has to decide
    /// points the crossing test leaves outside.
    pub fn contains(&self, p: Point) -> bool {
        if !self.bbox().inflated(EPSILON).contains(p) {
            return false;
        }
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if ((vi.y > p.y) != (vj.y > p.y))
                && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
            {
                inside = !inside;
            }
            j = i;
        }
        // Boundary pass: positioning records snapped onto a wall belong to
        // the room.
        inside || self.edges().any(|e| e.distance_to_point(p) <= 1e-9)
    }

    /// Distance from `p` to the polygon boundary (0 if on the boundary;
    /// interior points also measure to the boundary).
    pub fn distance_to_boundary(&self, p: Point) -> f64 {
        self.edges()
            .map(|e| e.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Distance from `p` to the polygon as a region: 0 inside, boundary
    /// distance outside.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        if self.contains(p) {
            0.0
        } else {
            self.distance_to_boundary(p)
        }
    }

    /// Closest point on the boundary to `p`.
    pub fn closest_boundary_point(&self, p: Point) -> Point {
        let mut best = self.vertices[0];
        let mut best_d = f64::INFINITY;
        for e in self.edges() {
            let c = e.closest_point(p);
            let d = c.distance(p);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// Returns `true` if the open segment `s` crosses the polygon boundary.
    ///
    /// Used by the cleaner to detect straight-line movements that would pass
    /// through a wall.
    pub fn boundary_crosses(&self, s: &Segment) -> bool {
        self.edges().any(|e| e.intersects(&s.clone()))
    }

    /// Returns `true` if the two polygons share a boundary stretch of length
    /// at least `min_overlap` (edge adjacency, e.g. rooms separated by a
    /// common wall).
    pub fn shares_edge_with(&self, other: &Polygon, min_overlap: f64) -> bool {
        for e1 in self.edges() {
            for e2 in other.edges() {
                if let Some(len) = collinear_overlap_len(&e1, &e2) {
                    if len >= min_overlap {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Convexity check (all turns the same way, allowing collinear runs).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        let mut sign = 0.0f64;
        for i in 0..n {
            let o = orient(
                self.vertices[i],
                self.vertices[(i + 1) % n],
                self.vertices[(i + 2) % n],
            );
            if o.abs() <= EPSILON {
                continue;
            }
            if sign == 0.0 {
                sign = o.signum();
            } else if o.signum() != sign {
                return false;
            }
        }
        true
    }

    /// Returns the polygon translated by `(dx, dy)` — drawing-tool move op.
    pub fn translated(&self, dx: f64, dy: f64) -> Polygon {
        Polygon {
            vertices: self
                .vertices
                .iter()
                .map(|p| Point::new(p.x + dx, p.y + dy))
                .collect(),
        }
    }

    /// Returns the polygon scaled by `factor` around `center` — drawing-tool
    /// resize op.
    pub fn scaled(&self, center: Point, factor: f64) -> Polygon {
        Polygon {
            vertices: self
                .vertices
                .iter()
                .map(|p| center + (*p - center) * factor)
                .collect(),
        }
    }

    /// Returns the polygon rotated by `angle` radians around `center` —
    /// drawing-tool free-transform op.
    pub fn rotated(&self, center: Point, angle: f64) -> Polygon {
        Polygon {
            vertices: self
                .vertices
                .iter()
                .map(|p| p.rotated_around(center, angle))
                .collect(),
        }
    }

    /// A deterministic interior point: the centroid if it is inside,
    /// otherwise a point nudged inward from the first edge midpoint.
    pub fn interior_point(&self) -> Point {
        let c = self.centroid();
        if self.contains(c) {
            return c;
        }
        // Nudge from each edge midpoint towards the centroid until inside.
        for e in self.edges() {
            let m = e.midpoint();
            for t in [0.01, 0.05, 0.1, 0.25] {
                let candidate = m.lerp(c, t);
                if self.contains(candidate) {
                    return candidate;
                }
            }
        }
        c // pathological ring: fall back to centroid
    }
}

/// Length of the overlap between two collinear segments, `None` if they are
/// not collinear or do not overlap.
fn collinear_overlap_len(a: &Segment, b: &Segment) -> Option<f64> {
    // Must be parallel...
    let da = a.b - a.a;
    let db = b.b - b.a;
    if da.cross(db).abs() > 1e-7 * (da.norm() * db.norm()).max(1.0) {
        return None;
    }
    // ... and collinear (b.a on a's supporting line).
    if orient(a.a, a.b, b.a).abs() > 1e-7 * da.norm().max(1.0) {
        return None;
    }
    // Project b's endpoints on a's axis.
    let len_sq = da.dot(da);
    if len_sq <= EPSILON {
        return None;
    }
    let t1 = (b.a - a.a).dot(da) / len_sq;
    let t2 = (b.b - a.a).dot(da) / len_sq;
    let (lo, hi) = (t1.min(t2).max(0.0), t1.max(t2).min(1.0));
    if hi > lo {
        Some((hi - lo) * len_sq.sqrt())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn unit_square() -> Polygon {
        Polygon::rectangle(Point::origin(), Point::new(1.0, 1.0))
    }

    fn l_shape() -> Polygon {
        // ┌─┐
        // │ └─┐
        // └───┘
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ])
    }

    #[test]
    #[should_panic(expected = "at least 3 vertices")]
    fn rejects_degenerate() {
        Polygon::new(vec![Point::origin(), Point::new(1.0, 1.0)]);
    }

    #[test]
    fn try_new_rejects_bad_input() {
        assert!(Polygon::try_new(vec![Point::origin(); 2]).is_none());
        assert!(Polygon::try_new(vec![
            Point::new(f64::NAN, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0)
        ])
        .is_none());
        assert!(Polygon::try_new(vec![
            Point::origin(),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0)
        ])
        .is_some());
    }

    #[test]
    fn area_and_perimeter() {
        assert!(approx_eq(unit_square().area(), 1.0));
        assert!(approx_eq(unit_square().perimeter(), 4.0));
        assert!(approx_eq(l_shape().area(), 3.0));
    }

    #[test]
    fn signed_area_orientation() {
        let ccw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ]);
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ]);
        assert!(ccw.signed_area() > 0.0);
        assert!(cw.signed_area() < 0.0);
        assert!(approx_eq(ccw.area(), cw.area()));
    }

    #[test]
    fn centroid_of_square() {
        let c = unit_square().centroid();
        assert!(approx_eq(c.x, 0.5) && approx_eq(c.y, 0.5));
    }

    #[test]
    fn containment_interior_exterior_boundary() {
        let sq = unit_square();
        assert!(sq.contains(Point::new(0.5, 0.5)));
        assert!(!sq.contains(Point::new(1.5, 0.5)));
        assert!(sq.contains(Point::new(0.0, 0.5)), "boundary is inside");
        assert!(sq.contains(Point::new(1.0, 1.0)), "vertex is inside");
    }

    #[test]
    fn containment_concave() {
        let l = l_shape();
        assert!(l.contains(Point::new(0.5, 1.5)));
        assert!(l.contains(Point::new(1.5, 0.5)));
        assert!(!l.contains(Point::new(1.5, 1.5)), "notch is outside");
    }

    #[test]
    fn distances() {
        let sq = unit_square();
        assert!(approx_eq(sq.distance_to_point(Point::new(0.5, 0.5)), 0.0));
        assert!(approx_eq(sq.distance_to_point(Point::new(2.0, 0.5)), 1.0));
        assert!(approx_eq(
            sq.distance_to_boundary(Point::new(0.5, 0.5)),
            0.5
        ));
    }

    #[test]
    fn closest_boundary_point_is_on_boundary() {
        let sq = unit_square();
        let c = sq.closest_boundary_point(Point::new(2.0, 0.5));
        assert!(approx_eq(c.x, 1.0) && approx_eq(c.y, 0.5));
    }

    #[test]
    fn wall_crossing() {
        let sq = unit_square();
        let through = Segment::new(Point::new(-1.0, 0.5), Point::new(2.0, 0.5));
        let outside = Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 1.0));
        let inside = Segment::new(Point::new(0.2, 0.2), Point::new(0.8, 0.8));
        assert!(sq.boundary_crosses(&through));
        assert!(!sq.boundary_crosses(&outside));
        assert!(!sq.boundary_crosses(&inside));
    }

    #[test]
    fn shared_edge_detection() {
        let a = Polygon::rectangle(Point::origin(), Point::new(2.0, 2.0));
        let b = Polygon::rectangle(Point::new(2.0, 0.0), Point::new(4.0, 2.0));
        let c = Polygon::rectangle(Point::new(5.0, 0.0), Point::new(7.0, 2.0));
        assert!(a.shares_edge_with(&b, 1.0));
        assert!(!a.shares_edge_with(&c, 0.1));
        // Corner touch only: overlap length 0 — not adjacency.
        let d = Polygon::rectangle(Point::new(2.0, 2.0), Point::new(4.0, 4.0));
        assert!(!a.shares_edge_with(&d, 0.1));
    }

    #[test]
    fn convexity() {
        assert!(unit_square().is_convex());
        assert!(!l_shape().is_convex());
    }

    #[test]
    fn transforms_preserve_area() {
        let l = l_shape();
        assert!(approx_eq(l.translated(5.0, -3.0).area(), l.area()));
        assert!(approx_eq(l.rotated(Point::origin(), 0.7).area(), l.area()));
        assert!(approx_eq(
            l.scaled(Point::origin(), 2.0).area(),
            l.area() * 4.0
        ));
    }

    #[test]
    fn interior_point_is_inside() {
        assert!(unit_square().contains(unit_square().interior_point()));
        assert!(l_shape().contains(l_shape().interior_point()));
        // U-shape whose centroid is inside the notch
        let u = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 3.0),
            Point::new(2.0, 3.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(0.0, 3.0),
        ]);
        assert!(u.contains(u.interior_point()));
    }

    #[test]
    fn rectangle_from_any_corners() {
        let r = Polygon::rectangle(Point::new(4.0, 1.0), Point::new(1.0, 3.0));
        assert!(approx_eq(r.area(), 6.0));
        assert!(r.contains(Point::new(2.0, 2.0)));
    }
}
