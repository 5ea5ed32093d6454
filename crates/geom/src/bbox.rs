use crate::Point;
use serde::{Deserialize, Serialize};

/// Axis-aligned bounding box.
///
/// Used for cheap prefilters (spatial-range selection rules, region matching)
/// and for the Viewer's map-view fitting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    pub min: Point,
    pub max: Point,
}

impl BoundingBox {
    /// Creates a bounding box from two opposite corners (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        BoundingBox {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The empty box: contains nothing, absorbs any point on first
    /// [`expand`](Self::expand).
    pub fn empty() -> Self {
        BoundingBox {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Returns `true` if no point has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Smallest box covering all `points`; [`empty`](Self::empty) if none.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.expand(p);
        }
        b
    }

    /// Grows the box to cover `p`.
    pub fn expand(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Grows the box to cover another box.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        BoundingBox {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Returns the box inflated by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Euclidean distance from `p` to the closest point of the box, zero
    /// inside it. Nothing inside the box is closer to `p`, so this is a
    /// lower bound on the distance to any geometry the box covers.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(p.x - self.max.x).max(0.0);
        let dy = (self.min.y - p.y).max(p.y - self.max.y).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Closed-boundary containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` if the two boxes overlap (boundary touch counts).
    #[inline]
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Box width (x extent). Zero for the empty box.
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max.x - self.min.x
        }
    }

    /// Box height (y extent). Zero for the empty box.
    pub fn height(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max.y - self.min.y
        }
    }

    /// Area of the box. Zero for the empty box.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point. Meaningless for the empty box (returns NaN components).
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Length of the diagonal — the "covering range" feature used by the
    /// Annotation layer's event identification.
    pub fn diagonal(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.min.distance(self.max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_normalized() {
        let b = BoundingBox::new(Point::new(5.0, 1.0), Point::new(2.0, 8.0));
        assert_eq!(b.min, Point::new(2.0, 1.0));
        assert_eq!(b.max, Point::new(5.0, 8.0));
    }

    #[test]
    fn distance_to_point_is_zero_inside_and_euclidean_outside() {
        let b = BoundingBox::new(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
        assert_eq!(b.distance_to_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(b.distance_to_point(Point::new(4.0, 2.0)), 0.0);
        assert_eq!(b.distance_to_point(Point::new(2.0, 5.0)), 3.0);
        assert_eq!(b.distance_to_point(Point::new(-1.0, 1.0)), 1.0);
        assert_eq!(b.distance_to_point(Point::new(7.0, 6.0)), 5.0);
    }

    #[test]
    fn empty_box_behaviour() {
        let b = BoundingBox::empty();
        assert!(b.is_empty());
        assert_eq!(b.width(), 0.0);
        assert_eq!(b.area(), 0.0);
        assert!(!b.contains(Point::origin()));
        assert!(!b.intersects(&BoundingBox::new(Point::origin(), Point::new(1.0, 1.0))));
    }

    #[test]
    fn expand_absorbs_points() {
        let mut b = BoundingBox::empty();
        b.expand(Point::new(1.0, 2.0));
        assert!(!b.is_empty());
        assert!(b.contains(Point::new(1.0, 2.0)));
        b.expand(Point::new(-1.0, 5.0));
        assert_eq!(b.min, Point::new(-1.0, 2.0));
        assert_eq!(b.max, Point::new(1.0, 5.0));
    }

    #[test]
    fn from_points_covers_all() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, -3.0),
            Point::new(4.0, 9.0),
        ];
        let b = BoundingBox::from_points(pts.clone());
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn containment_includes_boundary() {
        let b = BoundingBox::new(Point::origin(), Point::new(4.0, 4.0));
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(b.contains(Point::new(4.0, 4.0)));
        assert!(b.contains(Point::new(4.0, 2.0)));
        assert!(!b.contains(Point::new(4.0001, 2.0)));
    }

    #[test]
    fn intersection_cases() {
        let a = BoundingBox::new(Point::origin(), Point::new(4.0, 4.0));
        let b = BoundingBox::new(Point::new(3.0, 3.0), Point::new(6.0, 6.0));
        let c = BoundingBox::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        let d = BoundingBox::new(Point::new(4.0, 0.0), Point::new(8.0, 4.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.intersects(&d), "boundary touch counts");
    }

    #[test]
    fn union_covers_both() {
        let a = BoundingBox::new(Point::origin(), Point::new(1.0, 1.0));
        let b = BoundingBox::new(Point::new(5.0, 5.0), Point::new(6.0, 7.0));
        let u = a.union(&b);
        assert!(u.contains(Point::origin()));
        assert!(u.contains(Point::new(6.0, 7.0)));
        assert_eq!(a.union(&BoundingBox::empty()), a);
        assert_eq!(BoundingBox::empty().union(&b), b);
    }

    #[test]
    fn geometry_measures() {
        let b = BoundingBox::new(Point::origin(), Point::new(3.0, 4.0));
        assert_eq!(b.width(), 3.0);
        assert_eq!(b.height(), 4.0);
        assert_eq!(b.area(), 12.0);
        assert_eq!(b.center(), Point::new(1.5, 2.0));
        assert!((b.diagonal() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn inflate_grows_every_side() {
        let b = BoundingBox::new(Point::origin(), Point::new(2.0, 2.0)).inflated(1.0);
        assert_eq!(b.min, Point::new(-1.0, -1.0));
        assert_eq!(b.max, Point::new(3.0, 3.0));
    }
}
