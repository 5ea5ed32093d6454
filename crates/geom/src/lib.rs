//! Planar geometry substrate for TRIPS.
//!
//! Indoor positioning and the Digital Space Model (DSM) are built on a small
//! set of 2-D primitives: [`Point`]s on a floor, [`Segment`]s, [`Polyline`]s,
//! [`Polygon`]s and [`Circle`]s, plus the predicates the upper layers need
//! (point-in-polygon, distances, intersections, hulls).
//!
//! All coordinates are `f64` metres in a per-building local frame. Floors are
//! carried separately (see [`FloorId`] and [`IndoorPoint`]) because indoor
//! distance is *not* Euclidean across floors — the DSM topology layer owns
//! inter-floor distance.
//!
//! # Example
//!
//! ```
//! use trips_geom::{Point, Polygon};
//!
//! let shop = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 6.0));
//! assert!(shop.contains(Point::new(5.0, 3.0)));
//! assert_eq!(shop.area(), 60.0);
//! ```

#![forbid(unsafe_code)]

mod bbox;
mod circle;
mod point;
mod polygon;
mod polyline;
mod segment;

pub mod algorithms;

pub use bbox::BoundingBox;
pub use circle::Circle;
pub use point::{FloorId, IndoorPoint, Point};
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use segment::Segment;

/// Numeric tolerance used by geometric predicates.
///
/// Indoor coordinates are metres; a nanometre tolerance keeps predicates
/// robust against f64 rounding without ever being observable at positioning
/// accuracy (metre-scale errors).
pub const EPSILON: f64 = 1e-9;

/// Returns `true` if two floats are equal within [`EPSILON`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }
}
