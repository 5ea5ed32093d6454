//! Semantic regions and tags.
//!
//! A *semantic region* is "a region associated with some practical semantics"
//! (paper §1) — a shop, a cashier area, the center hall. Regions carry the
//! spatial annotation of mobility semantics. Analysts create them in the
//! Space Modeler by attaching semantic tags to drawn entities.

use crate::entity::EntityId;
use serde::{Deserialize, Serialize};
use std::fmt;
use trips_geom::{FloorId, Point, Polygon};

/// Unique identifier of a semantic region within a DSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub u32);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An id a [`DenseIndex`] can index: a small number, allocated densely.
pub trait DenseId: Copy + Ord {
    /// The id's number.
    fn number(self) -> usize;
}

impl DenseId for RegionId {
    #[inline]
    fn number(self) -> usize {
        self.0 as usize
    }
}

impl DenseId for EntityId {
    #[inline]
    fn number(self) -> usize {
        self.0 as usize
    }
}

/// Region id → dense position (`0..len`, in id order): the slot the DSM and
/// the Complementor's knowledge keep per-region data in.
pub type RegionIndex = DenseIndex<RegionId>;

/// Id → dense position (`0..len`, in id order): the *slot* a table keeps
/// per-id data in.
///
/// A `Vec` indexed by id, bounded by the largest id. Ids are allocated
/// densely by the model ([`DigitalSpaceModel::next_entity_id`],
/// [`DigitalSpaceModel::next_region_id`]), so that bound is the id count.
/// A model loaded with ids far sparser than that falls back to a binary
/// search over the sorted ids rather than allocating a slot per unused id.
///
/// [`DigitalSpaceModel::next_entity_id`]: crate::DigitalSpaceModel::next_entity_id
/// [`DigitalSpaceModel::next_region_id`]: crate::DigitalSpaceModel::next_region_id
#[derive(Debug, Clone)]
pub struct DenseIndex<Id> {
    /// Every id, ascending.
    ids: Vec<Id>,
    /// `slots[id]` is the position of `id` in `ids`, or [`NONE`].
    /// Empty when the ids are too sparse to index densely.
    slots: Vec<u32>,
}

/// [`DenseIndex`] slot of an id that is not indexed.
const NONE: u32 = u32::MAX;

impl<Id> Default for DenseIndex<Id> {
    fn default() -> Self {
        DenseIndex {
            ids: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<Id: DenseId> DenseIndex<Id> {
    /// Indexes `ids`, which must be ascending and distinct.
    pub fn new(ids: Vec<Id>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascending");
        let mut index = DenseIndex {
            ids,
            slots: Vec::new(),
        };
        index.fill_slots();
        index
    }

    fn fill_slots(&mut self) {
        self.slots.clear();
        let Some(last) = self.ids.last() else {
            return;
        };
        let span = last.number() + 1;
        if span > 4 * self.ids.len() + 64 {
            return;
        }
        self.slots.resize(span, NONE);
        for (at, id) in self.ids.iter().enumerate() {
            self.slots[id.number()] = at as u32;
        }
    }

    /// Inserts `id` (absent so far), shifting later positions. Appending
    /// past the largest id is O(1); any other insert re-indexes.
    pub(crate) fn insert(&mut self, id: Id) -> usize {
        let at = self.ids.partition_point(|&x| x < id);
        self.ids.insert(at, id);
        if at + 1 == self.ids.len() && !self.slots.is_empty() {
            let span = id.number() + 1;
            if span <= 4 * self.ids.len() + 64 {
                self.slots.resize(span, NONE);
                self.slots[id.number()] = at as u32;
                return at;
            }
        }
        self.fill_slots();
        at
    }

    /// The dense position of `id`, if indexed.
    #[inline]
    pub fn get(&self, id: Id) -> Option<usize> {
        if self.slots.is_empty() {
            return self.ids.binary_search(&id).ok();
        }
        match self.slots.get(id.number()) {
            Some(&at) if at != NONE => Some(at as usize),
            _ => None,
        }
    }

    /// Every indexed id, ascending (position order).
    pub fn ids(&self) -> &[Id] {
        &self.ids
    }

    /// Number of indexed ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no id is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A semantic tag: the label vocabulary the analyst attaches to drawn shapes.
///
/// Tags have a `category` (e.g. `"shop"`, `"facility"`) and a display `style`
/// (the paper: "customize and apply different styles to differentiate the
/// indoor entities with different semantic tags").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SemanticTag {
    /// Tag name, e.g. `"sportswear"`, `"cashier"`, `"atrium"`.
    pub name: String,
    /// Coarse category, e.g. `"shop"`, `"service"`, `"circulation"`.
    pub category: String,
    /// Display style as a CSS-like colour string used by the Viewer/SVG.
    pub style: String,
}

impl SemanticTag {
    /// Creates a tag with a default style derived from the category.
    pub fn new(name: &str, category: &str) -> Self {
        let style = match category {
            "shop" => "#4c78a8",
            "service" => "#f58518",
            "circulation" => "#b0b0b0",
            _ => "#54a24b",
        };
        SemanticTag {
            name: name.to_string(),
            category: category.to_string(),
            style: style.to_string(),
        }
    }

    /// Creates a tag with an explicit style.
    pub fn with_style(name: &str, category: &str, style: &str) -> Self {
        SemanticTag {
            name: name.to_string(),
            category: category.to_string(),
            style: style.to_string(),
        }
    }
}

/// A semantic region: a named, tagged area on one floor, backed by one or
/// more drawn entities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemanticRegion {
    pub id: RegionId,
    /// Display name, e.g. `"Nike Store"`, `"Center Hall"`, `"Cashier"`.
    pub name: String,
    pub tag: SemanticTag,
    pub floor: FloorId,
    /// The region's area footprint (union of the backing entities is
    /// represented as a list of polygons).
    pub polygons: Vec<Polygon>,
    /// Entities this region is mapped onto (the DSM's entity↔region mapping).
    pub entities: Vec<EntityId>,
}

impl SemanticRegion {
    /// Creates a region backed by a single polygon and entity.
    pub fn new(
        id: RegionId,
        name: &str,
        tag: SemanticTag,
        floor: FloorId,
        polygon: Polygon,
        entity: EntityId,
    ) -> Self {
        SemanticRegion {
            id,
            name: name.to_string(),
            tag,
            floor,
            polygons: vec![polygon],
            entities: vec![entity],
        }
    }

    /// Closed containment test over all backing polygons.
    pub fn contains(&self, p: Point) -> bool {
        self.polygons.iter().any(|poly| poly.contains(p))
    }

    /// Distance from `p` to the region (0 inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.polygons
            .iter()
            .map(|poly| poly.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Total area of the region.
    pub fn area(&self) -> f64 {
        self.polygons.iter().map(|p| p.area()).sum()
    }

    /// A deterministic interior point (for labels and inference anchors).
    pub fn anchor(&self) -> Point {
        self.polygons[0].interior_point()
    }

    /// Adds another backing polygon/entity pair (multi-entity regions, e.g.
    /// a shop with a storefront and a stockroom).
    pub fn add_part(&mut self, polygon: Polygon, entity: EntityId) {
        self.polygons.push(polygon);
        self.entities.push(entity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_geom::Point;

    fn region() -> SemanticRegion {
        SemanticRegion::new(
            RegionId(1),
            "Nike Store",
            SemanticTag::new("sportswear", "shop"),
            3,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 8.0)),
            EntityId(7),
        )
    }

    #[test]
    fn tag_default_styles() {
        assert_eq!(SemanticTag::new("x", "shop").style, "#4c78a8");
        assert_eq!(SemanticTag::new("x", "circulation").style, "#b0b0b0");
        assert_eq!(SemanticTag::new("x", "other").style, "#54a24b");
        assert_eq!(
            SemanticTag::with_style("x", "shop", "#123456").style,
            "#123456"
        );
    }

    #[test]
    fn containment_and_distance() {
        let r = region();
        assert!(r.contains(Point::new(5.0, 4.0)));
        assert!(!r.contains(Point::new(11.0, 4.0)));
        assert_eq!(r.distance_to_point(Point::new(5.0, 4.0)), 0.0);
        assert!((r.distance_to_point(Point::new(12.0, 4.0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn multi_part_region() {
        let mut r = region();
        r.add_part(
            Polygon::rectangle(Point::new(20.0, 0.0), Point::new(25.0, 5.0)),
            EntityId(8),
        );
        assert!(r.contains(Point::new(22.0, 2.0)));
        assert_eq!(r.entities.len(), 2);
        assert!((r.area() - (80.0 + 25.0)).abs() < 1e-9);
    }

    #[test]
    fn anchor_is_inside() {
        let r = region();
        assert!(r.contains(r.anchor()));
    }

    #[test]
    fn ids_display() {
        assert_eq!(RegionId(4).to_string(), "r4");
    }
}
