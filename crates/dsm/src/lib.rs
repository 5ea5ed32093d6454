//! Digital Space Model (DSM) for TRIPS.
//!
//! The DSM is the semi-structured description of an indoor space that every
//! other TRIPS component consumes (paper §3, "Creating DSM from Floorplan
//! Image"). It captures:
//!
//! * **geometric attributes** of indoor entities — rooms, doors, walls,
//!   staircases, hallways ([`entity`]);
//! * **topological relations** between entities (which door opens into which
//!   rooms, which staircase connects which floors) and between semantic
//!   regions ([`topology`]);
//! * **semantic regions** and the mapping from entities to regions
//!   ([`semantic`]);
//! * the **minimum indoor walking distance** engine built on the door graph
//!   ([`distance`]) that the Cleaning layer's speed constraint relies on;
//! * a **uniform-grid spatial index** ([`index`]) built at freeze time that
//!   answers the per-record point/nearest queries sublinearly, with results
//!   identical to the linear scans (tie-breaks included).
//!
//! Two front doors create DSMs:
//!
//! * [`canvas::FloorplanCanvas`] — the programmatic equivalent of the Space
//!   Modeler's drawing tool (trace shapes, undo/redo, snap, tag, export);
//! * [`builder::MallBuilder`] — a parametric generator for the multi-floor
//!   shopping-mall layouts used throughout the evaluation.
//!
//! The DSM round-trips through JSON ([`json`]) exactly as the paper stores it.

#![forbid(unsafe_code)]

pub mod builder;
pub mod canvas;
pub mod distance;
pub mod entity;
pub mod index;
pub mod json;
pub mod semantic;
pub mod topology;
pub mod validate;

mod model;

pub use distance::{Anchor, PathQuery, WalkPath};
pub use entity::{Entity, EntityId, EntityKind};
pub use index::SpatialIndex;
pub use model::{DigitalSpaceModel, DsmError, FloorInfo};
pub use semantic::{RegionId, RegionIndex, SemanticRegion, SemanticTag};
pub use topology::Topology;
pub use validate::{validate, ValidationIssue};
