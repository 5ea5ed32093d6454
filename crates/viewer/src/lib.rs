//! The Viewer: visual tracing of all mobility data involved in a
//! translation (paper §2/§3).
//!
//! Multiple data kinds — raw and cleaned positioning sequences, the ground
//! truth trajectory, and the mobility semantics sequence — "have different
//! representations and characteristics, making it hard to process them in a
//! unified way" (paper §3). The Viewer solves this with one abstraction:
//!
//! > "We abstract each data sequence as a timeline of entries, each consists
//! > of a display point and a time range."
//!
//! * [`entry`] — that abstraction ([`Entry`], [`SourceKind`]);
//! * [`timeline`] — the timeline control with the semantics sequence as the
//!   primary navigator; clicking an entry reveals all covered entries;
//! * [`mapview`] — floor switching, zoom and pan state;
//! * [`legend`] — per-source visibility toggling;
//! * [`svg`] — the map-view renderer (SVG artifacts stand in for the web
//!   frontend, see DESIGN.md §2);
//! * [`ascii`] — a terminal renderer for quick inspection;
//! * [`animate`] — the animated, semantics-enriched playback.

#![forbid(unsafe_code)]

pub mod animate;
pub mod ascii;
pub mod entry;
pub mod legend;
pub mod mapview;
pub mod svg;
pub mod timeline;

pub use entry::{Entry, SourceKind};
pub use legend::VisibilityControl;
pub use mapview::MapView;
pub use svg::SvgRenderer;
pub use timeline::Timeline;
