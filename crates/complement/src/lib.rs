//! The Complementing layer of the three-layer translation framework
//! (paper §3).
//!
//! Dropouts leave holes in the annotated semantics sequence: two consecutive
//! mobility semantics can be "temporally far apart" with nothing in between.
//! The Complementing layer recovers the missing semantics in two stages:
//!
//! 1. **knowledge construction** ([`knowledge`]) — aggregate the semantics
//!    already annotated (across *all* devices) into prior mobility knowledge:
//!    transition probabilities between semantic regions, plus per-region
//!    dwell statistics;
//! 2. **mobility semantics inference** ([`infer`]) — for each gap, a maximum
//!    a posteriori estimation over the region graph finds the most likely
//!    region path between the two observed endpoints, and the gap's time
//!    range is distributed over it.
//!
//! [`Complementor`] packages both stages behind the Translator-facing API.

#![forbid(unsafe_code)]

pub mod infer;
pub mod knowledge;

mod complementor;

pub use complementor::{Complementor, ComplementorConfig};
pub use knowledge::MobilityKnowledge;
