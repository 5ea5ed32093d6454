//! The Annotation layer of the three-layer translation framework (paper §3).
//!
//! A cleaned positioning sequence becomes a sequence of *mobility semantics*
//! triplets `(event, region, time range)` in two steps:
//!
//! 1. **density-based splitting** ([`split`]) clusters records by their
//!    spatio-temporal attributes into *snippets* — dense stretches (stay
//!    candidates) and the transit stretches between them;
//! 2. **semantic matching** assigns each snippet
//!    * an **event annotation** via a learning-based identification model
//!      ([`model`]) over features ([`features`]: location variance,
//!      traveling distance and speed, covering range, number of turns, …)
//!      trained on data collected through the **Event Editor** ([`editor`]);
//!    * a **spatial annotation** by matching semantic regions in the DSM
//!      ([`spatial`]);
//!    * a **temporal annotation** from the snippet's time range.
//!
//! [`baseline`] implements the two literature baselines the paper positions
//! against: SMoT-style stop/move annotation (ref \[12\]) and threshold-based
//! trajectory reconstruction (ref \[10\]).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod editor;
pub mod features;
pub mod model;
pub mod semantics;
pub mod spatial;
pub mod split;

mod annotator;

pub use annotator::{Annotator, AnnotatorConfig, DisplayPointPolicy};
pub use editor::{EventEditor, EventPattern, TrainingSet};
pub use features::{FeatureVector, FEATURE_NAMES};
pub use model::{Classifier, DecisionTree, EventModel, KNearest, RandomForest};
pub use semantics::{MobilitySemantics, RegionNames};
pub use split::{Snippet, SnippetKind, SplitConfig};
