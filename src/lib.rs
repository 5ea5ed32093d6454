//! # TRIPS — Translating Raw Indoor Positioning data into mobility Semantics
//!
//! A full reimplementation of the system demonstrated in *"TRIPS: A System
//! for Translating Raw Indoor Positioning Data into Visual Mobility
//! Semantics"* (Li, Lu, Shi, Chen, Chen, Shou — PVLDB 11(12), 2018), as a
//! Rust library.
//!
//! Raw indoor positioning records (`device, (x, y, floor), timestamp`) are
//! noisy, discrete and semantics-free. TRIPS translates them into *mobility
//! semantics* — triplets of an event annotation, a semantic region, and a
//! time range, e.g. `(stay, Adidas, 1:02:05-1:18:15pm)` — through a
//! three-layer pipeline (Cleaning → Annotation → Complementing) configured
//! by three inputs (positioning data selection, a Digital Space Model, and
//! user-designated mobility-event training data), with a Viewer that renders
//! every intermediate sequence for assessment.
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`geom`] | `trips-geom` | planar geometry substrate |
//! | [`dsm`] | `trips-dsm` | Digital Space Model, topology, walking distance, drawing tool |
//! | [`data`] | `trips-data` | positioning records, sources, Data Selector rules |
//! | [`sim`] | `trips-sim` | synthetic mall workloads with ground truth |
//! | [`clean`] | `trips-clean` | Cleaning layer |
//! | [`annotate`] | `trips-annotate` | Annotation layer (splitting, features, models, Event Editor) |
//! | [`complement`] | `trips-complement` | Complementing layer (knowledge + MAP inference) |
//! | [`viewer`] | `trips-viewer` | timeline abstraction, map view, SVG/ASCII rendering |
//! | [`engine`] | `trips-engine` | pipeline executor: ordered fan-out + per-stage timing |
//! | [`core`] | `trips-core` | Configurator / Translator / assessment / export / facade |
//! | [`wal`] | `trips-wal` | append-only write-ahead log: checksummed records, segment rotation, torn-tail-tolerant replay |
//! | [`server`] | `trips-server` | TCP serving layer: NDJSON ingest/query/admin, load shedding, durable boot |
//!
//! ## Quickstart
//!
//! ```
//! use trips::prelude::*;
//!
//! // A one-floor synthetic mall with ground-truth shopper traces.
//! let dataset = trips::sim::scenario::generate(1, 3, &ScenarioConfig {
//!     devices: 2,
//!     seed: 42,
//!     ..ScenarioConfig::default()
//! });
//!
//! // Train event identification from ground-truth designations.
//! let mut editor = EventEditor::with_default_patterns();
//! for trace in &dataset.traces {
//!     for visit in &trace.truth_visits {
//!         let segment: Vec<_> = trace.raw.records().iter()
//!             .filter(|r| r.ts >= visit.start && r.ts <= visit.end)
//!             .cloned().collect();
//!         if segment.len() >= 2 {
//!             let _ = editor.designate_segment(visit.kind.name(), &segment);
//!         }
//!     }
//! }
//!
//! // Run the five-step workflow.
//! let sequences = dataset.sequences();
//! let mut system = Trips::new(
//!     Configurator::new(dataset.dsm).with_event_editor(editor),
//! );
//! let result = system.run(sequences).unwrap();
//! assert!(result.total_semantics() > 0);
//! ```

#![forbid(unsafe_code)]

pub use trips_annotate as annotate;
pub use trips_clean as clean;
pub use trips_complement as complement;
pub use trips_core as core;
pub use trips_data as data;
pub use trips_dsm as dsm;
pub use trips_engine as engine;
pub use trips_geom as geom;
pub use trips_server as server;
pub use trips_sim as sim;
pub use trips_store as store;
pub use trips_viewer as viewer;
pub use trips_wal as wal;

/// The most commonly used items in one import.
pub mod prelude {
    pub use trips_annotate::{
        Annotator, AnnotatorConfig, EventEditor, MobilitySemantics, SplitConfig,
    };
    pub use trips_clean::{CleanedSequence, Cleaner, CleanerConfig};
    pub use trips_complement::{Complementor, ComplementorConfig, MobilityKnowledge};
    pub use trips_core::{
        AssessmentReport, Configurator, DeviceTranslation, TranslationResult, Translator,
        TranslatorConfig, Trips,
    };
    pub use trips_data::{
        DeviceId, Duration, PositioningSequence, RawRecord, SelectionRule, Selector, Timestamp,
    };
    pub use trips_dsm::builder::MallBuilder;
    pub use trips_dsm::{DigitalSpaceModel, PathQuery, RegionId, SemanticRegion, SemanticTag};
    pub use trips_engine::{Pipeline, PipelineReport};
    pub use trips_geom::{IndoorPoint, Point, Polygon};
    pub use trips_server::{Client, ServerConfig, TripsServer};
    pub use trips_sim::{CampusDataset, ErrorModel, ScenarioConfig, SimulatedDataset};
    pub use trips_store::{
        DurabilityConfig, FsyncPolicy, Query, QueryRequest, QueryResult, SemanticsSelector,
        SemanticsStore, StoreHealth,
    };
    pub use trips_viewer::{Entry, MapView, SourceKind, SvgRenderer, Timeline, VisibilityControl};
}
