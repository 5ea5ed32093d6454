//! TRIPS system core: the Configurator / Translator / Viewer wiring.
//!
//! This crate assembles the substrates into the system of the paper's
//! Figure 1:
//!
//! * [`config`] — the **Configurator**: positioning-data selection rules,
//!   the DSM, and Event Editor training data, bundled as one configuration;
//! * [`translator`] — the **Translator**: the three-layer pipeline
//!   (Cleaning → Annotation → Complementing) over each selected sequence,
//!   staged on the `trips-engine` executor (serial or multi-threaded, with
//!   identical output either way) and timed per stage;
//! * [`store`] — the file-backed storage that lets configurations be reused
//!   "in other translation tasks in the same indoor space" (paper §4), and
//!   doubles as the snapshot/restore backend for the in-memory
//!   `trips-store` semantics store;
//! * [`assess`] — translation-quality metrics against ground truth (the
//!   simulator provides what the paper's real deployment cannot);
//! * [`export`] — translation result files (text form of Figure 5(4) and
//!   JSON);
//! * [`analytics`] — the downstream analyses translation enables (popular
//!   location discovery, flows, dwell statistics — paper §1's motivation),
//!   now thin wrappers over `trips-store` queries;
//! * [`stream`] — an online (micro-batching) translator extension that can
//!   publish into a live `trips-store` semantics store;
//! * [`system`] — the [`system::Trips`] facade running the five-step
//!   workflow end to end and exposing the live store of the last run.

#![forbid(unsafe_code)]

pub mod analytics;
pub mod assess;
pub mod config;
pub mod export;
pub mod store;
pub mod stream;
pub mod system;
pub mod translator;

pub use assess::AssessmentReport;
pub use config::Configurator;
pub use system::Trips;
pub use translator::{DeviceTranslation, TranslationResult, Translator, TranslatorConfig};
pub use trips_engine::{PipelineReport, StageReport};
