//! TRIPS pipeline execution engine.
//!
//! One reusable execution layer for every fan-out in the system. Before this
//! crate existed the batch Translator carried two copy-pasted scoped-thread
//! worker pools and the streaming translator re-wired the same stages a
//! third time; all of them now run through:
//!
//! * [`run_indexed`] — ordered fan-out: an atomic work-stealing counter over
//!   `std::thread::scope`, with results reassembled in **input order** so
//!   parallel output is bit-identical to serial output for any pure per-item
//!   function;
//! * [`Pipeline`] — staged execution with per-stage wall-clock timing,
//!   collected into a [`PipelineReport`] (exposed on every
//!   `TranslationResult` and rendered by the bench harness).
//!
//! The crate is deliberately free of TRIPS domain types so any layer
//! (core, bench, future services) can depend on it without cycles.

mod executor;
mod pipeline;

pub use executor::run_indexed;
pub use pipeline::{Pipeline, PipelineReport, StageReport};
