//! TRIPS pipeline execution engine.
//!
//! The execution layer of the batch Translator, which runs its stages and
//! its per-device fan-out through it (it once carried two copy-pasted
//! scoped-thread worker pools instead). The streaming translator does not:
//! `StreamingTranslator::finish` translates device by device on the
//! caller's thread, and the server's event-loop shards schedule their own
//! work. The crate offers:
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

#![forbid(unsafe_code)]

mod executor;
mod pipeline;

pub use executor::run_indexed;
pub use pipeline::{Pipeline, PipelineReport, StageReport};
