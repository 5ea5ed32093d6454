//! # trips-obs — the unified observability layer
//!
//! Every serving layer in TRIPS (event loops, workers, translator shards,
//! store, WAL, rules engine) reports through this crate, so one scrape
//! shows the whole pipeline. Three pieces:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) —
//!   lock-light instruments with label sets. Handles are `Arc`'d atomics:
//!   the hot path is relaxed `fetch_add`s, never a global lock. Histograms
//!   are log-bucketed (powers of two, microseconds) with **striped**
//!   per-thread-group accumulation merged at scrape time. The registry
//!   mutex is touched only at registration and scrape.
//! * **Exposition** ([`Registry::render_prometheus`]) — the Prometheus
//!   text format (`# HELP` / `# TYPE` / samples, histograms as
//!   `_bucket{le=…}` + `_sum` + `_count`), servable over a plain HTTP/1.0
//!   listener or embedded in a wire-protocol response.
//!   [`validate_exposition`] is the parser the tests and CI gates use.
//! * **Tracing** ([`SpanRecord`], [`TraceRing`], [`SlowLog`], [`stage`]) —
//!   cheap monotonic-clock spans over the request pipeline (accept →
//!   loop-shard readiness → queue wait → decode → translator lock → store
//!   publish → rule eval → reply write), kept in fixed-size per-shard
//!   rings, with a threshold that promotes slow span trees into a
//!   retrievable slow-log. The [`stage`] thread-locals let the store and
//!   rules engine attribute their exact same-thread nanoseconds to the
//!   request being executed without any cross-crate plumbing.
//!
//! The exact-sample [`LatencyRecorder`] / [`LatencySummary`] (previously
//! in `trips-engine`, still re-exported there) also live here, so every
//! bench and endpoint percentile in the workspace reduces through one
//! implementation.
//!
//! A single global switch ([`set_enabled`] / [`enabled`], on by default)
//! turns the whole layer off: disabled, instrumented code pays one
//! relaxed atomic load and skips its clock reads — the delta is CI-gated
//! under 5% of ingest throughput (`server_load --obs-overhead`).

mod latency;
mod metrics;
pub mod stage;
mod trace;

pub use latency::{LatencyRecorder, LatencySummary};
pub use metrics::{
    validate_exposition, Counter, Gauge, Histogram, HistogramSnapshot, Registry, HIST_BUCKETS,
};
pub use stage::{enabled, set_enabled};
pub use trace::{SlowLog, SpanRecord, TraceRing, STAGES, STAGE_COUNT};
