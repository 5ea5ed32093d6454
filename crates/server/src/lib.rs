//! # trips-server — the TCP serving layer
//!
//! TRIPS (VLDB 2018) frames translation as the front half of an
//! *interactive service*: raw positioning streams go in, mobility-semantics
//! queries come out. After the sharded store (`trips-store`) and the
//! streaming translator (`trips-core`), this crate adds the missing
//! serving boundary: a dependency-light TCP server on `std::net` speaking
//! a versioned protocol — newline-delimited JSON (v1) and a
//! length-prefixed, CRC-framed binary codec (v2) on the same port,
//! detected per message — absorbing the two-sided workload of large
//! indoor-positioning deployments (many concurrent device streams +
//! ad-hoc analyst queries).
//!
//! * [`protocol`] — the message model: versioned [`RequestEnvelope`] /
//!   [`ResponseEnvelope`], three endpoint families (**ingest**,
//!   **query**, **admin**), typed [`ServerError`]s, and the NDJSON v1
//!   encoding;
//! * [`codec`] — the binary v2 framing: `magic | version | payload_len |
//!   crc32c` headers around a compact field-by-field payload encoding
//!   (the WAL's codec idiom applied to the wire), with a typed
//!   [`FrameError`] split into fatal (desynchronized — close) and
//!   recoverable (bad body in a well-delimited frame — answer and
//!   continue) cases, plus a **zero-copy ingest decode**
//!   ([`decode_request_frame_ref`] / [`RawRecordRef`]) that parses v2
//!   ingest batches as borrowed views straight out of the connection
//!   read buffer;
//! * [`event`] — level-triggered `poll(2)` readiness multiplexing and
//!   the cross-thread [`event::Waker`] (a connected loopback UDP pair)
//!   that wakes a loop shard for alert pushes, adoption and shutdown;
//! * [`admission`] — the server-wide bounded count of admitted requests
//!   that sheds load ([`ServerError::Overloaded`]) instead of growing;
//! * [`server`] — [`TripsServer`]: sharded event loops driving every
//!   connection and running each admitted request to completion on the
//!   shard that parsed it, per-connection sessions with per-device
//!   refcounts, translator-shard-parallel ingest, segmented write queues flushed
//!   with one vectored write, least-loaded acceptor placement,
//!   idle-connection reaping, connection limits, per-endpoint latency
//!   metrics, snapshot save / snapshot boot, and graceful
//!   drain-and-shutdown;
//! * `metrics` (crate-private) — one read of every server counter into
//!   the [`MetricsReport`], which the `Metrics` response, the Prometheus
//!   text and the drain [`ServerReport`] are all built from;
//! * [`client`] — a blocking [`Client`] speaking either protocol version,
//!   for tests, tools and the `server_load` generator;
//! * [`bootstrap`] — DSM + trained-editor assembly from a `trips-sim`
//!   scenario (this repo's stand-in for a surveyed deployment).
//!
//! Ingested record batches run through one shared
//! `trips_core::stream::TranslatorCore` attached to the store, so
//! semantics are queryable **while device streams are still open** — a
//! gap-closed session, an overflowing buffer, an explicit `Flush`, or a
//! client disconnect each publish into the live store without stopping
//! the world.
//!
//! See the repository README ("Serving" and "Wire protocol") for a wire
//! transcript, the framing layout, and the overload semantics.

pub mod admission;
pub mod bootstrap;
pub mod client;
pub mod codec;
pub mod event;
mod metrics;
pub mod protocol;
pub mod server;

pub use admission::Admission;
pub use bootstrap::{bootstrap_scenario, editor_from_truth, ServerBootstrap};
pub use client::{Client, ClientPoisoned, SlowLogPayload};
pub use codec::{
    decode_request_frame, decode_request_frame_ref, decode_response_frame, encode_alert_frame,
    encode_request_frame, encode_response_frame, FrameError, IngestFrameRef, RawRecordRef,
    RequestFrameRef, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, EndpointMetrics,
    HealthReport, LoopShardMetrics, MetricsReport, Request, RequestEnvelope, Response,
    ResponseEnvelope, ServerError, PROTOCOL_V2, PROTOCOL_VERSION,
};
pub use server::{
    ServerConfig, ServerHandle, ServerReport, TripsServer, DEFAULT_SLOW_LOG,
    DEFAULT_SLOW_THRESHOLD_US, DEFAULT_TRACE_RING,
};
