//! The wire protocol: versioned newline-delimited JSON (NDJSON).
//!
//! Every request and every response is one JSON document on one line,
//! wrapped in an envelope carrying the protocol version and a client-chosen
//! correlation id (echoed back verbatim, so a client can pipeline):
//!
//! ```text
//! C: {"v":1,"id":1,"req":"Ping"}\n
//! S: {"v":1,"id":1,"resp":"Pong"}\n
//! C: {"v":1,"id":2,"req":{"Query":{"request":{"selector":{...},"query":"PopularRegions"}}}}\n
//! S: {"v":1,"id":2,"resp":{"Query":{"result":{"PopularRegions":[...]}}}}\n
//! ```
//!
//! Enums use serde's externally-tagged shape (`"Ping"` for unit variants,
//! `{"Variant": payload}` otherwise). Errors are ordinary responses — the
//! [`Response::Error`] variant carries a typed [`ServerError`], so a client
//! can distinguish *shed* load ([`ServerError::Overloaded`], the 503 of
//! this protocol) from its own mistakes ([`ServerError::BadRequest`]).
//!
//! The three endpoint families:
//!
//! * **ingest** — [`Request::Ingest`] (raw record batches; the server feeds
//!   them through its translator core, publishing into the live store)
//!   and [`Request::Flush`] (translate buffered records now);
//! * **query** — [`Request::Query`], the full typed
//!   [`trips_store::QueryRequest`] surface (selector globs, half-open
//!   windows, every query kind);
//! * **admin** — [`Request::Ping`] / [`Request::Health`] /
//!   [`Request::Metrics`] / [`Request::Snapshot`] / [`Request::Shutdown`]
//!   (graceful drain).

use serde::{Deserialize, Serialize};
use std::fmt;
use trips_data::RawRecord;
use trips_obs::SpanRecord;
use trips_store::{Alert, QueryRequest, QueryResult, RuleTrace, StoreHealth, WalStats};

/// The NDJSON protocol version. An NDJSON envelope with any other `v` is
/// rejected with [`ServerError::UnsupportedVersion`] — including `v: 2`:
/// protocol v2 *is* the binary framing (see [`crate::codec`]), so a v2
/// version number arriving as JSON is a framing mismatch, not a request.
pub const PROTOCOL_VERSION: u32 = 1;

/// The binary protocol version (see [`crate::codec`]). Messages of either
/// version may be interleaved on one connection; the server always answers
/// in the framing the request arrived in.
pub const PROTOCOL_V2: u32 = 2;

/// One client request (the `req` field of a [`RequestEnvelope`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered inline (never queued, never shed).
    Ping,
    /// Ingest a batch of raw positioning records. Records are routed to
    /// per-device streaming buffers; semantics finalized by this batch
    /// (gap-closed or overflowing sessions) become queryable immediately.
    Ingest { records: Vec<RawRecord> },
    /// Force-translate buffered records — one device, or every device when
    /// `device` is `None` — so their semantics become queryable without
    /// waiting for a session gap.
    Flush { device: Option<String> },
    /// A typed store query (selector + query kind).
    Query { request: QueryRequest },
    /// Cheap health/occupancy snapshot; answered inline (never shed), so
    /// health stays observable while the admission queue is saturated.
    Health,
    /// Per-endpoint latency/throughput counters; answered inline.
    Metrics,
    /// Flush every open stream buffer, then persist the store. On a
    /// durable server (`--wal-dir`) this is a **checkpoint + compact**:
    /// the WAL rotates, the checkpoint snapshot is published atomically
    /// inside the durability directory, and older segments are retired —
    /// `path` is ignored and the response carries the real snapshot
    /// path. A server without a WAL refuses it with
    /// [`ServerError::BadRequest`] and writes nothing; `path` is kept
    /// only so the wire bytes stay unchanged.
    Snapshot { path: String },
    /// Graceful drain: stop accepting connections and work, finish queued
    /// requests, flush stream buffers, then exit the serve loop.
    Shutdown,
    /// Register a standing rule (TQL `WHEN … ALERT` text) scoped to this
    /// connection: matching [`Response::Alert`] frames are pushed on this
    /// connection (correlation id 0) as ingest fires the rule, and the
    /// rule is torn down when the connection closes. Answered inline.
    Subscribe { tql: String },
    /// Unregister a rule this connection subscribed. Answered inline.
    Unsubscribe { rule_id: u64 },
    /// Per-rule execution traces for every registered rule (all
    /// connections), priority-ordered. Answered inline.
    ListRules,
    /// Every server metric rendered in Prometheus text exposition format,
    /// from the same counter read as [`Request::Metrics`] — the payload
    /// the standalone HTTP `/metrics` listener serves, over the native
    /// protocol. Answered inline.
    MetricsProm,
    /// Recent request-path span trees from every event-loop shard's trace
    /// ring, oldest first (the newest `limit` when set). Answered inline.
    TraceDump { limit: Option<usize> },
    /// The slow-request log: span trees whose end-to-end latency crossed
    /// the configured slow threshold, newest first. Answered inline.
    SlowLog { limit: Option<usize> },
}

impl Request {
    /// The endpoint family used for metrics bucketing.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Ingest { .. } | Request::Flush { .. } => "ingest",
            Request::Query { .. } => "query",
            _ => "admin",
        }
    }

    /// The variant name, for span/trace labeling.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "Ping",
            Request::Ingest { .. } => "Ingest",
            Request::Flush { .. } => "Flush",
            Request::Query { .. } => "Query",
            Request::Health => "Health",
            Request::Metrics => "Metrics",
            Request::Snapshot { .. } => "Snapshot",
            Request::Shutdown => "Shutdown",
            Request::Subscribe { .. } => "Subscribe",
            Request::Unsubscribe { .. } => "Unsubscribe",
            Request::ListRules => "ListRules",
            Request::MetricsProm => "MetricsProm",
            Request::TraceDump { .. } => "TraceDump",
            Request::SlowLog { .. } => "SlowLog",
        }
    }
}

/// One server response (the `resp` field of a [`ResponseEnvelope`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Pong,
    /// Ingest outcome: `accepted` records buffered, `rejected` malformed
    /// records dropped, `emitted` semantics finalized by this batch.
    Ingested {
        accepted: usize,
        rejected: usize,
        emitted: usize,
    },
    /// Flush outcome: devices flushed and semantics emitted.
    Flushed {
        devices: usize,
        emitted: usize,
    },
    Query {
        result: QueryResult,
    },
    Health(HealthReport),
    Metrics(MetricsReport),
    SnapshotSaved {
        path: String,
        devices: usize,
        semantics: usize,
    },
    /// Acknowledges a [`Request::Shutdown`]; the server drains and exits
    /// after this is written.
    ShuttingDown,
    /// Acknowledges a [`Request::Subscribe`]: the registered rule's id
    /// (used to [`Request::Unsubscribe`]) and its display name.
    Subscribed {
        rule_id: u64,
        name: String,
    },
    /// Acknowledges a [`Request::Unsubscribe`]; `existed` is false when the
    /// id named no rule owned by this connection.
    Unsubscribed {
        existed: bool,
    },
    /// Answer to [`Request::ListRules`].
    Rules {
        rules: Vec<RuleTrace>,
    },
    /// Answer to [`Request::MetricsProm`]: the Prometheus text exposition.
    MetricsProm {
        text: String,
    },
    /// Answer to [`Request::TraceDump`].
    Traces {
        spans: Vec<SpanRecord>,
    },
    /// Answer to [`Request::SlowLog`].
    SlowLog {
        /// The active promotion threshold in microseconds.
        threshold_us: u64,
        /// Slow spans evicted from the log since startup (capacity
        /// pressure; raise the slow-log capacity or the threshold).
        evicted: u64,
        spans: Vec<SpanRecord>,
    },
    /// An unsolicited push: a standing rule subscribed on this connection
    /// fired. Always delivered with correlation id 0 — clients must treat
    /// id-0 `Alert` envelopes as out-of-band, not as the answer to a
    /// pending request.
    Alert(Alert),
    Error(ServerError),
}

impl Response {
    /// Whether this is an error response.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }
}

/// Typed failure modes, each mapping to a well-known HTTP-ish meaning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerError {
    /// Load shed: the server already holds `queue_capacity` admitted,
    /// unfinished requests (503). Back off and retry — nothing was run or
    /// buffered, so the work in progress stays bounded.
    Overloaded { queue_capacity: usize },
    /// The connection cap is reached; this connection is closed after the
    /// error is written (503).
    TooManyConnections { limit: usize },
    /// Unparseable or malformed request line (400). The offending line is
    /// echoed truncated in `message`.
    BadRequest { message: String },
    /// Envelope `v` is not [`PROTOCOL_VERSION`] (505).
    UnsupportedVersion { got: u32, want: u32 },
    /// The server is draining; no new work is admitted (503).
    ShuttingDown,
    /// Request was valid but execution failed, e.g. a snapshot path that
    /// cannot be written (500).
    Internal { message: String },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Overloaded { queue_capacity } => {
                write!(f, "overloaded: admission full ({queue_capacity})")
            }
            ServerError::TooManyConnections { limit } => {
                write!(f, "too many connections (limit {limit})")
            }
            ServerError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServerError::UnsupportedVersion { got, want } => {
                write!(f, "unsupported protocol version {got} (expected {want})")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Health endpoint payload: store occupancy (via the store's cheap
/// [`trips_store::SemanticsStore::store_stats`] — no full scans) plus the
/// serving side's own vitals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"ok"` or `"draining"`.
    pub status: String,
    pub uptime_ms: u64,
    pub store: StoreHealth,
    /// Devices with buffered (not yet translated) records.
    pub open_devices: usize,
    /// Raw records buffered across those devices.
    pub buffered_records: usize,
    pub active_connections: usize,
    /// WAL occupancy (segment count, bytes, replay debt, checkpoint
    /// age); `None` when the server runs without a durability layer.
    pub wal: Option<WalStats>,
}

/// Latency/throughput summary of one endpoint family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointMetrics {
    pub endpoint: String,
    pub count: usize,
    /// Requests per second over the server's uptime.
    pub ops_per_sec: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    pub mean_us: f64,
}

/// Per-loop-shard vitals: each event-loop shard owns its fds and buffers
/// and runs the requests it parses; these gauges show how the acceptor's
/// least-loaded placement spread the connection population and the load,
/// and whether a shard is falling behind on alert delivery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopShardMetrics {
    pub shard: usize,
    /// Connections currently owned by this shard.
    pub connections: usize,
    /// Alert pushes waiting for the shard's loop. A shard queues replies
    /// itself, so only alerts fired from another thread wait here; a
    /// sustained backlog means the shard is saturated.
    pub pending_completions: usize,
    /// Times this shard's waker was signaled: alert pushes from other
    /// shards, acceptor hand-offs and shutdown (replies never wake).
    pub wakeups: u64,
    /// Bytes this shard's connections read off their sockets — one half
    /// of the observed-load signal behind least-loaded placement.
    #[serde(default)]
    pub bytes_read: u64,
    /// Work requests this shard admitted and ran — the other half of the
    /// observed-load signal.
    #[serde(default)]
    pub jobs: u64,
}

/// Metrics endpoint payload.
///
/// Fields added after protocol v1 carry `#[serde(default)]` so a report
/// emitted by an older server (or a future one with fields this build does
/// not know — unknown keys are ignored on decode) still parses. The core
/// v1 fields stay required: their absence means a different document, not
/// an older peer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    pub uptime_ms: u64,
    pub connections_accepted: u64,
    pub connections_rejected: u64,
    pub active_connections: usize,
    pub requests: u64,
    /// Requests rejected with [`ServerError::Overloaded`].
    pub shed: u64,
    pub bad_requests: u64,
    /// Cap on admitted, unfinished requests across the server.
    pub queue_capacity: usize,
    /// High-water mark of admitted, unfinished requests (never exceeds
    /// `queue_capacity` — the bounded-work invariant).
    pub peak_queue_depth: usize,
    /// Resident set size of the serving process in KiB (Linux
    /// `/proc/self/statm`; `None` where that is unavailable). The
    /// connection-scaling gate watches this for flat memory.
    #[serde(default)]
    pub rss_kb: Option<u64>,
    /// The readiness backend the event loops run on: always `"poll"`
    /// from this server (older servers could also report `"epoll"`).
    #[serde(default)]
    pub event_backend: String,
    /// One entry per event-loop shard.
    #[serde(default)]
    pub loop_shards: Vec<LoopShardMetrics>,
    /// Number of translator lock shards: the session-buffer maps, one
    /// per store shard and placed by the store's own shard index.
    #[serde(default)]
    pub translator_shards: usize,
    /// Times a worker found its buffer shard's lock held and had to
    /// wait. High values relative to `requests` mean devices are hashing
    /// into too few shards (or one device dominates the stream).
    #[serde(default)]
    pub translator_lock_contention: u64,
    pub endpoints: Vec<EndpointMetrics>,
    /// WAL occupancy; `None` without a durability layer. Tracks the
    /// durability overhead the perf trajectory must watch: segment
    /// growth between checkpoints and how stale the last checkpoint is.
    #[serde(default)]
    pub wal: Option<WalStats>,
    /// Wall time of boot recovery in microseconds (snapshot load + WAL
    /// replay + WAL open); 0 without a durability layer.
    #[serde(default)]
    pub recovery_us: u64,
    /// WAL records boot recovery replayed; 0 without a durability layer.
    #[serde(default)]
    pub recovery_replayed_records: u64,
    /// Per-rule execution traces (priority-ordered), covering every
    /// standing rule registered via [`Request::Subscribe`].
    #[serde(default)]
    pub rules: Vec<RuleTrace>,
    /// Alerts accepted by subscriber connections' write buffers.
    #[serde(default)]
    pub alerts_delivered: u64,
    /// Alerts dropped (subscriber buffer over its cap or connection gone).
    #[serde(default)]
    pub alerts_dropped: u64,
    /// Requests whose span crossed the slow threshold and were promoted
    /// into the slow-log.
    #[serde(default)]
    pub slow_requests: u64,
    /// Times an ingest found its store shard's write lock contended
    /// (store-side counter; the per-wait time lands in the
    /// `store_publish` span stage).
    #[serde(default)]
    pub store_lock_contention: u64,
    /// Standing-rule condition evaluations across all rules.
    #[serde(default)]
    pub rule_evals: u64,
    /// Standing-rule fires across all rules.
    #[serde(default)]
    pub rule_fires: u64,
    /// Connections closed for sitting idle past the configured
    /// `--idle-timeout` (0 when reaping is off).
    #[serde(default)]
    pub connections_reaped: u64,
}

/// A request plus version + correlation id — one line on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    pub v: u32,
    pub id: u64,
    pub req: Request,
}

impl RequestEnvelope {
    /// Wraps a request in a current-version envelope.
    pub fn new(id: u64, req: Request) -> Self {
        RequestEnvelope {
            v: PROTOCOL_VERSION,
            id,
            req,
        }
    }
}

/// A response plus version + the echoed correlation id (0 when the request
/// line could not be parsed far enough to recover an id).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    pub v: u32,
    pub id: u64,
    pub resp: Response,
}

impl ResponseEnvelope {
    /// Wraps a response in a current-version envelope.
    pub fn new(id: u64, resp: Response) -> Self {
        ResponseEnvelope {
            v: PROTOCOL_VERSION,
            id,
            resp,
        }
    }
}

/// Serializes an envelope to its wire line (no trailing newline).
pub fn encode_request(env: &RequestEnvelope) -> String {
    serde_json::to_string(env).expect("request envelopes always serialize")
}

/// Serializes an envelope to its wire line (no trailing newline).
pub fn encode_response(env: &ResponseEnvelope) -> String {
    serde_json::to_string(env).expect("response envelopes always serialize")
}

/// Serializes a pushed alert to its v1 wire line (no trailing newline)
/// straight from a borrowed [`Alert`] — byte-identical to
/// `encode_response` of an id-0 `Response::Alert` envelope, without
/// cloning the alert. The alert fan-out path encodes once per framing and
/// shares the bytes across subscribers.
pub fn encode_alert_line(alert: &Alert) -> String {
    // The vendored serde derive has no `rename`; the field is named for
    // the wire key it must produce (the externally-tagged `Alert` variant).
    #[allow(non_snake_case)]
    #[derive(Serialize)]
    struct RespRef<'a> {
        Alert: &'a Alert,
    }
    #[derive(Serialize)]
    struct EnvRef<'a> {
        v: u32,
        id: u64,
        resp: RespRef<'a>,
    }
    serde_json::to_string(&EnvRef {
        v: PROTOCOL_VERSION,
        id: 0,
        resp: RespRef { Alert: alert },
    })
    .expect("alerts always serialize")
}

/// Parses one request line. `Err` carries the error response to write back
/// (bad JSON → `BadRequest` with id 0; wrong version → the envelope's own
/// id, so pipelined clients can still correlate).
// The Err is a full envelope by design — it is written to the wire
// immediately, once, on a path that just failed to parse; boxing it
// would buy nothing.
#[allow(clippy::result_large_err)]
pub fn decode_request(line: &str) -> Result<RequestEnvelope, ResponseEnvelope> {
    let env: RequestEnvelope = serde_json::from_str(line).map_err(|e| {
        let mut shown: String = line.chars().take(120).collect();
        if shown.len() < line.len() {
            shown.push('…');
        }
        ResponseEnvelope::new(
            0,
            Response::Error(ServerError::BadRequest {
                message: format!("{e} in {shown:?}"),
            }),
        )
    })?;
    if env.v != PROTOCOL_VERSION {
        return Err(ResponseEnvelope::new(
            env.id,
            Response::Error(ServerError::UnsupportedVersion {
                got: env.v,
                want: PROTOCOL_VERSION,
            }),
        ));
    }
    Ok(env)
}

/// Parses one response line.
pub fn decode_response(line: &str) -> Result<ResponseEnvelope, String> {
    serde_json::from_str(line).map_err(|e| format!("unparseable response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::{DeviceId, Duration, Timestamp};
    use trips_store::{Query, SemanticsSelector};

    #[test]
    fn request_roundtrip_every_variant() {
        let requests = vec![
            Request::Ping,
            Request::Ingest {
                records: vec![RawRecord::new(
                    DeviceId::new("b0.3a.7f.00.01"),
                    5.0,
                    4.0,
                    0,
                    Timestamp::from_dhms(0, 10, 0, 0),
                )],
            },
            Request::Flush {
                device: Some("b0.3a.7f.00.01".into()),
            },
            Request::Flush { device: None },
            Request::Query {
                request: QueryRequest::new(
                    SemanticsSelector::all()
                        .with_device_pattern("b0.*")
                        .between(
                            Timestamp::from_dhms(0, 10, 0, 0),
                            Timestamp::from_dhms(0, 16, 0, 0),
                        ),
                    Query::TopFlows { limit: 10 },
                ),
            },
            Request::Health,
            Request::Metrics,
            Request::Snapshot {
                path: "/tmp/snap.json".into(),
            },
            Request::Shutdown,
            Request::Subscribe {
                tql: r#"WHEN device ENTERS region "lab-*" ALERT"#.into(),
            },
            Request::Unsubscribe { rule_id: 7 },
            Request::ListRules,
            Request::MetricsProm,
            Request::TraceDump { limit: Some(16) },
            Request::TraceDump { limit: None },
            Request::SlowLog { limit: None },
        ];
        for (i, req) in requests.into_iter().enumerate() {
            let env = RequestEnvelope::new(i as u64, req);
            let line = encode_request(&env);
            assert!(!line.contains('\n'), "one line per request: {line}");
            let back = decode_request(&line).unwrap();
            assert_eq!(back, env, "{line}");
        }
    }

    #[test]
    fn response_roundtrip_every_variant() {
        let responses = vec![
            Response::Pong,
            Response::Ingested {
                accepted: 10,
                rejected: 1,
                emitted: 4,
            },
            Response::Flushed {
                devices: 3,
                emitted: 12,
            },
            Response::Health(HealthReport {
                status: "ok".into(),
                uptime_ms: 1234,
                store: trips_store::StoreHealth {
                    shards: 8,
                    devices: 2,
                    semantics: 7,
                },
                open_devices: 1,
                buffered_records: 20,
                active_connections: 3,
                wal: Some(WalStats {
                    segments: 2,
                    bytes: 4096,
                    records_since_checkpoint: 17,
                    last_checkpoint_age_ms: Some(1500),
                    fsyncs: 9,
                    rotations: 1,
                }),
            }),
            Response::Metrics(MetricsReport {
                uptime_ms: 1234,
                connections_accepted: 5,
                connections_rejected: 1,
                active_connections: 2,
                requests: 100,
                shed: 7,
                bad_requests: 2,
                queue_capacity: 64,
                peak_queue_depth: 9,
                rss_kb: Some(10_240),
                event_backend: "epoll".into(),
                loop_shards: vec![LoopShardMetrics {
                    shard: 0,
                    connections: 2,
                    pending_completions: 1,
                    wakeups: 42,
                    bytes_read: 4096,
                    jobs: 7,
                }],
                translator_shards: 8,
                translator_lock_contention: 3,
                endpoints: vec![EndpointMetrics {
                    endpoint: "query".into(),
                    count: 80,
                    ops_per_sec: 123.4,
                    p50_us: 40.0,
                    p99_us: 900.0,
                    max_us: 1500.0,
                    mean_us: 80.0,
                }],
                wal: Some(WalStats {
                    segments: 1,
                    bytes: 16,
                    records_since_checkpoint: 0,
                    last_checkpoint_age_ms: None,
                    fsyncs: 3,
                    rotations: 0,
                }),
                recovery_us: 900,
                recovery_replayed_records: 0,
                rules: vec![RuleTrace {
                    id: 1,
                    name: "crowded".into(),
                    priority: 9,
                    source: "WHEN occupancy(floor 2) > 50 ALERT".into(),
                    evals: 120,
                    fires: 3,
                    last_eval_ms: Some(86_400_000),
                    last_fire_ms: Some(82_800_000),
                }],
                alerts_delivered: 3,
                alerts_dropped: 0,
                slow_requests: 2,
                store_lock_contention: 1,
                rule_evals: 120,
                rule_fires: 3,
                connections_reaped: 1,
            }),
            Response::SnapshotSaved {
                path: "/tmp/snap.json".into(),
                devices: 12,
                semantics: 300,
            },
            Response::ShuttingDown,
            Response::Subscribed {
                rule_id: 3,
                name: "crowded".into(),
            },
            Response::Unsubscribed { existed: true },
            Response::Rules {
                rules: vec![RuleTrace {
                    id: 3,
                    name: "crowded".into(),
                    priority: 0,
                    source: r#"WHEN device ENTERS region "lab-*" ALERT"#.into(),
                    evals: 0,
                    fires: 0,
                    last_eval_ms: None,
                    last_fire_ms: None,
                }],
            },
            Response::MetricsProm {
                text: "# TYPE trips_requests_total counter\ntrips_requests_total 5\n".into(),
            },
            Response::Traces {
                spans: vec![SpanRecord {
                    id: 7,
                    conn: 2,
                    shard: 0,
                    endpoint: "ingest".into(),
                    kind: "Ingest".into(),
                    unix_ms: 1_700_000_000_000,
                    total_us: 850,
                    stages_us: vec![1, 2, 3, 4, 5, 6, 7, 8],
                }],
            },
            Response::SlowLog {
                threshold_us: 500,
                evicted: 0,
                spans: vec![],
            },
            Response::Alert(Alert {
                rule_id: 3,
                rule_name: "crowded".into(),
                device: Some("b0.3a.7f.00.01".into()),
                region: Some(12),
                region_name: Some("lab-west".into()),
                message: "device entered lab-west".into(),
                at_ms: 36_000_000,
                seq: 1,
            }),
            Response::Error(ServerError::Overloaded { queue_capacity: 64 }),
            Response::Error(ServerError::TooManyConnections { limit: 4 }),
            Response::Error(ServerError::BadRequest {
                message: "nope".into(),
            }),
            Response::Error(ServerError::UnsupportedVersion { got: 9, want: 1 }),
            Response::Error(ServerError::ShuttingDown),
            Response::Error(ServerError::Internal {
                message: "disk full".into(),
            }),
        ];
        for (i, resp) in responses.into_iter().enumerate() {
            let env = ResponseEnvelope::new(i as u64, resp);
            let line = encode_response(&env);
            assert!(!line.contains('\n'), "one line per response: {line}");
            let back = decode_response(&line).unwrap();
            assert_eq!(back, env, "{line}");
        }
    }

    #[test]
    fn bad_json_yields_bad_request_with_id_zero() {
        let err = decode_request("{not json").unwrap_err();
        assert_eq!(err.id, 0);
        match err.resp {
            Response::Error(ServerError::BadRequest { message }) => {
                assert!(message.contains("{not json"), "{message}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        // A valid JSON document of the wrong shape is also a bad request.
        let err = decode_request(r#"{"hello":"world"}"#).unwrap_err();
        assert!(matches!(
            err.resp,
            Response::Error(ServerError::BadRequest { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected_with_correlation_id() {
        let env = RequestEnvelope {
            v: 99,
            id: 42,
            req: Request::Ping,
        };
        let err = decode_request(&encode_request(&env)).unwrap_err();
        assert_eq!(err.id, 42, "version errors keep the correlation id");
        assert_eq!(
            err.resp,
            Response::Error(ServerError::UnsupportedVersion { got: 99, want: 1 })
        );
    }

    #[test]
    fn very_long_bad_line_is_truncated_in_the_error() {
        let line = "x".repeat(100_000);
        let err = decode_request(&line).unwrap_err();
        match err.resp {
            Response::Error(ServerError::BadRequest { message }) => {
                assert!(message.len() < 400, "error echo bounded: {}", message.len());
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    /// A v1-era client must parse a metrics report from a *newer* server:
    /// unknown keys are ignored, and fields the older wire shape omits
    /// fall back to their defaults instead of failing the decode.
    #[test]
    fn metrics_report_is_forward_compatible() {
        // A newer server's report with a field this build has never
        // heard of: decoding ignores it.
        let env = ResponseEnvelope::new(
            3,
            Response::Metrics(MetricsReport {
                uptime_ms: 9,
                connections_accepted: 1,
                connections_rejected: 0,
                active_connections: 1,
                requests: 4,
                shed: 0,
                bad_requests: 0,
                queue_capacity: 64,
                peak_queue_depth: 1,
                rss_kb: None,
                event_backend: "poll".into(),
                loop_shards: vec![],
                translator_shards: 8,
                translator_lock_contention: 0,
                endpoints: vec![],
                wal: None,
                recovery_us: 0,
                recovery_replayed_records: 0,
                rules: vec![],
                alerts_delivered: 0,
                alerts_dropped: 0,
                slow_requests: 0,
                store_lock_contention: 0,
                rule_evals: 0,
                rule_fires: 0,
                connections_reaped: 0,
            }),
        );
        let line = encode_response(&env);
        let with_unknown = line.replacen(
            "\"uptime_ms\":",
            "\"metric_from_the_future\":{\"nested\":[1,2]},\"uptime_ms\":",
            1,
        );
        assert_ne!(line, with_unknown, "injection must have happened");
        let back = decode_response(&with_unknown).unwrap();
        assert_eq!(back, env, "unknown fields are ignored");

        // An *older* server's report omitting every post-v1 field still
        // parses; the omitted fields take their defaults.
        let v1_line = r#"{"v":1,"id":3,"resp":{"Metrics":{
            "uptime_ms":9,"connections_accepted":1,"connections_rejected":0,
            "active_connections":1,"requests":4,"shed":0,"bad_requests":0,
            "queue_capacity":64,"peak_queue_depth":1,"endpoints":[]}}}"#
            .replace('\n', "");
        let back = decode_response(&v1_line).unwrap();
        match back.resp {
            Response::Metrics(report) => {
                assert_eq!(report.requests, 4);
                assert_eq!(report.event_backend, "");
                assert_eq!(report.rss_kb, None);
                assert!(report.loop_shards.is_empty());
                assert_eq!(report.rule_evals, 0);
                assert_eq!(report.store_lock_contention, 0);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn endpoint_families() {
        assert_eq!(Request::Ping.endpoint(), "admin");
        assert_eq!(Request::Health.endpoint(), "admin");
        assert_eq!(Request::Shutdown.endpoint(), "admin");
        assert_eq!(Request::ListRules.endpoint(), "admin");
        assert_eq!(
            Request::Subscribe { tql: String::new() }.endpoint(),
            "admin"
        );
        assert_eq!(Request::Unsubscribe { rule_id: 1 }.endpoint(), "admin");
        assert_eq!(Request::MetricsProm.endpoint(), "admin");
        assert_eq!(Request::TraceDump { limit: None }.endpoint(), "admin");
        assert_eq!(Request::SlowLog { limit: None }.endpoint(), "admin");
        assert_eq!(Request::Ingest { records: vec![] }.endpoint(), "ingest");
        assert_eq!(Request::Flush { device: None }.endpoint(), "ingest");
        assert_eq!(
            Request::Query {
                request: QueryRequest::new(
                    SemanticsSelector::all(),
                    Query::DwellHistogram {
                        bucket: Duration::from_mins(5)
                    }
                )
            }
            .endpoint(),
            "query"
        );
    }

    #[test]
    fn alert_line_matches_owned_envelope_encoding() {
        let alert = Alert {
            rule_id: 7,
            rule_name: "crowding".to_string(),
            device: Some("tag-3".to_string()),
            region: Some(4),
            region_name: None,
            message: "threshold crossed".to_string(),
            at_ms: 123_456,
            seq: 2,
        };
        let owned = encode_response(&ResponseEnvelope::new(0, Response::Alert(alert.clone())));
        assert_eq!(encode_alert_line(&alert), owned);
    }
}
