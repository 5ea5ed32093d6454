//! The serving loops: acceptor → sharded event loops → bounded admission
//! queue → fixed worker pool → sharded translator locks → semantics store.
//!
//! ## Threading model
//!
//! Everything runs under one `std::thread::scope` (the same scoped-thread
//! idiom as `trips-engine`'s executor), so workers borrow the server's
//! state directly — no leaked `'static` state, and `serve` returns only
//! after every thread has exited:
//!
//! * the **acceptor** (the calling thread) owns the listener, enforces
//!   the connection cap, and places each accepted socket on the
//!   least-loaded loop shard;
//! * **N event-loop shards** (`ServerConfig::loop_shards`, default
//!   `min(cores, 4)`) each own their connections' fds, buffers, and a
//!   wake-up channel, multiplexed by [`crate::event::Poller`]
//!   (level-triggered `poll(2)`). Connections are nonblocking sockets
//!   with per-connection read/write buffers and cached readiness
//!   (`can_read`/`can_write`, cleared only on `WouldBlock`; only
//!   exhausted directions are armed in the poll set, so known readiness
//!   never spins the loop), so ten thousand idle device streams cost fds
//!   and buffers, not parked threads. A wakeup is O(connections): each
//!   lap services every connection and refreshes its interest, then
//!   `poll(2)` scans the whole set. Each shard parses complete messages
//!   (NDJSON v1 lines or binary v2 frames, detected per message by the
//!   first byte), answers cheap admin requests inline
//!   (`Ping`/`Health`/`Metrics` stay observable under overload), and
//!   submits real work to the queue — one request in flight per
//!   connection, so responses stay ordered;
//! * a **fixed worker pool** pops jobs, executes them against the
//!   sharded `StreamingTranslator` locks + shared `SemanticsStore`,
//!   *encodes the response bytes* (the serialization cost parallelizes),
//!   and hands the bytes back to the owning loop shard through its
//!   completion list + waker.
//!
//! ## Translator sharding
//!
//! The streaming translator is partitioned into a power-of-two array of
//! independently locked instances ([`ServerConfig::translator_shards`]),
//! routed by the same FNV-1a device hash as `trips-store`
//! ([`trips_store::device_hash`]) — a device's translator shard and store
//! shard stay aligned, and since every device lives entirely within one
//! translator instance, sharded output is bit-identical to a single
//! translator. An `Ingest` batch is grouped by translator shard and each
//! group runs under its own shard's lock, so batches from unrelated
//! devices translate in parallel while per-device ordering is preserved
//! (a batch whose devices all share a shard takes one lock). Locks are
//! only ever taken one shard at a time (multi-shard work iterates), so
//! there is no lock-order deadlock; the `translator_lock_contention`
//! metric counts blocked acquisitions.
//!
//! ## Overload behavior
//!
//! Admission is a [`BoundedQueue`]: when it is full the request is
//! **shed** with [`ServerError::Overloaded`] — nothing buffers, memory
//! stays bounded (`peak_queue_depth ≤ queue_capacity`, exposed via
//! `Metrics`). Past the connection cap, new sockets get
//! [`ServerError::TooManyConnections`] and are closed immediately.
//!
//! ## Sessions
//!
//! Each connection is a session. `Shared.sessions` refcounts, per device,
//! how many live connections have ingested that device — **globally**,
//! across loop shards, because two connections on different shards can
//! stream the same device. Teardown flushes and `end_session`s only the
//! devices whose count drops to zero, so a disconnecting client never
//! splits a flow another connection is still streaming. For the same
//! reason a wire-level `Flush { device: None }` is scoped to the
//! *requesting* session's devices, not the whole translator.
//!
//! ## Drain
//!
//! `Shutdown` acknowledges, then: stop accepting, refuse new work, finish
//! every admitted request, flush pending response bytes, flush all stream
//! buffers into the store (and the WAL, on a durable server), and return
//! a [`ServerReport`]. Connections that cannot drain within
//! `DRAIN_GRACE` are dropped.
//!
//! ## Snapshots
//!
//! On a non-durable server, `Snapshot { path }` is resolved against
//! [`ServerConfig::snapshot_root`]: relative, non-escaping paths only.
//! Absolute paths, `..` components, or a server with no root configured
//! are rejected with `BadRequest` — the wire must not name arbitrary
//! server filesystem locations. Durable servers checkpoint into their
//! WAL directory and ignore `path` entirely.
//!
//! ## Durability
//!
//! With [`ServerConfig::durability`] set, the store journals every
//! effective mutation to a `trips-wal` write-ahead log **before** the
//! mutation is visible — so an `Ingested`/`Flushed` ack means every
//! semantics that became queryable through that request is journaled
//! (and on stable storage, under the configured fsync policy). Raw
//! records still buffered in the streaming translator are *not yet*
//! durable — they become so the moment they publish (gap close, buffer
//! overflow, `Flush`, disconnect, drain), which is also the moment they
//! become queryable; recovery therefore always reproduces exactly the
//! queryable state.

use crate::codec::{self, FrameError, RequestFrameRef, FRAME_MAGIC, HEADER_LEN, MAX_FRAME_PAYLOAD};
use crate::event::{fd_of, poll_fds, Event, PollFd, Poller, Waker, POLLIN};
use crate::protocol::{
    EndpointMetrics, HealthReport, LoopShardMetrics, MetricsReport, Request, RequestEnvelope,
    Response, ResponseEnvelope, ServerError,
};
use crate::queue::{BoundedQueue, PushError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trips_annotate::EventEditor;
use trips_core::stream::{StreamConfig, StreamingTranslator};
use trips_data::{DeviceId, RawRecord, Timestamp};
use trips_dsm::DigitalSpaceModel;
use trips_obs::{stage, Histogram, Registry, SlowLog, SpanRecord, TraceRing, STAGE_COUNT};
use trips_store::{boot_store, DurabilityConfig, QueryService, RecoveryReport, SemanticsStore};

/// Longest accepted NDJSON request line; a connection exceeding it without
/// a newline is answered with `BadRequest` and closed (memory bound).
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Per-connection read-buffer cap: one maximal v2 frame. Reads pause
/// (readiness is cached, the fill loop stops) until the buffer drains
/// below this, so a pipelining client cannot balloon server memory.
const MAX_READ_BUF: usize = MAX_FRAME_PAYLOAD + HEADER_LEN;

/// Bytes read per readiness event before a connection yields back to its
/// loop shard, so one firehose connection cannot starve the rest.
pub const DEFAULT_READ_BUDGET: usize = 256 * 1024;

/// Event-loop wait timeout — the latency of noticing a drain when no fd
/// is active (completions interrupt the wait via a waker).
const LOOP_WAIT_MS: i32 = 10;

/// Most queued segments one flush hands to a single vectored write —
/// comfortably under every platform's `IOV_MAX` (1024 on Linux); a longer
/// queue just takes another call.
const WRITEV_BATCH_MAX: usize = 64;

/// How long a drain waits for connections to finish in-flight work and
/// flush response bytes before dropping them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Write-buffer level above which unsolicited alert pushes are dropped
/// (counted in `alerts_dropped`): a subscriber that stops reading must not
/// balloon server memory, and alerts are advisory — the rule's fire
/// counters in `Metrics` remain the ground truth.
const ALERT_BUF_MAX: usize = 4 * 1024 * 1024;

/// How long the acceptor sleeps in `poll` between drain-flag checks.
const ACCEPT_POLL_MS: i32 = 25;

/// Default slow-request promotion threshold
/// ([`ServerConfig::slow_threshold_us`]): a request slower than this end
/// to end is promoted into the slow-log.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 100_000;

/// Per-loop-shard trace-ring capacity.
pub const DEFAULT_TRACE_RING: usize = 256;

/// Slow-log capacity.
pub const DEFAULT_SLOW_LOG: usize = 128;

/// Longest HTTP request head the `/metrics` responder reads before
/// answering; scrapers send far less.
const MAX_HTTP_HEAD: usize = 8 * 1024;

// Indices into a span's `stages_us`, parallel to [`trips_obs::STAGES`].
const ST_ACCEPT: usize = 0;
const ST_LOOP_READY: usize = 1;
const ST_QUEUE_WAIT: usize = 2;
const ST_DECODE: usize = 3;
const ST_TRANSLATOR_LOCK: usize = 4;
const ST_STORE_PUBLISH: usize = 5;
const ST_RULE_EVAL: usize = 6;
const ST_REPLY_WRITE: usize = 7;

const _: () = assert!(
    ST_REPLY_WRITE + 1 == STAGE_COUNT,
    "stage indices track STAGES"
);

/// The registration token reserved for each shard's waker fd.
const WAKER_TOKEN: u64 = u64::MAX;

/// Cap on per-connection interned device ids (zero-copy decode path) —
/// bounds memory against a client that invents a new id per record.
const INTERN_MAX: usize = 4096;

/// Approximate byte-cost a queued work job contributes to a shard's
/// observed load: queries and flushes carry few wire bytes but real
/// execution cost, so the acceptor's placement signal weighs them as if
/// they were a 4 KiB read.
const JOB_LOAD_BYTES: u64 = 4096;

/// How often the acceptor decays its observed-load EWMA.
const LOAD_REFRESH: Duration = Duration::from_millis(100);

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fixed worker-pool size executing ingest/query/snapshot work.
    pub workers: usize,
    /// Bounded admission-queue capacity; requests beyond it are shed with
    /// [`ServerError::Overloaded`].
    pub queue_capacity: usize,
    /// Concurrent-connection cap; sockets beyond it get
    /// [`ServerError::TooManyConnections`] and are closed.
    pub max_connections: usize,
    /// Store shard count (`0` = [`trips_store::default_shard_count`]).
    /// Ignored when booting from a snapshot (the snapshot records its own).
    pub shards: usize,
    /// Event-loop shard count (`0` = `min(cores, 4)`). Each shard is one
    /// thread owning its connections' fds and buffers; the acceptor places
    /// each new connection on the least-loaded shard.
    pub loop_shards: usize,
    /// Translator-lock shard count, rounded up to a power of two
    /// (`0` = `clamp(2·cores, 4, 32)` rounded likewise). Devices are
    /// routed by [`trips_store::device_hash`], so this aligns with the
    /// store's own sharding.
    pub translator_shards: usize,
    /// Streaming-translator settings (flush gap, buffer cap, translator).
    pub stream: StreamConfig,
    /// Boot the store from this `trips-store` snapshot instead of empty.
    /// One-shot and **non-durable**: mutations after boot are not
    /// journaled. Mutually exclusive with `durability`.
    pub snapshot: Option<std::path::PathBuf>,
    /// Directory wire-level `Snapshot { path }` requests resolve against
    /// on a non-durable server. `None` (the default) rejects every such
    /// request with `BadRequest` — clients must not write arbitrary
    /// server paths. Ignored on a durable server (checkpoints go to the
    /// durability directory).
    pub snapshot_root: Option<std::path::PathBuf>,
    /// Run the store durably: boot by recovery (checkpoint snapshot +
    /// WAL replay) from this directory and journal every effective store
    /// mutation before acking. `Snapshot` requests become
    /// checkpoint+compact. Mutually exclusive with `snapshot`.
    pub durability: Option<DurabilityConfig>,
    /// Cap on concurrently registered standing rules
    /// (`0` = [`trips_store::DEFAULT_RULE_LIMIT`]). Registrations beyond
    /// it are refused with `BadRequest`.
    pub max_rules: usize,
    /// Bind a standalone HTTP/1.0 `GET /metrics` responder (Prometheus
    /// text exposition) on this address; `None` (the default) serves the
    /// exposition only over the native protocol (`MetricsProm`).
    pub metrics_addr: Option<String>,
    /// End-to-end latency (µs) at or above which a request's span tree is
    /// promoted into the slow-log. `0` promotes every request (the
    /// trace-one-request switch).
    pub slow_threshold_us: u64,
    /// Close connections idle (no reads, no in-flight work, nothing
    /// buffered to write) longer than this. `None` (the default) never
    /// reaps — device streams are expected to sit quiet between fixes.
    /// Reaped connections count in `connections_reaped` and tear down
    /// exactly like a client disconnect (sessions settle, rules die).
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 128,
            // A loop shard costs ~one fd + two buffers per connection, so
            // the default cap is deployment-sized, not thread-sized (the
            // CI connection-scaling gate holds 2000).
            max_connections: 4096,
            shards: 0,
            loop_shards: 0,
            translator_shards: 0,
            stream: StreamConfig::default(),
            snapshot: None,
            snapshot_root: None,
            durability: None,
            max_rules: 0,
            metrics_addr: None,
            slow_threshold_us: DEFAULT_SLOW_THRESHOLD_US,
            idle_timeout: None,
        }
    }
}

/// `min(cores, 4)` — one loop shard saturates well past a thousand mostly
/// idle connections, so shards track cores only up to a small cap.
fn default_loop_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

/// `clamp(2·cores, 4, 32)`, next power of two — enough shards that random
/// device traffic rarely collides, few enough that per-shard buffers stay
/// warm.
fn default_translator_shards() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores * 2).clamp(4, 32).next_power_of_two()
}

/// Counters summarizing one `serve` run, returned when the loop drains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReport {
    pub connections_accepted: u64,
    pub connections_rejected: u64,
    pub requests: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    pub bad_requests: u64,
    /// Admission-queue high-water mark (≤ configured capacity).
    pub peak_queue_depth: usize,
    /// Store occupancy at drain time.
    pub devices: usize,
    pub semantics: usize,
}

/// Which framing a message arrived in — responses go back the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    V1,
    V2,
}

fn encode_wire(wire: Wire, env: &ResponseEnvelope) -> Vec<u8> {
    match wire {
        Wire::V1 => {
            let mut line = crate::protocol::encode_response(env).into_bytes();
            line.push(b'\n');
            line
        }
        Wire::V2 => codec::encode_response_frame(env),
    }
}

/// One queued response segment: bytes this connection owns, or alert
/// bytes encoded once and shared (refcounted) across subscribers.
enum Chunk {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl Chunk {
    fn as_slice(&self) -> &[u8] {
        match self {
            Chunk::Owned(v) => v,
            Chunk::Shared(b) => b,
        }
    }
}

/// A connection's pending output as a segmented queue of encoded frames.
/// Keeping frames as segments (instead of copying each into one flat
/// buffer) lets the flush path hand N frames to one `writev(2)` and lets
/// alert fan-out enqueue shared bytes without copying them per subscriber.
/// `head` tracks the partially-written prefix of the front segment.
#[derive(Default)]
struct WriteQueue {
    segs: VecDeque<Chunk>,
    head: usize,
    len: usize,
}

impl WriteQueue {
    /// Total unwritten bytes across all segments.
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, chunk: Chunk) {
        let n = chunk.as_slice().len();
        if n == 0 {
            return;
        }
        self.len += n;
        self.segs.push_back(chunk);
    }

    /// Fills `bufs` with up to [`WRITEV_BATCH_MAX`] readable slices (the
    /// front segment minus its already-written prefix) and returns how
    /// many were filled.
    fn gather<'q>(&'q self, bufs: &mut [IoSlice<'q>; WRITEV_BATCH_MAX]) -> usize {
        let mut n = 0;
        for seg in self.segs.iter().take(WRITEV_BATCH_MAX) {
            let s = seg.as_slice();
            bufs[n] = IoSlice::new(if n == 0 { &s[self.head..] } else { s });
            n += 1;
        }
        n
    }

    /// Marks `n` bytes written (`n` ≤ `len`), dropping flushed segments.
    fn consume(&mut self, mut n: usize) {
        self.len -= n;
        while n > 0 {
            let Some(front) = self.segs.front() else {
                unreachable!("consume within len");
            };
            let left = front.as_slice().len() - self.head;
            if n >= left {
                n -= left;
                self.segs.pop_front();
                self.head = 0;
            } else {
                self.head += n;
                n = 0;
            }
        }
    }
}

/// One queued unit of work, tagged with the connection it came from.
struct WorkJob {
    /// Connection token (the completion is dropped if the connection is
    /// gone by then).
    token: u64,
    /// Loop shard owning the connection — completions route back to it.
    shard: usize,
    id: u64,
    wire: Wire,
    req: Request,
    /// Well-formed devices of an `Ingest` batch — attributed to the
    /// session only if the ingest executes.
    batch_devices: Vec<DeviceId>,
    /// Snapshot of the session's devices at submit time, the scope of a
    /// `Flush { device: None }`.
    session_devices: Vec<DeviceId>,
    /// Span capture started on the loop shard (`None` when observability
    /// is off); completed by the worker, finished at reply write.
    span: Option<SpanStart>,
}

/// The loop-shard half of a request span: timestamps taken before the job
/// enters the queue.
struct SpanStart {
    /// Server-wide request ordinal (the span's id).
    seq: u64,
    /// Parse completion — the span's epoch; total latency is measured
    /// from here.
    t0: Instant,
    /// Queue submit time (`queue_wait` = worker pop − this).
    submitted: Instant,
    /// Acceptor hand-off → loop-shard adoption, µs (a connection's first
    /// request only — the cost is paid once).
    accept_us: u64,
    /// Readiness wakeup → request parsed, µs.
    loop_ready_us: u64,
}

/// A span the worker finished executing, riding its [`Done`] back to the
/// loop shard, which stamps `reply_write` and the total and publishes it.
struct PendingSpan {
    /// The span's epoch (copied from [`SpanStart::t0`]).
    t0: Instant,
    /// All stages filled except `reply_write`; `total_us`/`unix_ms` still
    /// zero.
    record: SpanRecord,
}

/// A finished job: pre-encoded response bytes headed for one connection.
struct Done {
    token: u64,
    bytes: Chunk,
    /// Devices this job's executed ingest made the session responsible
    /// for (empty for everything else).
    ingested: Vec<DeviceId>,
    /// `true` for pushed alert frames (id 0): no request is in flight for
    /// them, so applying one must not clear the connection's `inflight`
    /// flag, and they may be dropped under write-buffer backpressure.
    unsolicited: bool,
    /// The request's span, if one is being captured.
    span: Option<PendingSpan>,
}

/// Wall-clock milliseconds since the Unix epoch (span correlation only —
/// all stage math uses the monotonic clock).
fn unix_ms_now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0)
}

/// Per-endpoint-family [`EndpointMetrics`] from a merged histogram
/// snapshot: exact count/mean/max, log-bucket-interpolated percentiles.
/// Replaces the old mutex'd reservoir recorder — recording is now a few
/// relaxed atomics on a per-thread stripe, and the same histograms render
/// on the Prometheus scrape path.
fn endpoint_metrics(endpoint: &str, hist: &Histogram, uptime: Duration) -> EndpointMetrics {
    let snap = hist.snapshot();
    EndpointMetrics {
        endpoint: endpoint.to_string(),
        count: snap.count as usize,
        ops_per_sec: if uptime.is_zero() {
            0.0
        } else {
            snap.count as f64 / uptime.as_secs_f64()
        },
        p50_us: snap.quantile_us(0.50) as f64,
        p99_us: snap.quantile_us(0.99) as f64,
        max_us: snap.max_us as f64,
        mean_us: snap.mean_us() as f64,
    }
}

/// Resident set size in KiB from `/proc/self/statm` (Linux); `None`
/// elsewhere. Good enough for the connection-scaling gate's flat-memory
/// check; assumes 4 KiB pages like every tier-1 target.
fn read_rss_kb() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let rss_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(rss_pages * 4)
}

/// Per-loop-shard shared state: the channels through which the acceptor
/// and workers reach one shard's loop thread.
struct ShardState {
    /// Finished jobs waiting for this shard's loop (paired with `waker`).
    completions: parking_lot::Mutex<Vec<Done>>,
    waker: Waker,
    /// Accepted sockets dealt to this shard, not yet registered, with
    /// their hand-off instants (the `accept` span stage).
    incoming: parking_lot::Mutex<Vec<(TcpStream, Instant)>>,
    /// Times `waker` was signaled (completions + handoffs) — a proxy for
    /// how busy the shard's wake channel is.
    wakeups: AtomicU64,
    /// Connections currently owned by the shard (metrics gauge).
    connections: AtomicUsize,
    /// Bytes this shard's connections read off their sockets (monotonic).
    /// With `jobs`, the observed-load signal behind the acceptor's
    /// least-loaded placement.
    bytes_read: AtomicU64,
    /// Work jobs this shard queued for the worker pool (monotonic).
    jobs: AtomicU64,
}

impl ShardState {
    fn wake(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        self.waker.wake();
    }
}

/// State shared by the acceptor, loop shards and workers for one `serve`
/// run (lives on `serve`'s stack; scoped threads borrow it).
struct Shared<'env> {
    /// Translator shard array (power of two), FNV device-hash routed.
    /// Invariant: locks are taken one shard at a time, never nested.
    translators: Vec<parking_lot::Mutex<StreamingTranslator<'env>>>,
    /// `translators.len() - 1`, the hash mask.
    tmask: usize,
    store: Arc<SemanticsStore>,
    queue: BoundedQueue<WorkJob>,
    /// `Arc` so connection-scoped alert sinks (owned by the `'static`
    /// rule engine inside the store) can outlive-proof their handle to
    /// the shard's completion channel.
    shards: Vec<Arc<ShardState>>,
    /// Globally unique connection tokens across all loop shards.
    next_token: AtomicU64,
    /// Per-device count of live connections that ingested the device —
    /// global across loop shards (two shards can stream one device).
    /// Teardown flushes + `end_session`s only devices dropping to zero.
    sessions: parking_lot::Mutex<BTreeMap<DeviceId, usize>>,
    snapshot_root: Option<PathBuf>,
    /// What boot recovery found and cost (`None` without durability).
    recovery: Option<RecoveryReport>,
    shutdown: AtomicBool,
    active: AtomicUsize,
    started: Instant,
    // Observability: the metric registry behind every scrape, the live
    // per-endpoint latency histograms registered in it, per-loop-shard
    // trace rings, and the slow-log. Recording never takes the registry
    // lock — instruments are Arc'd atomics.
    registry: Registry,
    ingest_hist: Histogram,
    query_hist: Histogram,
    admin_hist: Histogram,
    /// One trace ring per loop shard (indexed by shard id).
    traces: Vec<TraceRing>,
    slowlog: SlowLog,
    /// Spans promoted into the slow-log (the `trips_slow_requests_total`
    /// counter and `MetricsReport::slow_requests`).
    slow_requests: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    bad_requests: AtomicU64,
    translator_contention: AtomicU64,
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    /// Alert pushes a sink accepted but the loop shard then discarded
    /// (subscriber gone, or its write buffer over [`ALERT_BUF_MAX`]).
    alerts_dropped_late: AtomicU64,
    /// Connections closed for exceeding [`ServerConfig::idle_timeout`].
    conns_reaped: AtomicU64,
    idle_timeout: Option<Duration>,
}

/// Validates a wire-supplied snapshot path against the configured root:
/// relative, strictly descending paths only.
fn resolve_snapshot_path(root: Option<&Path>, path: &str) -> Result<PathBuf, ServerError> {
    let Some(root) = root else {
        return Err(ServerError::BadRequest {
            message: "snapshot rejected: no snapshot root configured on this server".to_string(),
        });
    };
    let rel = Path::new(path);
    if rel.as_os_str().is_empty() {
        return Err(ServerError::BadRequest {
            message: "snapshot rejected: empty path".to_string(),
        });
    }
    if rel.is_absolute() {
        return Err(ServerError::BadRequest {
            message: format!(
                "snapshot rejected: absolute path {path:?} (must be relative to the snapshot root)"
            ),
        });
    }
    if !rel.components().all(|c| matches!(c, Component::Normal(_))) {
        return Err(ServerError::BadRequest {
            message: format!("snapshot rejected: path {path:?} escapes the snapshot root"),
        });
    }
    Ok(root.join(rel))
}

/// Groups an iterator of per-device items by translator shard, preserving
/// arrival order within each shard (order across shards is immaterial —
/// different shards hold different devices).
fn group_by_tshard<T>(items: impl IntoIterator<Item = (usize, T)>) -> BTreeMap<usize, Vec<T>> {
    let mut groups: BTreeMap<usize, Vec<T>> = BTreeMap::new();
    for (shard, item) in items {
        groups.entry(shard).or_default().push(item);
    }
    groups
}

impl<'env> Shared<'env> {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The translator shard a device routes to (same FNV hash as the
    /// store, masked by the power-of-two shard count).
    fn tshard(&self, device: &DeviceId) -> usize {
        (trips_store::device_hash(device) as usize) & self.tmask
    }

    /// Locks one translator shard, counting contended acquisitions.
    fn lock_translator(
        &self,
        shard: usize,
    ) -> parking_lot::MutexGuard<'_, StreamingTranslator<'env>> {
        match self.translators[shard].try_lock() {
            Some(guard) => guard,
            None => {
                self.translator_contention.fetch_add(1, Ordering::Relaxed);
                if trips_obs::enabled() {
                    let t0 = Instant::now();
                    let guard = self.translators[shard].lock();
                    stage::add_translator_lock_ns(t0.elapsed().as_nanos() as u64);
                    guard
                } else {
                    self.translators[shard].lock()
                }
            }
        }
    }

    fn record(&self, endpoint: &str, latency: Duration) {
        let hist = match endpoint {
            "ingest" => &self.ingest_hist,
            "query" => &self.query_hist,
            _ => &self.admin_hist,
        };
        hist.observe(latency);
    }

    /// Publishes a completed span: offered to the slow-log first (so the
    /// promotion counter is exact), then pushed into its loop shard's
    /// trace ring.
    fn finish_span(&self, shard: usize, record: SpanRecord) {
        if self.slowlog.offer(&record) {
            self.slow_requests.fetch_add(1, Ordering::Relaxed);
        }
        self.traces[shard].push(record);
    }

    /// Records a span for a request answered inline on its loop shard:
    /// the whole execution counts as `decode` (no queue, no worker).
    #[allow(clippy::too_many_arguments)]
    fn admin_span(
        &self,
        shard: usize,
        token: u64,
        seq: u64,
        kind: &'static str,
        t0: Instant,
        accept_us: u64,
        loop_ready_us: u64,
    ) {
        if !trips_obs::enabled() {
            return;
        }
        let total_us = t0.elapsed().as_micros() as u64;
        let mut stages_us = vec![0u64; STAGE_COUNT];
        stages_us[ST_ACCEPT] = accept_us;
        stages_us[ST_LOOP_READY] = loop_ready_us;
        stages_us[ST_DECODE] = total_us;
        self.finish_span(
            shard,
            SpanRecord {
                id: seq,
                conn: token,
                shard,
                endpoint: "admin".to_string(),
                kind: kind.to_string(),
                unix_ms: unix_ms_now(),
                total_us,
                stages_us,
            },
        );
    }

    /// Completes the worker-side stages of a span: queue wait from the
    /// carried timestamps, lock/store/rule attribution from the
    /// thread-local [`stage`] accumulators (read-and-reset — everything
    /// since the previous take belongs to this job), the unattributed
    /// remainder of the execution as `decode`.
    #[allow(clippy::too_many_arguments)]
    fn worker_span(
        &self,
        start: SpanStart,
        popped: Instant,
        exec: Duration,
        endpoint: &'static str,
        kind: &'static str,
        token: u64,
        shard: usize,
    ) -> PendingSpan {
        let nanos = stage::take();
        let lock_us = nanos.translator_lock_ns / 1_000;
        let store_us = (nanos.store_ns + nanos.store_lock_wait_ns) / 1_000;
        let rules_us = nanos.rules_ns / 1_000;
        let exec_us = exec.as_micros() as u64;
        let mut stages_us = vec![0u64; STAGE_COUNT];
        stages_us[ST_ACCEPT] = start.accept_us;
        stages_us[ST_LOOP_READY] = start.loop_ready_us;
        stages_us[ST_QUEUE_WAIT] = popped
            .saturating_duration_since(start.submitted)
            .as_micros() as u64;
        stages_us[ST_TRANSLATOR_LOCK] = lock_us;
        stages_us[ST_STORE_PUBLISH] = store_us;
        stages_us[ST_RULE_EVAL] = rules_us;
        stages_us[ST_DECODE] = exec_us.saturating_sub(lock_us + store_us + rules_us);
        PendingSpan {
            t0: start.t0,
            record: SpanRecord {
                id: start.seq,
                conn: token,
                shard,
                endpoint: endpoint.to_string(),
                kind: kind.to_string(),
                unix_ms: 0,
                total_us: 0,
                stages_us,
            },
        }
    }

    /// Every trace-ring span across all loop shards, oldest first by
    /// request ordinal (the newest `limit` when set).
    fn trace_spans(&self, limit: Option<usize>) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self.traces.iter().flat_map(TraceRing::snapshot).collect();
        spans.sort_by_key(|s| s.id);
        if let Some(limit) = limit {
            if spans.len() > limit {
                spans.drain(..spans.len() - limit);
            }
        }
        spans
    }

    fn slow_log_response(&self, limit: Option<usize>) -> Response {
        let spans = match limit {
            Some(0) => Vec::new(),
            Some(n) => self.slowlog.snapshot(n),
            None => self.slowlog.snapshot(0),
        };
        Response::SlowLog {
            threshold_us: self.slowlog.threshold_us(),
            evicted: self.slowlog.evicted(),
            spans,
        }
    }

    /// Mirrors every scalar counter into the registry and renders the
    /// whole of it in the Prometheus text format. Mirroring at scrape
    /// time (`Counter::set` from the live atomics) keeps the hot paths
    /// free of double bookkeeping; the latency histograms are live
    /// registry instruments and need no mirroring.
    fn prometheus_text(&self) -> String {
        let r = &self.registry;
        let set = |name: &str, help: &str, v: u64| r.counter(name, help, &[]).set(v);
        let gauge = |name: &str, help: &str, v: i64| r.gauge(name, help, &[]).set(v);
        set(
            "trips_connections_accepted_total",
            "Connections accepted",
            self.conns_accepted.load(Ordering::Relaxed),
        );
        set(
            "trips_connections_rejected_total",
            "Connections rejected over the cap",
            self.conns_rejected.load(Ordering::Relaxed),
        );
        gauge(
            "trips_connections_active",
            "Currently open connections",
            self.active.load(Ordering::Relaxed) as i64,
        );
        set(
            "trips_requests_total",
            "Requests received (all endpoints)",
            self.requests.load(Ordering::Relaxed),
        );
        set(
            "trips_requests_shed_total",
            "Requests shed with Overloaded",
            self.shed.load(Ordering::Relaxed),
        );
        set(
            "trips_bad_requests_total",
            "Malformed requests answered BadRequest",
            self.bad_requests.load(Ordering::Relaxed),
        );
        gauge(
            "trips_queue_capacity",
            "Admission queue capacity",
            self.queue.capacity() as i64,
        );
        gauge(
            "trips_queue_peak_depth",
            "Admission queue high-water mark",
            self.queue.peak_depth() as i64,
        );
        gauge(
            "trips_translator_shards",
            "Translator lock shards",
            self.translators.len() as i64,
        );
        set(
            "trips_translator_lock_contention_total",
            "Contended translator-shard lock acquisitions",
            self.translator_contention.load(Ordering::Relaxed),
        );
        set(
            "trips_store_shard_lock_contention_total",
            "Contended store shard write-lock acquisitions",
            self.store.shard_lock_contention(),
        );
        gauge(
            "trips_store_devices",
            "Devices resident in the store",
            self.store.device_count() as i64,
        );
        gauge(
            "trips_store_semantics",
            "Location semantics resident in the store",
            self.store.semantics_count() as i64,
        );
        set(
            "trips_rule_evals_total",
            "Standing-rule evaluations",
            self.store.rules().evals_total(),
        );
        set(
            "trips_rule_fires_total",
            "Standing-rule fires",
            self.store.rules().fires_total(),
        );
        set(
            "trips_alerts_delivered_total",
            "Alerts delivered to subscribers",
            self.store.rules().alerts_delivered(),
        );
        set(
            "trips_alerts_dropped_total",
            "Alerts dropped (sink refusal or write backpressure)",
            self.store.rules().alerts_dropped() + self.alerts_dropped_late.load(Ordering::Relaxed),
        );
        set(
            "trips_slow_requests_total",
            "Spans promoted into the slow-log",
            self.slow_requests.load(Ordering::Relaxed),
        );
        set(
            "trips_connections_reaped_total",
            "Connections closed for exceeding the idle timeout",
            self.conns_reaped.load(Ordering::Relaxed),
        );
        set(
            "trips_slowlog_evicted_total",
            "Promoted spans evicted by the slow-log cap",
            self.slowlog.evicted(),
        );
        gauge(
            "trips_uptime_seconds",
            "Seconds since serve started",
            self.started.elapsed().as_secs() as i64,
        );
        if let Some(rss) = read_rss_kb() {
            gauge("trips_rss_kb", "Resident set size (KiB)", rss as i64);
        }
        if let Some(r) = &self.recovery {
            gauge(
                "trips_recovery_us",
                "Wall time of boot recovery (microseconds)",
                r.elapsed_us as i64,
            );
            gauge(
                "trips_recovery_replayed_records",
                "WAL records replayed by boot recovery",
                r.replayed_records as i64,
            );
        }
        if let Some(wal) = self.store.wal_stats() {
            gauge(
                "trips_wal_segments",
                "Live WAL segment files",
                wal.segments as i64,
            );
            gauge(
                "trips_wal_bytes",
                "Bytes across live WAL segments",
                wal.bytes as i64,
            );
            gauge(
                "trips_wal_records_since_checkpoint",
                "WAL records appended since the last checkpoint",
                wal.records_since_checkpoint as i64,
            );
            set(
                "trips_wal_fsyncs_total",
                "WAL fdatasyncs issued",
                wal.fsyncs,
            );
            set(
                "trips_wal_rotations_total",
                "WAL segment rotations",
                wal.rotations,
            );
        }
        for (shard, state) in self.shards.iter().enumerate() {
            let shard_label = shard.to_string();
            let labels: [(&str, &str); 1] = [("shard", shard_label.as_str())];
            r.gauge(
                "trips_loop_shard_connections",
                "Connections owned by each event-loop shard",
                &labels,
            )
            .set(state.connections.load(Ordering::Relaxed) as i64);
            r.counter(
                "trips_loop_shard_wakeups_total",
                "Waker signals per event-loop shard",
                &labels,
            )
            .set(state.wakeups.load(Ordering::Relaxed));
            r.gauge(
                "trips_loop_shard_pending_completions",
                "Finished jobs awaiting adoption per event-loop shard",
                &labels,
            )
            .set(state.completions.lock().len() as i64);
            r.counter(
                "trips_loop_shard_bytes_read_total",
                "Socket bytes read per event-loop shard",
                &labels,
            )
            .set(state.bytes_read.load(Ordering::Relaxed));
            r.counter(
                "trips_loop_shard_jobs_total",
                "Work jobs queued per event-loop shard",
                &labels,
            )
            .set(state.jobs.load(Ordering::Relaxed));
        }
        r.render_prometheus()
    }

    /// Executes an `Ingest`: the batch is partitioned by device hash and
    /// each partition runs under its own shard's lock (taken one at a
    /// time — a single-shard batch takes one), summing the counters.
    /// Malformed records are counted as rejected under the same lock.
    fn ingest_multi(&self, records: Vec<RawRecord>) -> Response {
        let groups = group_by_tshard(records.into_iter().map(|r| (self.tshard(&r.device), r)));
        let (mut accepted, mut rejected, mut emitted) = (0, 0, 0);
        for (shard, group) in groups {
            let mut translator = self.lock_translator(shard);
            for record in group {
                if !record.is_well_formed() {
                    rejected += 1;
                    continue;
                }
                emitted += translator.push(record).len();
                accepted += 1;
            }
        }
        Response::Ingested {
            accepted,
            rejected,
            emitted,
        }
    }

    /// Flushes a set of devices, grouped so each translator shard is
    /// locked once; returns `(devices flushed, semantics emitted)`.
    fn flush_devices<'a>(&self, devices: impl IntoIterator<Item = &'a DeviceId>) -> (usize, usize) {
        let groups = group_by_tshard(devices.into_iter().map(|d| (self.tshard(d), d)));
        let (mut flushed, mut emitted) = (0, 0);
        for (shard, group) in groups {
            let mut translator = self.lock_translator(shard);
            for device in group {
                let before = translator.open_devices();
                emitted += translator.flush_device(device).len();
                flushed += before - translator.open_devices();
            }
        }
        (flushed, emitted)
    }

    /// Flushes every translator shard (snapshot/drain path).
    fn finish_all_translators(&self) {
        for translator in &self.translators {
            let _ = translator.lock().finish();
        }
    }

    /// Executes one unit of admitted work (runs on a worker thread).
    /// `session_devices` scopes a flush-all to the requesting session.
    fn execute(&self, req: Request, session_devices: &[DeviceId]) -> Response {
        match req {
            Request::Ingest { records } => self.ingest_multi(records),
            Request::Flush { device } => match device {
                Some(device) => {
                    let device = DeviceId::new(&device);
                    let (devices, emitted) = self.flush_devices([&device]);
                    Response::Flushed { devices, emitted }
                }
                // Flush-all is scoped to the devices *this* session
                // ingested — flushing the whole translator would split
                // other connections' in-flight flows mid-stream.
                None => {
                    let (devices, emitted) = self.flush_devices(session_devices.iter());
                    Response::Flushed { devices, emitted }
                }
            },
            Request::Query { request } => Response::Query {
                result: self.store.query(&request),
            },
            Request::Snapshot { path } => {
                if self.store.is_durable() {
                    // Buffered records must be part of the checkpoint, or
                    // a restart would silently lose in-flight sessions —
                    // a snapshot is a whole-server operation, so this
                    // intentionally flushes *every* session's buffers
                    // across all translator shards (journaling the
                    // published semantics before the WAL rotates).
                    self.finish_all_translators();
                    // Checkpoint + compact: rotate the WAL, publish the
                    // checkpoint snapshot atomically, retire older
                    // segments. The request's `path` does not apply — the
                    // checkpoint lives in the durability directory.
                    match self.store.checkpoint() {
                        Ok(report) => Response::SnapshotSaved {
                            path: report.snapshot_path.display().to_string(),
                            devices: report.devices,
                            semantics: report.semantics,
                        },
                        Err(e) => Response::Error(ServerError::Internal {
                            message: e.to_string(),
                        }),
                    }
                } else {
                    // The wire must not name arbitrary server paths:
                    // resolve against the configured root *before*
                    // touching anything.
                    let full = match resolve_snapshot_path(self.snapshot_root.as_deref(), &path) {
                        Ok(full) => full,
                        Err(err) => return Response::Error(err),
                    };
                    self.finish_all_translators();
                    if let Some(parent) = full.parent() {
                        if let Err(e) = std::fs::create_dir_all(parent) {
                            return Response::Error(ServerError::Internal {
                                message: e.to_string(),
                            });
                        }
                    }
                    match self.store.persist(&full) {
                        Ok(()) => Response::SnapshotSaved {
                            path: full.display().to_string(),
                            devices: self.store.device_count(),
                            semantics: self.store.semantics_count(),
                        },
                        Err(e) => Response::Error(ServerError::Internal {
                            message: e.to_string(),
                        }),
                    }
                }
            }
            // Loop shards answer these inline; keep the mapping total.
            Request::Ping => Response::Pong,
            Request::Health => self.health(),
            Request::Metrics => self.metrics_report(),
            Request::MetricsProm => Response::MetricsProm {
                text: self.prometheus_text(),
            },
            Request::TraceDump { limit } => Response::Traces {
                spans: self.trace_spans(limit),
            },
            Request::SlowLog { limit } => self.slow_log_response(limit),
            Request::Shutdown => Response::ShuttingDown,
            Request::ListRules => Response::Rules {
                rules: self.store.rules().traces(),
            },
            // Subscription state (the alert sink, the session's rule list)
            // lives with the connection on its loop shard — a worker has
            // neither, so these never reach the queue.
            Request::Subscribe { .. } | Request::Unsubscribe { .. } => {
                Response::Error(ServerError::BadRequest {
                    message: "subscription requests are connection-scoped".to_string(),
                })
            }
        }
    }

    fn health(&self) -> Response {
        let (mut open_devices, mut buffered_records) = (0, 0);
        for translator in &self.translators {
            let translator = translator.lock();
            open_devices += translator.open_devices();
            buffered_records += translator.buffered_records();
        }
        Response::Health(HealthReport {
            status: if self.draining() { "draining" } else { "ok" }.to_string(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            store: self.store.store_stats(),
            open_devices,
            buffered_records,
            active_connections: self.active.load(Ordering::Relaxed),
            wal: self.store.wal_stats(),
        })
    }

    fn metrics_report(&self) -> Response {
        let uptime = self.started.elapsed();
        let endpoints = [
            ("ingest", &self.ingest_hist),
            ("query", &self.query_hist),
            ("admin", &self.admin_hist),
        ]
        .into_iter()
        .map(|(name, hist)| endpoint_metrics(name, hist, uptime))
        .collect();
        let loop_shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, state)| LoopShardMetrics {
                shard,
                connections: state.connections.load(Ordering::Relaxed),
                pending_completions: state.completions.lock().len(),
                wakeups: state.wakeups.load(Ordering::Relaxed),
                bytes_read: state.bytes_read.load(Ordering::Relaxed),
                jobs: state.jobs.load(Ordering::Relaxed),
            })
            .collect();
        Response::Metrics(MetricsReport {
            uptime_ms: uptime.as_millis() as u64,
            connections_accepted: self.conns_accepted.load(Ordering::Relaxed),
            connections_rejected: self.conns_rejected.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            queue_capacity: self.queue.capacity(),
            peak_queue_depth: self.queue.peak_depth(),
            rss_kb: read_rss_kb(),
            // The one readiness backend; the field stays on the wire.
            event_backend: "poll".to_string(),
            loop_shards,
            translator_shards: self.translators.len(),
            translator_lock_contention: self.translator_contention.load(Ordering::Relaxed),
            endpoints,
            wal: self.store.wal_stats(),
            recovery_us: self.recovery.as_ref().map_or(0, |r| r.elapsed_us),
            recovery_replayed_records: self.recovery.as_ref().map_or(0, |r| r.replayed_records),
            rules: self.store.rules().traces(),
            alerts_delivered: self.store.rules().alerts_delivered(),
            alerts_dropped: self.store.rules().alerts_dropped()
                + self.alerts_dropped_late.load(Ordering::Relaxed),
            slow_requests: self.slow_requests.load(Ordering::Relaxed),
            store_lock_contention: self.store.shard_lock_contention(),
            rule_evals: self.store.rules().evals_total(),
            rule_fires: self.store.rules().fires_total(),
            connections_reaped: self.conns_reaped.load(Ordering::Relaxed),
        })
    }

    /// Worker thread body: pop → execute → encode → hand the completion
    /// back to the owning loop shard and wake it.
    fn run_worker(&self) {
        while let Some(job) = self.queue.pop() {
            let t0 = Instant::now();
            let endpoint = job.req.endpoint();
            let kind = job.req.kind();
            let WorkJob {
                token,
                shard,
                id,
                wire,
                req,
                batch_devices,
                session_devices,
                span,
            } = job;
            let resp = self.execute(req, &session_devices);
            let exec = t0.elapsed();
            self.record(endpoint, exec);
            let pending = span.map(|s| self.worker_span(s, t0, exec, endpoint, kind, token, shard));
            let done = self.finish(token, id, wire, resp, batch_devices, pending);
            self.shards[shard].completions.lock().push(done);
            self.shards[shard].wake();
        }
    }

    /// Encodes a finished job's response (on the worker, parallelizing
    /// serialization) into a completion for the owning loop shard.
    fn finish(
        &self,
        token: u64,
        id: u64,
        wire: Wire,
        resp: Response,
        batch_devices: Vec<DeviceId>,
        span: Option<PendingSpan>,
    ) -> Done {
        // Only an *executed* ingest makes the session responsible for its
        // devices at teardown — a shed or refused batch buffered nothing.
        let ingested = if matches!(resp, Response::Ingested { .. }) {
            batch_devices
        } else {
            Vec::new()
        };
        let env = ResponseEnvelope {
            v: match wire {
                Wire::V1 => crate::protocol::PROTOCOL_VERSION,
                Wire::V2 => crate::protocol::PROTOCOL_V2,
            },
            id,
            resp,
        };
        Done {
            token,
            bytes: Chunk::Owned(encode_wire(wire, &env)),
            ingested,
            unsolicited: false,
            span,
        }
    }
}

/// Delivers one rule's alerts to the subscribing connection: encode in the
/// framing the `Subscribe` arrived in, hand the bytes to the owning loop
/// shard as an unsolicited completion, wake it. Runs on whatever thread
/// published the triggering ingest — never touches the `Conn` directly
/// (the loop shard owns it), which is also why backpressure drops happen
/// in `apply_completions`, not here.
struct ConnAlertSink {
    shard: Arc<ShardState>,
    token: u64,
    wire: Wire,
}

impl trips_store::AlertSink for ConnAlertSink {
    fn deliver(&self, alert: &trips_store::Alert) -> bool {
        // Encode straight from the borrowed alert — no `Alert` clone, no
        // owned envelope. The bytes land in the write queue as a shared
        // segment, so however many hops they take, they are serialized
        // exactly once per framing.
        let bytes: Arc<[u8]> = match self.wire {
            Wire::V1 => {
                let mut line = crate::protocol::encode_alert_line(alert).into_bytes();
                line.push(b'\n');
                line.into()
            }
            Wire::V2 => codec::encode_alert_frame(alert).into(),
        };
        self.shard.completions.lock().push(Done {
            token: self.token,
            bytes: Chunk::Shared(bytes),
            ingested: Vec::new(),
            unsolicited: true,
            span: None,
        });
        self.shard.wake();
        true
    }
}

/// One registered connection's loop-shard state.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_q: WriteQueue,
    /// Device ids this connection has sent, interned so the zero-copy
    /// ingest decode resolves repeat devices to cheap `Arc` clones
    /// instead of allocating a fresh `Arc<str>` per record. Capped at
    /// [`INTERN_MAX`]; overflowing ids still work, just un-interned.
    interned: BTreeMap<String, DeviceId>,
    /// Last time the connection read bytes or settled a completion — the
    /// idle-reap clock.
    last_activity: Instant,
    /// Cached readiness: assumed ready at registration, cleared only on
    /// `WouldBlock`/EOF, set again by the poller's events. Only a cleared
    /// direction is armed in the poll set (see `LoopShard::run`).
    can_read: bool,
    can_write: bool,
    /// A queued work request is awaiting its completion; no further
    /// message is parsed until it lands (per-connection FIFO + natural
    /// backpressure).
    inflight: bool,
    /// Devices this session ingested (refcounted in `Shared::sessions`).
    devices: BTreeSet<DeviceId>,
    /// Standing rules this session registered via `Subscribe`;
    /// unregistered at teardown, so subscriptions die with the session.
    rule_ids: Vec<u64>,
    /// Peer sent EOF; finish buffered work, then tear down.
    read_closed: bool,
    /// Tear down once in-flight work and pending writes finish (fatal
    /// protocol error, shutdown, or drain).
    closing: bool,
    /// Tear down immediately (transport error); skip pending writes.
    dead: bool,
    /// Acceptor hand-off → shard adoption, µs; consumed by (attributed
    /// to) the connection's first span.
    accept_us: u64,
    /// When the connection last became actionable (readiness wakeup or
    /// completion adoption) — the epoch of the next request's
    /// `loop_ready` stage. `None` while observability is off.
    ready_at: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, accept_us: u64) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_q: WriteQueue::default(),
            interned: BTreeMap::new(),
            last_activity: Instant::now(),
            can_read: true,
            can_write: true,
            inflight: false,
            devices: BTreeSet::new(),
            rule_ids: Vec::new(),
            read_closed: false,
            closing: false,
            dead: false,
            accept_us,
            ready_at: None,
        }
    }

    /// Whether the connection has nothing left to do and can be removed.
    fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        if self.inflight || !self.write_q.is_empty() {
            return false;
        }
        // `pump` ran to exhaustion before this check, so a non-empty
        // read_buf here is an incomplete fragment — only EOF or an
        // explicit close makes it garbage.
        self.closing || self.read_closed
    }

    /// Whether the connection wants more bytes from its socket.
    fn wants_read(&self) -> bool {
        !self.read_closed && !self.closing && !self.dead && self.read_buf.len() < MAX_READ_BUF
    }

    /// Whether cached readiness lets this connection make progress right
    /// now (the loop shard re-waits with timeout 0 while any does — a
    /// read-budget or buffer-cap pause must not sleep on the poller,
    /// because a direction with cached readiness is not armed, so no
    /// event would come for it).
    fn actionable(&self) -> bool {
        if self.dead {
            return false;
        }
        (self.can_read && self.wants_read()) || (self.can_write && !self.write_q.is_empty())
    }

    fn queue_response(&mut self, wire: Wire, env: &ResponseEnvelope) {
        self.write_q.push(Chunk::Owned(encode_wire(wire, env)));
    }

    /// Writes as much queued output as the socket accepts right now: every
    /// queued segment (pipelined replies + pushed alerts) goes out through
    /// one vectored write (`writev(2)` on unix) per [`WRITEV_BATCH_MAX`]
    /// segments, without copying. A short write may end mid-segment;
    /// [`WriteQueue::consume`] keeps the remainder at the queue's head.
    fn flush_write(&mut self) {
        while !self.write_q.is_empty() {
            let mut bufs = [IoSlice::new(&[]); WRITEV_BATCH_MAX];
            let n = self.write_q.gather(&mut bufs);
            match self.stream.write_vectored(&bufs[..n]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.write_q.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.can_write = false;
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Reads up to `budget` bytes into the read buffer. `can_read` clears
    /// **only** on `WouldBlock`/EOF — a budget or buffer-cap stop leaves
    /// it set, so the loop shard comes right back instead of sleeping on
    /// a direction it has not armed.
    fn fill_read(&mut self, budget: usize) {
        let mut budget = budget.max(1);
        let mut chunk = [0u8; 16 * 1024];
        while budget > 0 && self.read_buf.len() < MAX_READ_BUF {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    self.can_read = false;
                    return;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    budget = budget.saturating_sub(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.can_read = false;
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// One parse step over a connection's read buffer.
enum Parsed {
    /// A complete message, ready to dispatch. The zero-copy ingest path
    /// also hands over the batch's well-formed devices (cheap interned
    /// clones, collected in the pass that materializes the records), so
    /// `dispatch` does not walk the batch again.
    Msg(Wire, RequestEnvelope, Option<Vec<DeviceId>>),
    /// An error was answered in-line (bad frame body / bad JSON); parsing
    /// may continue.
    Handled,
    /// Incomplete — wait for more bytes.
    NeedMore,
}

/// Resolves a raw device id against the connection's intern table: repeat
/// devices (the firehose common case) cost one map probe and an `Arc`
/// refcount bump instead of a fresh allocation per record.
fn intern_device(table: &mut BTreeMap<String, DeviceId>, raw: &str) -> DeviceId {
    if let Some(device) = table.get(raw) {
        return device.clone();
    }
    let device = DeviceId::new(raw);
    if table.len() < INTERN_MAX {
        table.insert(raw.to_string(), device.clone());
    }
    device
}

/// One event-loop shard: owns a partition of the connection table and all
/// of its socket I/O; everything here runs on the shard's own thread.
struct LoopShard<'shared, 'env> {
    shared: &'shared Shared<'env>,
    id: usize,
    conns: BTreeMap<u64, Conn>,
    poller: Poller,
}

impl<'shared, 'env> LoopShard<'shared, 'env> {
    /// Extracts the next complete message from the front of `conn.read_buf`.
    fn parse_next(shared: &Shared<'_>, conn: &mut Conn) -> Parsed {
        // Skip inter-message whitespace (v1 blank lines / trailing \r\n).
        let skip = conn
            .read_buf
            .iter()
            .take_while(|&&b| b == b'\n' || b == b'\r' || b == b' ' || b == b'\t')
            .count();
        if skip > 0 {
            conn.read_buf.drain(..skip);
        }
        let Some(&first) = conn.read_buf.first() else {
            return Parsed::NeedMore;
        };
        if first == FRAME_MAGIC {
            match codec::decode_request_frame_ref(&conn.read_buf) {
                Ok(Some((RequestFrameRef::Ingest(view), consumed))) => {
                    // The zero-copy hot path: records materialize straight
                    // out of the read buffer — device ids resolve against
                    // the intern table (no per-record String), and the
                    // well-formed device list rides along instead of
                    // re-walking the batch in dispatch.
                    let mut records = Vec::with_capacity(view.records.len());
                    let mut batch_devices = Vec::with_capacity(view.records.len());
                    for rec in &view.records {
                        let device = intern_device(&mut conn.interned, rec.device);
                        let record =
                            RawRecord::new(device, rec.x, rec.y, rec.floor, Timestamp(rec.ts));
                        if record.is_well_formed() {
                            batch_devices.push(record.device.clone());
                        }
                        records.push(record);
                    }
                    let env = RequestEnvelope {
                        v: crate::protocol::PROTOCOL_V2,
                        id: view.id,
                        req: Request::Ingest { records },
                    };
                    conn.read_buf.drain(..consumed);
                    Parsed::Msg(Wire::V2, env, Some(batch_devices))
                }
                Ok(Some((RequestFrameRef::Owned(env), consumed))) => {
                    conn.read_buf.drain(..consumed);
                    Parsed::Msg(Wire::V2, env, None)
                }
                Ok(None) => Parsed::NeedMore,
                Err(FrameError::Malformed {
                    id,
                    consumed,
                    message,
                }) => {
                    // Well-delimited frame, bad body: consume it, answer
                    // BadRequest, keep the connection.
                    shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                    conn.read_buf.drain(..consumed);
                    conn.queue_response(
                        Wire::V2,
                        &ResponseEnvelope {
                            v: crate::protocol::PROTOCOL_V2,
                            id,
                            resp: Response::Error(ServerError::BadRequest { message }),
                        },
                    );
                    Parsed::Handled
                }
                Err(fatal) => {
                    // Framing is lost (bad CRC / oversized / unknown
                    // version): answer once, then close.
                    shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                    conn.queue_response(
                        Wire::V2,
                        &ResponseEnvelope {
                            v: crate::protocol::PROTOCOL_V2,
                            id: 0,
                            resp: Response::Error(ServerError::BadRequest {
                                message: fatal.to_string(),
                            }),
                        },
                    );
                    conn.closing = true;
                    Parsed::Handled
                }
            }
        } else {
            let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else {
                if conn.read_buf.len() > MAX_LINE_BYTES {
                    shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                    conn.queue_response(
                        Wire::V1,
                        &ResponseEnvelope::new(
                            0,
                            Response::Error(ServerError::BadRequest {
                                message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                            }),
                        ),
                    );
                    conn.closing = true;
                    return Parsed::Handled;
                }
                return Parsed::NeedMore;
            };
            let line_bytes: Vec<u8> = conn.read_buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line_bytes);
            let line = line.trim();
            if line.is_empty() {
                return Parsed::Handled;
            }
            match crate::protocol::decode_request(line) {
                Ok(env) => Parsed::Msg(Wire::V1, env, None),
                Err(error_env) => {
                    shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                    conn.queue_response(Wire::V1, &error_env);
                    Parsed::Handled
                }
            }
        }
    }

    /// Parses and dispatches messages until the connection blocks (needs
    /// more bytes, has a request in flight, or is going away).
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.dead || conn.closing || conn.inflight {
                return;
            }
            match Self::parse_next(self.shared, conn) {
                Parsed::NeedMore => return,
                Parsed::Handled => continue,
                Parsed::Msg(wire, env, batch_devices) => {
                    self.dispatch(token, wire, env, batch_devices)
                }
            }
        }
    }

    fn dispatch(
        &mut self,
        token: u64,
        wire: Wire,
        env: RequestEnvelope,
        batch_devices: Option<Vec<DeviceId>>,
    ) {
        let shared = self.shared;
        let seq = shared.requests.fetch_add(1, Ordering::Relaxed);
        let id = env.id;
        let respond_v = match wire {
            Wire::V1 => crate::protocol::PROTOCOL_VERSION,
            Wire::V2 => crate::protocol::PROTOCOL_V2,
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Span epochs for this request: the amortized accept cost (first
        // request only — `take` zeroes it) and the readiness-to-parse gap.
        let (accept_us, loop_ready_us) = if trips_obs::enabled() {
            (
                std::mem::take(&mut conn.accept_us),
                conn.ready_at
                    .map(|t| t.elapsed().as_micros() as u64)
                    .unwrap_or(0),
            )
        } else {
            (0, 0)
        };
        let inline = |conn: &mut Conn, resp: Response| {
            conn.queue_response(
                wire,
                &ResponseEnvelope {
                    v: respond_v,
                    id,
                    resp,
                },
            );
        };
        match env.req {
            // Admin fast path: answered inline so liveness/health/metrics
            // stay observable even when the admission queue is saturated.
            Request::Ping => {
                let t0 = Instant::now();
                inline(conn, Response::Pong);
                shared.record("admin", t0.elapsed());
                shared.admin_span(self.id, token, seq, "Ping", t0, accept_us, loop_ready_us);
            }
            Request::Health => {
                let t0 = Instant::now();
                let resp = shared.health();
                inline(conn, resp);
                shared.record("admin", t0.elapsed());
                shared.admin_span(self.id, token, seq, "Health", t0, accept_us, loop_ready_us);
            }
            Request::Metrics => {
                let t0 = Instant::now();
                let resp = shared.metrics_report();
                inline(conn, resp);
                shared.record("admin", t0.elapsed());
                shared.admin_span(self.id, token, seq, "Metrics", t0, accept_us, loop_ready_us);
            }
            Request::MetricsProm => {
                let t0 = Instant::now();
                let resp = Response::MetricsProm {
                    text: shared.prometheus_text(),
                };
                inline(conn, resp);
                shared.record("admin", t0.elapsed());
                shared.admin_span(
                    self.id,
                    token,
                    seq,
                    "MetricsProm",
                    t0,
                    accept_us,
                    loop_ready_us,
                );
            }
            Request::TraceDump { limit } => {
                let t0 = Instant::now();
                let resp = Response::Traces {
                    spans: shared.trace_spans(limit),
                };
                inline(conn, resp);
                shared.record("admin", t0.elapsed());
                shared.admin_span(
                    self.id,
                    token,
                    seq,
                    "TraceDump",
                    t0,
                    accept_us,
                    loop_ready_us,
                );
            }
            Request::SlowLog { limit } => {
                let t0 = Instant::now();
                let resp = shared.slow_log_response(limit);
                inline(conn, resp);
                shared.record("admin", t0.elapsed());
                shared.admin_span(self.id, token, seq, "SlowLog", t0, accept_us, loop_ready_us);
            }
            // Subscriptions are admin-path too: registration is compile +
            // one engine write, and it must see the *connection* (sink,
            // owned-rule list), which workers never do.
            Request::Subscribe { tql } => {
                let t0 = Instant::now();
                let resp = match trips_query_lang::compile(&tql) {
                    Err(e) => Response::Error(ServerError::BadRequest {
                        message: e.render(&tql),
                    }),
                    Ok(trips_query_lang::Compiled::Query(_)) => {
                        Response::Error(ServerError::BadRequest {
                            message: "FIND is a one-shot query (use Query); Subscribe takes a \
                                      standing rule (`WHEN … ALERT`)"
                                .to_string(),
                        })
                    }
                    Ok(trips_query_lang::Compiled::Rule(spec)) => {
                        let sink = Arc::new(ConnAlertSink {
                            shard: Arc::clone(&shared.shards[self.id]),
                            token,
                            wire,
                        });
                        match shared.store.rules().register(spec, Some(sink)) {
                            Ok(rule_id) => {
                                conn.rule_ids.push(rule_id);
                                let name = shared
                                    .store
                                    .rules()
                                    .traces()
                                    .into_iter()
                                    .find(|t| t.id == rule_id)
                                    .map(|t| t.name)
                                    .unwrap_or_default();
                                Response::Subscribed { rule_id, name }
                            }
                            Err(e) => Response::Error(ServerError::BadRequest {
                                message: e.to_string(),
                            }),
                        }
                    }
                };
                inline(conn, resp);
                shared.record("admin", t0.elapsed());
                shared.admin_span(
                    self.id,
                    token,
                    seq,
                    "Subscribe",
                    t0,
                    accept_us,
                    loop_ready_us,
                );
            }
            Request::Unsubscribe { rule_id } => {
                let t0 = Instant::now();
                // Sessions may only tear down their own rules — another
                // connection's id is answered `existed: false`, exactly
                // like a stale one.
                let existed = match conn.rule_ids.iter().position(|&r| r == rule_id) {
                    Some(pos) => {
                        conn.rule_ids.remove(pos);
                        shared.store.rules().unregister(rule_id)
                    }
                    None => false,
                };
                inline(conn, Response::Unsubscribed { existed });
                shared.record("admin", t0.elapsed());
                shared.admin_span(
                    self.id,
                    token,
                    seq,
                    "Unsubscribe",
                    t0,
                    accept_us,
                    loop_ready_us,
                );
            }
            Request::ListRules => {
                let t0 = Instant::now();
                let rules = shared.store.rules().traces();
                inline(conn, Response::Rules { rules });
                shared.record("admin", t0.elapsed());
                shared.admin_span(
                    self.id,
                    token,
                    seq,
                    "ListRules",
                    t0,
                    accept_us,
                    loop_ready_us,
                );
            }
            Request::Shutdown => {
                // Acknowledge, then drain: stop accepting, refuse new
                // work, let workers finish everything already admitted.
                inline(conn, Response::ShuttingDown);
                conn.closing = true;
                shared.shutdown.store(true, Ordering::Relaxed);
                shared.queue.close();
                // The other shards are likely asleep in their pollers;
                // wake them so the drain starts everywhere at once.
                for state in &shared.shards {
                    state.wake();
                }
            }
            req @ (Request::Ingest { .. }
            | Request::Flush { .. }
            | Request::Query { .. }
            | Request::Snapshot { .. }) => {
                if shared.draining() {
                    inline(conn, Response::Error(ServerError::ShuttingDown));
                    return;
                }
                let batch_devices = match (batch_devices, &req) {
                    // The zero-copy parse already collected them in its
                    // single materialization pass.
                    (Some(devices), _) => devices,
                    (None, Request::Ingest { records }) => records
                        .iter()
                        .filter(|r| r.is_well_formed())
                        .map(|r| r.device.clone())
                        .collect(),
                    (None, _) => Vec::new(),
                };
                let session_devices: Vec<DeviceId> =
                    if matches!(req, Request::Flush { device: None }) {
                        conn.devices.iter().cloned().collect()
                    } else {
                        Vec::new()
                    };
                let span = trips_obs::enabled().then(|| {
                    let now = Instant::now();
                    SpanStart {
                        seq,
                        t0: now,
                        submitted: now,
                        accept_us,
                        loop_ready_us,
                    }
                });
                match shared.queue.try_push(WorkJob {
                    token,
                    shard: self.id,
                    id,
                    wire,
                    req,
                    batch_devices,
                    session_devices,
                    span,
                }) {
                    Ok(()) => {
                        conn.inflight = true;
                        shared.shards[self.id].jobs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(PushError::Full) => {
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                        inline(
                            conn,
                            Response::Error(ServerError::Overloaded {
                                queue_capacity: shared.queue.capacity(),
                            }),
                        );
                    }
                    Err(PushError::Closed) => {
                        inline(conn, Response::Error(ServerError::ShuttingDown));
                    }
                }
            }
        }
    }

    /// Registers sockets the acceptor dealt to this shard.
    fn adopt_incoming(&mut self) {
        let incoming: Vec<(TcpStream, Instant)> =
            std::mem::take(&mut *self.shared.shards[self.id].incoming.lock());
        for (stream, handed_off) in incoming {
            if self.shared.draining() {
                // Dropped: drain admits nothing. The acceptor already
                // counted it; undo the active gauge.
                self.shared.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
            // Both directions; the per-lap `set_interest` refresh takes
            // over before the first wait.
            self.poller.register(fd_of(&stream), token, true, true);
            let accept_us = if trips_obs::enabled() {
                handed_off.elapsed().as_micros() as u64
            } else {
                0
            };
            self.conns.insert(token, Conn::new(stream, accept_us));
        }
        self.shared.shards[self.id]
            .connections
            .store(self.conns.len(), Ordering::Relaxed);
    }

    /// Marks connections idle past the configured timeout for teardown.
    /// Only truly quiescent connections qualify — in-flight work or
    /// unflushed output means the peer is slow, not absent.
    fn reap_idle(&mut self, timeout: Duration) {
        for conn in self.conns.values_mut() {
            if !conn.inflight
                && !conn.closing
                && !conn.dead
                && conn.write_q.is_empty()
                && conn.last_activity.elapsed() > timeout
            {
                conn.closing = true;
                self.shared.conns_reaped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Applies finished work: response bytes, device attribution, renewed
    /// parsing.
    fn apply_completions(&mut self) {
        let done: Vec<Done> = std::mem::take(&mut *self.shared.shards[self.id].completions.lock());
        for d in done {
            // The connection may be gone (dropped mid-flight under a
            // forced drain); its response and device attribution die with
            // it, like a thread-model server whose session exited.
            let Some(conn) = self.conns.get_mut(&d.token) else {
                if d.unsolicited {
                    self.shared
                        .alerts_dropped_late
                        .fetch_add(1, Ordering::Relaxed);
                }
                continue;
            };
            if d.unsolicited {
                // An alert push: no request was in flight for it, and a
                // subscriber that stopped reading gets alerts dropped
                // rather than unbounded buffering (the rule's fire
                // counters remain the ground truth).
                if conn.write_q.len() > ALERT_BUF_MAX {
                    self.shared
                        .alerts_dropped_late
                        .fetch_add(1, Ordering::Relaxed);
                } else {
                    conn.write_q.push(d.bytes);
                }
                if conn.can_write {
                    conn.flush_write();
                }
                continue;
            }
            // Reply-write starts the moment this shard adopts the
            // completion (clock read only when a span is riding along).
            let adopted = d.span.is_some().then(Instant::now);
            conn.inflight = false;
            conn.last_activity = Instant::now();
            for device in d.ingested {
                if conn.devices.insert(device.clone()) {
                    *self.shared.sessions.lock().entry(device).or_insert(0) += 1;
                }
            }
            conn.write_q.push(d.bytes);
            if conn.can_write {
                conn.flush_write();
            }
            if trips_obs::enabled() {
                // The next buffered request's `loop_ready` epoch: this
                // completion is its readiness signal.
                conn.ready_at = Some(Instant::now());
            }
            if let Some(mut pending) = d.span {
                let adopted = adopted.unwrap_or_else(Instant::now);
                pending.record.stages_us[ST_REPLY_WRITE] = adopted.elapsed().as_micros() as u64;
                pending.record.total_us = pending.t0.elapsed().as_micros() as u64;
                pending.record.unix_ms = unix_ms_now();
                self.shared.finish_span(self.id, pending.record);
            }
            self.pump(d.token);
        }
    }

    /// One I/O pass over a connection, driven by its cached readiness.
    fn service(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        if trips_obs::enabled() {
            // The epoch of the next parsed request's `loop_ready` stage.
            conn.ready_at = Some(Instant::now());
        }
        if conn.can_write && !conn.write_q.is_empty() {
            conn.flush_write();
        }
        if conn.can_read && conn.wants_read() {
            let before = conn.read_buf.len();
            conn.fill_read(DEFAULT_READ_BUDGET);
            let gained = conn.read_buf.len() - before;
            if gained > 0 {
                conn.last_activity = Instant::now();
                self.shared.shards[self.id]
                    .bytes_read
                    .fetch_add(gained as u64, Ordering::Relaxed);
            }
        }
        self.pump(token);
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.can_write && !conn.write_q.is_empty() {
                conn.flush_write();
            }
        }
    }

    /// Removes a connection and settles its session: every device it
    /// ingested drops one refcount; devices no other live session feeds
    /// are flushed (their semantics publish) and session-ended.
    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.deregister(token);
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
        self.shared.shards[self.id]
            .connections
            .store(self.conns.len(), Ordering::Relaxed);
        // Standing rules are session-scoped: a subscriber's rules stop
        // evaluating (and alerting) the moment its connection goes away.
        for rule_id in &conn.rule_ids {
            self.shared.store.rules().unregister(*rule_id);
        }
        if conn.devices.is_empty() {
            return;
        }
        let mut last_refs: Vec<DeviceId> = Vec::new();
        {
            let mut sessions = self.shared.sessions.lock();
            for device in &conn.devices {
                match sessions.get_mut(device) {
                    Some(count) if *count > 1 => *count -= 1,
                    Some(_) => {
                        sessions.remove(device);
                        last_refs.push(device.clone());
                    }
                    // Not in the map — flush defensively (matches the
                    // pre-refcount behavior for untracked devices).
                    None => last_refs.push(device.clone()),
                }
            }
        }
        // Group by translator shard so each lock is taken once (and only
        // the shards this session's devices touch).
        let groups = group_by_tshard(last_refs.iter().map(|d| (self.shared.tshard(d), d)));
        for (shard, devices) in groups {
            let mut translator = self.shared.lock_translator(shard);
            for device in devices {
                let _ = translator.flush_device(device);
                self.shared.store.end_session(device);
            }
        }
    }

    /// Sweeps finished connections, returns whether any remain.
    fn sweep(&mut self) -> bool {
        let finished: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.finished())
            .map(|(&t, _)| t)
            .collect();
        for token in finished {
            self.teardown(token);
        }
        !self.conns.is_empty()
    }

    /// The shard's loop: adopt → complete → service → sweep → wait.
    /// Returns when the server drains (or on a poller error).
    fn run(&mut self) -> io::Result<()> {
        let state = &self.shared.shards[self.id];
        self.poller
            .register(state.waker.fd(), WAKER_TOKEN, true, false);
        // Idle reaping cadence: a quarter of the timeout (floored) keeps
        // the worst-case overshoot at ~25%. A shard whose fds are all
        // silent still laps at least every `LOOP_WAIT_MS`, so the sweep
        // needs no timer of its own.
        let reap_period = self
            .shared
            .idle_timeout
            .map(|t| (t / 4).max(Duration::from_millis(100)));
        let mut next_reap = reap_period.map(|p| Instant::now() + p);
        let mut drain_deadline: Option<Instant> = None;
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Drain the waker *before* reading the work it signals, so a
            // signal arriving mid-iteration leaves a wake pending rather
            // than being swallowed.
            state.waker.drain();
            self.adopt_incoming();
            self.apply_completions();

            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.service(token);
            }
            if let (Some(timeout), Some(due)) = (self.shared.idle_timeout, next_reap) {
                if Instant::now() >= due {
                    next_reap = reap_period.map(|p| Instant::now() + p);
                    self.reap_idle(timeout);
                }
            }
            let any_left = self.sweep();

            if self.shared.draining() {
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                // Stop parsing new work everywhere; in-flight jobs and
                // buffered responses still settle.
                for conn in self.conns.values_mut() {
                    conn.closing = true;
                }
                if !any_left {
                    break;
                }
                if Instant::now() >= deadline {
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.teardown(token);
                    }
                    break;
                }
            }

            // A connection paused by its read budget (or waiting to retry
            // a write) still has cached readiness — do not sleep on it.
            let timeout = if self.conns.values().any(|c| c.actionable()) {
                0
            } else {
                LOOP_WAIT_MS
            };
            // Refresh interest: only directions whose cached readiness is
            // *exhausted* are armed, so level-triggered poll cannot spin
            // on known state.
            for (&token, conn) in &self.conns {
                let read = conn.wants_read() && !conn.can_read;
                let write = !conn.write_q.is_empty() && !conn.can_write && !conn.dead;
                self.poller.set_interest(token, read, write);
            }
            self.poller.wait(timeout, &mut events)?;
            for ev in &events {
                if ev.token == WAKER_TOKEN {
                    continue;
                }
                if let Some(conn) = self.conns.get_mut(&ev.token) {
                    if ev.readable {
                        conn.can_read = true;
                    }
                    if ev.writable {
                        conn.can_write = true;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The acceptor: runs on `serve`'s calling thread, owns the listener,
/// enforces the global connection cap, and places accepted sockets on the
/// least-loaded loop shard.
///
/// Load is an EWMA over each shard's observed byte/job deltas
/// ([`ShardState::bytes_read`] + [`JOB_LOAD_BYTES`]·jobs, refreshed every
/// [`LOAD_REFRESH`]), tie-broken by how many connections a shard already
/// holds (owned + pending hand-offs). An idle burst therefore still deals
/// round-robin — every shard's EWMA is zero and each placement bumps the
/// tie-break — while a shard dragged down by firehose connections stops
/// receiving new ones until its load decays.
fn run_acceptor(
    shared: &Shared<'_>,
    listener: &TcpListener,
    max_connections: usize,
) -> io::Result<()> {
    let nshards = shared.shards.len();
    let mut prev_load = vec![0u64; nshards];
    let mut ewma = vec![0u64; nshards];
    let mut last_refresh = Instant::now();
    while !shared.draining() {
        let mut fds = [PollFd::new(fd_of(listener), POLLIN)];
        poll_fds(&mut fds, ACCEPT_POLL_MS)?;
        if last_refresh.elapsed() >= LOAD_REFRESH {
            last_refresh = Instant::now();
            for (i, state) in shared.shards.iter().enumerate() {
                let cur = state.bytes_read.load(Ordering::Relaxed)
                    + JOB_LOAD_BYTES * state.jobs.load(Ordering::Relaxed);
                let delta = cur.saturating_sub(prev_load[i]);
                prev_load[i] = cur;
                // Half-life of one refresh: recent traffic dominates,
                // history fades fast enough to follow shifting skew.
                ewma[i] = ewma[i] / 2 + delta;
            }
        }
        loop {
            match listener.accept() {
                Ok((mut stream, _peer)) => {
                    if shared.draining() {
                        break; // dropped: drain admits nothing
                    }
                    if shared.active.load(Ordering::Relaxed) >= max_connections {
                        // Rejected connections count only as rejected,
                        // never as accepted. The rejection is written as a
                        // v1 line — the client has not spoken yet, and v1
                        // is the lingua franca both generations parse.
                        shared.conns_rejected.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_nodelay(true);
                        let env = ResponseEnvelope::new(
                            0,
                            Response::Error(ServerError::TooManyConnections {
                                limit: max_connections,
                            }),
                        );
                        let _ = stream.write_all(&encode_wire(Wire::V1, &env));
                        continue; // dropped: connection closed
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    shared.active.fetch_add(1, Ordering::Relaxed);
                    let least_loaded = (0..nshards)
                        .min_by_key(|&i| {
                            let s = &shared.shards[i];
                            let held =
                                s.connections.load(Ordering::Relaxed) + s.incoming.lock().len();
                            (ewma[i], held, i)
                        })
                        .unwrap_or(0);
                    let state = &shared.shards[least_loaded];
                    state.incoming.lock().push((stream, Instant::now()));
                    state.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
    Ok(())
}

/// Whether an HTTP request head is complete (blank line seen).
fn http_head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

/// Answers one scrape connection: read the request head (blocking, short
/// timeout), route on the request line only, write the exposition, close.
/// HTTP/1.0, one request per connection — exactly what a scrape loop
/// needs, with no header parsing to get wrong.
fn serve_metrics_conn(shared: &Shared<'_>, mut stream: TcpStream) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !http_head_complete(&head) && head.len() <= MAX_HTTP_HEAD {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
    let line = head.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
        let body = shared.prometheus_text();
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        let body = "not found; try GET /metrics\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    let _ = stream.write_all(response.as_bytes());
}

/// The dedicated `GET /metrics` listener loop: accept (nonblocking, with
/// the same poll-between-drain-checks cadence as the acceptor), serve
/// each scrape serially, exit when the server drains. Scrapes are rare
/// and cheap relative to request traffic, so one thread with serial
/// connections keeps the surface minimal.
fn run_metrics_http(shared: &Shared<'_>, listener: &TcpListener) {
    while !shared.draining() {
        let mut fds = [PollFd::new(fd_of(listener), POLLIN)];
        if poll_fds(&mut fds, ACCEPT_POLL_MS).is_err() {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => serve_metrics_conn(shared, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

/// The assembled server: a DSM + trained Event Editor (the translation
/// configuration) plus the live store it serves.
pub struct TripsServer {
    dsm: DigitalSpaceModel,
    editor: EventEditor,
    config: ServerConfig,
    store: Arc<SemanticsStore>,
    recovery: Option<RecoveryReport>,
    /// The `GET /metrics` listener, bound eagerly at construction (so a
    /// bad `metrics_addr` fails boot, not the first scrape).
    metrics_listener: Option<TcpListener>,
}

impl TripsServer {
    /// Builds a server. Boot is one recovery story
    /// ([`trips_store::boot_store`]): with `config.durability` the store
    /// recovers from its WAL directory (checkpoint snapshot + replay of
    /// newer segments, torn tail truncated) and journals from then on;
    /// with `config.snapshot` it loads that file once, non-durably;
    /// otherwise it starts empty with `config.shards` shards.
    pub fn new(
        dsm: DigitalSpaceModel,
        editor: EventEditor,
        config: ServerConfig,
    ) -> Result<Self, trips_store::SemanticsStoreError> {
        let (store, recovery) = boot_store(
            config.durability.as_ref(),
            config.snapshot.as_deref(),
            config.shards,
        )?;
        let metrics_listener = match config.metrics_addr.as_deref() {
            Some(addr) => {
                let listener =
                    TcpListener::bind(addr).map_err(trips_store::SemanticsStoreError::Io)?;
                listener
                    .set_nonblocking(true)
                    .map_err(trips_store::SemanticsStoreError::Io)?;
                Some(listener)
            }
            None => None,
        };
        Ok(TripsServer {
            dsm,
            editor,
            config,
            store: Arc::new(store),
            recovery,
            metrics_listener,
        })
    }

    /// The bound address of the `GET /metrics` listener (`None` unless
    /// [`ServerConfig::metrics_addr`] was set; resolves port 0 to the
    /// real ephemeral port).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The live store (shareable; valid before, during and after `serve`).
    pub fn store(&self) -> Arc<SemanticsStore> {
        self.store.clone()
    }

    /// What boot recovery found (`None` when booted without durability).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// A concurrent query handle over the live store.
    pub fn query_service(&self) -> QueryService {
        QueryService::new(self.store.clone())
    }

    /// The effective event-loop shard count (resolves `0` → default).
    pub fn loop_shards(&self) -> usize {
        if self.config.loop_shards == 0 {
            default_loop_shards()
        } else {
            self.config.loop_shards
        }
    }

    /// The effective translator shard count (resolves `0` → default and
    /// rounds to a power of two).
    pub fn translator_shards(&self) -> usize {
        if self.config.translator_shards == 0 {
            default_translator_shards()
        } else {
            self.config.translator_shards.next_power_of_two()
        }
    }

    /// The effective standing-rule cap (resolves `0` → default).
    pub fn max_rules(&self) -> usize {
        if self.config.max_rules == 0 {
            trips_store::DEFAULT_RULE_LIMIT
        } else {
            self.config.max_rules
        }
    }

    /// Serves `listener` until a `Shutdown` request drains the loops.
    /// Blocks; all loop-shard and worker threads are scoped inside this
    /// call (the calling thread runs the acceptor).
    pub fn serve(&self, listener: TcpListener) -> io::Result<ServerReport> {
        listener.set_nonblocking(true)?;
        let loop_shards = self.loop_shards();
        let translator_shards = self.translator_shards();

        // Build every fallible resource before any thread starts: one
        // poller + waker per loop shard, one translator per
        // translator shard. The event model is trained once and each
        // translator gets a clone; devices are then routed wholly to one
        // instance, so output matches a single translator bit for bit.
        let mut pollers = Vec::with_capacity(loop_shards);
        let mut shard_states = Vec::with_capacity(loop_shards);
        for _ in 0..loop_shards {
            pollers.push(Poller::new());
            shard_states.push(Arc::new(ShardState {
                completions: parking_lot::Mutex::new(Vec::new()),
                waker: Waker::new()?,
                incoming: parking_lot::Mutex::new(Vec::new()),
                wakeups: AtomicU64::new(0),
                connections: AtomicUsize::new(0),
                bytes_read: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
            }));
        }
        let invalid =
            |e: &dyn std::fmt::Display| io::Error::new(io::ErrorKind::InvalidInput, e.to_string());
        let (model, labels) = self
            .config
            .stream
            .translator
            .train(&self.editor)
            .map_err(|e| invalid(&e))?;
        let mut translators = Vec::with_capacity(translator_shards);
        for _ in 0..translator_shards {
            let translator = StreamingTranslator::new(
                &self.dsm,
                model.clone(),
                labels.clone(),
                None,
                self.config.stream.clone(),
            )
            .map_err(|e| invalid(&e))?
            .with_store(self.store.clone());
            translators.push(parking_lot::Mutex::new(translator));
        }

        // The metric registry and the live latency histograms registered
        // in it: the same three series back `Metrics` percentiles and the
        // Prometheus `trips_request_latency_us` family.
        let registry = Registry::new();
        let latency_hist = |endpoint: &str| {
            registry.histogram(
                "trips_request_latency_us",
                "Request latency by endpoint family (microseconds)",
                &[("endpoint", endpoint)],
            )
        };
        let ingest_hist = latency_hist("ingest");
        let query_hist = latency_hist("query");
        let admin_hist = latency_hist("admin");

        let shared = Shared {
            translators,
            tmask: translator_shards - 1,
            store: self.store.clone(),
            queue: BoundedQueue::new(self.config.queue_capacity),
            shards: shard_states,
            next_token: AtomicU64::new(0),
            sessions: parking_lot::Mutex::new(BTreeMap::new()),
            snapshot_root: self.config.snapshot_root.clone(),
            recovery: self.recovery.clone(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            started: Instant::now(),
            registry,
            ingest_hist,
            query_hist,
            admin_hist,
            traces: (0..loop_shards)
                .map(|_| TraceRing::new(DEFAULT_TRACE_RING))
                .collect(),
            slowlog: SlowLog::new(DEFAULT_SLOW_LOG, self.config.slow_threshold_us),
            slow_requests: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            translator_contention: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            alerts_dropped_late: AtomicU64::new(0),
            conns_reaped: AtomicU64::new(0),
            idle_timeout: self.config.idle_timeout,
        };
        // Arm the rule engine for this serve run: the configured rule cap
        // and the DSM's region→floor map (so `floor N` selectors resolve).
        self.store.rules().set_limit(self.max_rules());
        self.store
            .rules()
            .set_region_floors(self.dsm.regions().map(|r| (r.id, r.floor)));

        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                let shared = &shared;
                scope.spawn(move || shared.run_worker());
            }
            if let Some(metrics_listener) = self.metrics_listener.as_ref() {
                let shared = &shared;
                scope.spawn(move || run_metrics_http(shared, metrics_listener));
            }
            let mut loop_handles = Vec::with_capacity(loop_shards);
            for (id, poller) in pollers.into_iter().enumerate() {
                let shared = &shared;
                loop_handles.push(scope.spawn(move || {
                    let mut shard = LoopShard {
                        shared,
                        id,
                        conns: BTreeMap::new(),
                        poller,
                    };
                    let result = shard.run();
                    if result.is_err() {
                        // A dying shard must still let everyone else
                        // drain: flag shutdown, close the queue, wake the
                        // other shards (the acceptor notices the flag).
                        shared.shutdown.store(true, Ordering::Relaxed);
                        shared.queue.close();
                        for state in &shared.shards {
                            state.wake();
                        }
                    }
                    result
                }));
            }

            let mut loop_err = run_acceptor(&shared, &listener, self.config.max_connections).err();
            if loop_err.is_some() {
                // Acceptor died: initiate the drain it can no longer serve.
                shared.shutdown.store(true, Ordering::Relaxed);
                shared.queue.close();
                for state in &shared.shards {
                    state.wake();
                }
            }
            for handle in loop_handles {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        loop_err.get_or_insert(e);
                    }
                    Err(_) => {
                        loop_err.get_or_insert_with(|| io::Error::other("loop shard panicked"));
                    }
                }
            }
            // Whatever ended the loops: make sure workers can exit (drain).
            shared.queue.close();
            match loop_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })?;

        // Every thread has joined. Publish any still-buffered sessions so
        // nothing ingested is lost (journaling them on a durable store),
        // flush the tail of any fsync window, then report.
        shared.finish_all_translators();
        let _ = self.store.sync_wal();
        Ok(ServerReport {
            connections_accepted: shared.conns_accepted.load(Ordering::Relaxed),
            connections_rejected: shared.conns_rejected.load(Ordering::Relaxed),
            requests: shared.requests.load(Ordering::Relaxed),
            shed: shared.shed.load(Ordering::Relaxed),
            bad_requests: shared.bad_requests.load(Ordering::Relaxed),
            peak_queue_depth: shared.queue.peak_depth(),
            devices: self.store.device_count(),
            semantics: self.store.semantics_count(),
        })
    }

    /// Binds `addr` (use port 0 for an ephemeral port), moves the server
    /// into a background thread and returns a handle with the bound
    /// address — the boot path for tests and embedding.
    pub fn spawn(self, addr: &str) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics_addr = self.metrics_addr();
        let join = std::thread::spawn(move || self.serve(listener));
        Ok(ServerHandle {
            addr: local,
            metrics_addr,
            join,
        })
    }
}

/// A running background server (see [`TripsServer::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    join: std::thread::JoinHandle<io::Result<ServerReport>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `GET /metrics` listener address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Requests a graceful drain and waits for the serve loop to finish.
    ///
    /// Delivery is verified: if the `Shutdown` request cannot reach the
    /// server (e.g. the connection cap is saturated and the admin socket
    /// is rejected), this retries briefly and then returns an error
    /// instead of joining a server that will never drain.
    pub fn shutdown(self) -> io::Result<ServerReport> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let attempt = crate::client::Client::connect(self.addr).and_then(|mut client| {
                client.set_read_timeout(Some(Duration::from_millis(500)))?;
                client.shutdown()
            });
            match attempt {
                // Acknowledged — or another client already started the
                // drain; either way the serve loop is on its way out.
                Ok(Response::ShuttingDown) | Ok(Response::Error(ServerError::ShuttingDown)) => {
                    return self.join()
                }
                // Rejected (connection cap), unexpected reply, or a
                // transport error: if the loop already exited, join;
                // otherwise retry until the deadline.
                Ok(_) | Err(_) => {
                    if self.join.is_finished() {
                        return self.join();
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::other(
                            "could not deliver Shutdown (connection cap saturated?); \
                             server left running",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Waits for the serve loop to finish without requesting shutdown
    /// (use when a client already sent `Shutdown`).
    pub fn join(self) -> io::Result<ServerReport> {
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_metrics_reduce_a_histogram_snapshot() {
        let hist = Histogram::new();
        for us in 1..=1000u64 {
            hist.observe_us(us);
        }
        let m = endpoint_metrics("ingest", &hist, Duration::from_secs(10));
        assert_eq!(m.endpoint, "ingest");
        assert_eq!(m.count, 1000);
        assert!((m.ops_per_sec - 100.0).abs() < 1e-9);
        assert_eq!(m.max_us, 1000.0, "max is exact");
        assert_eq!(m.mean_us, 500.0);
        // Log buckets: the p50 estimate stays inside the true median's
        // bucket (256, 512]; p99 never exceeds the exact max.
        assert!((257.0..=512.0).contains(&m.p50_us), "p50 {}", m.p50_us);
        assert!(m.p99_us <= m.max_us);

        let empty = endpoint_metrics("query", &Histogram::new(), Duration::ZERO);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.ops_per_sec, 0.0);
    }

    #[test]
    fn http_head_detection_handles_both_line_endings() {
        assert!(http_head_complete(b"GET /metrics HTTP/1.0\r\n\r\n"));
        assert!(http_head_complete(b"GET /metrics HTTP/1.0\n\n"));
        assert!(!http_head_complete(b"GET /metrics HTTP/1.0\r\n"));
    }

    #[test]
    fn snapshot_paths_resolve_only_inside_the_root() {
        let root = PathBuf::from("/srv/snapshots");
        let ok = resolve_snapshot_path(Some(&root), "daily/mall.json").unwrap();
        assert_eq!(ok, root.join("daily/mall.json"));

        // "a/./b" is absent: `Path::components` normalizes interior `.`
        // away, so it resolves to a/b inside the root — harmless.
        for bad in ["/etc/passwd", "../escape.json", "a/../../b", "", "./a"] {
            let err = resolve_snapshot_path(Some(&root), bad).unwrap_err();
            assert!(
                matches!(err, ServerError::BadRequest { .. }),
                "{bad:?} must be rejected, got {err:?}"
            );
        }

        let err = resolve_snapshot_path(None, "mall.json").unwrap_err();
        assert!(
            matches!(err, ServerError::BadRequest { .. }),
            "no configured root rejects everything"
        );
    }

    #[test]
    fn group_by_tshard_preserves_per_shard_order() {
        let items = vec![(1, "a"), (0, "b"), (1, "c"), (2, "d"), (0, "e"), (1, "f")];
        let groups = group_by_tshard(items);
        assert_eq!(groups[&0], vec!["b", "e"]);
        assert_eq!(groups[&1], vec!["a", "c", "f"]);
        assert_eq!(groups[&2], vec!["d"]);
    }

    /// Everything a queue currently hands to one vectored write.
    fn gathered(q: &WriteQueue) -> Vec<Vec<u8>> {
        let mut bufs = [IoSlice::new(&[]); WRITEV_BATCH_MAX];
        let n = q.gather(&mut bufs);
        bufs[..n].iter().map(|b| b.to_vec()).collect()
    }

    #[test]
    fn write_queue_resumes_a_partial_write_mid_segment() {
        let mut q = WriteQueue::default();
        q.push(Chunk::Owned(b"ab".to_vec()));
        q.push(Chunk::Owned(Vec::new())); // empty segments are skipped
        q.push(Chunk::Shared(Arc::from(&b"cdef"[..])));
        q.push(Chunk::Owned(b"gh".to_vec()));
        assert_eq!(q.len(), 8);
        assert_eq!(gathered(&q), [&b"ab"[..], b"cdef", b"gh"]);

        // A short write that ends inside the second segment.
        q.consume(3);
        assert_eq!(q.len(), 5);
        assert_eq!(gathered(&q), [&b"def"[..], b"gh"]);
        // One that crosses a segment boundary.
        q.consume(4);
        assert_eq!(gathered(&q), [&b"h"[..]]);
        q.consume(1);
        assert!(q.is_empty());
        assert!(gathered(&q).is_empty());

        // One vectored write takes at most WRITEV_BATCH_MAX segments.
        for _ in 0..WRITEV_BATCH_MAX + 5 {
            q.push(Chunk::Owned(vec![1]));
        }
        assert_eq!(gathered(&q).len(), WRITEV_BATCH_MAX);
    }

    #[test]
    fn flush_write_delivers_every_segment_across_short_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(tx, 0);
        // ~12 MiB in 256 odd-sized segments: more than the socket buffers
        // hold (so flushes stop mid-queue on `WouldBlock`) and more
        // segments than one vectored write takes.
        let mut want = Vec::new();
        for i in 0..256usize {
            let seg: Vec<u8> = (0..32 * 1024 + (i * 7919) % (32 * 1024))
                .map(|j| (i + j) as u8)
                .collect();
            want.extend_from_slice(&seg);
            conn.write_q.push(if i % 3 == 0 {
                Chunk::Shared(seg.into())
            } else {
                Chunk::Owned(seg)
            });
        }

        // Nobody reads yet: the first flush fills the socket and blocks.
        conn.flush_write();
        assert!(!conn.dead);
        assert!(!conn.can_write, "the socket buffers filled up");
        assert!(!conn.write_q.is_empty());

        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            rx.read_to_end(&mut got).unwrap();
            got
        });
        while !conn.write_q.is_empty() {
            conn.can_write = true;
            conn.flush_write();
            assert!(!conn.dead);
            if !conn.can_write {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(conn);
        let got = reader.join().unwrap();
        assert_eq!(got.len(), want.len());
        assert!(got == want, "bytes arrive in order, none lost or repeated");
    }

    #[test]
    fn shard_defaults_are_sane() {
        let loops = default_loop_shards();
        assert!((1..=4).contains(&loops));
        let t = default_translator_shards();
        assert!(t.is_power_of_two());
        assert!((4..=32).contains(&t));
    }
}
