//! The serving loops: acceptor → sharded event loops, each running the
//! requests it parses to completion → one translator core over sharded
//! session buffers → semantics store.
//!
//! ## Threading model
//!
//! Everything runs under one `std::thread::scope` (the same scoped-thread
//! idiom as `trips-engine`'s executor), so loop shards borrow the server's
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
//!   `poll(2)` scans the whole set.
//!
//! A lap on a shard reads every ready connection and parses complete
//! messages (NDJSON v1 lines or binary v2 frames, detected per message by
//! the first byte). Cheap admin requests are answered inline as they
//! parse. Parsing a connection stops at its first work request (`Ingest`,
//! `Flush`, `Query`, `Snapshot`), so a lap takes at most one per
//! connection. After the reads, the shard admits the lap's work requests
//! (see below), then runs the admitted ones in parse order **on its own
//! thread**: execute through the shared translator core + sharded session
//! buffers + `SemanticsStore`, encode, queue the reply bytes. There is no
//! worker pool and no per-request thread hand-off; replies leave in
//! request order because a connection's requests run one after another on
//! one thread. A lap does not sleep in `poll` while a connection may hold
//! another complete request in its read buffer.
//!
//! Only three things cross threads into a shard, through its `pushes`
//! list, its `incoming` list and its waker: alert pushes caused by
//! another shard's ingest, connections the acceptor hands over, and
//! shutdown. An alert that a shard's own request triggers is applied
//! right after that request, ahead of its reply, without a wake.
//!
//! The price is head-of-line blocking within a shard: a slow request
//! (a large query, a snapshot) delays the other connections on the same
//! shard until it finishes. Other shards keep serving.
//!
//! ## Translation
//!
//! `serve` trains the event model and builds one
//! [`TranslatorCore`] — Cleaner, Annotator and session rule — shared by
//! every loop shard without a lock. Only the per-device session buffers
//! are locked: they live in a table of `store.shard_count()` mutex-guarded
//! maps, and a device's buffers sit in the table shard with the store's
//! own [`SemanticsStore::shard_index`], so lock placement is decided by
//! the store alone. A device lives wholly in one buffer map, so output is
//! bit-identical to a single `StreamingTranslator`. An `Ingest` batch is
//! grouped by table shard and each group is translated and published
//! under its own shard's lock, so batches from unrelated devices translate
//! in parallel on different loop shards while per-device ordering is
//! preserved (a batch whose devices all share a shard takes one lock).
//! Locks are only ever taken one shard at a time (multi-shard work
//! iterates), so there is no lock-order deadlock; the
//! `translator_lock_contention` metric counts blocked acquisitions.
//!
//! ## Overload behavior
//!
//! Admission is one server-wide [`Admission`] count of admitted,
//! unfinished requests, capped at `ServerConfig::queue_capacity`. Each
//! lap, a shard admits its taken work requests in parse order while the
//! count is below the cap and answers the rest at once with
//! [`ServerError::Overloaded`]. Each lap starts reading one connection
//! further on, so under overload the connections take turns at being
//! admitted first. Nothing buffers, and the work in progress
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
//! every admitted request (a shard runs what it admitted before its lap
//! ends), flush pending response bytes, flush all stream
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

use crate::admission::Admission;
use crate::codec::{self, FrameError, RequestFrameRef, FRAME_MAGIC, HEADER_LEN, MAX_FRAME_PAYLOAD};
use crate::event::{fd_of, poll_fds, Event, PollFd, Poller, Waker, POLLIN};
use crate::metrics;
use crate::protocol::{
    HealthReport, Request, RequestEnvelope, Response, ResponseEnvelope, ServerError,
};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trips_annotate::EventEditor;
use trips_core::stream::{DeviceBuffers, StreamConfig, TranslatorCore};
use trips_data::{DeviceId, RawRecord, Timestamp};
use trips_dsm::DigitalSpaceModel;
use trips_obs::{stage, Histogram, SlowLog, SpanRecord, TraceRing, STAGE_COUNT};
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
/// is active (alert pushes, hand-offs and shutdown interrupt the wait
/// via the waker).
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

/// Approximate byte-cost a work request run on a shard contributes to its
/// observed load: queries and flushes carry few wire bytes but real
/// execution cost, so the acceptor's placement signal weighs them as if
/// they were a 4 KiB read.
const JOB_LOAD_BYTES: u64 = 4096;

/// How often the acceptor decays its observed-load EWMA.
const LOAD_REFRESH: Duration = Duration::from_millis(100);

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Ignored. Loop shards run every request themselves; there is no
    /// worker pool to size. The field stays only so existing configs
    /// still compile, and will be removed.
    pub workers: usize,
    /// Cap on admitted, unfinished requests across the server; requests
    /// beyond it are shed with [`ServerError::Overloaded`].
    pub queue_capacity: usize,
    /// Concurrent-connection cap; sockets beyond it get
    /// [`ServerError::TooManyConnections`] and are closed.
    pub max_connections: usize,
    /// Store shard count (`0` = [`trips_store::default_shard_count`]).
    /// Ignored when booting from a snapshot (the snapshot records its own).
    /// The translator's session-buffer locks follow the same sharding.
    pub shards: usize,
    /// Event-loop shard count (`0` = `min(cores, 4)`). Each shard is one
    /// thread owning its connections' fds and buffers; the acceptor places
    /// each new connection on the least-loaded shard.
    pub loop_shards: usize,
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

/// Counters summarizing one `serve` run, returned when the loop drains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReport {
    pub connections_accepted: u64,
    pub connections_rejected: u64,
    pub requests: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    pub bad_requests: u64,
    /// High-water mark of admitted, unfinished requests (≤ configured
    /// capacity).
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

impl Wire {
    /// The protocol version a response in this framing carries.
    fn version(self) -> u32 {
        match self {
            Wire::V1 => crate::protocol::PROTOCOL_VERSION,
            Wire::V2 => crate::protocol::PROTOCOL_V2,
        }
    }
}

/// A request being answered on its loop shard: where the reply goes and
/// the span epochs measured before it parsed.
struct Inline {
    shard: usize,
    token: u64,
    seq: u64,
    id: u64,
    wire: Wire,
    accept_us: u64,
    loop_ready_us: u64,
}

impl Inline {
    /// Queues `resp` on `conn`, framed like the request.
    fn reply(&self, conn: &mut Conn, resp: Response) {
        let (v, id) = (self.wire.version(), self.id);
        conn.queue_response(self.wire, &ResponseEnvelope { v, id, resp });
    }
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

/// A work request a loop shard took this lap; it runs, or is shed, once
/// the lap's reads are done.
struct Job {
    at: Inline,
    req: Request,
    /// Well-formed devices of an `Ingest` batch — attributed to the
    /// session only if the ingest executes.
    batch_devices: Vec<DeviceId>,
    /// Parse completion — the span's epoch; `None` while observability is
    /// off.
    parsed: Option<Instant>,
}

/// An alert pushed to a connection from whatever thread published the
/// triggering ingest, waiting for the owning loop shard to queue it.
struct Push {
    token: u64,
    bytes: Arc<[u8]>,
}

thread_local! {
    /// The [`ShardState`] whose loop runs on this thread (its address;
    /// 0 on every other thread). An alert sink skips the wake when it
    /// runs on its own shard's loop, which applies the push right after
    /// the request that caused it.
    static LOOP_SHARD: Cell<usize> = const { Cell::new(0) };
}

/// Wall-clock milliseconds since the Unix epoch (span correlation only —
/// all stage math uses the monotonic clock).
fn unix_ms_now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0)
}

/// Per-loop-shard shared state: the channels through which the acceptor
/// and other shards reach one shard's loop thread.
pub(crate) struct ShardState {
    /// Alert pushes waiting for this shard's loop (paired with `waker`).
    pushes: parking_lot::Mutex<Vec<Push>>,
    waker: Waker,
    /// Accepted sockets dealt to this shard, not yet registered, with
    /// their hand-off instants (the `accept` span stage).
    incoming: parking_lot::Mutex<Vec<(TcpStream, Instant)>>,
    /// Times `waker` was signaled (cross-shard alert pushes, hand-offs,
    /// shutdown) — a proxy for how busy the shard's wake channel is.
    pub(crate) wakeups: AtomicU64,
    /// Connections currently owned by the shard (metrics gauge).
    pub(crate) connections: AtomicUsize,
    /// Bytes this shard's connections read off their sockets (monotonic).
    /// With `jobs`, the observed-load signal behind the acceptor's
    /// least-loaded placement.
    pub(crate) bytes_read: AtomicU64,
    /// Work requests this shard admitted and ran (monotonic).
    pub(crate) jobs: AtomicU64,
}

impl ShardState {
    fn wake(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        self.waker.wake();
    }

    /// Alert pushes waiting for this shard's loop.
    pub(crate) fn pending_pushes(&self) -> usize {
        self.pushes.lock().len()
    }

    /// This state's identity for [`LOOP_SHARD`].
    fn addr(&self) -> usize {
        self as *const ShardState as usize
    }
}

/// State shared by the acceptor and loop shards for one `serve` run
/// (lives on `serve`'s stack; scoped threads borrow it).
pub(crate) struct Shared<'env> {
    /// The one translator core every loop shard translates through.
    core: TranslatorCore<'env>,
    /// Session buffers, one map per store shard, indexed by
    /// [`SemanticsStore::shard_index`]. Invariant: locks are taken one
    /// shard at a time, never nested.
    buffers: Vec<parking_lot::Mutex<DeviceBuffers>>,
    pub(crate) store: Arc<SemanticsStore>,
    pub(crate) admission: Admission,
    /// `Arc` so connection-scoped alert sinks (owned by the `'static`
    /// rule engine inside the store) can outlive-proof their handle to
    /// the shard's push channel.
    pub(crate) shards: Vec<Arc<ShardState>>,
    /// Globally unique connection tokens across all loop shards.
    next_token: AtomicU64,
    /// Per-device count of live connections that ingested the device —
    /// global across loop shards (two shards can stream one device).
    /// Teardown flushes + `end_session`s only devices dropping to zero.
    sessions: parking_lot::Mutex<BTreeMap<DeviceId, usize>>,
    snapshot_root: Option<PathBuf>,
    /// What boot recovery found and cost (`None` without durability).
    pub(crate) recovery: Option<RecoveryReport>,
    shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) started: Instant,
    // Observability: per-endpoint latency histograms (recorded on the
    // request path), per-loop-shard trace rings and the slow-log. Every
    // report of the histograms and counters here (`Metrics`, Prometheus,
    // the drain `ServerReport`) comes from one `Shared::snapshot` read.
    pub(crate) ingest_hist: Histogram,
    pub(crate) query_hist: Histogram,
    pub(crate) admin_hist: Histogram,
    /// One trace ring per loop shard (indexed by shard id).
    traces: Vec<TraceRing>,
    pub(crate) slowlog: SlowLog,
    /// Spans promoted into the slow-log (the `trips_slow_requests_total`
    /// counter and `MetricsReport::slow_requests`).
    pub(crate) slow_requests: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    pub(crate) translator_contention: AtomicU64,
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_rejected: AtomicU64,
    /// Alert pushes a sink accepted but the loop shard then discarded
    /// (subscriber gone, or its write buffer over [`ALERT_BUF_MAX`]).
    pub(crate) alerts_dropped_late: AtomicU64,
    /// Connections closed for exceeding [`ServerConfig::idle_timeout`].
    pub(crate) conns_reaped: AtomicU64,
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

/// Groups an iterator of per-device items by buffer shard, preserving
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

    /// Locks one buffer shard, counting contended acquisitions.
    fn lock_buffers(&self, shard: usize) -> parking_lot::MutexGuard<'_, DeviceBuffers> {
        match self.buffers[shard].try_lock() {
            Some(guard) => guard,
            None => {
                self.translator_contention.fetch_add(1, Ordering::Relaxed);
                if trips_obs::enabled() {
                    let t0 = Instant::now();
                    let guard = self.buffers[shard].lock();
                    stage::add_translator_lock_ns(t0.elapsed().as_nanos() as u64);
                    guard
                } else {
                    self.buffers[shard].lock()
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

    /// Answers an admin request inline on its loop shard: `respond`
    /// builds the response, which is queued at once. The whole execution
    /// is timed into the `admin` histogram and, when tracing, recorded as
    /// a span that counts it all as `decode` (it skips admission).
    fn answer_admin(
        &self,
        conn: &mut Conn,
        at: &Inline,
        kind: &'static str,
        respond: impl FnOnce(&mut Conn) -> Response,
    ) {
        let t0 = Instant::now();
        let resp = respond(conn);
        at.reply(conn, resp);
        self.record("admin", t0.elapsed());
        if !trips_obs::enabled() {
            return;
        }
        let total_us = t0.elapsed().as_micros() as u64;
        let mut stages_us = vec![0u64; STAGE_COUNT];
        stages_us[ST_ACCEPT] = at.accept_us;
        stages_us[ST_LOOP_READY] = at.loop_ready_us;
        stages_us[ST_DECODE] = total_us;
        self.finish_span(
            at.shard,
            SpanRecord {
                id: at.seq,
                conn: at.token,
                shard: at.shard,
                endpoint: "admin".to_string(),
                kind: kind.to_string(),
                unix_ms: unix_ms_now(),
                total_us,
                stages_us,
            },
        );
    }

    /// The execution stages of a work request's span: admission wait from
    /// parse to start, lock/store/rule attribution from the thread-local
    /// [`stage`] accumulators (reset just before the request started),
    /// the unattributed remainder of the execution as `decode`.
    /// `reply_write`, `total_us` and `unix_ms` are filled at reply time.
    fn request_span(
        &self,
        at: &Inline,
        endpoint: &'static str,
        kind: &'static str,
        parsed: Instant,
        started: Instant,
        exec: Duration,
    ) -> SpanRecord {
        let nanos = stage::take();
        let lock_us = nanos.translator_lock_ns / 1_000;
        let store_us = (nanos.store_ns + nanos.store_lock_wait_ns) / 1_000;
        let rules_us = nanos.rules_ns / 1_000;
        let exec_us = exec.as_micros() as u64;
        let mut stages_us = vec![0u64; STAGE_COUNT];
        stages_us[ST_ACCEPT] = at.accept_us;
        stages_us[ST_LOOP_READY] = at.loop_ready_us;
        stages_us[ST_QUEUE_WAIT] = started.saturating_duration_since(parsed).as_micros() as u64;
        stages_us[ST_TRANSLATOR_LOCK] = lock_us;
        stages_us[ST_STORE_PUBLISH] = store_us;
        stages_us[ST_RULE_EVAL] = rules_us;
        stages_us[ST_DECODE] = exec_us.saturating_sub(lock_us + store_us + rules_us);
        SpanRecord {
            id: at.seq,
            conn: at.token,
            shard: at.shard,
            endpoint: endpoint.to_string(),
            kind: kind.to_string(),
            unix_ms: 0,
            total_us: 0,
            stages_us,
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

    /// Executes an `Ingest`: the batch is partitioned by device hash and
    /// each partition runs under its own shard's lock (taken one at a
    /// time — a single-shard batch takes one), summing the counters.
    /// Malformed records are counted as rejected under the same lock.
    fn ingest_multi(&self, records: Vec<RawRecord>) -> Response {
        let groups = group_by_tshard(
            records
                .into_iter()
                .map(|r| (self.store.shard_index(&r.device), r)),
        );
        let (mut accepted, mut rejected, mut emitted) = (0, 0, 0);
        for (shard, group) in groups {
            let mut buffers = self.lock_buffers(shard);
            for record in group {
                if !record.is_well_formed() {
                    rejected += 1;
                    continue;
                }
                emitted += self.core.push(&mut buffers, record).len();
                accepted += 1;
            }
        }
        Response::Ingested {
            accepted,
            rejected,
            emitted,
        }
    }

    /// Flushes a set of devices, grouped so each buffer shard is locked
    /// once; returns `(devices flushed, semantics emitted)`. With
    /// `end_session`, each device's store session is closed under the
    /// same lock (connection teardown).
    fn flush_devices<'a>(
        &self,
        devices: impl IntoIterator<Item = &'a DeviceId>,
        end_session: bool,
    ) -> (usize, usize) {
        let groups = group_by_tshard(devices.into_iter().map(|d| (self.store.shard_index(d), d)));
        let (mut flushed, mut emitted) = (0, 0);
        for (shard, group) in groups {
            let mut buffers = self.lock_buffers(shard);
            for device in group {
                if let Some(sems) = self.core.flush_device(&mut buffers, device) {
                    flushed += 1;
                    emitted += sems.len();
                }
                if end_session {
                    self.store.end_session(device);
                }
            }
        }
        (flushed, emitted)
    }

    /// Flushes every buffer shard (snapshot/drain path).
    fn finish_all(&self) {
        for buffers in &self.buffers {
            self.core.finish(&mut buffers.lock());
        }
    }

    /// Executes one admitted work request on the loop shard that parsed
    /// it. `session_devices` scopes a flush-all to the requesting session.
    fn execute(&self, req: Request, session_devices: &BTreeSet<DeviceId>) -> Response {
        match req {
            Request::Ingest { records } => self.ingest_multi(records),
            Request::Flush { device } => match device {
                Some(device) => {
                    let device = DeviceId::new(&device);
                    let (devices, emitted) = self.flush_devices([&device], false);
                    Response::Flushed { devices, emitted }
                }
                // Flush-all is scoped to the devices *this* session
                // ingested — flushing the whole translator would split
                // other connections' in-flight flows mid-stream.
                None => {
                    let (devices, emitted) = self.flush_devices(session_devices, false);
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
                    // across all buffer shards (journaling the
                    // published semantics before the WAL rotates).
                    self.finish_all();
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
                    self.finish_all();
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
            // Loop shards answer the rest inline; keep the mapping total.
            req => self.admin(&req),
        }
    }

    /// Compiles and registers a standing rule owned by `conn`, its alerts
    /// routed back to the connection's loop shard.
    fn subscribe(&self, conn: &mut Conn, at: &Inline, tql: &str) -> Response {
        let spec = match trips_query_lang::compile(tql) {
            Err(e) => {
                return Response::Error(ServerError::BadRequest {
                    message: e.render(tql),
                })
            }
            Ok(trips_query_lang::Compiled::Query(_)) => {
                return Response::Error(ServerError::BadRequest {
                    message: "FIND is a one-shot query (use Query); Subscribe takes a \
                              standing rule (`WHEN … ALERT`)"
                        .to_string(),
                })
            }
            Ok(trips_query_lang::Compiled::Rule(spec)) => spec,
        };
        let sink = Arc::new(ConnAlertSink {
            shard: Arc::clone(&self.shards[at.shard]),
            token: at.token,
            wire: at.wire,
        });
        match self.store.rules().register(spec, Some(sink)) {
            Ok(rule_id) => {
                conn.rule_ids.push(rule_id);
                let name = self
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

    /// Answers a request that needs neither admission nor connection
    /// state; loop shards call it inline, `execute` for totality.
    fn admin(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Health => self.health(),
            Request::Metrics => Response::Metrics(self.snapshot().report),
            Request::MetricsProm => Response::MetricsProm {
                text: metrics::render(&self.snapshot()),
            },
            Request::TraceDump { limit } => Response::Traces {
                spans: self.trace_spans(*limit),
            },
            Request::SlowLog { limit } => self.slow_log_response(*limit),
            Request::Shutdown => Response::ShuttingDown,
            Request::ListRules => Response::Rules {
                rules: self.store.rules().traces(),
            },
            // Subscription state (the alert sink, the session's rule list)
            // lives with the connection, so `dispatch` answers these with
            // the connection in hand. Work requests never come here either.
            _ => Response::Error(ServerError::BadRequest {
                message: "subscription requests are connection-scoped".to_string(),
            }),
        }
    }

    fn health(&self) -> Response {
        let (mut open_devices, mut buffered_records) = (0, 0);
        for buffers in &self.buffers {
            let buffers = buffers.lock();
            open_devices += buffers.len();
            buffered_records += buffers.values().map(Vec::len).sum::<usize>();
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
}

/// Delivers one rule's alerts to the subscribing connection: encode in the
/// framing the `Subscribe` arrived in and hand the bytes to the owning
/// loop shard's push list. Runs on whatever thread published the
/// triggering ingest — never touches the `Conn` directly (the loop shard
/// owns it), which is also why backpressure drops happen in
/// `apply_pushes`, not here. Only a push from another thread wakes the
/// shard: its own loop applies pushes right after each request it runs.
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
        self.shard.pushes.lock().push(Push {
            token: self.token,
            bytes,
        });
        if LOOP_SHARD.get() != self.shard.addr() {
            self.shard.wake();
        }
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
    /// Last time the connection read bytes or was answered a work
    /// request — the idle-reap clock.
    last_activity: Instant,
    /// Cached readiness: assumed ready at registration, cleared only on
    /// `WouldBlock`/EOF, set again by the poller's events. Only a cleared
    /// direction is armed in the poll set (see `LoopShard::run`).
    can_read: bool,
    can_write: bool,
    /// Parsing stopped this lap at a work request, so the read buffer may
    /// hold further complete requests: the next lap resumes parsing, and
    /// the shard does not sleep in `poll` meanwhile.
    parked: bool,
    /// Devices this session ingested (refcounted in `Shared::sessions`).
    devices: BTreeSet<DeviceId>,
    /// Standing rules this session registered via `Subscribe`;
    /// unregistered at teardown, so subscriptions die with the session.
    rule_ids: Vec<u64>,
    /// Peer sent EOF; finish buffered work, then tear down.
    read_closed: bool,
    /// Tear down once pending writes finish (fatal protocol error,
    /// shutdown, or drain).
    closing: bool,
    /// Tear down immediately (transport error); skip pending writes.
    dead: bool,
    /// Acceptor hand-off → shard adoption, µs; consumed by (attributed
    /// to) the connection's first span.
    accept_us: u64,
    /// When the connection was last serviced — the epoch of the next
    /// request's `loop_ready` stage. `None` while observability is off.
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
            parked: false,
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
        if !self.write_q.is_empty() {
            return false;
        }
        // Unless parked, `pump` ran to exhaustion before this check, so a
        // non-empty read_buf here is an incomplete fragment — only EOF or
        // an explicit close makes it garbage.
        self.closing || (self.read_closed && !self.parked)
    }

    /// Whether the connection wants more bytes from its socket.
    fn wants_read(&self) -> bool {
        !self.read_closed && !self.closing && !self.dead && self.read_buf.len() < MAX_READ_BUF
    }

    /// Whether this connection can make progress right now without an
    /// event (the loop shard re-waits with timeout 0 while any can — a
    /// read-budget or buffer-cap pause must not sleep on the poller,
    /// because a direction with cached readiness is not armed, so no
    /// event would come for it; nor may a parked request buffer).
    fn actionable(&self) -> bool {
        if self.dead {
            return false;
        }
        (self.can_read && self.wants_read())
            || (self.can_write && !self.write_q.is_empty())
            || (self.parked && !self.closing && !self.read_buf.is_empty())
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
    /// Work requests taken this lap, at most one per connection, in parse
    /// order (kept across laps for its allocation).
    ready: Vec<Job>,
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

    /// Parses and dispatches messages until the connection blocks: it
    /// needs more bytes, is going away, or has handed this lap its one
    /// work request (`parked`).
    fn pump(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.parked = false;
        }
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.dead || conn.closing || conn.parked {
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
        let at = Inline {
            shard: self.id,
            token,
            seq,
            id: env.id,
            wire,
            accept_us,
            loop_ready_us,
        };
        match env.req {
            // Subscriptions are admin-path too: registration is compile +
            // one engine write, and it must see the *connection* (sink,
            // owned-rule list).
            Request::Subscribe { tql } => shared.answer_admin(conn, &at, "Subscribe", |conn| {
                shared.subscribe(conn, &at, &tql)
            }),
            Request::Unsubscribe { rule_id } => {
                shared.answer_admin(conn, &at, "Unsubscribe", |conn| {
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
                    Response::Unsubscribed { existed }
                })
            }
            Request::Shutdown => {
                // Acknowledge, then drain: stop accepting, refuse new
                // work, let every shard finish what it already admitted.
                at.reply(conn, Response::ShuttingDown);
                conn.closing = true;
                shared.shutdown.store(true, Ordering::Relaxed);
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
                    at.reply(conn, Response::Error(ServerError::ShuttingDown));
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
                conn.parked = true;
                self.ready.push(Job {
                    at,
                    req,
                    batch_devices,
                    parsed: trips_obs::enabled().then(Instant::now),
                });
            }
            // Admin fast path: answered inline so liveness/health/metrics
            // stay observable even when admission is saturated.
            req => shared.answer_admin(conn, &at, req.kind(), |_| shared.admin(&req)),
        }
    }

    /// Registers sockets the acceptor dealt to this shard.
    fn adopt_incoming(&mut self) {
        // The count moves to the adopted total before the queue empties,
        // under the queue's lock, which the acceptor also holds while it
        // reads both: a shard's held connections never read as 0 between.
        let state = &self.shared.shards[self.id];
        let incoming: Vec<(TcpStream, Instant)> = {
            let mut queue = state.incoming.lock();
            state
                .connections
                .store(self.conns.len() + queue.len(), Ordering::Relaxed);
            std::mem::take(&mut *queue)
        };
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
    /// Only truly quiescent connections qualify — a parked request or
    /// unflushed output means the peer is slow, not absent.
    fn reap_idle(&mut self, timeout: Duration) {
        for conn in self.conns.values_mut() {
            if !conn.parked
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

    /// Queues pending alert pushes on their subscribers' connections.
    fn apply_pushes(&mut self) {
        let pushes: Vec<Push> = std::mem::take(&mut *self.shared.shards[self.id].pushes.lock());
        for push in pushes {
            // A subscriber that is gone, or stopped reading, gets its
            // alerts dropped rather than unbounded buffering (the rule's
            // fire counters remain the ground truth).
            match self.conns.get_mut(&push.token) {
                Some(conn) if conn.write_q.len() <= ALERT_BUF_MAX => {
                    conn.write_q.push(Chunk::Shared(push.bytes));
                    if conn.can_write {
                        conn.flush_write();
                    }
                }
                _ => {
                    self.shared
                        .alerts_dropped_late
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Admits this lap's work requests against the server-wide cap in
    /// parse order, sheds the rest with `Overloaded`, then runs the
    /// admitted ones in order.
    fn run_ready(&mut self) {
        let shared = self.shared;
        let mut ready = std::mem::take(&mut self.ready);
        ready.retain(|job| {
            if shared.admission.try_admit() {
                return true;
            }
            shared.shed.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self.conns.get_mut(&job.at.token) {
                let queue_capacity = shared.admission.capacity();
                job.at.reply(
                    conn,
                    Response::Error(ServerError::Overloaded { queue_capacity }),
                );
                if conn.can_write {
                    conn.flush_write();
                }
            }
            false
        });
        for job in ready.drain(..) {
            self.complete(job);
            shared.admission.finish();
        }
        self.ready = ready;
    }

    /// Runs one admitted request to completion: execute, apply the alerts
    /// it pushed to this shard, then encode and queue the reply.
    fn complete(&mut self, job: Job) {
        let shared = self.shared;
        let Job {
            at,
            req,
            batch_devices,
            parsed,
        } = job;
        let Some(conn) = self.conns.get(&at.token) else {
            return;
        };
        let (endpoint, kind) = (req.endpoint(), req.kind());
        if parsed.is_some() {
            // Teardowns and earlier requests on this thread fed the
            // stage accumulators too; this request's span starts clean.
            stage::take();
        }
        let started = Instant::now();
        let resp = shared.execute(req, &conn.devices);
        let exec = started.elapsed();
        shared.record(endpoint, exec);
        shared.shards[self.id].jobs.fetch_add(1, Ordering::Relaxed);
        let span = parsed.map(|p| {
            let record = shared.request_span(&at, endpoint, kind, p, started, exec);
            (p, record, Instant::now())
        });
        // Alerts this request published to its own shard's subscribers go
        // out ahead of its reply, as they were triggered before it.
        self.apply_pushes();
        let Some(conn) = self.conns.get_mut(&at.token) else {
            return;
        };
        // Only an *executed* ingest makes the session responsible for its
        // devices at teardown — a refused batch buffered nothing.
        if matches!(resp, Response::Ingested { .. }) {
            for device in batch_devices {
                if conn.devices.insert(device.clone()) {
                    *shared.sessions.lock().entry(device).or_insert(0) += 1;
                }
            }
        }
        at.reply(conn, resp);
        conn.last_activity = Instant::now();
        if conn.can_write {
            conn.flush_write();
        }
        if let Some((parsed, mut record, replying)) = span {
            record.stages_us[ST_REPLY_WRITE] = replying.elapsed().as_micros() as u64;
            record.total_us = parsed.elapsed().as_micros() as u64;
            record.unix_ms = unix_ms_now();
            shared.finish_span(self.id, record);
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
        self.shared.flush_devices(&last_refs, true);
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

    /// The shard's loop: adopt → service (read, parse, answer admin,
    /// take work) → admit and run the taken work → sweep → apply alert
    /// pushes → wait. Returns when the server drains (or on a poller
    /// error).
    fn run(&mut self) -> io::Result<()> {
        let state = &self.shared.shards[self.id];
        LOOP_SHARD.set(state.addr());
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
        let mut lap = 0usize;
        loop {
            // Drain the waker *before* reading the work it signals, so a
            // signal arriving mid-iteration leaves a wake pending rather
            // than being swallowed.
            state.waker.drain();
            self.adopt_incoming();

            // Each lap starts its reads one connection further on, so the
            // requests admitted first under overload rotate among them.
            let mut tokens: Vec<u64> = self.conns.keys().copied().collect();
            let start = lap % tokens.len().max(1);
            tokens.rotate_left(start);
            lap = lap.wrapping_add(1);
            for token in tokens {
                self.service(token);
            }
            self.run_ready();
            if let (Some(timeout), Some(due)) = (self.shared.idle_timeout, next_reap) {
                if Instant::now() >= due {
                    next_reap = reap_period.map(|p| Instant::now() + p);
                    self.reap_idle(timeout);
                }
            }
            let any_left = self.sweep();
            // After the sweep, so alerts that teardowns on this thread
            // published are not left waiting for a wake that never comes.
            self.apply_pushes();

            if self.shared.draining() {
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                // Stop parsing new work everywhere; buffered responses
                // still settle.
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
            // a write, or parked with more buffered) can progress without
            // an event — do not sleep on it.
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
                            let queued = s.incoming.lock();
                            let held = s.connections.load(Ordering::Relaxed) + queued.len();
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
        let body = metrics::render(&shared.snapshot());
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

    /// The effective standing-rule cap (resolves `0` → default).
    pub fn max_rules(&self) -> usize {
        if self.config.max_rules == 0 {
            trips_store::DEFAULT_RULE_LIMIT
        } else {
            self.config.max_rules
        }
    }

    /// Serves `listener` until a `Shutdown` request drains the loops.
    /// Blocks; all loop-shard threads are scoped inside this call (the
    /// calling thread runs the acceptor).
    pub fn serve(&self, listener: TcpListener) -> io::Result<ServerReport> {
        listener.set_nonblocking(true)?;
        let loop_shards = self.loop_shards();

        // Build every fallible resource before any thread starts: one
        // poller + waker per loop shard, and the translator core (the
        // event model is trained once per serve).
        let mut pollers = Vec::with_capacity(loop_shards);
        let mut shard_states = Vec::with_capacity(loop_shards);
        for _ in 0..loop_shards {
            pollers.push(Poller::new());
            shard_states.push(Arc::new(ShardState {
                pushes: parking_lot::Mutex::new(Vec::new()),
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
        let core = TranslatorCore::new(&self.dsm, model, labels, None, &self.config.stream)
            .map_err(|e| invalid(&e))?
            .with_store(self.store.clone());

        let shared = Shared {
            core,
            buffers: (0..self.store.shard_count())
                .map(|_| parking_lot::Mutex::new(DeviceBuffers::new()))
                .collect(),
            store: self.store.clone(),
            admission: Admission::new(self.config.queue_capacity),
            shards: shard_states,
            next_token: AtomicU64::new(0),
            sessions: parking_lot::Mutex::new(BTreeMap::new()),
            snapshot_root: self.config.snapshot_root.clone(),
            recovery: self.recovery.clone(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            started: Instant::now(),
            ingest_hist: Histogram::new(),
            query_hist: Histogram::new(),
            admin_hist: Histogram::new(),
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
                        ready: Vec::new(),
                    };
                    let result = shard.run();
                    if result.is_err() {
                        // A dying shard must still let everyone else
                        // drain: flag shutdown, wake the other shards (the
                        // acceptor notices the flag).
                        shared.shutdown.store(true, Ordering::Relaxed);
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
            match loop_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })?;

        // Every thread has joined. Publish any still-buffered sessions so
        // nothing ingested is lost (journaling them on a durable store),
        // flush the tail of any fsync window, then report.
        shared.finish_all();
        let _ = self.store.sync_wal();
        Ok(ServerReport::from(&shared.snapshot()))
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
        let t = trips_store::default_shard_count();
        assert!(t.is_power_of_two());
        assert!((4..=64).contains(&t));
    }
}
