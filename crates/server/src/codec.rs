//! Wire protocol **v2**: length-prefixed, CRC-framed binary frames.
//!
//! NDJSON (v1) spends most of its ingest budget on JSON: every record is
//! re-parsed from text, every float printed and re-read. v2 reuses the
//! compact `WalOp`-style encoding the durability layer already proved out
//! (`trips-store`'s checkpoint/WAL codec): strings are `len u32 le | utf8`,
//! floats are raw IEEE-754 bits, integers are fixed-width little-endian.
//!
//! ## Frame layout
//!
//! ```text
//! +--------+---------+----------------+-------------+=================+
//! | magic  | version | payload_len    | crc32c      |  payload        |
//! | 0xF2   | 0x02    | u32 le         | u32 le      |  (payload_len)  |
//! +--------+---------+----------------+-------------+=================+
//!                                                    \_ id u64 le | tag u8 | body
//! ```
//!
//! The CRC (same CRC-32C as the WAL frames, [`trips_wal::crc32`]) covers
//! the payload only. `payload_len` is capped at [`MAX_FRAME_PAYLOAD`];
//! anything larger is a fatal framing error — the connection cannot be
//! resynchronized and is closed.
//!
//! ## Negotiation
//!
//! There is no handshake: framing is detected **per message**. A message
//! starting with [`FRAME_MAGIC`] is a v2 frame; anything else must be a
//! v1 NDJSON line (they can never collide — 0xF2 is not valid leading
//! UTF-8 for a JSON document). The server answers in the framing the
//! request arrived in, so one connection may mix versions and a v1-only
//! client never sees a byte of v2.
//!
//! ## Error taxonomy
//!
//! [`FrameError`] distinguishes *fatal* framing errors (bad magic / CRC
//! mismatch / oversized / unknown frame version — the stream position is
//! unrecoverable, the server replies with a typed error and closes) from
//! [`FrameError::Malformed`] (the frame was delimited and checksummed
//! correctly but its body does not decode — the server consumes exactly
//! that frame, answers `BadRequest` with the frame's id, and keeps the
//! connection).
//!
//! Hot paths (ingest, flush, query) are fully binary. The cold admin
//! reports ([`Response::Health`] / [`Response::Metrics`]) are carried as
//! embedded JSON documents inside the binary frame: they are rare,
//! analyst-facing, and their schema grows every PR — pinning their field
//! order into the binary codec would buy nothing but churn.

use crate::protocol::{
    HealthReport, MetricsReport, Request, RequestEnvelope, Response, ResponseEnvelope, ServerError,
};
use std::fmt;
use trips_data::{DeviceId, Duration, RawRecord, Timestamp};
use trips_dsm::RegionId;
use trips_store::{
    Alert, DeviceSummary, Flow, Query, QueryRequest, QueryResult, RegionPopularity, RuleTrace,
    SemanticsSelector, StoreStats,
};
use trips_wal::crc32;

/// First byte of every v2 frame. Never valid leading UTF-8, so a v2 frame
/// can never be mistaken for an NDJSON line (or vice versa).
pub const FRAME_MAGIC: u8 = 0xF2;

/// Frame-format version byte (the envelope `v` of the binary protocol).
pub const FRAME_VERSION: u8 = 2;

/// Fixed frame header size: magic, version, payload length, CRC.
pub const HEADER_LEN: usize = 10;

/// Upper bound on a single frame's payload. Mirrors the NDJSON line cap:
/// large enough for a many-thousand-record ingest batch or a full
/// semantics dump, small enough that a corrupt length prefix cannot make
/// the server buffer gigabytes.
pub const MAX_FRAME_PAYLOAD: usize = 32 * 1024 * 1024;

/// Why a byte sequence failed to decode as a v2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// First byte was not [`FRAME_MAGIC`] — this is not a v2 frame.
    BadMagic { got: u8 },
    /// Unknown frame-format version; fatal (future versions may change
    /// the header layout, so we cannot even skip the frame).
    UnsupportedVersion { got: u8 },
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`]; fatal.
    TooLarge { len: usize, max: usize },
    /// Payload checksum mismatch; fatal (the stream may be torn anywhere).
    BadCrc,
    /// The frame was well-delimited (header + CRC valid) but the body does
    /// not decode. Recoverable: consume `consumed` bytes, answer
    /// `BadRequest` echoing `id`, keep the connection.
    Malformed {
        id: u64,
        /// Total frame size (header + payload) to consume to resync.
        consumed: usize,
        message: String,
    },
}

impl FrameError {
    /// Whether the connection can survive this error (only body-level
    /// [`FrameError::Malformed`] — everything else loses framing).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, FrameError::Malformed { .. })
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { got } => write!(f, "bad frame magic {got:#04x}"),
            FrameError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported frame version {got} (expected {FRAME_VERSION})"
                )
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload {len} bytes exceeds cap {max}")
            }
            FrameError::BadCrc => write!(f, "frame payload failed CRC check"),
            FrameError::Malformed { id, message, .. } => {
                write!(f, "malformed frame body (id {id}): {message}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

// ---------------------------------------------------------------------------
// Tag tables — pinned; append-only. Changing an existing tag is a protocol
// break and fails the golden-bytes test.
// ---------------------------------------------------------------------------

mod req_tag {
    pub const PING: u8 = 0;
    pub const INGEST: u8 = 1;
    pub const FLUSH: u8 = 2;
    pub const QUERY: u8 = 3;
    pub const HEALTH: u8 = 4;
    pub const METRICS: u8 = 5;
    pub const SNAPSHOT: u8 = 6;
    pub const SHUTDOWN: u8 = 7;
    pub const SUBSCRIBE: u8 = 8;
    pub const UNSUBSCRIBE: u8 = 9;
    pub const LIST_RULES: u8 = 10;
    pub const METRICS_PROM: u8 = 11;
    pub const TRACE_DUMP: u8 = 12;
    pub const SLOW_LOG: u8 = 13;
}

mod resp_tag {
    pub const PONG: u8 = 0;
    pub const INGESTED: u8 = 1;
    pub const FLUSHED: u8 = 2;
    pub const QUERY: u8 = 3;
    pub const HEALTH: u8 = 4;
    pub const METRICS: u8 = 5;
    pub const SNAPSHOT_SAVED: u8 = 6;
    pub const SHUTTING_DOWN: u8 = 7;
    pub const ERROR: u8 = 8;
    pub const SUBSCRIBED: u8 = 9;
    pub const UNSUBSCRIBED: u8 = 10;
    pub const RULES: u8 = 11;
    pub const ALERT: u8 = 12;
    pub const METRICS_PROM: u8 = 13;
    pub const TRACES: u8 = 14;
    pub const SLOW_LOG: u8 = 15;
}

mod query_tag {
    pub const POPULAR_REGIONS: u8 = 0;
    pub const TOP_FLOWS: u8 = 1;
    pub const DWELL_HISTOGRAM: u8 = 2;
    pub const DEVICE_SUMMARIES: u8 = 3;
    pub const SEMANTICS: u8 = 4;
    pub const STATS: u8 = 5;
}

mod err_tag {
    pub const OVERLOADED: u8 = 0;
    pub const TOO_MANY_CONNECTIONS: u8 = 1;
    pub const BAD_REQUEST: u8 = 2;
    pub const UNSUPPORTED_VERSION: u8 = 3;
    pub const SHUTTING_DOWN: u8 = 4;
    pub const INTERNAL: u8 = 5;
}

// Selector presence bitmask (Query body).
const SEL_PATTERN: u8 = 1 << 0;
const SEL_REGION: u8 = 1 << 1;
const SEL_EVENT: u8 = 1 << 2;
const SEL_RANGE: u8 = 1 << 3;

// ---------------------------------------------------------------------------
// Byte sink / bounds-checked reader (the durability codec's shape).
// ---------------------------------------------------------------------------

struct Buf {
    out: Vec<u8>,
}

impl Buf {
    fn new() -> Self {
        Buf { out: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn i16(&mut self, v: i16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }

    /// `count u32` prefix for a sequence.
    fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, String>;

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| format!("truncated body: need {n} bytes at offset {}", self.pos))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn i16(&mut self) -> DecodeResult<i16> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Borrows a length-prefixed string straight out of the payload —
    /// the zero-copy ingest path reads device ids this way, so a record's
    /// decode allocates nothing.
    fn str_ref(&mut self) -> DecodeResult<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| "string is not UTF-8".to_string())
    }

    fn str(&mut self) -> DecodeResult<String> {
        Ok(self.str_ref()?.to_string())
    }

    fn usize_count(&mut self) -> DecodeResult<usize> {
        Ok(self.u32()? as usize)
    }

    fn done(&self) -> DecodeResult<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(format!(
                "trailing garbage: {} bytes after body",
                self.data.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Parses a frame header. `Ok(None)` means fewer than [`HEADER_LEN`] bytes
/// are available yet. On success returns `(payload_len, crc)`.
pub fn parse_header(buf: &[u8]) -> Result<Option<(usize, u32)>, FrameError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != FRAME_MAGIC {
        return Err(FrameError::BadMagic { got: buf[0] });
    }
    if buf.len() < 2 {
        return Ok(None);
    }
    if buf[1] != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion { got: buf[1] });
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[2..6].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let crc = u32::from_le_bytes(buf[6..10].try_into().unwrap());
    Ok(Some((len, crc)))
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Splits one complete, CRC-checked frame off the front of `buf`:
/// `Ok(None)` while it is incomplete, else its payload and the whole
/// frame's size (header included).
fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some((len, crc)) = parse_header(buf)? else {
        return Ok(None);
    };
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[HEADER_LEN..total];
    check_crc(payload, crc)?;
    Ok(Some((payload, total)))
}

/// Verifies the CRC of a complete payload slice against its header value.
pub fn check_crc(payload: &[u8], crc: u32) -> Result<(), FrameError> {
    if crc32(payload) == crc {
        Ok(())
    } else {
        Err(FrameError::BadCrc)
    }
}

// ---------------------------------------------------------------------------
// Request encode/decode
// ---------------------------------------------------------------------------

fn encode_selector(b: &mut Buf, sel: &SemanticsSelector) {
    let mut flags = 0u8;
    if sel.device_pattern.is_some() {
        flags |= SEL_PATTERN;
    }
    if sel.region.is_some() {
        flags |= SEL_REGION;
    }
    if sel.event.is_some() {
        flags |= SEL_EVENT;
    }
    if sel.range.is_some() {
        flags |= SEL_RANGE;
    }
    b.u8(flags);
    if let Some(p) = &sel.device_pattern {
        b.str(p);
    }
    if let Some(r) = sel.region {
        b.u32(r.0);
    }
    if let Some(e) = &sel.event {
        b.str(e);
    }
    if let Some((from, to)) = sel.range {
        b.i64(from.0);
        b.i64(to.0);
    }
}

fn decode_selector(r: &mut Reader) -> DecodeResult<SemanticsSelector> {
    let flags = r.u8()?;
    if flags & !(SEL_PATTERN | SEL_REGION | SEL_EVENT | SEL_RANGE) != 0 {
        return Err(format!("unknown selector flags {flags:#04x}"));
    }
    let mut sel = SemanticsSelector::all();
    if flags & SEL_PATTERN != 0 {
        sel.device_pattern = Some(r.str()?);
    }
    if flags & SEL_REGION != 0 {
        sel.region = Some(RegionId(r.u32()?));
    }
    if flags & SEL_EVENT != 0 {
        sel.event = Some(r.str()?);
    }
    if flags & SEL_RANGE != 0 {
        let from = Timestamp(r.i64()?);
        let to = Timestamp(r.i64()?);
        sel.range = Some((from, to));
    }
    Ok(sel)
}

fn encode_query(b: &mut Buf, q: &Query) {
    match q {
        Query::PopularRegions => b.u8(query_tag::POPULAR_REGIONS),
        Query::TopFlows { limit } => {
            b.u8(query_tag::TOP_FLOWS);
            b.u64(*limit as u64);
        }
        Query::DwellHistogram { bucket } => {
            b.u8(query_tag::DWELL_HISTOGRAM);
            b.i64(bucket.0);
        }
        Query::DeviceSummaries => b.u8(query_tag::DEVICE_SUMMARIES),
        Query::Semantics => b.u8(query_tag::SEMANTICS),
        Query::Stats => b.u8(query_tag::STATS),
    }
}

fn decode_query(r: &mut Reader) -> DecodeResult<Query> {
    match r.u8()? {
        query_tag::POPULAR_REGIONS => Ok(Query::PopularRegions),
        query_tag::TOP_FLOWS => Ok(Query::TopFlows {
            limit: r.u64()? as usize,
        }),
        query_tag::DWELL_HISTOGRAM => Ok(Query::DwellHistogram {
            bucket: Duration(r.i64()?),
        }),
        query_tag::DEVICE_SUMMARIES => Ok(Query::DeviceSummaries),
        query_tag::SEMANTICS => Ok(Query::Semantics),
        query_tag::STATS => Ok(Query::Stats),
        other => Err(format!("unknown query tag {other}")),
    }
}

fn encode_request_payload(env: &RequestEnvelope) -> Vec<u8> {
    let mut b = Buf::new();
    b.u64(env.id);
    match &env.req {
        Request::Ping => b.u8(req_tag::PING),
        Request::Ingest { records } => {
            b.u8(req_tag::INGEST);
            b.count(records.len());
            for rec in records {
                b.str(rec.device.as_str());
                b.f64(rec.location.xy.x);
                b.f64(rec.location.xy.y);
                b.i16(rec.location.floor);
                b.i64(rec.ts.0);
            }
        }
        Request::Flush { device } => {
            b.u8(req_tag::FLUSH);
            match device {
                None => b.u8(0),
                Some(d) => {
                    b.u8(1);
                    b.str(d);
                }
            }
        }
        Request::Query { request } => {
            b.u8(req_tag::QUERY);
            encode_selector(&mut b, &request.selector);
            encode_query(&mut b, &request.query);
        }
        Request::Health => b.u8(req_tag::HEALTH),
        Request::Metrics => b.u8(req_tag::METRICS),
        Request::Snapshot { path } => {
            b.u8(req_tag::SNAPSHOT);
            b.str(path);
        }
        Request::Shutdown => b.u8(req_tag::SHUTDOWN),
        Request::Subscribe { tql } => {
            b.u8(req_tag::SUBSCRIBE);
            b.str(tql);
        }
        Request::Unsubscribe { rule_id } => {
            b.u8(req_tag::UNSUBSCRIBE);
            b.u64(*rule_id);
        }
        Request::ListRules => b.u8(req_tag::LIST_RULES),
        Request::MetricsProm => b.u8(req_tag::METRICS_PROM),
        Request::TraceDump { limit } => {
            b.u8(req_tag::TRACE_DUMP);
            match limit {
                None => b.u8(0),
                Some(n) => {
                    b.u8(1);
                    b.u64(*n as u64);
                }
            }
        }
        Request::SlowLog { limit } => {
            b.u8(req_tag::SLOW_LOG);
            match limit {
                None => b.u8(0),
                Some(n) => {
                    b.u8(1);
                    b.u64(*n as u64);
                }
            }
        }
    }
    b.out
}

/// Encodes a request envelope as one complete v2 frame.
pub fn encode_request_frame(env: &RequestEnvelope) -> Vec<u8> {
    frame(encode_request_payload(env))
}

/// Tries to decode one request frame from the front of `buf`.
///
/// * `Ok(None)` — the frame is incomplete; read more bytes.
/// * `Ok(Some((env, consumed)))` — a full frame decoded; drop `consumed`
///   bytes from the front of the buffer.
/// * `Err(e)` — see [`FrameError::is_recoverable`].
///
/// This is [`decode_request_frame_ref`] with an `Ingest` batch's borrowed
/// records materialized, so both decoders share one parser.
pub fn decode_request_frame(buf: &[u8]) -> Result<Option<(RequestEnvelope, usize)>, FrameError> {
    Ok(decode_request_frame_ref(buf)?.map(|(frame, consumed)| (frame.into_owned(), consumed)))
}

// ---------------------------------------------------------------------------
// Zero-copy ingest decode
// ---------------------------------------------------------------------------

/// One ingest record parsed *in place* from a v2 frame payload: the device
/// id borrows the connection's read buffer instead of allocating a
/// `String`, and the scalars are copied out of their fixed-width fields.
///
/// This is the borrowed twin of [`trips_data::RawRecord`]; the server
/// resolves `device` against a per-connection intern table and only then
/// materializes the owned record handed to the translator. Views never
/// outlive one parse step — the buffer they borrow is consumed as soon as
/// the frame is dispatched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawRecordRef<'a> {
    /// Raw device id, borrowed from the frame payload (validated UTF-8).
    pub device: &'a str,
    /// X coordinate (meters, deployment frame).
    pub x: f64,
    /// Y coordinate (meters, deployment frame).
    pub y: f64,
    /// Floor number.
    pub floor: i16,
    /// Sample timestamp (the raw `i64` of a [`Timestamp`]).
    pub ts: i64,
}

impl RawRecordRef<'_> {
    /// Materializes the owned record (allocates the device id) — how
    /// [`decode_request_frame`] produces its owned batch. The serving path
    /// avoids this in favor of its per-connection intern table.
    pub fn to_record(&self) -> RawRecord {
        RawRecord::new(
            DeviceId::new(self.device),
            self.x,
            self.y,
            self.floor,
            Timestamp(self.ts),
        )
    }
}

/// A v2 `Ingest` frame decoded zero-copy: the correlation id plus record
/// views borrowing the frame payload.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestFrameRef<'a> {
    /// Envelope correlation id.
    pub id: u64,
    /// The batch, parsed in place.
    pub records: Vec<RawRecordRef<'a>>,
}

/// One decoded request frame, borrowed where it pays.
///
/// `Ingest` is the hot path — per-record strings dominate its decode cost,
/// so it parses into [`RawRecordRef`] views. Every other request decodes
/// through the owned path (they are rare, small, or both).
#[derive(Debug, PartialEq)]
pub enum RequestFrameRef<'a> {
    /// A v2 `Ingest`, parsed in place.
    Ingest(IngestFrameRef<'a>),
    /// Any other request, decoded to its owned form.
    Owned(RequestEnvelope),
}

impl RequestFrameRef<'_> {
    /// The owned envelope: an `Ingest` view's records materialized.
    fn into_owned(self) -> RequestEnvelope {
        match self {
            RequestFrameRef::Ingest(view) => RequestEnvelope {
                v: FRAME_VERSION as u32,
                id: view.id,
                req: Request::Ingest {
                    records: view.records.iter().map(RawRecordRef::to_record).collect(),
                },
            },
            RequestFrameRef::Owned(env) => env,
        }
    }
}

/// Parses the body of an `INGEST` payload (tag already consumed) into
/// borrowed views. The pre-allocation is clamped by the bytes actually
/// remaining, so a lying record count cannot balloon memory.
fn decode_ingest_records<'a>(r: &mut Reader<'a>) -> DecodeResult<Vec<RawRecordRef<'a>>> {
    /// Minimum encoded record size: device len prefix + x + y + floor + ts.
    const MIN_RECORD_BYTES: usize = 4 + 8 + 8 + 2 + 8;
    let count = r.usize_count()?;
    let remaining = r.data.len() - r.pos;
    let mut records = Vec::with_capacity(count.min(remaining / MIN_RECORD_BYTES));
    for _ in 0..count {
        let device = r.str_ref()?;
        let x = r.f64()?;
        let y = r.f64()?;
        let floor = r.i16()?;
        let ts = r.i64()?;
        records.push(RawRecordRef {
            device,
            x,
            y,
            floor,
            ts,
        });
    }
    r.done()?;
    Ok(records)
}

/// Parses a request body (id already consumed): `Ingest` into borrowed
/// record views, everything else into its owned form.
fn decode_request_body<'a>(r: &mut Reader<'a>, id: u64) -> DecodeResult<RequestFrameRef<'a>> {
    let req = match r.u8()? {
        req_tag::INGEST => {
            let records = decode_ingest_records(r)?;
            return Ok(RequestFrameRef::Ingest(IngestFrameRef { id, records }));
        }
        req_tag::PING => Request::Ping,
        req_tag::FLUSH => {
            let device = match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                other => return Err(format!("bad flush flag {other}")),
            };
            Request::Flush { device }
        }
        req_tag::QUERY => {
            let selector = decode_selector(r)?;
            let query = decode_query(r)?;
            Request::Query {
                request: QueryRequest::new(selector, query),
            }
        }
        req_tag::HEALTH => Request::Health,
        req_tag::METRICS => Request::Metrics,
        req_tag::SNAPSHOT => Request::Snapshot { path: r.str()? },
        req_tag::SHUTDOWN => Request::Shutdown,
        req_tag::SUBSCRIBE => Request::Subscribe { tql: r.str()? },
        req_tag::UNSUBSCRIBE => Request::Unsubscribe { rule_id: r.u64()? },
        req_tag::LIST_RULES => Request::ListRules,
        req_tag::METRICS_PROM => Request::MetricsProm,
        req_tag::TRACE_DUMP => {
            let limit = match r.u8()? {
                0 => None,
                1 => Some(r.u64()? as usize),
                other => return Err(format!("bad trace-dump limit flag {other}")),
            };
            Request::TraceDump { limit }
        }
        req_tag::SLOW_LOG => {
            let limit = match r.u8()? {
                0 => None,
                1 => Some(r.u64()? as usize),
                other => return Err(format!("bad slow-log limit flag {other}")),
            };
            Request::SlowLog { limit }
        }
        other => return Err(format!("unknown request tag {other}")),
    };
    r.done()?;
    Ok(RequestFrameRef::Owned(RequestEnvelope {
        v: FRAME_VERSION as u32,
        id,
        req,
    }))
}

/// The zero-copy twin of [`decode_request_frame`]: same contract, same
/// [`FrameError`] taxonomy, same consumed count — but an `Ingest` frame
/// comes back as borrowed [`RawRecordRef`] views instead of owned records.
/// On every input, `Ingest(view)` here and `Request::Ingest { records }`
/// from the owned decode describe the same records (the interop and
/// property tests pin this).
pub fn decode_request_frame_ref(
    buf: &[u8],
) -> Result<Option<(RequestFrameRef<'_>, usize)>, FrameError> {
    let Some((payload, total)) = split_frame(buf)? else {
        return Ok(None);
    };
    let malformed = |id| {
        move |message| FrameError::Malformed {
            id,
            consumed: total,
            message,
        }
    };
    let mut r = Reader::new(payload);
    let id = r.u64().map_err(malformed(0))?;
    let frame = decode_request_body(&mut r, id).map_err(malformed(id))?;
    Ok(Some((frame, total)))
}

/// Encodes a pushed alert (correlation id 0) as one complete v2 frame,
/// straight from the borrowed alert — byte-identical to framing
/// `Response::Alert(alert.clone())`, without the clone. The server's
/// fan-out path encodes each alert once this way and refcounts the bytes
/// across subscriber write queues.
pub fn encode_alert_frame(alert: &Alert) -> Vec<u8> {
    let mut b = Buf::new();
    b.u64(0);
    b.u8(resp_tag::ALERT);
    b.str(&serde_json::to_string(alert).expect("alerts always serialize"));
    frame(b.out)
}

// ---------------------------------------------------------------------------
// Response encode/decode
// ---------------------------------------------------------------------------

fn encode_error(b: &mut Buf, err: &ServerError) {
    match err {
        ServerError::Overloaded { queue_capacity } => {
            b.u8(err_tag::OVERLOADED);
            b.u64(*queue_capacity as u64);
        }
        ServerError::TooManyConnections { limit } => {
            b.u8(err_tag::TOO_MANY_CONNECTIONS);
            b.u64(*limit as u64);
        }
        ServerError::BadRequest { message } => {
            b.u8(err_tag::BAD_REQUEST);
            b.str(message);
        }
        ServerError::UnsupportedVersion { got, want } => {
            b.u8(err_tag::UNSUPPORTED_VERSION);
            b.u32(*got);
            b.u32(*want);
        }
        ServerError::ShuttingDown => b.u8(err_tag::SHUTTING_DOWN),
        ServerError::Internal { message } => {
            b.u8(err_tag::INTERNAL);
            b.str(message);
        }
    }
}

fn decode_error(r: &mut Reader) -> DecodeResult<ServerError> {
    Ok(match r.u8()? {
        err_tag::OVERLOADED => ServerError::Overloaded {
            queue_capacity: r.u64()? as usize,
        },
        err_tag::TOO_MANY_CONNECTIONS => ServerError::TooManyConnections {
            limit: r.u64()? as usize,
        },
        err_tag::BAD_REQUEST => ServerError::BadRequest { message: r.str()? },
        err_tag::UNSUPPORTED_VERSION => ServerError::UnsupportedVersion {
            got: r.u32()?,
            want: r.u32()?,
        },
        err_tag::SHUTTING_DOWN => ServerError::ShuttingDown,
        err_tag::INTERNAL => ServerError::Internal { message: r.str()? },
        other => return Err(format!("unknown error tag {other}")),
    })
}

fn encode_result(b: &mut Buf, result: &QueryResult) {
    match result {
        QueryResult::PopularRegions(rows) => {
            b.u8(query_tag::POPULAR_REGIONS);
            b.count(rows.len());
            for row in rows {
                b.u32(row.region.0);
                b.str(&row.region_name);
                b.u64(row.stays as u64);
                b.u64(row.pass_bys as u64);
                b.u64(row.unique_stayers as u64);
                b.i64(row.total_dwell.0);
            }
        }
        QueryResult::Flows(rows) => {
            b.u8(query_tag::TOP_FLOWS);
            b.count(rows.len());
            for row in rows {
                b.u32(row.from.0);
                b.str(&row.from_name);
                b.u32(row.to.0);
                b.str(&row.to_name);
                b.u64(row.count as u64);
            }
        }
        QueryResult::DwellHistogram(rows) => {
            b.u8(query_tag::DWELL_HISTOGRAM);
            b.count(rows.len());
            for (bucket, count) in rows {
                b.i64(bucket.0);
                b.u64(*count as u64);
            }
        }
        QueryResult::DeviceSummaries(rows) => {
            b.u8(query_tag::DEVICE_SUMMARIES);
            b.count(rows.len());
            for (device, summary) in rows {
                b.str(device.as_str());
                b.str(&summary.device);
                b.u64(summary.regions_visited as u64);
                b.u64(summary.stays as u64);
                b.i64(summary.accounted.0);
            }
        }
        QueryResult::Semantics(rows) => {
            b.u8(query_tag::SEMANTICS);
            b.count(rows.len());
            for s in rows {
                b.str(s.device.as_str());
                b.str(&s.event);
                b.u32(s.region.0);
                b.str(&s.region_name);
                b.i64(s.start.0);
                b.i64(s.end.0);
                b.u8(s.inferred as u8);
                match &s.display_point {
                    None => b.u8(0),
                    Some(p) => {
                        b.u8(1);
                        b.f64(p.xy.x);
                        b.f64(p.xy.y);
                        b.i16(p.floor);
                    }
                }
            }
        }
        QueryResult::Stats(stats) => {
            b.u8(query_tag::STATS);
            b.u64(stats.shards as u64);
            b.u64(stats.devices as u64);
            b.u64(stats.semantics as u64);
            b.u64(stats.regions as u64);
            b.count(stats.devices_per_shard.len());
            for n in &stats.devices_per_shard {
                b.u64(*n as u64);
            }
        }
    }
}

fn decode_result(r: &mut Reader) -> DecodeResult<QueryResult> {
    Ok(match r.u8()? {
        query_tag::POPULAR_REGIONS => {
            let count = r.usize_count()?;
            let mut rows = Vec::new();
            for _ in 0..count {
                rows.push(RegionPopularity {
                    region: RegionId(r.u32()?),
                    region_name: r.str()?,
                    stays: r.u64()? as usize,
                    pass_bys: r.u64()? as usize,
                    unique_stayers: r.u64()? as usize,
                    total_dwell: Duration(r.i64()?),
                });
            }
            QueryResult::PopularRegions(rows)
        }
        query_tag::TOP_FLOWS => {
            let count = r.usize_count()?;
            let mut rows = Vec::new();
            for _ in 0..count {
                rows.push(Flow {
                    from: RegionId(r.u32()?),
                    from_name: r.str()?,
                    to: RegionId(r.u32()?),
                    to_name: r.str()?,
                    count: r.u64()? as usize,
                });
            }
            QueryResult::Flows(rows)
        }
        query_tag::DWELL_HISTOGRAM => {
            let count = r.usize_count()?;
            let mut rows = Vec::new();
            for _ in 0..count {
                let bucket = Duration(r.i64()?);
                let n = r.u64()? as usize;
                rows.push((bucket, n));
            }
            QueryResult::DwellHistogram(rows)
        }
        query_tag::DEVICE_SUMMARIES => {
            let count = r.usize_count()?;
            let mut rows = Vec::new();
            for _ in 0..count {
                let device = DeviceId::new(&r.str()?);
                let summary = DeviceSummary {
                    device: r.str()?,
                    regions_visited: r.u64()? as usize,
                    stays: r.u64()? as usize,
                    accounted: Duration(r.i64()?),
                };
                rows.push((device, summary));
            }
            QueryResult::DeviceSummaries(rows)
        }
        query_tag::SEMANTICS => {
            let count = r.usize_count()?;
            let mut rows = Vec::new();
            for _ in 0..count {
                let device = DeviceId::new(&r.str()?);
                let event = r.str()?;
                let region = RegionId(r.u32()?);
                let region_name = r.str()?;
                let start = Timestamp(r.i64()?);
                let end = Timestamp(r.i64()?);
                let inferred = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("bad inferred flag {other}")),
                };
                let display_point = match r.u8()? {
                    0 => None,
                    1 => {
                        let x = r.f64()?;
                        let y = r.f64()?;
                        let floor = r.i16()?;
                        Some(trips_geom::IndoorPoint::new(x, y, floor))
                    }
                    other => return Err(format!("bad display-point flag {other}")),
                };
                rows.push(trips_annotate::MobilitySemantics {
                    device,
                    event,
                    region,
                    region_name,
                    start,
                    end,
                    inferred,
                    display_point,
                });
            }
            QueryResult::Semantics(rows)
        }
        query_tag::STATS => {
            let shards = r.u64()? as usize;
            let devices = r.u64()? as usize;
            let semantics = r.u64()? as usize;
            let regions = r.u64()? as usize;
            let count = r.usize_count()?;
            let mut devices_per_shard = Vec::new();
            for _ in 0..count {
                devices_per_shard.push(r.u64()? as usize);
            }
            QueryResult::Stats(StoreStats {
                shards,
                devices,
                semantics,
                regions,
                devices_per_shard,
            })
        }
        other => return Err(format!("unknown result tag {other}")),
    })
}

fn encode_response_payload(env: &ResponseEnvelope) -> Vec<u8> {
    let mut b = Buf::new();
    b.u64(env.id);
    match &env.resp {
        Response::Pong => b.u8(resp_tag::PONG),
        Response::Ingested {
            accepted,
            rejected,
            emitted,
        } => {
            b.u8(resp_tag::INGESTED);
            b.u64(*accepted as u64);
            b.u64(*rejected as u64);
            b.u64(*emitted as u64);
        }
        Response::Flushed { devices, emitted } => {
            b.u8(resp_tag::FLUSHED);
            b.u64(*devices as u64);
            b.u64(*emitted as u64);
        }
        Response::Query { result } => {
            b.u8(resp_tag::QUERY);
            encode_result(&mut b, result);
        }
        Response::Health(report) => {
            b.u8(resp_tag::HEALTH);
            b.str(&serde_json::to_string(report).expect("health reports always serialize"));
        }
        Response::Metrics(report) => {
            b.u8(resp_tag::METRICS);
            b.str(&serde_json::to_string(report).expect("metrics reports always serialize"));
        }
        Response::SnapshotSaved {
            path,
            devices,
            semantics,
        } => {
            b.u8(resp_tag::SNAPSHOT_SAVED);
            b.str(path);
            b.u64(*devices as u64);
            b.u64(*semantics as u64);
        }
        Response::ShuttingDown => b.u8(resp_tag::SHUTTING_DOWN),
        Response::Subscribed { rule_id, name } => {
            b.u8(resp_tag::SUBSCRIBED);
            b.u64(*rule_id);
            b.str(name);
        }
        Response::Unsubscribed { existed } => {
            b.u8(resp_tag::UNSUBSCRIBED);
            b.u8(*existed as u8);
        }
        // Rule traces and alerts ride as embedded JSON like the admin
        // reports: traces are cold, and alert volume is bounded by rule
        // fire rates, not ingest rates.
        Response::Rules { rules } => {
            b.u8(resp_tag::RULES);
            b.str(&serde_json::to_string(rules).expect("rule traces always serialize"));
        }
        Response::Alert(alert) => {
            b.u8(resp_tag::ALERT);
            b.str(&serde_json::to_string(alert).expect("alerts always serialize"));
        }
        // Prometheus text is already a serialized document; span dumps are
        // cold admin reads whose schema (like the reports above) grows —
        // both ride as embedded strings/JSON.
        Response::MetricsProm { text } => {
            b.u8(resp_tag::METRICS_PROM);
            b.str(text);
        }
        Response::Traces { spans } => {
            b.u8(resp_tag::TRACES);
            b.str(&serde_json::to_string(spans).expect("span records always serialize"));
        }
        Response::SlowLog {
            threshold_us,
            evicted,
            spans,
        } => {
            b.u8(resp_tag::SLOW_LOG);
            b.u64(*threshold_us);
            b.u64(*evicted);
            b.str(&serde_json::to_string(spans).expect("span records always serialize"));
        }
        Response::Error(err) => {
            b.u8(resp_tag::ERROR);
            encode_error(&mut b, err);
        }
    }
    b.out
}

/// Encodes a response envelope as one complete v2 frame.
pub fn encode_response_frame(env: &ResponseEnvelope) -> Vec<u8> {
    frame(encode_response_payload(env))
}

fn decode_response_payload_inner(r: &mut Reader) -> DecodeResult<Response> {
    let resp = match r.u8()? {
        resp_tag::PONG => Response::Pong,
        resp_tag::INGESTED => Response::Ingested {
            accepted: r.u64()? as usize,
            rejected: r.u64()? as usize,
            emitted: r.u64()? as usize,
        },
        resp_tag::FLUSHED => Response::Flushed {
            devices: r.u64()? as usize,
            emitted: r.u64()? as usize,
        },
        resp_tag::QUERY => Response::Query {
            result: decode_result(r)?,
        },
        resp_tag::HEALTH => {
            let json = r.str()?;
            let report: HealthReport =
                serde_json::from_str(&json).map_err(|e| format!("embedded health report: {e}"))?;
            Response::Health(report)
        }
        resp_tag::METRICS => {
            let json = r.str()?;
            let report: MetricsReport =
                serde_json::from_str(&json).map_err(|e| format!("embedded metrics report: {e}"))?;
            Response::Metrics(report)
        }
        resp_tag::SNAPSHOT_SAVED => Response::SnapshotSaved {
            path: r.str()?,
            devices: r.u64()? as usize,
            semantics: r.u64()? as usize,
        },
        resp_tag::SHUTTING_DOWN => Response::ShuttingDown,
        resp_tag::SUBSCRIBED => Response::Subscribed {
            rule_id: r.u64()?,
            name: r.str()?,
        },
        resp_tag::UNSUBSCRIBED => Response::Unsubscribed {
            existed: match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(format!("bad existed flag {other}")),
            },
        },
        resp_tag::RULES => {
            let json = r.str()?;
            let rules: Vec<RuleTrace> =
                serde_json::from_str(&json).map_err(|e| format!("embedded rule traces: {e}"))?;
            Response::Rules { rules }
        }
        resp_tag::ALERT => {
            let json = r.str()?;
            let alert: Alert =
                serde_json::from_str(&json).map_err(|e| format!("embedded alert: {e}"))?;
            Response::Alert(alert)
        }
        resp_tag::METRICS_PROM => Response::MetricsProm { text: r.str()? },
        resp_tag::TRACES => {
            let json = r.str()?;
            let spans: Vec<trips_obs::SpanRecord> =
                serde_json::from_str(&json).map_err(|e| format!("embedded span records: {e}"))?;
            Response::Traces { spans }
        }
        resp_tag::SLOW_LOG => {
            let threshold_us = r.u64()?;
            let evicted = r.u64()?;
            let json = r.str()?;
            let spans: Vec<trips_obs::SpanRecord> =
                serde_json::from_str(&json).map_err(|e| format!("embedded span records: {e}"))?;
            Response::SlowLog {
                threshold_us,
                evicted,
                spans,
            }
        }
        resp_tag::ERROR => Response::Error(decode_error(r)?),
        other => return Err(format!("unknown response tag {other}")),
    };
    r.done()?;
    Ok(resp)
}

/// Decodes a response payload whose CRC has already been checked (the
/// client's streaming read path: header, then payload, then this).
pub fn decode_response_payload(payload: &[u8]) -> Result<ResponseEnvelope, FrameError> {
    let consumed = HEADER_LEN + payload.len();
    let mut r = Reader::new(payload);
    let id = r.u64().map_err(|message| FrameError::Malformed {
        id: 0,
        consumed,
        message,
    })?;
    let resp = decode_response_payload_inner(&mut r).map_err(|message| FrameError::Malformed {
        id,
        consumed,
        message,
    })?;
    Ok(ResponseEnvelope {
        v: FRAME_VERSION as u32,
        id,
        resp,
    })
}

/// Tries to decode one response frame from the front of `buf` (see
/// [`decode_request_frame`] for the contract).
pub fn decode_response_frame(buf: &[u8]) -> Result<Option<(ResponseEnvelope, usize)>, FrameError> {
    let Some((payload, total)) = split_frame(buf)? else {
        return Ok(None);
    };
    Ok(Some((decode_response_payload(payload)?, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EndpointMetrics, HealthReport, LoopShardMetrics, MetricsReport};
    use trips_geom::IndoorPoint;
    use trips_store::{StoreHealth, WalStats};

    fn roundtrip_request(req: Request) {
        let env = RequestEnvelope {
            v: FRAME_VERSION as u32,
            id: 42,
            req,
        };
        let bytes = encode_request_frame(&env);
        let (back, consumed) = decode_request_frame(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, env);
    }

    fn roundtrip_response(resp: Response) {
        let env = ResponseEnvelope {
            v: FRAME_VERSION as u32,
            id: 42,
            resp,
        };
        let bytes = encode_response_frame(&env);
        let (back, consumed) = decode_response_frame(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, env);
    }

    #[test]
    fn request_roundtrip_every_variant() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Ingest {
            records: vec![
                RawRecord::new(DeviceId::new("b0.3a.7f.00.01"), 5.25, -4.5, 2, Timestamp(7)),
                RawRecord::new(DeviceId::new(""), f64::MAX, f64::MIN, -1, Timestamp(-1)),
            ],
        });
        roundtrip_request(Request::Ingest { records: vec![] });
        roundtrip_request(Request::Flush { device: None });
        roundtrip_request(Request::Flush {
            device: Some("b0.3a.7f.00.01".into()),
        });
        roundtrip_request(Request::Query {
            request: QueryRequest::new(SemanticsSelector::all(), Query::PopularRegions),
        });
        roundtrip_request(Request::Query {
            request: QueryRequest::new(
                SemanticsSelector {
                    device_pattern: Some("b0.*".into()),
                    region: Some(RegionId(9)),
                    event: Some("stay".into()),
                    range: Some((Timestamp(100), Timestamp(2_000))),
                },
                Query::TopFlows { limit: 10 },
            ),
        });
        roundtrip_request(Request::Query {
            request: QueryRequest::new(
                SemanticsSelector::all(),
                Query::DwellHistogram {
                    bucket: Duration::from_mins(5),
                },
            ),
        });
        roundtrip_request(Request::Query {
            request: QueryRequest::new(SemanticsSelector::all(), Query::DeviceSummaries),
        });
        roundtrip_request(Request::Query {
            request: QueryRequest::new(SemanticsSelector::all(), Query::Semantics),
        });
        roundtrip_request(Request::Query {
            request: QueryRequest::new(SemanticsSelector::all(), Query::Stats),
        });
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Snapshot {
            path: "snaps/mall.json".into(),
        });
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Subscribe {
            tql: r#"WHEN occupancy(floor 2) > 50 FOR 5m ALERT"#.into(),
        });
        roundtrip_request(Request::Unsubscribe { rule_id: 3 });
        roundtrip_request(Request::ListRules);
        roundtrip_request(Request::MetricsProm);
        roundtrip_request(Request::TraceDump { limit: None });
        roundtrip_request(Request::TraceDump { limit: Some(32) });
        roundtrip_request(Request::SlowLog { limit: None });
        roundtrip_request(Request::SlowLog { limit: Some(8) });
    }

    #[test]
    fn response_roundtrip_every_variant() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Ingested {
            accepted: 10,
            rejected: 1,
            emitted: 4,
        });
        roundtrip_response(Response::Flushed {
            devices: 3,
            emitted: 12,
        });
        roundtrip_response(Response::Query {
            result: QueryResult::PopularRegions(vec![RegionPopularity {
                region: RegionId(3),
                region_name: "shop-3".into(),
                stays: 5,
                pass_bys: 9,
                unique_stayers: 4,
                total_dwell: Duration::from_mins(75),
            }]),
        });
        roundtrip_response(Response::Query {
            result: QueryResult::Flows(vec![Flow {
                from: RegionId(1),
                from_name: "a".into(),
                to: RegionId(2),
                to_name: "b".into(),
                count: 17,
            }]),
        });
        roundtrip_response(Response::Query {
            result: QueryResult::DwellHistogram(vec![
                (Duration::from_mins(5), 3),
                (Duration::from_mins(10), 1),
            ]),
        });
        roundtrip_response(Response::Query {
            result: QueryResult::DeviceSummaries(vec![(
                DeviceId::new("b0.3a.7f.00.01"),
                DeviceSummary {
                    device: "b0.*.01".into(),
                    regions_visited: 4,
                    stays: 2,
                    accounted: Duration::from_mins(30),
                },
            )]),
        });
        roundtrip_response(Response::Query {
            result: QueryResult::Semantics(vec![
                trips_annotate::MobilitySemantics {
                    device: DeviceId::new("d-1"),
                    event: "stay".into(),
                    region: RegionId(7),
                    region_name: "shop-7".into(),
                    start: Timestamp(1_000),
                    end: Timestamp(61_000),
                    inferred: false,
                    display_point: Some(IndoorPoint::new(3.5, 4.5, 1)),
                },
                trips_annotate::MobilitySemantics {
                    device: DeviceId::new("d-1"),
                    event: "pass-by".into(),
                    region: RegionId(8),
                    region_name: "hall".into(),
                    start: Timestamp(61_000),
                    end: Timestamp(61_000),
                    inferred: true,
                    display_point: None,
                },
            ]),
        });
        roundtrip_response(Response::Query {
            result: QueryResult::Stats(StoreStats {
                shards: 4,
                devices: 10,
                semantics: 99,
                regions: 12,
                devices_per_shard: vec![3, 3, 2, 2],
            }),
        });
        roundtrip_response(Response::Health(HealthReport {
            status: "ok".into(),
            uptime_ms: 1234,
            store: StoreHealth {
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
                fsyncs: 6,
                rotations: 1,
            }),
        }));
        roundtrip_response(Response::Metrics(MetricsReport {
            uptime_ms: 1234,
            connections_accepted: 5,
            connections_rejected: 1,
            active_connections: 2,
            requests: 100,
            shed: 7,
            bad_requests: 2,
            queue_capacity: 64,
            peak_queue_depth: 9,
            rss_kb: Some(4096),
            event_backend: "poll".into(),
            loop_shards: vec![
                LoopShardMetrics {
                    shard: 0,
                    connections: 1,
                    pending_completions: 0,
                    wakeups: 9,
                    bytes_read: 2048,
                    jobs: 4,
                },
                LoopShardMetrics {
                    shard: 1,
                    connections: 1,
                    pending_completions: 2,
                    wakeups: 11,
                    bytes_read: 1024,
                    jobs: 2,
                },
            ],
            translator_shards: 4,
            translator_lock_contention: 1,
            endpoints: vec![EndpointMetrics {
                endpoint: "query".into(),
                count: 80,
                ops_per_sec: 123.4,
                p50_us: 40.0,
                p99_us: 900.0,
                max_us: 1500.0,
                mean_us: 80.0,
            }],
            wal: None,
            recovery_us: 21_500,
            recovery_replayed_records: 1200,
            rules: vec![RuleTrace {
                id: 2,
                name: "crowded".into(),
                priority: 9,
                source: "WHEN occupancy(floor 2) > 50 ALERT".into(),
                evals: 40,
                fires: 2,
                last_eval_ms: Some(1_000),
                last_fire_ms: None,
            }],
            alerts_delivered: 2,
            alerts_dropped: 1,
            slow_requests: 1,
            store_lock_contention: 4,
            rule_evals: 40,
            rule_fires: 2,
            connections_reaped: 1,
        }));
        roundtrip_response(Response::MetricsProm {
            text: "# TYPE trips_requests_total counter\ntrips_requests_total 100\n".into(),
        });
        roundtrip_response(Response::Traces {
            spans: vec![trips_obs::SpanRecord {
                id: 11,
                conn: 3,
                shard: 1,
                endpoint: "query".into(),
                kind: "Query".into(),
                unix_ms: 1_700_000_000_123,
                total_us: 250,
                stages_us: vec![0, 1, 2, 3, 4, 5, 6, 7],
            }],
        });
        roundtrip_response(Response::SlowLog {
            threshold_us: 1_000,
            evicted: 2,
            spans: vec![],
        });
        roundtrip_response(Response::SnapshotSaved {
            path: "snaps/mall.json".into(),
            devices: 12,
            semantics: 300,
        });
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Subscribed {
            rule_id: 3,
            name: "rule-3".into(),
        });
        roundtrip_response(Response::Unsubscribed { existed: false });
        roundtrip_response(Response::Rules {
            rules: vec![RuleTrace {
                id: 3,
                name: "rule-3".into(),
                priority: 0,
                source: r#"WHEN device ENTERS region "lab-*" ALERT"#.into(),
                evals: 0,
                fires: 0,
                last_eval_ms: None,
                last_fire_ms: None,
            }],
        });
        roundtrip_response(Response::Alert(Alert {
            rule_id: 3,
            rule_name: "rule-3".into(),
            device: Some("b0.3a.7f.00.01".into()),
            region: Some(12),
            region_name: Some("lab-west".into()),
            message: "device entered lab-west".into(),
            at_ms: 36_000_000,
            seq: 1,
        }));
        roundtrip_response(Response::Error(ServerError::Overloaded {
            queue_capacity: 64,
        }));
        roundtrip_response(Response::Error(ServerError::TooManyConnections {
            limit: 4,
        }));
        roundtrip_response(Response::Error(ServerError::BadRequest {
            message: "nope".into(),
        }));
        roundtrip_response(Response::Error(ServerError::UnsupportedVersion {
            got: 9,
            want: 2,
        }));
        roundtrip_response(Response::Error(ServerError::ShuttingDown));
        roundtrip_response(Response::Error(ServerError::Internal {
            message: "disk full".into(),
        }));
    }

    /// Golden bytes: the exact wire encoding of one request/response pair,
    /// pinned. If this test fails, the change broke protocol v2 — bump the
    /// frame version instead of editing the expectation.
    #[test]
    fn golden_bytes_ingest_pair() {
        let req = RequestEnvelope {
            v: FRAME_VERSION as u32,
            id: 7,
            req: Request::Ingest {
                records: vec![RawRecord::new(
                    DeviceId::new("d-1"),
                    1.5,
                    2.5,
                    0,
                    Timestamp(1000),
                )],
            },
        };
        #[rustfmt::skip]
        let want_payload: Vec<u8> = vec![
            // id 7 u64 le
            7, 0, 0, 0, 0, 0, 0, 0,
            // tag: Ingest
            1,
            // record count u32 le
            1, 0, 0, 0,
            // device "d-1": len u32 le + utf8
            3, 0, 0, 0, b'd', b'-', b'1',
            // x = 1.5 -> bits 0x3FF8000000000000 le
            0, 0, 0, 0, 0, 0, 0xF8, 0x3F,
            // y = 2.5 -> bits 0x4004000000000000 le
            0, 0, 0, 0, 0, 0, 0x04, 0x40,
            // floor i16 le
            0, 0,
            // ts 1000 i64 le
            0xE8, 0x03, 0, 0, 0, 0, 0, 0,
        ];
        let mut want = vec![FRAME_MAGIC, FRAME_VERSION];
        want.extend_from_slice(&(want_payload.len() as u32).to_le_bytes());
        want.extend_from_slice(&crc32(&want_payload).to_le_bytes());
        want.extend_from_slice(&want_payload);
        assert_eq!(encode_request_frame(&req), want);

        let resp = ResponseEnvelope {
            v: FRAME_VERSION as u32,
            id: 7,
            resp: Response::Ingested {
                accepted: 1,
                rejected: 0,
                emitted: 0,
            },
        };
        #[rustfmt::skip]
        let want_payload: Vec<u8> = vec![
            7, 0, 0, 0, 0, 0, 0, 0, // id
            1,                      // tag: Ingested
            1, 0, 0, 0, 0, 0, 0, 0, // accepted
            0, 0, 0, 0, 0, 0, 0, 0, // rejected
            0, 0, 0, 0, 0, 0, 0, 0, // emitted
        ];
        let mut want = vec![FRAME_MAGIC, FRAME_VERSION];
        want.extend_from_slice(&(want_payload.len() as u32).to_le_bytes());
        want.extend_from_slice(&crc32(&want_payload).to_le_bytes());
        want.extend_from_slice(&want_payload);
        assert_eq!(encode_response_frame(&resp), want);
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let env = RequestEnvelope {
            v: FRAME_VERSION as u32,
            id: 1,
            req: Request::Ping,
        };
        let bytes = encode_request_frame(&env);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_request_frame(&bytes[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
    }

    #[test]
    fn bad_magic_is_fatal_and_unrecoverable() {
        let err = decode_request_frame(b"{\"v\":1}").unwrap_err();
        assert_eq!(err, FrameError::BadMagic { got: b'{' });
        assert!(!err.is_recoverable());
    }

    #[test]
    fn unknown_frame_version_is_fatal() {
        let err = decode_request_frame(&[FRAME_MAGIC, 9, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(err, FrameError::UnsupportedVersion { got: 9 });
        assert!(!err.is_recoverable());
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut bytes = vec![FRAME_MAGIC, FRAME_VERSION];
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let err = decode_request_frame(&bytes).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { .. }), "{err:?}");
        assert!(!err.is_recoverable());
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let env = RequestEnvelope {
            v: FRAME_VERSION as u32,
            id: 5,
            req: Request::Ping,
        };
        let mut bytes = encode_request_frame(&env);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = decode_request_frame(&bytes).unwrap_err();
        assert_eq!(err, FrameError::BadCrc);
        assert!(!err.is_recoverable());
    }

    #[test]
    fn malformed_body_is_recoverable_with_id_and_consumed() {
        // Valid header + CRC over a payload with a bogus request tag.
        let mut payload = Vec::new();
        payload.extend_from_slice(&99u64.to_le_bytes());
        payload.push(0xEE); // unknown request tag
        let mut bytes = vec![FRAME_MAGIC, FRAME_VERSION];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = decode_request_frame(&bytes).unwrap_err();
        match &err {
            FrameError::Malformed { id, consumed, .. } => {
                assert_eq!(*id, 99, "id recovered before the bad tag");
                assert_eq!(*consumed, bytes.len(), "consumed covers the whole frame");
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.is_recoverable());
    }

    #[test]
    fn truncated_body_inside_valid_frame_is_malformed_not_fatal() {
        // An Ingest frame claiming 5 records but carrying none: the frame
        // is delimited + checksummed fine, the *body* is short.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.push(1); // Ingest
        payload.extend_from_slice(&5u32.to_le_bytes()); // count 5, no records
        let mut bytes = vec![FRAME_MAGIC, FRAME_VERSION];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = decode_request_frame(&bytes).unwrap_err();
        assert!(err.is_recoverable(), "{err:?}");
    }

    #[test]
    fn trailing_garbage_after_body_is_malformed() {
        let env = RequestEnvelope {
            v: FRAME_VERSION as u32,
            id: 2,
            req: Request::Ping,
        };
        let mut payload = encode_request_payload(&env);
        payload.push(0); // one stray byte inside the checksummed payload
        let bytes = frame(payload);
        let err = decode_request_frame(&bytes).unwrap_err();
        assert!(err.is_recoverable(), "{err:?}");
    }

    #[test]
    fn back_to_back_frames_decode_independently() {
        let a = RequestEnvelope {
            v: FRAME_VERSION as u32,
            id: 1,
            req: Request::Ping,
        };
        let b = RequestEnvelope {
            v: FRAME_VERSION as u32,
            id: 2,
            req: Request::Health,
        };
        let mut bytes = encode_request_frame(&a);
        bytes.extend_from_slice(&encode_request_frame(&b));
        let (first, consumed) = decode_request_frame(&bytes).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, rest) = decode_request_frame(&bytes[consumed..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(consumed + rest, bytes.len());
    }

    /// Decode `bytes` with both decoders and assert they agree exactly:
    /// same progress (None/Some/Err), same consumed count, same envelope
    /// once the borrowed records are materialized.
    fn assert_ref_decode_agrees(bytes: &[u8]) {
        let owned = decode_request_frame(bytes);
        let borrowed = decode_request_frame_ref(bytes);
        match (owned, borrowed) {
            (Ok(None), Ok(None)) => {}
            (Ok(Some((env, n))), Ok(Some((frame_ref, m)))) => {
                assert_eq!(n, m, "consumed counts diverge");
                match frame_ref {
                    RequestFrameRef::Ingest(view) => {
                        assert_eq!(view.id, env.id);
                        let materialized: Vec<RawRecord> =
                            view.records.iter().map(|r| r.to_record()).collect();
                        match env.req {
                            Request::Ingest { records } => assert_eq!(materialized, records),
                            other => panic!("owned decode disagrees on tag: {other:?}"),
                        }
                    }
                    RequestFrameRef::Owned(ref_env) => assert_eq!(ref_env, env),
                }
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (owned, borrowed) => {
                panic!("decoders diverge: owned={owned:?} borrowed={borrowed:?}")
            }
        }
    }

    fn ingest_envelope(id: u64, records: Vec<RawRecord>) -> RequestEnvelope {
        RequestEnvelope {
            v: FRAME_VERSION as u32,
            id,
            req: Request::Ingest { records },
        }
    }

    #[test]
    fn zero_copy_ingest_decode_matches_owned() {
        let cases = vec![
            ingest_envelope(1, vec![]),
            ingest_envelope(
                2,
                vec![RawRecord::new(
                    DeviceId::new("tag-1"),
                    1.5,
                    -2.5,
                    3,
                    Timestamp(1000),
                )],
            ),
            ingest_envelope(
                3,
                vec![
                    RawRecord::new(
                        DeviceId::new(""),
                        f64::MIN,
                        f64::MAX,
                        i16::MIN,
                        Timestamp(i64::MIN),
                    ),
                    RawRecord::new(DeviceId::new("repeat"), 0.0, -0.0, 0, Timestamp(0)),
                    RawRecord::new(
                        DeviceId::new("repeat"),
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        i16::MAX,
                        Timestamp(i64::MAX),
                    ),
                    RawRecord::new(DeviceId::new("unicode-τρίψ"), 9.25, 8.75, -1, Timestamp(42)),
                ],
            ),
        ];
        for env in cases {
            let bytes = encode_request_frame(&env);
            assert_ref_decode_agrees(&bytes);
            // And every truncated prefix makes identical progress (Ok(None)).
            for cut in 0..bytes.len() {
                assert_ref_decode_agrees(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn zero_copy_decode_defers_non_ingest_to_owned_path() {
        let env = RequestEnvelope {
            v: FRAME_VERSION as u32,
            id: 77,
            req: Request::Ping,
        };
        let bytes = encode_request_frame(&env);
        let (frame_ref, consumed) = decode_request_frame_ref(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(frame_ref, RequestFrameRef::Owned(env));
    }

    #[test]
    fn zero_copy_decode_malformed_parity() {
        // A structurally valid frame whose ingest body lies about its record
        // count: both decoders must report the same recoverable error.
        let mut b = Buf::new();
        b.u64(9);
        b.u8(req_tag::INGEST);
        b.u32(5); // claims 5 records, provides none
        let bytes = frame(b.out);
        assert_ref_decode_agrees(&bytes);
        let err = decode_request_frame_ref(&bytes).unwrap_err();
        assert!(err.is_recoverable(), "{err:?}");

        // A corrupted checksum stays fatal on both paths.
        let env = ingest_envelope(
            4,
            vec![RawRecord::new(
                DeviceId::new("d"),
                1.0,
                2.0,
                0,
                Timestamp(7),
            )],
        );
        let mut bytes = encode_request_frame(&env);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_ref_decode_agrees(&bytes);
        assert!(!decode_request_frame_ref(&bytes)
            .unwrap_err()
            .is_recoverable());
    }

    #[test]
    fn alert_frame_matches_owned_encoding() {
        let alert = Alert {
            rule_id: 3,
            rule_name: "overcrowded".to_string(),
            device: Some("tag-9".to_string()),
            region: Some(12),
            region_name: Some("atrium".to_string()),
            message: "occupancy over threshold".to_string(),
            at_ms: 1_700_000_000_000,
            seq: 41,
        };
        let owned = encode_response_frame(&ResponseEnvelope {
            v: FRAME_VERSION as u32,
            id: 0,
            resp: Response::Alert(alert.clone()),
        });
        assert_eq!(encode_alert_frame(&alert), owned);
    }
}
