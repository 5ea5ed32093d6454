//! A blocking client for the serving protocol — used by the e2e tests,
//! the `server_load` generator, and anything embedding a TRIPS server.
//!
//! Speaks either protocol version over the same connection type:
//! NDJSON v1 ([`Client::connect`]) or the binary v2 framing
//! ([`Client::connect_v2`], see [`crate::codec`]); switch per call with
//! [`Client::set_protocol`]. The *read* path is self-describing
//! regardless of the configured version — the first byte distinguishes a
//! binary frame from a JSON line — so a v2 client still understands the
//! v1 rejection line an overloaded server writes before a request is
//! ever sent (`TooManyConnections`).
//!
//! One request in flight at a time (write a message, read a message);
//! the server guarantees per-connection response ordering, so
//! correlation ids are checked but never reordered.
//!
//! ## Timeouts poison the connection
//!
//! By default every call blocks until the server answers. A stalled or
//! wedged server would therefore hang callers forever — bound that with
//! [`Client::set_read_timeout`] (any call) or connect with
//! [`Client::connect_with_timeout`], which bounds the TCP connect *and*
//! installs a read timeout in one step.
//!
//! After any transport error — a timeout included — the connection is
//! **poisoned**: the reply to the timed-out request may still arrive
//! later, and reading it as the answer to the *next* request would pair
//! responses with the wrong calls. Every subsequent call fails fast with
//! an `io::Error` of kind `BrokenPipe` whose source is
//! [`ClientPoisoned`]; reconnect to continue.

use crate::codec::{self, FRAME_MAGIC, HEADER_LEN};
use crate::protocol::{
    decode_response, encode_request, Request, RequestEnvelope, Response, ServerError, PROTOCOL_V2,
    PROTOCOL_VERSION,
};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use trips_data::RawRecord;
use trips_obs::SpanRecord;
use trips_store::{Alert, Query, QueryRequest, QueryResult, RuleTrace, SemanticsSelector};

/// What [`Client::slow_log`] returns on success:
/// `(threshold_us, evicted, spans)`.
pub type SlowLogPayload = (u64, u64, Vec<SpanRecord>);

/// The typed source of the `BrokenPipe` error every call on a poisoned
/// [`Client`] returns. Downcast to distinguish "this connection died
/// earlier" from a fresh transport failure:
///
/// ```ignore
/// match client.ping() {
///     Err(e) if e.get_ref().is_some_and(|s| s.is::<ClientPoisoned>()) => reconnect(),
///     other => ...,
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPoisoned {
    /// What poisoned the connection (the original error, stringified).
    pub reason: String,
}

impl fmt::Display for ClientPoisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "connection poisoned by an earlier transport error ({}); \
             responses can no longer be paired with requests — reconnect",
            self.reason
        )
    }
}

impl std::error::Error for ClientPoisoned {}

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    protocol: u32,
    poisoned: Option<String>,
    /// Alerts (id 0, pushed by the server for this connection's standing
    /// rules) that arrived interleaved with a request's response. Drained
    /// by [`Client::recv_alert`] before it touches the socket.
    pending_alerts: VecDeque<Alert>,
}

impl Client {
    /// Connects to a server address (e.g. `handle.addr()` or
    /// `"127.0.0.1:7878"`), speaking NDJSON v1.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects speaking the binary v2 framing. No handshake round-trip:
    /// the server detects the version per message from the first byte.
    pub fn connect_v2(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let mut client = Self::connect(addr)?;
        client.set_protocol(PROTOCOL_V2)?;
        Ok(client)
    }

    /// Connects with `timeout` bounding the TCP handshake, and installs
    /// the same value as both the read and the write timeout — so
    /// neither a black-holed address, nor a server that accepts but
    /// never replies, nor one that stops *reading* (a blocking
    /// `write_all` of a large batch fills the send buffer and would
    /// otherwise park forever) can hang the caller indefinitely.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let client = Self::from_stream(TcpStream::connect_timeout(&addr, timeout)?)?;
        client.set_read_timeout(Some(timeout))?;
        client.stream.set_write_timeout(Some(timeout))?;
        Ok(client)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            next_id: 1,
            protocol: PROTOCOL_VERSION,
            poisoned: None,
            pending_alerts: VecDeque::new(),
        })
    }

    /// Selects the wire version for *subsequent* requests:
    /// [`PROTOCOL_VERSION`] (NDJSON) or [`PROTOCOL_V2`] (binary frames).
    /// Versions may be switched mid-connection; the server answers each
    /// message in the framing it arrived in.
    pub fn set_protocol(&mut self, version: u32) -> io::Result<()> {
        match version {
            PROTOCOL_VERSION | PROTOCOL_V2 => {
                self.protocol = version;
                Ok(())
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown protocol version {other} (supported: 1, 2)"),
            )),
        }
    }

    /// The wire version of subsequent requests.
    pub fn protocol(&self) -> u32 {
        self.protocol
    }

    /// Whether an earlier transport error poisoned this connection (every
    /// further call fails fast; see [`ClientPoisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Bounds how long [`Client::call`] blocks waiting for a response
    /// (`None` = wait forever, the default). A timeout surfaces as an
    /// `Err` of kind `WouldBlock`/`TimedOut` **and poisons the
    /// connection** — the late reply would otherwise be read as the
    /// answer to the next request.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request and blocks for its response.
    ///
    /// Protocol-level failures (including `Overloaded` shedding) come back
    /// as `Ok(Response::Error(_))` — only transport/framing problems are
    /// `Err`, and any such `Err` poisons the connection (see
    /// [`ClientPoisoned`]). A connection-level rejection written before
    /// any request (`TooManyConnections`) surfaces as the response to the
    /// first call.
    pub fn call(&mut self, req: Request) -> io::Result<Response> {
        if let Some(reason) = &self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                ClientPoisoned {
                    reason: reason.clone(),
                },
            ));
        }
        let id = self.next_id;
        self.next_id += 1;
        match self.exchange(id, req) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Sends a batch of requests back-to-back in one write, then reads the
    /// responses in order — the client half of response batching: the
    /// server's segmented write queue flushes all N replies with a single
    /// `writev(2)` where the plain [`Client::call`] loop would pay one
    /// round-trip (and one server-side write) per request.
    ///
    /// Responses come back in request order (the server processes one
    /// connection's requests sequentially). Pushed alerts interleaved in
    /// the stream are parked for [`Client::recv_alert`] exactly as in
    /// [`Client::call`]. Any transport `Err` poisons the connection.
    pub fn call_pipelined(&mut self, reqs: Vec<Request>) -> io::Result<Vec<Response>> {
        if let Some(reason) = &self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                ClientPoisoned {
                    reason: reason.clone(),
                },
            ));
        }
        let first_id = self.next_id;
        self.next_id += reqs.len() as u64;
        match self.exchange_pipelined(first_id, reqs) {
            Ok(resps) => Ok(resps),
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// The fallible transport half of [`Client::call_pipelined`].
    fn exchange_pipelined(
        &mut self,
        first_id: u64,
        reqs: Vec<Request>,
    ) -> io::Result<Vec<Response>> {
        let n = reqs.len();
        let mut wire = Vec::new();
        for (i, req) in reqs.into_iter().enumerate() {
            let id = first_id + i as u64;
            match self.protocol {
                PROTOCOL_V2 => {
                    wire.extend_from_slice(&codec::encode_request_frame(&RequestEnvelope {
                        v: PROTOCOL_V2,
                        id,
                        req,
                    }));
                }
                _ => {
                    let mut line = encode_request(&RequestEnvelope::new(id, req));
                    line.push('\n');
                    wire.extend_from_slice(line.as_bytes());
                }
            }
        }
        self.stream.write_all(&wire)?;
        let mut resps = Vec::with_capacity(n);
        for i in 0..n {
            let want = first_id + i as u64;
            loop {
                let env = self.read_response()?;
                if env.id == 0 {
                    if let Response::Alert(alert) = env.resp {
                        self.pending_alerts.push_back(alert);
                        continue;
                    }
                }
                if env.id != want && env.id != 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response id {} does not match request id {want}", env.id),
                    ));
                }
                resps.push(env.resp);
                break;
            }
        }
        Ok(resps)
    }

    /// The fallible transport half of [`Client::call`] (any `Err` here
    /// poisons the connection).
    fn exchange(&mut self, id: u64, req: Request) -> io::Result<Response> {
        match self.protocol {
            PROTOCOL_V2 => {
                let frame = codec::encode_request_frame(&RequestEnvelope {
                    v: PROTOCOL_V2,
                    id,
                    req,
                });
                self.stream.write_all(&frame)?;
            }
            _ => {
                let mut line = encode_request(&RequestEnvelope::new(id, req));
                line.push('\n');
                self.stream.write_all(line.as_bytes())?;
            }
        }
        loop {
            let env = self.read_response()?;
            // Standing-rule alerts are pushed with id 0 and may land
            // between a request and its response; park them for
            // `recv_alert` and keep waiting for the real answer.
            if env.id == 0 {
                if let Response::Alert(alert) = env.resp {
                    self.pending_alerts.push_back(alert);
                    continue;
                }
            }
            // id 0 otherwise marks connection-level errors the server
            // emits unprompted.
            if env.id != id && env.id != 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response id {} does not match request id {id}", env.id),
                ));
            }
            return Ok(env.resp);
        }
    }

    /// Reads one response in whichever framing the server used (detected
    /// from the first byte, like the server's own read path).
    fn read_response(&mut self) -> io::Result<crate::protocol::ResponseEnvelope> {
        let first = {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            buf[0]
        };
        if first == FRAME_MAGIC {
            let mut header = [0u8; HEADER_LEN];
            self.reader.read_exact(&mut header)?;
            let (payload_len, crc) = match codec::parse_header(&header) {
                Ok(Some(parsed)) => parsed,
                Ok(None) => unreachable!("a full header always parses or errors"),
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            };
            let mut payload = vec![0u8; payload_len];
            self.reader.read_exact(&mut payload)?;
            codec::check_crc(&payload, crc)
                .and_then(|()| codec::decode_response_payload(&payload))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        } else {
            let mut reply = String::new();
            let n = self.reader.read_line(&mut reply)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            decode_response(reply.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        }
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.call(Request::Ping)
    }

    /// Ingests a batch of raw records.
    pub fn ingest(&mut self, records: Vec<RawRecord>) -> io::Result<Response> {
        self.call(Request::Ingest { records })
    }

    /// Flushes one device's stream buffer — or, with `None`, every device
    /// **this session** has ingested (a flush-all is scoped to the
    /// requesting connection; other sessions' streams are untouched).
    pub fn flush(&mut self, device: Option<&str>) -> io::Result<Response> {
        self.call(Request::Flush {
            device: device.map(str::to_string),
        })
    }

    /// Runs a typed store query; unwraps the result variant.
    pub fn query(&mut self, request: QueryRequest) -> io::Result<Result<QueryResult, ServerError>> {
        match self.call(Request::Query { request })? {
            Response::Query { result } => Ok(Ok(result)),
            Response::Error(e) => Ok(Err(e)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected query response, got {other:?}"),
            )),
        }
    }

    /// Shorthand: query with a selector + kind.
    pub fn query_parts(
        &mut self,
        selector: SemanticsSelector,
        query: Query,
    ) -> io::Result<Result<QueryResult, ServerError>> {
        self.query(QueryRequest::new(selector, query))
    }

    /// Health probe.
    pub fn health(&mut self) -> io::Result<Response> {
        self.call(Request::Health)
    }

    /// Metrics probe.
    pub fn metrics(&mut self) -> io::Result<Response> {
        self.call(Request::Metrics)
    }

    /// The server's metrics in Prometheus text format, rendered from the
    /// same read of its counters as [`Client::metrics`] — the payload the
    /// standalone HTTP `/metrics` listener serves.
    pub fn metrics_prom(&mut self) -> io::Result<Result<String, ServerError>> {
        match self.call(Request::MetricsProm)? {
            Response::MetricsProm { text } => Ok(Ok(text)),
            Response::Error(e) => Ok(Err(e)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected prometheus metrics response, got {other:?}"),
            )),
        }
    }

    /// Recent request-path span trees from every event-loop shard's trace
    /// ring, oldest first (the newest `limit` when set).
    pub fn trace_dump(
        &mut self,
        limit: Option<usize>,
    ) -> io::Result<Result<Vec<SpanRecord>, ServerError>> {
        match self.call(Request::TraceDump { limit })? {
            Response::Traces { spans } => Ok(Ok(spans)),
            Response::Error(e) => Ok(Err(e)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected trace response, got {other:?}"),
            )),
        }
    }

    /// The slow-request log: `(threshold_us, evicted, spans)`, newest
    /// first.
    pub fn slow_log(
        &mut self,
        limit: Option<usize>,
    ) -> io::Result<Result<SlowLogPayload, ServerError>> {
        match self.call(Request::SlowLog { limit })? {
            Response::SlowLog {
                threshold_us,
                evicted,
                spans,
            } => Ok(Ok((threshold_us, evicted, spans))),
            Response::Error(e) => Ok(Err(e)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected slow-log response, got {other:?}"),
            )),
        }
    }

    /// Flushes all buffers server-side and persists a snapshot. On a
    /// durable server `path` is ignored (the checkpoint lives in the WAL
    /// directory); otherwise `path` must be relative and resolves inside
    /// the server's configured snapshot root.
    pub fn snapshot(&mut self, path: &str) -> io::Result<Response> {
        self.call(Request::Snapshot {
            path: path.to_string(),
        })
    }

    /// Requests a graceful drain.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.call(Request::Shutdown)
    }

    /// Registers a standing rule (TQL `WHEN … ALERT …`) on this
    /// connection; returns `(rule_id, name)`. Matching [`Alert`]s are
    /// pushed with correlation id 0 — collect them with
    /// [`Client::recv_alert`]. The rule lives exactly as long as the
    /// connection.
    pub fn subscribe(&mut self, tql: &str) -> io::Result<Result<(u64, String), ServerError>> {
        match self.call(Request::Subscribe {
            tql: tql.to_string(),
        })? {
            Response::Subscribed { rule_id, name } => Ok(Ok((rule_id, name))),
            Response::Error(e) => Ok(Err(e)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected subscribed response, got {other:?}"),
            )),
        }
    }

    /// Removes a rule this connection registered. `Ok(Ok(false))` means
    /// the id was unknown *to this session* — rules owned by other
    /// connections cannot be removed remotely.
    pub fn unsubscribe(&mut self, rule_id: u64) -> io::Result<Result<bool, ServerError>> {
        match self.call(Request::Unsubscribe { rule_id })? {
            Response::Unsubscribed { existed } => Ok(Ok(existed)),
            Response::Error(e) => Ok(Err(e)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected unsubscribed response, got {other:?}"),
            )),
        }
    }

    /// Evaluation traces for every registered rule, server-wide.
    pub fn list_rules(&mut self) -> io::Result<Result<Vec<RuleTrace>, ServerError>> {
        match self.call(Request::ListRules)? {
            Response::Rules { rules } => Ok(Ok(rules)),
            Response::Error(e) => Ok(Err(e)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected rules response, got {other:?}"),
            )),
        }
    }

    /// Compiles a one-shot TQL `FIND` statement client-side and runs it
    /// as a typed query. Compile errors (including a `WHEN` rule, which
    /// belongs to [`Client::subscribe`]) surface as `InvalidInput` with
    /// the rendered caret diagnostic — nothing is sent.
    pub fn query_tql(&mut self, src: &str) -> io::Result<Result<QueryResult, ServerError>> {
        let request = match trips_query_lang::compile(src) {
            Ok(trips_query_lang::Compiled::Query(request)) => request,
            Ok(trips_query_lang::Compiled::Rule(_)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "`WHEN … ALERT` is a standing rule — use `subscribe`, not `query_tql`",
                ));
            }
            Err(e) => {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, e.render(src)));
            }
        };
        self.query(request)
    }

    /// Waits up to `timeout` for the next pushed [`Alert`]; `Ok(None)` on
    /// a quiet wire. Alerts that arrived interleaved with earlier
    /// responses are returned first without touching the socket. Unlike a
    /// timed-out [`Client::call`], an empty wait does **not** poison the
    /// connection — no request/response pairing is at risk while nothing
    /// is in flight.
    pub fn recv_alert(&mut self, timeout: Duration) -> io::Result<Option<Alert>> {
        if let Some(alert) = self.pending_alerts.pop_front() {
            return Ok(Some(alert));
        }
        if let Some(reason) = &self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                ClientPoisoned {
                    reason: reason.clone(),
                },
            ));
        }
        let prev = self.reader.get_ref().read_timeout()?;
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let outcome = self.try_read_alert();
        self.reader.get_ref().set_read_timeout(prev)?;
        match outcome {
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(e)
            }
            ok => ok,
        }
    }

    /// One bounded read attempt: `Ok(None)` if the wire stayed quiet
    /// before any byte was consumed (safe — the stream is still framed);
    /// any mid-message failure is a real transport error.
    fn try_read_alert(&mut self) -> io::Result<Option<Alert>> {
        match self.reader.fill_buf() {
            Ok([]) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
        let env = self.read_response()?;
        match env.resp {
            Response::Alert(alert) if env.id == 0 => Ok(Some(alert)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected message while idle (id {}): {other:?}", env.id),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn timeout_poisons_the_connection() {
        // A "server" that accepts and then never replies.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });

        let mut client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "first failure is the timeout itself: {err:?}"
        );
        assert!(client.is_poisoned());

        // Every subsequent call fails fast with the typed poison error —
        // even though the socket itself is still open.
        let err = client.ping().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let source = err.get_ref().expect("poison error carries a source");
        assert!(
            source.is::<ClientPoisoned>(),
            "downcastable poison marker: {source:?}"
        );

        hold.join().unwrap();
    }

    #[test]
    fn protocol_selection_is_validated() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            let _ = listener.accept();
        });
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.protocol(), PROTOCOL_VERSION);
        client.set_protocol(PROTOCOL_V2).unwrap();
        assert_eq!(client.protocol(), PROTOCOL_V2);
        assert!(client.set_protocol(7).is_err());
        assert_eq!(client.protocol(), PROTOCOL_V2, "failed switch is a no-op");
        accept.join().unwrap();
    }
}
