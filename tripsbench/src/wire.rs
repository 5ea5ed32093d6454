//! A v2 client connection that can pipeline: one thread writes pre-encoded
//! frames (either keeping a window of requests in flight, or on an
//! open-loop timetable) while another reads the acks, so each ack is timed
//! without the writer waiting on it. Standing-rule alerts (id 0) pushed on
//! the same connection are counted.

use crate::inputs::{Frame, FRAME_ID_BASE};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use trips_server::codec::{check_crc, decode_response_payload, parse_header, HEADER_LEN};
use trips_server::{Request, Response, ResponseEnvelope};

pub struct WireConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Alerts pushed on this connection so far.
    pub alerts: u64,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_envelope(reader: &mut BufReader<TcpStream>) -> io::Result<ResponseEnvelope> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    let (len, crc) = parse_header(&header)
        .map_err(|e| bad(e.to_string()))?
        .ok_or_else(|| bad("short header".into()))?;
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    check_crc(&payload, crc)
        .and_then(|()| decode_response_payload(&payload))
        .map_err(|e| bad(e.to_string()))
}

impl WireConn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(WireConn {
            stream,
            reader,
            next_id: 1,
            alerts: 0,
        })
    }

    /// One request, one response (alerts in between are counted).
    pub fn call(&mut self, req: Request) -> io::Result<Response> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&crate::inputs::encode(id, req))?;
        loop {
            let env = read_envelope(&mut self.reader)?;
            match env.resp {
                Response::Alert(_) if env.id == 0 => self.alerts += 1,
                resp if env.id == id => return Ok(resp),
                other => return Err(bad(format!("unexpected reply {}: {other:?}", env.id))),
            }
        }
    }
}

impl WireConn {
    /// Pipelines `reqs` in one write and reads their responses in order;
    /// each comes back with the instant it arrived.
    pub fn call_batch(&mut self, reqs: Vec<Request>) -> io::Result<Vec<(Response, Instant)>> {
        let first = self.next_id;
        let n = reqs.len();
        self.next_id += n as u64;
        let mut wire = Vec::new();
        for (i, req) in reqs.into_iter().enumerate() {
            wire.extend_from_slice(&crate::inputs::encode(first + i as u64, req));
        }
        self.stream.write_all(&wire)?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let env = read_envelope(&mut self.reader)?;
            match env.resp {
                Response::Alert(_) if env.id == 0 => self.alerts += 1,
                resp if env.id == first + out.len() as u64 => out.push((resp, Instant::now())),
                other => return Err(bad(format!("unexpected reply {}: {other:?}", env.id))),
            }
        }
        Ok(out)
    }
}

/// How the writer paces its frames.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Closed loop: at most this many requests in flight.
    Window(usize),
    /// Open loop: frame `i` is due at `start + i·interval`, whatever the
    /// acks do; its latency is timed from when it was due.
    Schedule { start: Instant, interval: Duration },
}

#[derive(Default)]
pub struct Sent {
    /// Ack latency (µs) of every frame that carried records.
    pub latencies_us: Vec<f64>,
    /// How late (µs) each open-loop frame went out after it was due.
    pub late_us: Vec<f64>,
    /// Records in acked `Ingest` frames.
    pub records: u64,
    /// Requests answered with an error or a rejection.
    pub errors: u64,
    /// When the first frame's clock started.
    pub first: Option<Instant>,
    /// When the last ack arrived.
    pub last_ack: Option<Instant>,
}

/// Sends `frames` over `conn` under `pace` and collects every ack.
pub fn send_frames(conn: &mut WireConn, frames: &[Frame], pace: Pace) -> io::Result<Sent> {
    let n = frames.len();
    let origin = Instant::now();
    // Per-frame "clock starts" in ns after `origin` (send or due time).
    let started: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let acked = Mutex::new(0usize);
    let ack_cv = Condvar::new();
    let WireConn {
        stream,
        reader,
        alerts,
        ..
    } = conn;

    std::thread::scope(|s| {
        let reader_thread = s.spawn(|| -> io::Result<Sent> {
            let mut out = Sent::default();
            let mut done = 0usize;
            while done < n {
                let env = match read_envelope(reader) {
                    Ok(env) => env,
                    Err(e) => {
                        // Unblock the writer before reporting.
                        *acked.lock().expect("ack counter poisoned") = n;
                        ack_cv.notify_all();
                        return Err(e);
                    }
                };
                if env.id == 0 {
                    if let Response::Alert(_) = env.resp {
                        *alerts += 1;
                        continue;
                    }
                }
                let now = Instant::now();
                let idx = env.id.wrapping_sub(FRAME_ID_BASE) as usize;
                if idx >= n {
                    out.errors += 1;
                    continue;
                }
                let frame = &frames[idx];
                match env.resp {
                    Response::Ingested { rejected: 0, .. } if frame.records > 0 => {
                        let t0 = started[idx].load(Ordering::Acquire);
                        let since = now.duration_since(origin).as_nanos() as u64;
                        out.latencies_us.push(since.saturating_sub(t0) as f64 / 1e3);
                        out.records += frame.records as u64;
                    }
                    Response::Flushed { .. } if frame.records == 0 => {}
                    _ => out.errors += 1,
                }
                out.last_ack = Some(now);
                done += 1;
                *acked.lock().expect("ack counter poisoned") = done;
                ack_cv.notify_all();
            }
            Ok(out)
        });

        let mut late_us = Vec::new();
        let mut first = None;
        let mut write_err = None;
        for (i, frame) in frames.iter().enumerate() {
            let clock_start = match pace {
                Pace::Window(w) => {
                    let mut a = acked.lock().expect("ack counter poisoned");
                    while i >= *a + w {
                        a = ack_cv.wait(a).expect("ack counter poisoned");
                    }
                    Instant::now()
                }
                Pace::Schedule { start, interval } => {
                    let due = start + interval * i as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                    due
                }
            };
            first.get_or_insert(clock_start);
            let t0 = clock_start.saturating_duration_since(origin).as_nanos() as u64;
            started[i].store(t0, Ordering::Release);
            if let Err(e) = stream.write_all(&frame.bytes) {
                write_err = Some(e);
                break;
            }
        }
        if let Some(e) = write_err {
            // The reader cannot finish; unblock it by closing our half.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = reader_thread.join();
            return Err(e);
        }
        let mut sent = reader_thread.join().expect("reader thread")?;
        sent.late_us = late_us;
        sent.first = first;
        Ok(sent)
    })
}
