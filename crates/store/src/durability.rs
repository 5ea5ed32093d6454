//! The durability layer: every store mutation appends a WAL record
//! *before* it is applied (and therefore before any caller can ack it),
//! snapshots are WAL **checkpoints** that retire older segments, and boot
//! is one recovery story — `snapshot load → replay segments newer than
//! the checkpoint`.
//!
//! ## WAL record payloads
//!
//! Each `trips-wal` record payload is one store op in a compact
//! little-endian binary layout (JSON through the serde value tree costs
//! ~4× the in-memory ingest itself; the hot path can't pay that):
//!
//! ```text
//! payload       := codec_version u8 (=1) | tag u8 | body
//! tag           := 0 Ingest | 1 Register | 2 EndSession | 3 Clear
//! Ingest body   := str(device) | count u32 | semantics*
//! Register/EndSession body := str(device)
//! Clear body    := (empty)
//! semantics     := dev_flag u8 (0 = same as op device, 1 = str follows)
//!                  [str(device)] | str(event) | region u32 |
//!                  str(region_name) | start i64 ms | end i64 ms |
//!                  inferred u8 | point_flag u8 [x f64 | y f64 | floor i16]
//! str(s)        := len u32 | utf-8 bytes
//! ```
//!
//! Floats travel as raw IEEE-754 bits, so display points round-trip
//! bit-exactly (JSON would reformat them). The codec version byte lets a
//! future build change the layout while still replaying old segments.
//!
//! Only *effective* mutations are logged: an empty ingest batch, a
//! re-registration, or an `end_session` with no open flow are no-ops in
//! memory and never reach the WAL, so replay is step-for-step equivalent
//! to the original execution.
//!
//! ## Boot
//!
//! [`SemanticsStore::recover`] is one pass over the log with no copies:
//! the checkpoint snapshot (if any) is loaded, then a single
//! `trips-wal` [`trips_wal::Replay`] reads each segment once and CRC-checks
//! each frame once, lending each payload out as a slice of its read
//! buffer. The codec decodes the op's device id once and shares it
//! (`DeviceId` is an `Arc<str>`) with every semantics of the batch, and
//! the decoded semantics are moved into the shard — a replayed semantics
//! costs its two owned strings (event and region name) and nothing else.
//! The finished scan then opens the WAL for appending
//! ([`trips_wal::Replay::into_wal`]), truncating a torn tail where the
//! scan found it instead of reading the last segment again. Replay is
//! deliberately single-threaded: per-shard replay threads were measured
//! faster but raised resident memory past the benchmark bound (glibc
//! per-thread malloc arenas). [`RecoveryReport::elapsed_us`] records what
//! a boot cost.
//!
//! ## Ordering
//!
//! A writer appends while holding its device's **shard write lock**, so
//! for any device the WAL order equals the apply order; across devices
//! the store's final state is order-independent (state is a function of
//! the per-device sequences). [`SemanticsStore::checkpoint`] takes every
//! shard lock before rotating, so the snapshot is a point-in-time cut and
//! nothing lands in both the snapshot and a replayed segment.
//!
//! ## Crash safety of checkpoints
//!
//! The checkpoint sequence is stored *inside* the snapshot file and the
//! snapshot is published with a tmp-file + atomic-rename, so the
//! "snapshot contents" and "where replay resumes" can never disagree: a
//! crash before the rename leaves the old snapshot + full WAL, a crash
//! after it leaves the new snapshot + a WAL whose stale segments are
//! retired on the next boot.

use crate::snapshot::{self, SemanticsStoreError};
use crate::SemanticsStore;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant, SystemTime};
use trips_annotate::MobilitySemantics;
use trips_data::DeviceId;
use trips_wal::{FsyncPolicy, Wal, WalConfig};

/// Where and how the store journals its mutations.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments and the checkpoint snapshot.
    pub dir: PathBuf,
    /// When appended records reach stable storage (see
    /// [`trips_wal::FsyncPolicy`] for the trade-offs).
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// Defaults: `EveryN(64)` fsync, 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let defaults = WalConfig::default();
        DurabilityConfig {
            dir: dir.into(),
            fsync: defaults.fsync,
            segment_bytes: defaults.segment_bytes,
        }
    }

    /// The checkpoint snapshot lives alongside the segments.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }

    /// The inner `trips-wal` config. `EveryN` is implemented at *this*
    /// layer by a background flusher (group commit — appenders never
    /// block on fsync), so the inner log runs `Never` and the flusher
    /// calls [`Wal::sync`]. `Always`/`Never` pass through.
    fn wal_config(&self) -> WalConfig {
        WalConfig {
            segment_bytes: self.segment_bytes,
            fsync: match self.fsync {
                FsyncPolicy::EveryN(_) => FsyncPolicy::Never,
                passthrough => passthrough,
            },
        }
    }
}

/// The `EveryN` group-commit flusher: appenders bump the lock-free
/// `dirty` counter (one relaxed `fetch_add` on the hot path) and poke
/// the condvar only when the counter crosses the threshold; this thread
/// syncs the WAL off the hot path. A 100 ms wait timeout bounds
/// staleness under trickle load (and absorbs any notify race — the
/// threshold poke deliberately skips the signal mutex). SIGKILL safety
/// is unaffected — every append already lands in the page cache via the
/// mapped segment; only an OS/power crash can lose the unsynced window.
struct Flusher {
    dirty: Arc<AtomicU64>,
    signal: Arc<(StdMutex<bool>, Condvar)>, // the bool is `stop`
    /// Group-commit fdatasyncs completed (these bypass the inner
    /// [`Wal`]'s own counter — they sync a cloned fd off the lock).
    synced: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Flusher {
    fn spawn(wal: Arc<Mutex<Wal>>) -> Flusher {
        let dirty = Arc::new(AtomicU64::new(0));
        let signal = Arc::new((StdMutex::new(false), Condvar::new()));
        let synced = Arc::new(AtomicU64::new(0));
        let (dirty2, signal2, synced2) = (dirty.clone(), signal.clone(), synced.clone());
        let thread = std::thread::Builder::new()
            .name("trips-wal-flusher".to_string())
            .spawn(move || {
                let (lock, cv) = &*signal2;
                loop {
                    let stop = {
                        let guard = lock.lock().expect("flusher signal lock");
                        if *guard {
                            true
                        } else {
                            let (guard, _) = cv
                                .wait_timeout(guard, Duration::from_millis(100))
                                .expect("flusher signal lock");
                            *guard
                        }
                    };
                    if dirty2.swap(0, Ordering::Relaxed) > 0 {
                        // Clone the fd under the wal lock, fdatasync
                        // outside it: appenders keep appending while the
                        // sync runs.
                        let handle = wal.lock().sync_handle();
                        if let Ok(f) = handle {
                            if f.sync_data().is_ok() {
                                synced2.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    if stop {
                        return;
                    }
                }
            })
            .expect("spawn wal flusher");
        Flusher {
            dirty,
            signal,
            synced,
            thread: Some(thread),
        }
    }

    #[inline]
    fn note_append(&self, every: u32) {
        let appended = self.dirty.fetch_add(1, Ordering::Relaxed) + 1;
        if appended >= u64::from(every) && appended % u64::from(every) == 0 {
            // Mutex-free notify: if the flusher isn't waiting yet it
            // will see the counter on its next timeout tick.
            self.signal.1.notify_one();
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        let (lock, cv) = &*self.signal;
        if let Ok(mut stop) = lock.lock() {
            *stop = true;
            cv.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One journaled store mutation (owned form, used on replay). The op's
/// device id is decoded once and shared by every semantics that names it.
#[derive(Debug)]
pub(crate) enum WalOp {
    Ingest {
        device: DeviceId,
        semantics: Vec<MobilitySemantics>,
    },
    Register {
        device: DeviceId,
    },
    EndSession {
        device: DeviceId,
    },
    Clear,
}

/// Borrowed mirror of [`WalOp`] so the hot append path encodes without
/// cloning the batch.
pub(crate) enum WalOpRef<'a> {
    Ingest {
        device: &'a str,
        semantics: &'a [MobilitySemantics],
    },
    Register {
        device: &'a str,
    },
    EndSession {
        device: &'a str,
    },
    Clear,
}

/// The binary payload codec (layout in the module docs).
mod codec {
    use super::{WalOp, WalOpRef};
    use trips_annotate::MobilitySemantics;
    use trips_data::{DeviceId, Timestamp};
    use trips_dsm::RegionId;
    use trips_geom::IndoorPoint;

    pub(super) const CODEC_VERSION: u8 = 1;

    /// Exact encoded size of `op` — computed up front so the append path
    /// can reserve its slot in the WAL segment and encode straight into
    /// it (zero intermediate buffers).
    pub(super) fn encoded_len(op: &WalOpRef<'_>) -> usize {
        match op {
            WalOpRef::Ingest { device, semantics } => {
                let mut n = 2 + 4 + device.len() + 4;
                for s in *semantics {
                    n +=
                        1 + if s.device.as_str() == *device {
                            0
                        } else {
                            4 + s.device.as_str().len()
                        } + 4
                            + s.event.len()
                            + 4
                            + 4
                            + s.region_name.len()
                            + 8
                            + 8
                            + 1
                            + 1
                            + if s.display_point.is_some() { 18 } else { 0 };
                }
                n
            }
            WalOpRef::Register { device } | WalOpRef::EndSession { device } => 2 + 4 + device.len(),
            WalOpRef::Clear => 2,
        }
    }

    /// Sequential writer over a pre-sized slot.
    struct Sink<'a> {
        buf: &'a mut [u8],
        pos: usize,
    }

    impl Sink<'_> {
        #[inline]
        fn put(&mut self, bytes: &[u8]) {
            let end = self.pos + bytes.len();
            self.buf[self.pos..end].copy_from_slice(bytes);
            self.pos = end;
        }

        #[inline]
        fn put_u8(&mut self, b: u8) {
            self.buf[self.pos] = b;
            self.pos += 1;
        }

        #[inline]
        fn put_str(&mut self, s: &str) {
            self.put(&(s.len() as u32).to_le_bytes());
            self.put(s.as_bytes());
        }
    }

    /// Encodes `op` into `buf`, which must be exactly
    /// [`encoded_len`]`(op)` bytes.
    pub(super) fn encode_to(buf: &mut [u8], op: &WalOpRef<'_>) {
        let mut w = Sink { buf, pos: 0 };
        w.put_u8(CODEC_VERSION);
        match op {
            WalOpRef::Ingest { device, semantics } => {
                w.put_u8(0);
                w.put_str(device);
                w.put(&(semantics.len() as u32).to_le_bytes());
                for s in *semantics {
                    if s.device.as_str() == *device {
                        w.put_u8(0);
                    } else {
                        w.put_u8(1);
                        w.put_str(s.device.as_str());
                    }
                    w.put_str(&s.event);
                    w.put(&s.region.0.to_le_bytes());
                    w.put_str(&s.region_name);
                    w.put(&s.start.as_millis().to_le_bytes());
                    w.put(&s.end.as_millis().to_le_bytes());
                    w.put_u8(u8::from(s.inferred));
                    match &s.display_point {
                        None => w.put_u8(0),
                        Some(p) => {
                            w.put_u8(1);
                            w.put(&p.xy.x.to_bits().to_le_bytes());
                            w.put(&p.xy.y.to_bits().to_le_bytes());
                            w.put(&p.floor.to_le_bytes());
                        }
                    }
                }
            }
            WalOpRef::Register { device } => {
                w.put_u8(1);
                w.put_str(device);
            }
            WalOpRef::EndSession { device } => {
                w.put_u8(2);
                w.put_str(device);
            }
            WalOpRef::Clear => w.put_u8(3),
        }
        debug_assert_eq!(w.pos, w.buf.len(), "encoded_len must match encode_to");
    }

    #[cfg(test)]
    pub(super) fn encode(op: &WalOpRef<'_>) -> Vec<u8> {
        let mut buf = vec![0u8; encoded_len(op)];
        encode_to(&mut buf, op);
        buf
    }

    /// A streaming reader over a payload; every accessor bounds-checks.
    struct Reader<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            let end = self
                .pos
                .checked_add(n)
                .filter(|&e| e <= self.data.len())
                .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
            let out = &self.data[self.pos..end];
            self.pos = end;
            Ok(out)
        }

        fn u8(&mut self) -> Result<u8, String> {
            Ok(self.take(1)?[0])
        }

        fn u32(&mut self) -> Result<u32, String> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }

        fn i64(&mut self) -> Result<i64, String> {
            Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        fn f64(&mut self) -> Result<f64, String> {
            Ok(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            )))
        }

        fn i16(&mut self) -> Result<i16, String> {
            Ok(i16::from_le_bytes(self.take(2)?.try_into().unwrap()))
        }

        fn str(&mut self) -> Result<&'a str, String> {
            let len = self.u32()? as usize;
            std::str::from_utf8(self.take(len)?).map_err(|e| format!("non-utf8 string: {e}"))
        }

        fn done(&self) -> bool {
            self.pos == self.data.len()
        }
    }

    pub(super) fn decode(payload: &[u8]) -> Result<WalOp, String> {
        let mut r = Reader {
            data: payload,
            pos: 0,
        };
        let version = r.u8()?;
        if version != CODEC_VERSION {
            return Err(format!(
                "wal payload codec version {version} (this build reads {CODEC_VERSION})"
            ));
        }
        let op = match r.u8()? {
            0 => {
                let device = DeviceId::new(r.str()?);
                let count = r.u32()? as usize;
                let mut semantics = Vec::with_capacity(count.min(64 * 1024));
                for _ in 0..count {
                    let sem_device = match r.u8()? {
                        0 => device.clone(),
                        1 => DeviceId::new(r.str()?),
                        other => return Err(format!("bad device flag {other}")),
                    };
                    let event = r.str()?.to_string();
                    let region = RegionId(r.u32()?);
                    let region_name = r.str()?.to_string();
                    let start = Timestamp::from_millis(r.i64()?);
                    let end = Timestamp::from_millis(r.i64()?);
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
                            Some(IndoorPoint::new(x, y, floor))
                        }
                        other => return Err(format!("bad display-point flag {other}")),
                    };
                    semantics.push(MobilitySemantics {
                        device: sem_device,
                        event,
                        region,
                        region_name,
                        start,
                        end,
                        inferred,
                        display_point,
                    });
                }
                WalOp::Ingest { device, semantics }
            }
            1 => WalOp::Register {
                device: DeviceId::new(r.str()?),
            },
            2 => WalOp::EndSession {
                device: DeviceId::new(r.str()?),
            },
            3 => WalOp::Clear,
            other => return Err(format!("unknown wal op tag {other}")),
        };
        if !r.done() {
            return Err(format!(
                "trailing bytes after op ({} of {})",
                r.pos,
                r.data.len()
            ));
        }
        Ok(op)
    }
}

/// Live WAL occupancy, for health/metrics endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalStats {
    /// Live segment files.
    pub segments: usize,
    /// Total bytes across live segments.
    pub bytes: u64,
    /// Records appended (or replayed) since the last checkpoint — the
    /// replay debt a crash right now would incur.
    pub records_since_checkpoint: u64,
    /// Milliseconds since the last checkpoint snapshot was published
    /// (`None` if no checkpoint has ever been taken).
    pub last_checkpoint_age_ms: Option<u64>,
    /// `fdatasync`s issued since open: fsync-policy syncs, segment
    /// seals, and group-commit flusher syncs combined. `#[serde(default)]`
    /// so reports from builds predating this field still parse.
    #[serde(default)]
    pub fsyncs: u64,
    /// Segment rotations since open. `#[serde(default)]` — see `fsyncs`.
    #[serde(default)]
    pub rotations: u64,
}

/// What [`SemanticsStore::recover`] found and did, and what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a checkpoint snapshot was loaded.
    pub snapshot_loaded: bool,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Whether a torn tail (crash mid-append) was truncated away.
    pub torn_tail_truncated: bool,
    /// Live segments after recovery.
    pub segments: usize,
    /// Segment sequence replay resumed from.
    pub checkpoint_seq: u64,
    /// Wall time of the whole recovery — snapshot load, replay, and
    /// opening the WAL for appending — in microseconds: the restart cost
    /// a crash right now would incur (with `replayed_records`, the share
    /// of it that is replay).
    pub elapsed_us: u64,
}

/// What [`SemanticsStore::checkpoint`] wrote and retired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The published snapshot file.
    pub snapshot_path: PathBuf,
    /// Segments deleted by compaction.
    pub retired_segments: usize,
    pub devices: usize,
    pub semantics: usize,
}

/// The store's handle on its WAL. Writers append under their shard lock;
/// the wal mutex is always acquired *after* a shard lock (checkpoint
/// takes every shard lock first), so the lock order is globally
/// consistent.
pub(crate) struct Durability {
    wal: Arc<Mutex<Wal>>,
    /// Group-commit flusher; present only under `FsyncPolicy::EveryN`.
    flusher: Option<Flusher>,
    fsync: FsyncPolicy,
    snapshot_path: PathBuf,
    records_since_checkpoint: AtomicU64,
    last_checkpoint: Mutex<Option<SystemTime>>,
}

impl Durability {
    fn new(wal: Wal, config: &DurabilityConfig, replayed: u64, mtime: Option<SystemTime>) -> Self {
        let wal = Arc::new(Mutex::new(wal));
        let flusher = match config.fsync {
            FsyncPolicy::EveryN(_) => Some(Flusher::spawn(wal.clone())),
            _ => None,
        };
        Durability {
            wal,
            flusher,
            fsync: config.fsync,
            snapshot_path: config.snapshot_path(),
            records_since_checkpoint: AtomicU64::new(replayed),
            last_checkpoint: Mutex::new(mtime),
        }
    }

    /// Encodes and appends one op; **aborts the process** on a WAL I/O
    /// failure. A store that promised "acked ⇒ durable" must not keep
    /// acking after its log is gone (disk full, volume yanked) —
    /// crash-only: die, get restarted, recover from the WAL. A panic
    /// would be weaker, not stronger: it kills only the worker thread
    /// that hit it, leaving a serving process that accepts connections
    /// but can never answer — wedged instead of restartable.
    pub(crate) fn append(&self, op: &WalOpRef<'_>) {
        let len = codec::encoded_len(op);
        let mut wal = self.wal.lock();
        if let Err(e) = wal.append_with(len, |slot| codec::encode_to(slot, op)) {
            eprintln!(
                "FATAL: WAL append to {} failed: {e} — refusing to ack a \
                 non-durable write; aborting so a supervisor can restart \
                 into recovery",
                wal.dir().display()
            );
            std::process::abort();
        }
        drop(wal);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        if let (Some(flusher), FsyncPolicy::EveryN(n)) = (&self.flusher, self.fsync) {
            flusher.note_append(n.max(1));
        }
    }

    pub(crate) fn stats(&self) -> WalStats {
        let (segments, bytes, wal_syncs, rotations) = {
            let wal = self.wal.lock();
            (
                wal.segment_count(),
                wal.total_bytes(),
                wal.fsyncs(),
                wal.rotations(),
            )
        };
        let flusher_syncs = self
            .flusher
            .as_ref()
            .map_or(0, |f| f.synced.load(Ordering::Relaxed));
        let last_checkpoint_age_ms = self.last_checkpoint.lock().and_then(|t| {
            SystemTime::now()
                .duration_since(t)
                .ok()
                .map(|d| d.as_millis() as u64)
        });
        WalStats {
            segments,
            bytes,
            records_since_checkpoint: self.records_since_checkpoint.load(Ordering::Relaxed),
            last_checkpoint_age_ms,
            fsyncs: wal_syncs + flusher_syncs,
            rotations,
        }
    }

    pub(crate) fn sync(&self) -> std::io::Result<()> {
        self.wal.lock().sync()
    }
}

impl SemanticsStore {
    /// Boots a store from its durability directory: load the checkpoint
    /// snapshot if one exists, replay every WAL record in segments at or
    /// after the checkpoint sequence, truncate any torn tail, retire
    /// segments the checkpoint already covers, and attach the WAL for
    /// appending. `shards` seeds the shard count when there is no
    /// snapshot to dictate one (`0` = [`crate::default_shard_count`]).
    ///
    /// The recovered store is *equivalent* to the never-crashed store:
    /// same devices, same per-device semantics and session boundaries,
    /// same aggregates (rebuilt, as with snapshot load), pinned by tests
    /// down to byte-identical re-persisted snapshots.
    pub fn recover(
        config: &DurabilityConfig,
        shards: usize,
    ) -> Result<(SemanticsStore, RecoveryReport), SemanticsStoreError> {
        let started = Instant::now();
        std::fs::create_dir_all(&config.dir).map_err(trips_wal::WalError::from)?;
        let snapshot_path = config.snapshot_path();
        let (mut store, checkpoint_seq, snapshot_loaded, snapshot_mtime) = if snapshot_path.exists()
        {
            let file = snapshot::read_snapshot(&snapshot_path)?;
            let mtime = std::fs::metadata(&snapshot_path)
                .and_then(|m| m.modified())
                .ok();
            let seq = file.wal_seq.unwrap_or(0);
            (snapshot::store_from_file(&file), seq, true, mtime)
        } else {
            let store = if shards > 0 {
                SemanticsStore::with_shards(shards)
            } else {
                SemanticsStore::new()
            };
            (store, 0, false, None)
        };

        // Replay, one pass: each segment is read and CRC-checked once,
        // each record decoded straight from the read buffer, and its
        // semantics moved into the shards. The store has no durability
        // handle yet, so applying cannot re-append. The replay stops at a
        // torn tail; `into_wal` then truncates it and positions the
        // writer there without scanning the last segment again.
        let mut replay = Wal::replay_from(&config.dir, checkpoint_seq)?;
        let mut replayed_records = 0u64;
        while let Some(record) = replay.next_record() {
            let record = record?;
            let op = codec::decode(record.payload).map_err(|e| {
                SemanticsStoreError::Serde(format!(
                    "wal record in segment {} does not decode: {e}",
                    record.segment
                ))
            })?;
            store.apply(op);
            replayed_records += 1;
        }
        let mut wal = replay.into_wal(config.wal_config())?;
        let torn_tail_truncated = wal.truncated_tail().is_some();

        // A crash between snapshot-rename and retirement leaves covered
        // segments behind; finish the job.
        wal.retire_below(checkpoint_seq)?;
        let segments = wal.segment_count();

        store.durability = Some(Durability::new(
            wal,
            config,
            replayed_records,
            snapshot_mtime,
        ));
        Ok((
            store,
            RecoveryReport {
                snapshot_loaded,
                replayed_records,
                torn_tail_truncated,
                segments,
                checkpoint_seq,
                elapsed_us: started.elapsed().as_micros() as u64,
            },
        ))
    }

    /// Applies a replayed op without journaling (recovery path; the op is
    /// already in the log). An ingest moves its decoded semantics into
    /// the shard and skips the rule engine: a store under recovery has no
    /// standing rules yet.
    fn apply(&self, op: WalOp) {
        match op {
            WalOp::Ingest { device, semantics } => {
                if !semantics.is_empty() {
                    self.shards()[self.shard_index(&device)]
                        .write()
                        .ingest_owned(&device, semantics);
                }
            }
            WalOp::Register { device } => self.register_device(&device),
            WalOp::EndSession { device } => self.end_session(&device),
            WalOp::Clear => self.clear(),
        }
    }

    /// Whether this store journals to a WAL.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Live WAL occupancy (`None` for a non-durable store).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(Durability::stats)
    }

    /// Forces any buffered WAL appends to stable storage now (a no-op
    /// for a non-durable store). Serving drains call this so the tail of
    /// an `EveryN` window survives a graceful shutdown.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        match &self.durability {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Checkpoints a durable store: under every shard lock (a point-in-
    /// time cut), rotate the WAL, snapshot the full store state tagged
    /// with the new segment sequence, publish it atomically, then retire
    /// all older segments. Recovery after this replays only segments at
    /// or after the rotation point.
    ///
    /// Errors with [`SemanticsStoreError::NotDurable`] on a store that
    /// has no WAL — use [`SemanticsStore::persist`] there.
    pub fn checkpoint(&self) -> Result<CheckpointReport, SemanticsStoreError> {
        let Some(d) = &self.durability else {
            return Err(SemanticsStoreError::NotDurable);
        };
        // Shard locks first, wal lock second — same global order as the
        // append path, so writers and checkpoints cannot deadlock.
        let guards: Vec<_> = self.shards().iter().map(|s| s.write()).collect();
        let seq = d.wal.lock().rotate()?;
        let file =
            snapshot::build_snapshot(guards.iter().map(|g| &**g), self.shard_count(), Some(seq));
        let (devices, semantics) = (
            file.devices.len(),
            file.devices
                .iter()
                .flat_map(|(_, sessions)| sessions.iter().map(Vec::len))
                .sum(),
        );
        // Replay debt covered by this checkpoint = the appends that
        // happened before the cut; captured under the guards so appends
        // racing the disk write below stay counted.
        let covered = d.records_since_checkpoint.load(Ordering::Relaxed);
        // The point-in-time cut only needs to cover the rotation and the
        // in-memory copy: release writers before the expensive disk work
        // (serialize + write + fsync + rename). Mutations landing from
        // here on go to segments >= seq and replay on top of the
        // snapshot — the same story as a crash between rename and
        // retirement.
        drop(guards);
        snapshot::write_atomic(&d.snapshot_path, &file)?;

        let retired_segments = d.wal.lock().retire_below(seq)?;
        d.records_since_checkpoint
            .fetch_sub(covered, Ordering::Relaxed);
        *d.last_checkpoint.lock() = Some(SystemTime::now());
        Ok(CheckpointReport {
            snapshot_path: d.snapshot_path.clone(),
            retired_segments,
            devices,
            semantics,
        })
    }
}

/// The single boot path for every serving configuration:
///
/// * `durability` set — full recovery (checkpoint snapshot + WAL replay);
///   `snapshot` must be `None` (the checkpoint snapshot lives inside the
///   durability directory).
/// * only `snapshot` set — one-shot load of a non-durable snapshot file
///   (changes after boot are not journaled).
/// * neither — an empty store with `shards` shards (`0` = default).
pub fn boot_store(
    durability: Option<&DurabilityConfig>,
    snapshot: Option<&Path>,
    shards: usize,
) -> Result<(SemanticsStore, Option<RecoveryReport>), SemanticsStoreError> {
    match (durability, snapshot) {
        (Some(_), Some(_)) => Err(SemanticsStoreError::Config(
            "configure either a durability dir or a boot snapshot, not both \
             (a durable store's snapshot is its checkpoint)"
                .to_string(),
        )),
        (Some(config), None) => {
            let (store, report) = SemanticsStore::recover(config, shards)?;
            Ok((store, Some(report)))
        }
        (None, Some(path)) => Ok((SemanticsStore::load(path)?, None)),
        (None, None) => {
            let store = if shards > 0 {
                SemanticsStore::with_shards(shards)
            } else {
                SemanticsStore::new()
            };
            Ok((store, None))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::Timestamp;
    use trips_dsm::RegionId;
    use trips_geom::IndoorPoint;

    fn sem(device: &str, with_point: bool) -> MobilitySemantics {
        MobilitySemantics {
            device: DeviceId::new(device),
            event: "stay".into(),
            region: RegionId(7),
            region_name: "Nike (0F-0)".into(),
            start: Timestamp::from_millis(36_000_123),
            end: Timestamp::from_millis(36_600_456),
            inferred: !with_point,
            display_point: with_point.then(|| IndoorPoint::new(6.5000001, -4.25, -2)),
        }
    }

    /// The binary codec must reproduce every field bit-exactly —
    /// including float display points (raw IEEE-754 bits) and semantics
    /// whose device differs from the op device.
    #[test]
    fn codec_roundtrips_every_op_shape() {
        let own = sem("dev-a", true);
        let foreign = sem("dev-b", false);
        let ops = [
            WalOpRef::Ingest {
                device: "dev-a",
                semantics: std::slice::from_ref(&own),
            },
            WalOpRef::Ingest {
                device: "dev-a",
                semantics: &[own.clone(), foreign.clone()],
            },
            WalOpRef::Ingest {
                device: "dev-a",
                semantics: &[],
            },
            WalOpRef::Register { device: "dev-α" }, // non-ASCII survives
            WalOpRef::EndSession { device: "" },
            WalOpRef::Clear,
        ];
        for op in &ops {
            let bytes = codec::encode(op);
            assert_eq!(bytes.len(), codec::encoded_len(op), "exact sizing");
            let back = codec::decode(&bytes).expect("decode");
            match (op, &back) {
                (
                    WalOpRef::Ingest { device, semantics },
                    WalOp::Ingest {
                        device: d,
                        semantics: s,
                    },
                ) => {
                    assert_eq!(d.as_str(), *device);
                    assert_eq!(s.as_slice(), *semantics, "bit-exact semantics roundtrip");
                }
                (WalOpRef::Register { device }, WalOp::Register { device: d })
                | (WalOpRef::EndSession { device }, WalOp::EndSession { device: d }) => {
                    assert_eq!(d.as_str(), *device);
                }
                (WalOpRef::Clear, WalOp::Clear) => {}
                (_, other) => panic!("variant mismatch: {other:?}"),
            }
        }
    }

    /// Flow names come from the device's last stored semantics: a flow
    /// across an ingest batch boundary names both ends, a session break
    /// suppresses the flow, and the replayed path (decode + move into the
    /// shard) builds exactly the live path's flows.
    #[test]
    fn flow_names_across_batch_and_session_boundaries() {
        let at = |region: u32, name: &str, start_s: i64| MobilitySemantics {
            region: RegionId(region),
            region_name: name.into(),
            start: Timestamp::from_millis(start_s * 1000),
            end: Timestamp::from_millis(start_s * 1000 + 60_000),
            ..sem("dev-a", true)
        };
        let batches = [
            vec![at(1, "Nike", 0), at(2, "Hall", 100)],
            vec![at(3, "Cafe", 200)], // Hall → Cafe crosses the batch boundary
            vec![at(1, "Nike", 400)], // after end_session: no Cafe → Nike
            vec![at(2, "Hall", 500)],
        ];
        let ops: Vec<WalOpRef<'_>> = vec![
            WalOpRef::Ingest {
                device: "dev-a",
                semantics: &batches[0],
            },
            WalOpRef::Ingest {
                device: "dev-a",
                semantics: &batches[1],
            },
            WalOpRef::EndSession { device: "dev-a" },
            WalOpRef::Ingest {
                device: "dev-a",
                semantics: &batches[2],
            },
            WalOpRef::Ingest {
                device: "dev-a",
                semantics: &batches[3],
            },
        ];
        let live = SemanticsStore::with_shards(2);
        let replayed = SemanticsStore::with_shards(2);
        let dev = DeviceId::new("dev-a");
        for op in &ops {
            match op {
                WalOpRef::Ingest { semantics, .. } => live.ingest(&dev, semantics),
                _ => live.end_session(&dev),
            }
            replayed.apply(codec::decode(&codec::encode(op)).unwrap());
        }
        let flow = |from: u32, from_name: &str, to: u32, to_name: &str, count| crate::Flow {
            from: RegionId(from),
            from_name: from_name.into(),
            to: RegionId(to),
            to_name: to_name.into(),
            count,
        };
        let want = vec![flow(1, "Nike", 2, "Hall", 2), flow(2, "Hall", 3, "Cafe", 1)];
        for (path, store) in [("live", &live), ("replayed", &replayed)] {
            for selector in [
                crate::SemanticsSelector::all(),
                crate::SemanticsSelector::all().with_device_pattern("dev-*"),
            ] {
                assert_eq!(store.top_flows(&selector, 10), want, "{path}");
            }
        }
    }

    /// Truncations, flag garbage, trailing bytes, and future codec
    /// versions must all fail typed — never panic, never misparse.
    #[test]
    fn codec_rejects_malformed_payloads() {
        let bytes = codec::encode(&WalOpRef::Ingest {
            device: "dev-a",
            semantics: &[sem("dev-a", true)],
        });
        for cut in 0..bytes.len() {
            assert!(codec::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(codec::decode(&trailing).is_err(), "trailing byte");
        let mut future = bytes.clone();
        future[0] = 99;
        let err = codec::decode(&future).unwrap_err();
        assert!(err.contains("codec version 99"), "{err}");
        let mut bad_tag = bytes;
        bad_tag[1] = 42;
        assert!(codec::decode(&bad_tag).is_err(), "unknown tag");
    }
}
