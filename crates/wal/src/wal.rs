//! The WAL writer: open (with torn-tail truncation), append under an
//! fsync policy, rotate, and retire checkpointed segments.
//!
//! ## Append path
//!
//! On unix the active segment is pre-sized one step ([`PRESIZE_STEP`],
//! 1 MiB or the rotation threshold if smaller) past the write position
//! and `MAP_SHARED`-mapped: an append is a bounds-checked `memcpy` into
//! the page cache — no syscall per record — with identical crash
//! semantics to `write(2)` (dirty mapped pages belong to the file's page
//! cache and are flushed by the same `fdatasync`). An append that would
//! cross the end of the mapping grows the file by the next step and
//! remaps. The unwritten tail of a pre-sized segment is zeros, which the
//! frame scanner rejects as invalid (zero-length frames are forbidden),
//! so after a crash the padding reads as a torn tail and is truncated
//! like any other tear. Sealed segments are truncated to their real
//! length on rotation and on clean shutdown. Elsewhere a plain
//! `write(2)` path is used.

use crate::frame::MAX_RECORD_BYTES;
use crate::replay::{Replay, ScannedTail, TornTail};
use crate::segment::{encode_segment_header, list_segments, segment_path, SEGMENT_HEADER_BYTES};
use crate::{FsyncPolicy, WalError};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Writer configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one reaches this size
    /// (the mapped active segment grows toward it in 1 MiB steps).
    pub segment_bytes: u64,
    /// When appended records are flushed to stable storage.
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(64),
        }
    }
}

/// An open write-ahead log rooted at a directory (see the crate docs for
/// the on-disk format). One writer per directory; readers ([`Replay`])
/// are independent.
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    file: File,
    #[cfg(unix)]
    map: Option<crate::mmap::Region>,
    active_seq: u64,
    /// Bytes of real data in the active segment (header included) — the
    /// file itself may be pre-sized longer for the mapping.
    active_bytes: u64,
    /// Total size of the sealed (non-active) segments.
    sealed_bytes: u64,
    segment_count: usize,
    unsynced: u32,
    appended: u64,
    /// `fdatasync`s issued through this handle (explicit syncs, policy
    /// syncs, and segment seals — not the group-commit flusher's, which
    /// sync a cloned fd outside this struct).
    syncs: u64,
    /// Segment rotations performed through this handle.
    rotations: u64,
    truncated_tail: Option<TornTail>,
    /// Reused frame buffer for the non-mmap write path.
    #[cfg(not(unix))]
    frame_buf: Vec<u8>,
}

impl Wal {
    /// Opens the WAL at `dir` (creating the directory if needed) and
    /// positions for appending: the last segment's tail is validated and
    /// a torn final frame — the signature of a crash mid-append — is
    /// **truncated away** (retrievable via [`Wal::truncated_tail`]).
    /// Segments before the last are not scanned here; [`Wal::replay_from`]
    /// validates them and surfaces mid-log corruption (and
    /// [`Replay::into_wal`] opens the log from a finished replay without
    /// scanning the last segment a second time).
    pub fn open(dir: impl AsRef<Path>, config: WalConfig) -> Result<Wal, WalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        match list_segments(&dir)?.pop() {
            None => Wal::attach(dir, config, None, None),
            Some(last) => Replay::over(dir, vec![last]).into_wal(config),
        }
    }

    /// Positions a writer on a scanned last segment (`None`: an empty
    /// directory, so segment 1 is created): a short header is rebuilt in
    /// place, a torn tail is truncated, and the segment is mapped.
    pub(crate) fn attach(
        dir: PathBuf,
        config: WalConfig,
        tail: Option<ScannedTail>,
        truncated_tail: Option<TornTail>,
    ) -> Result<Wal, WalError> {
        let (active_seq, mut file, active_bytes) = match tail {
            None => {
                let seq = 1;
                let file = create_segment(&dir, seq)?;
                (seq, file, SEGMENT_HEADER_BYTES as u64)
            }
            Some(tail) => {
                let mut file = OpenOptions::new().read(true).write(true).open(&tail.path)?;
                if tail.valid_end == 0 {
                    // Only a crash during segment creation can leave a
                    // short header: nothing in this segment is real.
                    // Rebuild the header in place.
                    file.set_len(0)?;
                    file.seek(SeekFrom::Start(0))?;
                    file.write_all(&encode_segment_header(tail.seq))?;
                    file.sync_data()?;
                    (tail.seq, file, SEGMENT_HEADER_BYTES as u64)
                } else {
                    if tail.valid_end < tail.file_len {
                        file.set_len(tail.valid_end)?;
                        file.sync_data()?;
                    }
                    file.seek(SeekFrom::Start(tail.valid_end))?;
                    (tail.seq, file, tail.valid_end)
                }
            }
        };

        #[cfg(unix)]
        let map = map_active(&mut file, active_bytes, &config)?;

        let mut wal = Wal {
            dir,
            config,
            file,
            #[cfg(unix)]
            map,
            active_seq,
            active_bytes,
            sealed_bytes: 0,
            segment_count: 0,
            unsynced: 0,
            appended: 0,
            syncs: 0,
            rotations: 0,
            truncated_tail,
            #[cfg(not(unix))]
            frame_buf: Vec::new(),
        };
        wal.recount()?;
        Ok(wal)
    }

    /// Iterates every record in every segment of `dir` (see [`Replay`]).
    pub fn replay(dir: impl AsRef<Path>) -> Result<Replay, WalError> {
        Replay::new(dir.as_ref(), 0)
    }

    /// Iterates every record in segments with sequence `>= min_seq` — the
    /// recovery path after a checkpoint recorded `min_seq`.
    pub fn replay_from(dir: impl AsRef<Path>, min_seq: u64) -> Result<Replay, WalError> {
        Replay::new(dir.as_ref(), min_seq)
    }

    /// Appends one record, rotating first if the active segment is full,
    /// then syncing per the configured [`FsyncPolicy`]. When this returns
    /// `Ok`, the record is in the log (and on stable storage, if the
    /// policy says so) — the caller may ack. Payloads must be non-empty
    /// (zero-length frames are reserved for padding detection) and at
    /// most [`MAX_RECORD_BYTES`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        self.append_with(payload.len(), |slot| slot.copy_from_slice(payload))
    }

    /// Zero-copy append: reserves a `payload_len` slot in the log, has
    /// `fill` encode the payload **directly into the segment** (on unix,
    /// into the mapped page cache — no intermediate buffer, no copy),
    /// then stamps the frame header (length + CRC computed over the
    /// written bytes). `fill` must fill the whole slot. Same guarantees
    /// as [`Wal::append`].
    pub fn append_with(
        &mut self,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), WalError> {
        if payload_len == 0 {
            return Err(WalError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty wal records are forbidden (indistinguishable from segment padding)",
            )));
        }
        if payload_len > MAX_RECORD_BYTES {
            return Err(WalError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record of {payload_len} bytes exceeds {MAX_RECORD_BYTES}"),
            )));
        }
        if self.active_bytes >= self.config.segment_bytes {
            self.rotate()?;
        }
        let frame_len = crate::frame::FRAME_HEADER_BYTES + payload_len;
        self.write_frame(frame_len, payload_len, fill)?;
        self.active_bytes += frame_len as u64;
        self.appended += 1;
        match self.config.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    #[cfg(unix)]
    fn write_frame(
        &mut self,
        frame_len: usize,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), WalError> {
        let needed = self.active_bytes as usize + frame_len;
        let map_len = self.map.as_ref().map_or(0, crate::mmap::Region::len);
        if needed > map_len {
            // The frame does not fit the pre-sized space: grow the file to
            // one step past the frame's end and remap (unmap first —
            // never shrink or race a live mapping).
            self.map = None;
            self.map = map_active(&mut self.file, needed as u64, &self.config)?;
        }
        let slot = self
            .map
            .as_mut()
            .expect("active segment is mapped")
            .slice_mut(self.active_bytes as usize, frame_len);
        let (header, payload) = slot.split_at_mut(crate::frame::FRAME_HEADER_BYTES);
        debug_assert_eq!(payload.len(), payload_len);
        fill(payload);
        crate::frame::fill_frame_header(header, payload);
        Ok(())
    }

    #[cfg(not(unix))]
    fn write_frame(
        &mut self,
        frame_len: usize,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), WalError> {
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        frame.resize(frame_len, 0);
        let (header, payload) = frame.split_at_mut(crate::frame::FRAME_HEADER_BYTES);
        debug_assert_eq!(payload.len(), payload_len);
        fill(payload);
        crate::frame::fill_frame_header(header, payload);
        let write = self.file.write_all(&frame);
        self.frame_buf = frame;
        write?;
        Ok(())
    }

    /// Flushes the active segment to stable storage now, regardless of
    /// policy (`fdatasync` flushes `MAP_SHARED` dirty pages too).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        self.syncs += 1;
        Ok(())
    }

    /// A cloned handle to the active segment, for syncing **off** the
    /// writer's lock: `fdatasync` on the clone flushes the same file
    /// without stalling appenders for the sync's duration (the group-
    /// commit flusher's trick). If a rotation races the sync, the clone
    /// still points at the sealed segment — harmless, rotation syncs
    /// sealed segments itself.
    pub fn sync_handle(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// Closes the active segment — truncating its pre-sized padding and
    /// syncing it regardless of fsync policy (rotation is rare, and a
    /// sealed segment that later vanished from the page cache would
    /// corrupt the *middle* of the log, which replay treats as fatal
    /// rather than as a tail to truncate) — and starts a fresh one;
    /// returns the **new** active sequence. A checkpoint rotates,
    /// snapshots state as of the rotation point, then
    /// [`Wal::retire_below`] the new sequence.
    pub fn rotate(&mut self) -> Result<u64, WalError> {
        self.seal_active()?;
        self.sealed_bytes += self.active_bytes;
        let seq = self.active_seq + 1;
        let mut file = create_segment(&self.dir, seq)?;
        #[cfg(unix)]
        {
            self.map = map_active(&mut file, SEGMENT_HEADER_BYTES as u64, &self.config)?;
        }
        self.file = file;
        self.active_seq = seq;
        self.active_bytes = SEGMENT_HEADER_BYTES as u64;
        self.segment_count += 1;
        self.unsynced = 0;
        self.rotations += 1;
        Ok(seq)
    }

    /// Unmaps, trims the pre-sizing padding, and syncs the active
    /// segment (used by rotation and shutdown).
    fn seal_active(&mut self) -> io::Result<()> {
        #[cfg(unix)]
        {
            self.map = None;
        }
        self.file.set_len(self.active_bytes)?;
        self.file.sync_data()?;
        self.unsynced = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Deletes every segment with sequence below `seq` (never the active
    /// one) — checkpoint compaction. Returns how many files were removed.
    pub fn retire_below(&mut self, seq: u64) -> Result<usize, WalError> {
        let cutoff = seq.min(self.active_seq);
        let mut removed = 0;
        for (s, path) in list_segments(&self.dir)? {
            if s < cutoff {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.sync_dir();
            self.recount()?;
        }
        Ok(removed)
    }

    /// Directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence of the segment currently being appended to.
    pub fn active_seq(&self) -> u64 {
        self.active_seq
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.segment_count
    }

    /// Total bytes of real log data across live segments (headers
    /// included; the active segment's pre-sizing padding is not data).
    pub fn total_bytes(&self) -> u64 {
        self.sealed_bytes + self.active_bytes
    }

    /// Records appended through this handle since it was opened.
    pub fn records_appended(&self) -> u64 {
        self.appended
    }

    /// Appends not yet explicitly synced (0 under `FsyncPolicy::Always`).
    pub fn unsynced_records(&self) -> u32 {
        self.unsynced
    }

    /// `fdatasync`s issued through this handle since it was opened
    /// (policy syncs + explicit syncs + segment seals).
    pub fn fsyncs(&self) -> u64 {
        self.syncs
    }

    /// Segment rotations performed through this handle since it was
    /// opened.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// The torn tail [`Wal::open`] truncated, if any.
    pub fn truncated_tail(&self) -> Option<&TornTail> {
        self.truncated_tail.as_ref()
    }

    /// Recomputes segment count + sealed bytes from the directory.
    fn recount(&mut self) -> Result<(), WalError> {
        let segments = list_segments(&self.dir)?;
        self.segment_count = segments.len();
        self.sealed_bytes = 0;
        for (seq, path) in &segments {
            if *seq != self.active_seq {
                self.sealed_bytes += fs::metadata(path)?.len();
            }
        }
        Ok(())
    }

    /// Best-effort directory fsync so segment creation/removal survives a
    /// power failure (ignored where directories cannot be opened).
    fn sync_dir(&self) {
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Graceful shutdown: trim the padding so readers and the next
        // open see exactly the real log, and don't lose the tail of an
        // EveryN window.
        let _ = self.seal_active();
    }
}

/// How far ahead of the write position the mapped active segment is
/// pre-sized: 1 MiB, or the rotation threshold if that is smaller. A
/// segment grows by this step as appends reach its end, so opening a log
/// zero-fills at most one step rather than a whole segment.
pub const PRESIZE_STEP: u64 = 1024 * 1024;

/// The pre-sized length for a write position `pos`: the first multiple of
/// the step strictly past it.
#[cfg(unix)]
fn presized_len(pos: u64, config: &WalConfig) -> u64 {
    let step = PRESIZE_STEP.min(config.segment_bytes).max(1);
    (pos / step + 1) * step
}

/// Pre-sizes the active segment to one step past `pos` (the write
/// position, or the end of the frame about to be written) and maps it.
/// The file is never shrunk here — the real data length is tracked by the
/// caller.
///
/// The mapping invariant ([`crate::mmap::Region`]): every mapped byte past
/// the real data is padding that was **zero-filled by `write(2)`** before
/// the mapping existed — not `set_len` holes or `fallocate` extents, whose
/// first touch through the mapping costs microseconds (fault + block
/// allocation + `page_mkwrite`) and, on a full disk, is a SIGBUS instead
/// of an I/O error from the fill. Only the padding this call adds is
/// prefaulted (the data before it is never touched), so appends
/// are a ~0.3 µs copy into cached pages (measured; PostgreSQL's
/// `wal_init_zero` makes the same call). Seal and drop truncate the
/// padding away.
#[cfg(unix)]
fn map_active(
    file: &mut File,
    pos: u64,
    config: &WalConfig,
) -> Result<Option<crate::mmap::Region>, WalError> {
    let padding_start = fs::File::metadata(file)?.len().min(pos);
    zero_extend(file, presized_len(pos, config))?;
    let len = fs::File::metadata(file)?.len() as usize;
    let mut region = crate::mmap::Region::map(file, len)?;
    region.prefault_padding(padding_start as usize);
    Ok(Some(region))
}

/// Appends zeros until the file is `target` bytes long (no-op if it
/// already is).
#[cfg(unix)]
fn zero_extend(file: &mut File, target: u64) -> io::Result<()> {
    let len = fs::File::metadata(file)?.len();
    if len >= target {
        return Ok(());
    }
    static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];
    file.seek(SeekFrom::End(0))?;
    let mut remaining = target - len;
    while remaining > 0 {
        let chunk = remaining.min(ZEROS.len() as u64) as usize;
        file.write_all(&ZEROS[..chunk])?;
        remaining -= chunk as u64;
    }
    Ok(())
}

fn create_segment(dir: &Path, seq: u64) -> Result<File, WalError> {
    let path = segment_path(dir, seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .read(true)
        .write(true)
        .open(&path)?;
    file.write_all(&encode_segment_header(seq))?;
    file.sync_data()?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(file)
}
