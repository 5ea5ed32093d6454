//! The WAL writer: open (with torn-tail truncation), append under an
//! fsync policy, rotate, and retire checkpointed segments.
//!
//! ## Append path
//!
//! An append encodes its frame into one reused buffer and `write_all`s
//! it to the end of the active segment, so a segment file holds exactly
//! its frames. Once `write` returns, the bytes are in the page cache and
//! survive a process crash; the policy's `fdatasync` makes them survive
//! power loss. One WAL record is a whole store batch, so the syscall is
//! shared by all of its semantics.

use crate::frame::{fill_frame_header, FRAME_HEADER_BYTES, MAX_RECORD_BYTES};
use crate::replay::{Replay, ScannedTail, TornTail};
use crate::segment::{encode_segment_header, list_segments, segment_path, SEGMENT_HEADER_BYTES};
use crate::{FsyncPolicy, WalError};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Writer configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one reaches this size.
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
    active_seq: u64,
    /// Length of the active segment (header included).
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
    /// Reused buffer each frame is encoded into before its one write.
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
    /// place and a torn tail is truncated.
    pub(crate) fn attach(
        dir: PathBuf,
        config: WalConfig,
        tail: Option<ScannedTail>,
        truncated_tail: Option<TornTail>,
    ) -> Result<Wal, WalError> {
        let (active_seq, file, active_bytes) = match tail {
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

        let mut wal = Wal {
            dir,
            config,
            file,
            active_seq,
            active_bytes,
            sealed_bytes: 0,
            segment_count: 0,
            unsynced: 0,
            appended: 0,
            syncs: 0,
            rotations: 0,
            truncated_tail,
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
    /// and at most [`MAX_RECORD_BYTES`]. Empty frames are forbidden so
    /// that a zero-filled tail, which a filesystem can expose after a
    /// power loss, never reads as valid records.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        self.append_with(payload.len(), |slot| slot.copy_from_slice(payload))
    }

    /// In-place append: has `fill` encode a `payload_len`-byte payload
    /// straight into the reused frame buffer (no per-record allocation),
    /// stamps the frame header (length + CRC computed over the written
    /// bytes), then writes the frame to the active segment. `fill` must
    /// fill the whole slot. Same guarantees, and the same empty-frame
    /// ban, as [`Wal::append`].
    pub fn append_with(
        &mut self,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), WalError> {
        if payload_len == 0 {
            return Err(WalError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty wal records are forbidden (indistinguishable from a zero-filled tail)",
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
        let frame = &mut self.frame_buf;
        frame.clear();
        frame.resize(FRAME_HEADER_BYTES + payload_len, 0);
        let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
        fill(payload);
        fill_frame_header(header, payload);
        if let Err(e) = self.file.write_all(&self.frame_buf) {
            // A short write leaves part of a frame behind: cut it off, so
            // the next append does not land after a tear replay stops at.
            let _ = self.file.set_len(self.active_bytes);
            let _ = self.file.seek(SeekFrom::Start(self.active_bytes));
            return Err(e.into());
        }
        self.active_bytes += self.frame_buf.len() as u64;
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

    /// Flushes the active segment to stable storage now, regardless of
    /// policy.
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

    /// Closes the active segment — syncing it regardless of fsync policy
    /// (rotation is rare, and a sealed segment that later vanished from
    /// the page cache would corrupt the *middle* of the log, which replay
    /// treats as fatal rather than as a tail to truncate) — and starts a
    /// fresh one; returns the **new** active sequence. A checkpoint rotates,
    /// snapshots state as of the rotation point, then
    /// [`Wal::retire_below`] the new sequence.
    pub fn rotate(&mut self) -> Result<u64, WalError> {
        self.seal_active()?;
        self.sealed_bytes += self.active_bytes;
        let seq = self.active_seq + 1;
        self.file = create_segment(&self.dir, seq)?;
        self.active_seq = seq;
        self.active_bytes = SEGMENT_HEADER_BYTES as u64;
        self.segment_count += 1;
        self.unsynced = 0;
        self.rotations += 1;
        Ok(seq)
    }

    /// Syncs the active segment (used by rotation and shutdown).
    fn seal_active(&mut self) -> io::Result<()> {
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

    /// Total bytes of log data across live segments, headers included:
    /// the sum of the segment files' lengths.
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
        // Graceful shutdown: don't lose the tail of an EveryN window.
        let _ = self.seal_active();
    }
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
