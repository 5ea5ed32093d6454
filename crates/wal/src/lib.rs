//! # trips-wal — append-only write-ahead log with segment rotation
//!
//! The durability substrate for the TRIPS serving stack: an append-only
//! record log that higher layers (the semantics store, the server) write
//! *before* acknowledging a mutation, so that a crash after an ack can
//! always be repaired by replay. The crate is payload-agnostic — records
//! are opaque byte strings; `trips-store` serializes its operations into
//! them.
//!
//! ## On-disk layout
//!
//! A WAL is a directory of **segment** files named
//! `wal-<seq>.log` (`seq` is a 20-digit zero-padded decimal, so
//! lexicographic order is numeric order). Each segment starts with a
//! 16-byte header, followed by zero or more record frames:
//!
//! ```text
//! segment header:  "TWAL" (4)  | format version u32 LE (4) | seq u64 LE (8)
//! record frame:    len u32 LE (4) | crc32(payload) u32 LE (4) | payload (len)
//! ```
//!
//! The CRC is CRC-32C (Castagnoli — hardware-accelerated on x86-64)
//! over the payload bytes only; `len` is bounds-checked against
//! [`MAX_RECORD_BYTES`] and the bytes remaining in the file, and must be
//! non-zero (zero-length frames are reserved so the zero padding of a
//! pre-sized mapped segment can never read as valid records). Appends go
//! to the highest-numbered segment — on unix via a `MAP_SHARED` mapping
//! of the active segment, zero-prefilled [`PRESIZE_STEP`] (1 MiB) past
//! the write position and grown by that step, a memcpy into the page
//! cache with no per-record syscall (see the [`Wal`] module docs); when
//! it exceeds [`WalConfig::segment_bytes`] the writer **rotates** to a
//! fresh segment, truncating and syncing the sealed one. Rotation is
//! what makes checkpoint compaction possible: a checkpoint rotates,
//! snapshots everything up to the rotation point, and then retires
//! (deletes) all older segments ([`Wal::retire_below`]).
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability for ingest latency:
//!
//! * `Always` — `fdatasync` after every append. An acked record survives
//!   power loss. Slowest.
//! * `EveryN(n)` — sync once per `n` appends (and on rotation/shutdown).
//!   An OS crash can lose up to `n - 1` acked records; a process crash
//!   loses nothing (the bytes are in the page cache).
//! * `Never` — rely on the OS to write back. A process crash still loses
//!   nothing; only an OS/power failure can drop acked records.
//!
//! ## Replay and torn tails
//!
//! [`Wal::replay_from`] returns an iterator over every record in segments
//! `>= seq`, in order. A crash mid-append leaves a **torn tail**: a
//! partial frame (or a frame whose CRC does not match) at the end of the
//! *last* segment. The iterator treats the first invalid frame in the
//! final segment as the torn tail — it stops there cleanly and reports it
//! via [`Replay::torn_tail`] — while an invalid frame in any *earlier*
//! segment (which no crash ordering can produce) is surfaced as
//! [`WalError::Corrupt`]. [`Wal::open`] physically truncates the torn
//! tail before appending resumes, so the un-acked partial record can
//! never resurrect.
//!
//! Both go through one scanner: [`Replay`] reads each segment once into a
//! reused buffer and [`Replay::next_record`] lends out each payload as a
//! slice of it. A boot that replays the whole log then calls
//! [`Replay::into_wal`], which positions the writer where the scan
//! stopped instead of reading and CRC-checking the last segment again.

mod frame;
#[cfg(unix)]
mod mmap;
mod replay;
mod segment;
mod wal;

pub use frame::{crc32, MAX_RECORD_BYTES};
pub use replay::{Replay, TornTail, WalEntry, WalRecord};
pub use wal::{Wal, WalConfig, PRESIZE_STEP};

use std::fmt;
use std::path::PathBuf;

/// How often appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: acked ⇒ survives power loss.
    Always,
    /// Sync once per `n` appends (and on rotation / shutdown): an OS
    /// crash can lose up to `n - 1` acked records.
    EveryN(u32),
    /// Never sync explicitly; the OS writes back on its own schedule.
    Never,
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `always`, `never`, or `every=N` (N ≥ 1).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("every=") {
                Some(n) => match n.parse::<u32>() {
                    Ok(n) if n >= 1 => Ok(FsyncPolicy::EveryN(n)),
                    _ => Err(format!(
                        "invalid fsync interval {n:?} (want an integer ≥ 1)"
                    )),
                },
                None => Err(format!(
                    "unknown fsync policy {other:?} (want always, never, or every=N)"
                )),
            },
        }
    }
}

/// Errors raised by WAL operations.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// An invalid frame in a position no crash can explain (any segment
    /// but the last, or before the last valid record): the log needs
    /// operator attention, replay must not guess.
    Corrupt {
        segment: u64,
        offset: u64,
        reason: String,
    },
    /// A segment file whose header is missing, garbled, or from an
    /// unsupported format version.
    BadSegment { path: PathBuf, reason: String },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "wal corruption in segment {segment} at byte {offset}: {reason}"
            ),
            WalError::BadSegment { path, reason } => {
                write!(f, "bad wal segment {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_roundtrips_through_strings() {
        for (s, p) in [
            ("always", FsyncPolicy::Always),
            ("never", FsyncPolicy::Never),
            ("every=64", FsyncPolicy::EveryN(64)),
            ("every=1", FsyncPolicy::EveryN(1)),
        ] {
            assert_eq!(s.parse::<FsyncPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        assert!("every=0".parse::<FsyncPolicy>().is_err());
        assert!("every=".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }
}
