//! Replay: an ordered scan over every record in a WAL directory, tolerant
//! of a torn tail in the final segment.
//!
//! This is the crate's one reader. [`crate::Wal::open`] validates the
//! last segment's tail through it too, and a recovery that replays the
//! whole log hands the finished scan to [`Replay::into_wal`], so each
//! segment is read and CRC-checked exactly once per boot.

use crate::frame::{scan_frame, FrameScan};
use crate::segment::{check_segment_header, list_segments, SEGMENT_HEADER_BYTES};
use crate::wal::{Wal, WalConfig};
use crate::WalError;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

/// One replayed record (owned form, yielded by the [`Iterator`] impl).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Sequence of the segment the record was read from.
    pub segment: u64,
    /// Byte offset of the record's frame within that segment file.
    pub offset: u64,
    pub payload: Vec<u8>,
}

/// One replayed record, borrowed from the replay's segment buffer
/// (yielded by [`Replay::next_record`]; no copy per record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord<'a> {
    /// Sequence of the segment the record was read from.
    pub segment: u64,
    /// Byte offset of the record's frame within that segment file.
    pub offset: u64,
    pub payload: &'a [u8],
}

impl WalRecord<'_> {
    /// Copies the record into an owned [`WalEntry`].
    pub fn to_entry(&self) -> WalEntry {
        WalEntry {
            segment: self.segment,
            offset: self.offset,
            payload: self.payload.to_vec(),
        }
    }
}

/// Where an interrupted append left a partial/corrupt frame at the end of
/// the last segment. Everything from `offset` on is not part of the log
/// (the record was never acked); [`crate::Wal::open`] truncates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    pub segment: u64,
    /// File offset at which the invalid data begins.
    pub offset: u64,
    pub reason: String,
}

/// What a scan of the last segment found: its file length and where its
/// valid frames end (`0` = not even a whole header survived). The writer
/// positions itself here without reading the segment again.
pub(crate) struct ScannedTail {
    pub seq: u64,
    pub path: PathBuf,
    pub file_len: u64,
    pub valid_end: u64,
}

/// An ordered scan of the records in segments `>= min_seq`, ascending.
/// Each segment is read once into one reused buffer; records are handed
/// out as borrowed slices by [`Replay::next_record`] (or copied, by the
/// [`Iterator`] impl). A torn tail ends the scan cleanly (inspect
/// [`Replay::torn_tail`] afterwards); mid-log corruption yields
/// [`WalError::Corrupt`] and ends the scan.
pub struct Replay {
    dir: PathBuf,
    segments: Vec<(u64, PathBuf)>,
    next_segment: usize,
    /// The bytes of the segment being scanned.
    buf: Vec<u8>,
    /// (seq, scan offset into `buf`) of the segment being scanned.
    current: Option<(u64, usize)>,
    torn: Option<TornTail>,
    /// Set once the last segment has been scanned to its end.
    tail: Option<ScannedTail>,
    entries: u64,
    done: bool,
    failed: bool,
}

impl Replay {
    pub(crate) fn new(dir: &Path, min_seq: u64) -> Result<Replay, WalError> {
        let segments = list_segments(dir)?
            .into_iter()
            .filter(|(seq, _)| *seq >= min_seq)
            .collect();
        Ok(Replay::over(dir.to_path_buf(), segments))
    }

    /// A scan over exactly `segments` (ascending; the last is treated as
    /// the log's final segment).
    pub(crate) fn over(dir: PathBuf, segments: Vec<(u64, PathBuf)>) -> Replay {
        Replay {
            dir,
            segments,
            next_segment: 0,
            buf: Vec::new(),
            current: None,
            torn: None,
            tail: None,
            entries: 0,
            done: false,
            failed: false,
        }
    }

    /// The torn tail, if the scan ended at one (meaningful once it is
    /// exhausted).
    pub fn torn_tail(&self) -> Option<&TornTail> {
        self.torn.as_ref()
    }

    /// Records yielded so far.
    pub fn entries_read(&self) -> u64 {
        self.entries
    }

    /// Number of segment files this replay covers.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The next record, borrowed from the segment buffer until the next
    /// call. `None` once the log (or its valid prefix) is exhausted.
    pub fn next_record(&mut self) -> Option<Result<WalRecord<'_>, WalError>> {
        loop {
            if self.done {
                return None;
            }
            let Some((seq, offset)) = self.current else {
                if let Err(e) = self.load_next_segment() {
                    return Some(Err(e));
                }
                continue;
            };
            match scan_frame(&self.buf, offset) {
                FrameScan::Record { payload } => {
                    self.current = Some((seq, payload.end));
                    self.entries += 1;
                    return Some(Ok(WalRecord {
                        segment: seq,
                        offset: offset as u64,
                        payload: &self.buf[payload],
                    }));
                }
                FrameScan::End => self.end_segment(seq, offset),
                FrameScan::Invalid { reason } => {
                    if self.next_segment < self.segments.len() {
                        return Some(Err(self.fail(WalError::Corrupt {
                            segment: seq,
                            offset: offset as u64,
                            reason,
                        })));
                    }
                    self.tear(seq, offset, reason);
                }
            }
        }
    }

    /// Opens the log for appending at the point this scan validated:
    /// consumes any records not yet read, then positions the writer after
    /// the last valid frame of the final segment — truncating a torn tail
    /// exactly as [`Wal::open`] does — without reading that segment
    /// again. A scan that failed, or covered no segment, falls back to
    /// [`Wal::open`]'s own tail scan.
    pub fn into_wal(mut self, config: WalConfig) -> Result<Wal, WalError> {
        if !self.failed && !self.segments.is_empty() {
            while let Some(record) = self.next_record() {
                record?;
            }
            if let Some(tail) = self.tail.take() {
                return Wal::attach(self.dir, config, Some(tail), self.torn);
            }
        }
        Wal::open(&self.dir, config)
    }

    /// Reads the next segment into the buffer and checks its header, or
    /// marks the scan done when there is none.
    fn load_next_segment(&mut self) -> Result<(), WalError> {
        let Some((seq, path)) = self.segments.get(self.next_segment) else {
            self.done = true;
            return Ok(());
        };
        let (seq, last) = (*seq, self.next_segment + 1 == self.segments.len());
        self.next_segment += 1;
        self.buf.clear();
        if let Err(e) = File::open(path).and_then(|mut f| f.read_to_end(&mut self.buf)) {
            return Err(self.fail(WalError::Io(e)));
        }
        // A *short* header on the last segment is a crash during segment
        // creation — a torn tail at offset 0. A full-length header that
        // is wrong (bad magic, future format version, sequence mismatch),
        // or any header problem in an earlier segment, is corruption the
        // replay must not guess about: the segment may hold synced acked
        // records.
        if self.buf.len() < SEGMENT_HEADER_BYTES && last {
            let reason = format!("short segment header ({} bytes)", self.buf.len());
            self.tear(seq, 0, reason);
            return Ok(());
        }
        if let Err(reason) = check_segment_header(&self.buf, seq) {
            let path = path.clone();
            return Err(self.fail(WalError::BadSegment { path, reason }));
        }
        self.current = Some((seq, SEGMENT_HEADER_BYTES));
        Ok(())
    }

    /// The segment being scanned ended at `valid_end`; remembers that
    /// position if it is the final segment.
    fn end_segment(&mut self, seq: u64, valid_end: usize) {
        self.current = None;
        if self.next_segment == self.segments.len() {
            self.tail = Some(ScannedTail {
                seq,
                path: self.segments[self.next_segment - 1].1.clone(),
                file_len: self.buf.len() as u64,
                valid_end: valid_end as u64,
            });
        }
    }

    fn tear(&mut self, segment: u64, offset: usize, reason: String) {
        self.end_segment(segment, offset);
        self.torn = Some(TornTail {
            segment,
            offset: offset as u64,
            reason,
        });
        self.done = true;
    }

    fn fail(&mut self, err: WalError) -> WalError {
        self.current = None;
        self.done = true;
        self.failed = true;
        err
    }
}

impl Iterator for Replay {
    type Item = Result<WalEntry, WalError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
            .map(|r| r.map(|record| record.to_entry()))
    }
}
