//! Record framing: `len u32 LE | crc32 u32 LE | payload`, plus the one
//! frame scanner. Replay and open (tail validation/truncation) both read
//! segments through [`crate::Replay`], which scans with it, so they always
//! agree on where a torn tail begins.

use std::ops::Range;

/// Hard cap on one record's payload; a `len` beyond it is treated as
/// frame corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Bytes of `len` + `crc` preceding every payload.
pub(crate) const FRAME_HEADER_BYTES: usize = 8;

/// CRC-32C (Castagnoli, poly `0x1EDC6F41`) lookup tables for
/// slicing-by-8, built at compile time: table 0 is the classic
/// byte-at-a-time table; table `k` advances a byte through `k` further
/// zero bytes, letting the software loop fold 8 input bytes per
/// iteration. Castagnoli rather than IEEE because x86-64 ships it in
/// hardware (SSE4.2 `crc32`), and the checksum must not cost more than
/// the write it protects.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

fn crc32_sw(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// SSE4.2 hardware CRC-32C (~8 bytes/cycle vs the table loop's ~1), or
/// `None` where the CPU lacks it. The crate's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn crc32_hw(bytes: &[u8]) -> Option<u32> {
    /// # Safety
    /// Caller must have verified `sse4.2` is available.
    #[target_feature(enable = "sse4.2")]
    unsafe fn sse42(bytes: &[u8]) -> u32 {
        use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let mut c: u64 = 0xFFFF_FFFF;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            c = _mm_crc32_u64(c, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let mut c = c as u32;
        for &b in chunks.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c ^ 0xFFFF_FFFF
    }
    // The detection macro caches its probe in an atomic; this is a
    // relaxed load per call.
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `sse42` requires SSE4.2, whose presence was just checked.
        Some(unsafe { sse42(bytes) })
    } else {
        None
    }
}

/// CRC-32C of `bytes` (the checksum in every record frame), hardware-
/// accelerated where the CPU provides it.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if let Some(c) = crc32_hw(bytes) {
            return c;
        }
    }
    crc32_sw(bytes)
}

/// Fills the 8-byte frame header (`header`) for `payload` — the append
/// path encodes the payload in place first and stamps the header
/// afterwards.
pub(crate) fn fill_frame_header(header: &mut [u8], payload: &[u8]) {
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
}

#[cfg(test)]
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = vec![0u8; FRAME_HEADER_BYTES + payload.len()];
    let (header, body) = buf.split_at_mut(FRAME_HEADER_BYTES);
    body.copy_from_slice(payload);
    fill_frame_header(header, body);
    buf
}

/// Outcome of scanning one frame at `offset` within a segment's byte
/// slice (past the segment header).
pub(crate) enum FrameScan {
    /// A valid frame: where its payload lies in the scanned slice (the
    /// payload ends where the next frame starts).
    Record { payload: Range<usize> },
    /// Clean end of data (offset is exactly the end).
    End,
    /// The bytes at `offset` are not a valid frame — a torn tail if this
    /// is the last data in the last segment, corruption otherwise.
    Invalid { reason: String },
}

/// Scans the frame starting at `offset` in `data` (a segment's contents
/// with the segment header already stripped by the caller's offset).
pub(crate) fn scan_frame(data: &[u8], offset: usize) -> FrameScan {
    if offset == data.len() {
        return FrameScan::End;
    }
    let remaining = data.len() - offset;
    if remaining < FRAME_HEADER_BYTES {
        return FrameScan::Invalid {
            reason: format!("partial frame header ({remaining} bytes)"),
        };
    }
    let len = u32::from_le_bytes(data[offset..offset + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[offset + 4..offset + 8].try_into().unwrap());
    if len == 0 {
        // Zero-length records are forbidden on append so that a
        // zero-filled tail, which a filesystem can expose after a power
        // loss, never reads as a run of valid empty records.
        return FrameScan::Invalid {
            reason: "zero-length frame (zero-filled tail)".to_string(),
        };
    }
    if len > MAX_RECORD_BYTES {
        return FrameScan::Invalid {
            reason: format!("frame length {len} exceeds {MAX_RECORD_BYTES}"),
        };
    }
    if remaining - FRAME_HEADER_BYTES < len {
        return FrameScan::Invalid {
            reason: format!(
                "partial payload ({} of {len} bytes)",
                remaining - FRAME_HEADER_BYTES
            ),
        };
    }
    let start = offset + FRAME_HEADER_BYTES;
    let payload = &data[start..start + len];
    let got = crc32(payload);
    if got != crc {
        return FrameScan::Invalid {
            reason: format!("crc mismatch (stored {crc:#010x}, computed {got:#010x})"),
        };
    }
    FrameScan::Record {
        payload: start..start + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_known_vectors() {
        // Standard CRC-32C (Castagnoli) check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x2262_0404
        );
        // Hardware and software paths must agree on every length class.
        for n in 0..64usize {
            let data: Vec<u8> = (0..n as u8).map(|b| b.wrapping_mul(37)).collect();
            assert_eq!(crc32(&data), crc32_sw(&data), "len {n}");
        }
    }

    #[test]
    fn frame_roundtrip_and_torn_variants() {
        let frame = encode_frame(b"hello wal");
        match scan_frame(&frame, 0) {
            FrameScan::Record { payload } => {
                assert_eq!(&frame[payload.clone()], b"hello wal");
                assert_eq!(payload.end, frame.len());
            }
            _ => panic!("valid frame must scan"),
        }
        assert!(matches!(scan_frame(&frame, frame.len()), FrameScan::End));
        // A zero-filled tail (exposed by a power loss) is never a record.
        assert!(matches!(
            scan_frame(&[0u8; 64], 0),
            FrameScan::Invalid { .. }
        ));
        // Torn header, torn payload, flipped payload bit.
        assert!(matches!(
            scan_frame(&frame[..4], 0),
            FrameScan::Invalid { .. }
        ));
        assert!(matches!(
            scan_frame(&frame[..frame.len() - 1], 0),
            FrameScan::Invalid { .. }
        ));
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(matches!(scan_frame(&bad, 0), FrameScan::Invalid { .. }));
        // Absurd length field.
        let mut huge = frame;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(scan_frame(&huge, 0), FrameScan::Invalid { .. }));
    }
}
