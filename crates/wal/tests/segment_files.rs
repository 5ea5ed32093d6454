//! Segment files hold exactly their frames: after every append the active
//! segment is as long as the log data in it (no padding), large frames
//! and rotations replay in order, a crash image cut mid-frame reopens
//! truncated to the last valid frame, and small segments rotate at the
//! documented sizes.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use trips_wal::{FsyncPolicy, Wal, WalConfig};

static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

/// A unique scratch WAL directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "trips-wal-segfiles-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Segment files of `dir`, ascending.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    segs
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).unwrap().len()
}

/// The invariant of the one write path: the active segment's file is
/// exactly the log data in it — `total_bytes()` minus the sealed
/// segments — so there is never padding.
fn assert_no_padding(wal: &Wal, dir: &Path) {
    let mut segs = segments(dir);
    let active = segs.pop().unwrap();
    let sealed: u64 = segs.iter().map(|p| file_len(p)).sum();
    assert_eq!(file_len(&active), wal.total_bytes() - sealed, "no padding");
}

fn replay_all(dir: &Path) -> Vec<Vec<u8>> {
    let mut replay = Wal::replay(dir).unwrap();
    let payloads = replay
        .by_ref()
        .map(|e| e.expect("no corruption").payload)
        .collect();
    assert!(replay.torn_tail().is_none(), "clean log");
    payloads
}

/// A payload of `len` bytes that encodes its index, so order is checked.
fn payload(i: usize, len: usize) -> Vec<u8> {
    let mut p = format!("record-{i}:").into_bytes();
    p.resize(len.max(p.len()), (i % 251) as u8 + 1);
    p
}

const HEADER: u64 = 16;
const FRAME_HEADER: u64 = 8;

#[test]
fn large_frames_across_rotation_replay_in_order_without_padding() {
    let dir = TempDir::new("large");
    let config = WalConfig {
        segment_bytes: 3_146_728, // 3 MiB + 1000
        fsync: FsyncPolicy::Never,
    };
    // ~8 MiB of varied records, plus frames larger than 1 MiB and 2 MiB.
    let mut want: Vec<Vec<u8>> = (0..150)
        .map(|i| payload(i, 20_000 + (i * 7919) % 90_000))
        .collect();
    want.insert(40, payload(10_000, 1_060_921)); // 1 MiB + 12345
    want.insert(100, payload(10_001, 2_097_152)); // 2 MiB
    let split = want.len() / 2;
    {
        let mut wal = Wal::open(&dir.0, config.clone()).unwrap();
        assert_no_padding(&wal, &dir.0);
        for p in &want[..split] {
            wal.append(p).unwrap();
            assert_no_padding(&wal, &dir.0);
        }
    }
    {
        let mut wal = Wal::open(&dir.0, config).unwrap();
        assert!(wal.truncated_tail().is_none(), "clean shutdown");
        for p in &want[split..] {
            wal.append(p).unwrap();
            assert_no_padding(&wal, &dir.0);
        }
        assert!(wal.segment_count() >= 3, "rotated: {}", wal.segment_count());
    }
    assert_eq!(replay_all(&dir.0), want, "every payload, in order");
}

#[test]
fn copy_cut_mid_frame_reopens_truncated_to_last_valid_frame() {
    let live = TempDir::new("live");
    let config = WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::default()
    };
    let want: Vec<Vec<u8>> = (0..30).map(|i| payload(i, 50_000)).collect();
    let mut wal = Wal::open(&live.0, config.clone()).unwrap();
    for p in &want {
        wal.append(p).unwrap();
    }
    let data_end = wal.total_bytes();
    wal.append(&payload(30, 50_000)).unwrap();
    let active = segments(&live.0).pop().unwrap();
    let image = fs::read(&active).unwrap();
    drop(wal);

    // Two crash images of the last frame's append: its write stopped
    // partway, or a power loss exposed its blocks as zeros.
    let cut_mid_frame = image[..data_end as usize + 20_000].to_vec();
    let mut zero_filled = image[..data_end as usize].to_vec();
    zero_filled.resize(image.len(), 0);
    for (tag, crash_image, reason) in [
        ("cut", cut_mid_frame, "partial"),
        ("zeros", zero_filled, "zero-length"),
    ] {
        let copy = TempDir::new(tag);
        fs::create_dir_all(&copy.0).unwrap();
        let copied = copy.0.join(active.file_name().unwrap());
        fs::write(&copied, &crash_image).unwrap();

        let mut reopened = Wal::open(&copy.0, config.clone()).unwrap();
        let torn = reopened.truncated_tail().expect("the tear is reported");
        assert_eq!(torn.offset, data_end, "{tag}: cut at the last valid frame");
        assert!(torn.reason.contains(reason), "{tag}: {}", torn.reason);
        assert_eq!(reopened.total_bytes(), data_end, "{tag}");
        assert_eq!(file_len(&copied), data_end, "{tag}: tear truncated");
        reopened.append(b"after-reopen").unwrap();
        assert_no_padding(&reopened, &copy.0);
        drop(reopened);
        assert_eq!(file_len(&copied), data_end + FRAME_HEADER + 12, "{tag}");
        let mut expect = want.clone();
        expect.push(b"after-reopen".to_vec());
        assert_eq!(replay_all(&copy.0), expect, "{tag}");
    }
}

#[test]
fn small_segments_rotate_at_their_real_length() {
    let dir = TempDir::new("small");
    let config = WalConfig {
        segment_bytes: 64,
        fsync: FsyncPolicy::Never,
    };
    let want: Vec<Vec<u8>> = (0..20).map(|i| payload(i, 20)).collect();
    let mut wal = Wal::open(&dir.0, config.clone()).unwrap();
    assert_eq!(file_len(&segments(&dir.0)[0]), HEADER, "just the header");
    // The rotation rule: an append rotates first when the active segment
    // already holds `segment_bytes`; a 28-byte frame (8 + 20) therefore
    // fits twice after the 16-byte header (16 + 28 = 44 < 64 ≤ 72).
    let mut expected_sizes = vec![HEADER];
    for p in &want {
        if *expected_sizes.last().unwrap() >= config.segment_bytes {
            expected_sizes.push(HEADER);
        }
        *expected_sizes.last_mut().unwrap() += FRAME_HEADER + p.len() as u64;
        wal.append(p).unwrap();
        assert_no_padding(&wal, &dir.0);
    }
    assert_eq!(wal.segment_count(), expected_sizes.len());
    assert_eq!(wal.rotations(), expected_sizes.len() as u64 - 1);
    drop(wal);
    let sizes: Vec<u64> = segments(&dir.0).iter().map(|p| file_len(p)).collect();
    assert_eq!(
        sizes, expected_sizes,
        "segments sealed at their real length"
    );
    assert!(sizes.iter().all(|&s| s == 72), "two frames per segment");
    assert_eq!(replay_all(&dir.0), want);
}
