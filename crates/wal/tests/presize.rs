//! Stepped pre-sizing of the mapped active segment: the file grows one
//! step at a time ahead of the write position, the padding never reads
//! as records, and segments smaller than a step rotate as before.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use trips_wal::{FsyncPolicy, Wal, WalConfig, PRESIZE_STEP};

static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

/// A unique scratch WAL directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "trips-wal-presize-{tag}-{}-{n}",
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

#[cfg(unix)]
#[test]
fn fresh_open_presizes_one_step_not_a_segment() {
    let dir = TempDir::new("fresh");
    let config = WalConfig::default();
    assert!(
        config.segment_bytes > PRESIZE_STEP,
        "default segment spans steps"
    );
    let wal = Wal::open(&dir.0, config).unwrap();
    let segs = segments(&dir.0);
    assert_eq!(segs.len(), 1);
    assert_eq!(file_len(&segs[0]), PRESIZE_STEP, "one step, not a segment");
    assert_eq!(wal.total_bytes(), HEADER, "padding is not data");
    drop(wal);
    assert_eq!(file_len(&segs[0]), HEADER, "drop trims the padding");
}

#[test]
fn appends_across_step_boundaries_and_rotation_replay_in_order() {
    let dir = TempDir::new("steps");
    let config = WalConfig {
        segment_bytes: 3 * PRESIZE_STEP + 1000,
        fsync: FsyncPolicy::Never,
    };
    // ~8 MiB of varied records, plus frames larger than a step.
    let mut want: Vec<Vec<u8>> = (0..150)
        .map(|i| payload(i, 20_000 + (i * 7919) % 90_000))
        .collect();
    want.insert(40, payload(10_000, PRESIZE_STEP as usize + 12_345));
    want.insert(100, payload(10_001, 2 * PRESIZE_STEP as usize));
    let split = want.len() / 2;
    {
        let mut wal = Wal::open(&dir.0, config.clone()).unwrap();
        for p in &want[..split] {
            wal.append(p).unwrap();
            #[cfg(unix)]
            {
                let active = segments(&dir.0).pop().unwrap();
                let len = file_len(&active);
                assert_eq!(len % PRESIZE_STEP, 0, "grown in whole steps");
                assert!(len > wal.total_bytes() - sealed(&dir.0), "padding ahead");
            }
        }
    }
    {
        let mut wal = Wal::open(&dir.0, config).unwrap();
        assert!(wal.truncated_tail().is_none(), "clean shutdown");
        for p in &want[split..] {
            wal.append(p).unwrap();
        }
        assert!(wal.segment_count() >= 3, "rotated: {}", wal.segment_count());
    }
    assert_eq!(replay_all(&dir.0), want, "every payload, in order");
}

/// Bytes in every segment but the last.
fn sealed(dir: &Path) -> u64 {
    let mut segs = segments(dir);
    segs.pop();
    segs.iter().map(|p| file_len(p)).sum()
}

#[test]
fn copy_taken_mid_growth_reopens_truncated_to_last_valid_frame() {
    let live = TempDir::new("live");
    let copy = TempDir::new("copy");
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
    assert!(
        data_end > PRESIZE_STEP,
        "crossed at least one step boundary"
    );
    // A crash image: the file as it stands, padding included.
    fs::create_dir_all(&copy.0).unwrap();
    let active = segments(&live.0).pop().unwrap();
    let copied = copy.0.join(active.file_name().unwrap());
    fs::copy(&active, &copied).unwrap();
    #[cfg(unix)]
    assert!(file_len(&copied) > data_end, "the copy carries padding");
    drop(wal);

    let mut reopened = Wal::open(&copy.0, config).unwrap();
    #[cfg(unix)]
    {
        let torn = reopened.truncated_tail().expect("padding is a torn tail");
        assert_eq!(torn.offset, data_end, "cut at the last valid frame");
        assert!(torn.reason.contains("zero-length"), "{}", torn.reason);
    }
    assert_eq!(reopened.total_bytes(), data_end);
    reopened.append(b"after-reopen").unwrap();
    drop(reopened);
    assert_eq!(file_len(&copied), data_end + 8 + 12, "no padding survives");
    let mut expect = want;
    expect.push(b"after-reopen".to_vec());
    assert_eq!(replay_all(&copy.0), expect);
}

#[test]
fn segment_smaller_than_a_step_keeps_rotation_behaviour() {
    let dir = TempDir::new("small");
    let config = WalConfig {
        segment_bytes: 64,
        fsync: FsyncPolicy::Never,
    };
    let want: Vec<Vec<u8>> = (0..20).map(|i| payload(i, 20)).collect();
    let mut wal = Wal::open(&dir.0, config.clone()).unwrap();
    #[cfg(unix)]
    assert_eq!(
        file_len(&segments(&dir.0)[0]),
        64,
        "the step is capped at the segment size"
    );
    // The rotation rule: an append rotates first when the active segment
    // already holds `segment_bytes`; a 28-byte frame (8 + 20) therefore
    // fits twice after the 16-byte header (16 + 28 = 44 < 64 ≤ 72).
    let mut expected_sizes = vec![HEADER];
    for p in &want {
        if *expected_sizes.last().unwrap() >= config.segment_bytes {
            expected_sizes.push(HEADER);
        }
        *expected_sizes.last_mut().unwrap() += 8 + p.len() as u64;
        wal.append(p).unwrap();
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
