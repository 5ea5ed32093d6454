//! Crash-recovery properties of the durable store: for any kill point
//! (simulated with torn/truncated WAL tails), recovery yields a store
//! whose query results equal a store that received exactly the acked
//! operations — no acked batch lost, no unacked batch resurrected.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, Duration, Timestamp};
use trips_dsm::RegionId;
use trips_store::{
    DurabilityConfig, FsyncPolicy, SemanticsSelector, SemanticsStore, SemanticsStoreError,
};

static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("trips-store-dur-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn sem(device: &str, region: u32, event: &str, start_s: i64, end_s: i64) -> MobilitySemantics {
    MobilitySemantics {
        device: DeviceId::new(device),
        event: event.into(),
        region: RegionId(region),
        region_name: format!("R{region}").into(),
        start: Timestamp::from_millis(start_s * 1000),
        end: Timestamp::from_millis(end_s * 1000),
        inferred: false,
        display_point: None,
    }
}

/// The op script both the durable store and the in-memory control
/// execute. Returned as (device, batch) pairs plus interleaved
/// register/end-session calls driven by index.
fn run_script(store: &SemanticsStore, upto: usize) {
    let ops = script();
    for op in ops.into_iter().take(upto) {
        op.apply(store);
    }
}

enum Op {
    Ingest(&'static str, Vec<MobilitySemantics>),
    Register(&'static str),
    EndSession(&'static str),
}

impl Op {
    fn apply(&self, store: &SemanticsStore) {
        match self {
            Op::Ingest(d, batch) => store.ingest(&DeviceId::new(d), batch),
            Op::Register(d) => store.register_device(&DeviceId::new(d)),
            Op::EndSession(d) => store.end_session(&DeviceId::new(d)),
        }
    }
}

fn script() -> Vec<Op> {
    vec![
        Op::Ingest("dev-a", vec![sem("dev-a", 1, "stay", 0, 600)]),
        Op::Ingest(
            "dev-b",
            vec![
                sem("dev-b", 1, "stay", 0, 300),
                sem("dev-b", 2, "pass-by", 300, 330),
            ],
        ),
        Op::Register("silent"),
        Op::EndSession("dev-a"),
        Op::Ingest("dev-a", vec![sem("dev-a", 2, "pass-by", 700, 730)]),
        Op::Ingest("dev-b", vec![sem("dev-b", 3, "stay", 400, 900)]),
        Op::EndSession("dev-b"),
        Op::Ingest("dev-c", vec![sem("dev-c", 1, "stay", 100, 500)]),
    ]
}

/// Every query surface must agree between two stores.
fn assert_equivalent(got: &SemanticsStore, want: &SemanticsStore, ctx: &str) {
    let all = SemanticsSelector::all();
    assert_eq!(got.device_count(), want.device_count(), "{ctx}: devices");
    assert_eq!(
        got.semantics_count(),
        want.semantics_count(),
        "{ctx}: semantics"
    );
    assert_eq!(
        got.popular_regions(&all),
        want.popular_regions(&all),
        "{ctx}: popular regions"
    );
    assert_eq!(
        got.top_flows(&all, 50),
        want.top_flows(&all, 50),
        "{ctx}: flows"
    );
    assert_eq!(
        got.dwell_histogram(&all, Duration::from_mins(1)),
        want.dwell_histogram(&all, Duration::from_mins(1)),
        "{ctx}: dwell"
    );
    assert_eq!(
        got.device_summaries(&all),
        want.device_summaries(&all),
        "{ctx}: summaries"
    );
    assert_eq!(
        got.semantics(&all),
        want.semantics(&all),
        "{ctx}: semantics bodies"
    );
}

fn last_segment(dir: &std::path::Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    segs.last().unwrap().clone()
}

#[test]
fn recovery_without_checkpoint_equals_never_crashed_store() {
    for fsync in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(4),
        FsyncPolicy::Never,
    ] {
        let dir = TempDir::new("plain");
        let config = DurabilityConfig {
            fsync,
            ..DurabilityConfig::new(&dir.0)
        };
        {
            let (durable, report) = SemanticsStore::recover(&config, 4).unwrap();
            assert!(!report.snapshot_loaded);
            assert_eq!(report.replayed_records, 0);
            run_script(&durable, usize::MAX);
        } // drop = process exit (WAL synced best-effort on drop)

        let control = SemanticsStore::with_shards(4);
        run_script(&control, usize::MAX);

        let (recovered, report) = SemanticsStore::recover(&config, 4).unwrap();
        assert!(!report.torn_tail_truncated, "{fsync}: clean shutdown");
        assert!(report.replayed_records > 0, "{fsync}");
        assert_equivalent(&recovered, &control, &format!("fsync {fsync}"));

        // Pinned byte-equivalence: re-persisting both stores produces
        // identical snapshot documents.
        let a = dir.0.join("recovered.json");
        let b = dir.0.join("control.json");
        recovered.persist(&a).unwrap();
        control.persist(&b).unwrap();
        assert_eq!(
            fs::read(&a).unwrap(),
            fs::read(&b).unwrap(),
            "{fsync}: byte-identical persisted state"
        );
    }
}

/// Simulates a crash mid-append at every possible record boundary: a
/// tail truncated inside record k recovers to exactly the first k ops.
#[test]
fn torn_tail_recovers_to_exactly_the_acked_prefix() {
    let total_ops = script().len();
    let dir = TempDir::new("torn");
    let config = DurabilityConfig::new(&dir.0);
    {
        let (durable, _) = SemanticsStore::recover(&config, 4).unwrap();
        run_script(&durable, usize::MAX);
        durable.sync_wal().unwrap();
    }
    let seg = last_segment(&dir.0);
    let full = fs::read(&seg).unwrap();

    // Find each frame boundary by walking the log (header 16, frames are
    // 8 + len).
    let mut boundaries = vec![16usize];
    let mut off = 16usize;
    while off < full.len() {
        let len = u32::from_le_bytes(full[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        boundaries.push(off);
    }
    assert_eq!(boundaries.len() - 1, total_ops, "one frame per op");

    for k in 0..total_ops {
        // Crash inside record k+1: keep k whole frames plus a partial.
        let cut = boundaries[k + 1] - 3;
        let scratch = TempDir::new(&format!("torn-{k}"));
        let scratch_config = DurabilityConfig::new(&scratch.0);
        fs::create_dir_all(&scratch.0).unwrap();
        fs::write(scratch.0.join(seg.file_name().unwrap()), &full[..cut]).unwrap();

        let control = SemanticsStore::with_shards(4);
        run_script(&control, k);

        let (recovered, report) = SemanticsStore::recover(&scratch_config, 4).unwrap();
        assert!(report.torn_tail_truncated, "kill point {k}");
        assert_eq!(report.replayed_records, k as u64, "kill point {k}");
        assert_equivalent(&recovered, &control, &format!("kill point {k}"));
    }
}

#[test]
fn checkpoint_compacts_and_recovery_replays_only_newer_segments() {
    let dir = TempDir::new("checkpoint");
    let config = DurabilityConfig::new(&dir.0);
    let control = SemanticsStore::with_shards(4);
    {
        let (durable, _) = SemanticsStore::recover(&config, 4).unwrap();
        run_script(&durable, 5);
        run_script(&control, 5);

        assert!(durable
            .wal_stats()
            .unwrap()
            .last_checkpoint_age_ms
            .is_none());
        let report = durable.checkpoint().unwrap();
        assert_eq!(report.snapshot_path, config.snapshot_path());
        assert!(report.snapshot_path.exists());
        assert_eq!(report.retired_segments, 1, "pre-checkpoint segment gone");

        let stats = durable.wal_stats().unwrap();
        assert_eq!(stats.records_since_checkpoint, 0);
        assert!(stats.last_checkpoint_age_ms.is_some());

        // Post-checkpoint mutations land in the new segment only.
        for op in script().into_iter().skip(5) {
            op.apply(&durable);
        }
        for op in script().into_iter().skip(5) {
            op.apply(&control);
        }
    }

    let (recovered, report) = SemanticsStore::recover(&config, 4).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(
        report.replayed_records, 3,
        "only the 3 post-checkpoint ops replay"
    );
    assert!(report.checkpoint_seq >= 2);
    assert_equivalent(&recovered, &control, "checkpointed recovery");
}

#[test]
fn clear_is_journaled_and_does_not_resurrect() {
    let dir = TempDir::new("clear");
    let config = DurabilityConfig::new(&dir.0);
    {
        let (durable, _) = SemanticsStore::recover(&config, 4).unwrap();
        run_script(&durable, usize::MAX);
        durable.clear();
        durable.ingest(
            &DeviceId::new("post-clear"),
            &[sem("post-clear", 9, "stay", 0, 60)],
        );
    }
    let (recovered, _) = SemanticsStore::recover(&config, 4).unwrap();
    assert_eq!(recovered.device_count(), 1, "cleared devices stay cleared");
    assert_eq!(recovered.semantics_count(), 1);
}

#[test]
fn mid_log_corruption_is_a_typed_error() {
    let dir = TempDir::new("midlog");
    let config = DurabilityConfig {
        segment_bytes: 128, // force several segments
        ..DurabilityConfig::new(&dir.0)
    };
    {
        let (durable, _) = SemanticsStore::recover(&config, 4).unwrap();
        for i in 0..30 {
            durable.ingest(
                &DeviceId::new(&format!("d{i}")),
                &[sem(&format!("d{i}"), i, "stay", 0, 60)],
            );
        }
    }
    // Corrupt a byte in the FIRST segment (not the tail).
    let mut segs: Vec<PathBuf> = fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    assert!(segs.len() >= 3, "need a mid-log segment");
    let mut data = fs::read(&segs[0]).unwrap();
    let n = data.len();
    data[n / 2] ^= 0x40;
    fs::write(&segs[0], &data).unwrap();

    let err = SemanticsStore::recover(&config, 4).unwrap_err();
    assert!(matches!(err, SemanticsStoreError::Wal(_)), "{err}");
}

/// Migrating a plain `persist` file (what the removed non-durable
/// `--snapshot` boot read) into a durable store: copy it into an empty
/// directory as `snapshot.json` and recover. Recovery loads it as the
/// checkpoint, replays nothing, answers identically, and journals what
/// comes after it.
#[test]
fn persisted_file_migrates_into_a_wal_dir_as_its_checkpoint() {
    let dir = TempDir::new("migrate");
    fs::create_dir_all(&dir.0).unwrap();
    let control = SemanticsStore::with_shards(4);
    run_script(&control, usize::MAX);
    control.persist(dir.0.join("snapshot.json")).unwrap();

    let config = DurabilityConfig::new(&dir.0);
    {
        let (store, report) = SemanticsStore::recover(&config, 0).unwrap();
        assert!(report.snapshot_loaded && !report.torn_tail_truncated);
        assert_eq!(report.replayed_records, 0);
        assert!(store.is_durable());
        assert_equivalent(&store, &control, "migrated");
        let more = [sem("dev-m", 7, "stay", 9000, 9600)];
        store.ingest(&DeviceId::new("dev-m"), &more);
        control.ingest(&DeviceId::new("dev-m"), &more);
    }
    let (store, report) = SemanticsStore::recover(&config, 0).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.replayed_records, 1, "the post-migration ingest");
    assert_equivalent(&store, &control, "migrated + journaled");
}

#[test]
fn checkpoint_needs_a_durable_store() {
    // Checkpoint on a non-durable store: typed error.
    let plain = SemanticsStore::with_shards(4);
    assert!(matches!(
        plain.checkpoint().unwrap_err(),
        SemanticsStoreError::NotDurable
    ));
    assert!(plain.wal_stats().is_none());
    plain.sync_wal().unwrap();
}

/// Concurrent durable writers: the WAL absorbs a multi-threaded ingest
/// and recovery still equals a serial control run (per-device order is
/// what matters; devices are independent).
#[test]
fn concurrent_durable_ingest_recovers_equivalent() {
    let dir = TempDir::new("concurrent");
    let config = DurabilityConfig::new(&dir.0);
    let control = SemanticsStore::with_shards(8);
    {
        let (durable, _) = SemanticsStore::recover(&config, 8).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let durable = &durable;
                s.spawn(move || {
                    for i in 0..25 {
                        let id = format!("w{t}-d{}", i % 5);
                        durable.ingest(
                            &DeviceId::new(&id),
                            &[sem(
                                &id,
                                (t * 31 + i) as u32 % 7,
                                "stay",
                                i as i64 * 10,
                                i as i64 * 10 + 5,
                            )],
                        );
                    }
                });
            }
        });
        for t in 0..4 {
            for i in 0..25 {
                let id = format!("w{t}-d{}", i % 5);
                control.ingest(
                    &DeviceId::new(&id),
                    &[sem(
                        &id,
                        (t * 31 + i) as u32 % 7,
                        "stay",
                        i as i64 * 10,
                        i as i64 * 10 + 5,
                    )],
                );
            }
        }
    }
    let (recovered, report) = SemanticsStore::recover(&config, 8).unwrap();
    assert_eq!(report.replayed_records, 100);
    assert_equivalent(&recovered, &control, "concurrent ingest");
}
