//! Replay equals the never-crashed store: a durable store driven through
//! a script that touches every shard, spans many tiny segments, clears
//! and ends sessions mid-log and takes a checkpoint recovers to a state
//! whose re-persisted snapshot is byte-identical to an in-memory store
//! that ran the same script.

use std::fs;
use std::path::PathBuf;
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, Timestamp};
use trips_dsm::RegionId;
use trips_geom::IndoorPoint;
use trips_store::{device_hash, DurabilityConfig, FsyncPolicy, SemanticsSelector, SemanticsStore};

const SHARDS: usize = 4;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("trips-store-replay-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn sem(device: &str, region: u32, event: &str, start_s: i64) -> MobilitySemantics {
    MobilitySemantics {
        device: DeviceId::new(device),
        event: event.into(),
        region: RegionId(region),
        region_name: format!("Region {region} (0F-{region})").into(),
        start: Timestamp::from_millis(start_s * 1000),
        end: Timestamp::from_millis((start_s + 30 + i64::from(region) * 7) * 1000),
        inferred: region % 3 == 0,
        display_point: (region % 2 == 0)
            .then(|| IndoorPoint::new(f64::from(region) * 1.25 + 0.1, -3.3, region as i16 % 4)),
    }
}

/// Two device ids per shard, so every shard holds devices.
fn devices() -> Vec<String> {
    let mut per_shard = [0usize; SHARDS];
    let mut out = Vec::new();
    for i in 0.. {
        let id = format!("10.{i}.7.{}", i * 31 % 97);
        let shard = device_hash(&DeviceId::new(&id)) as usize % SHARDS;
        if per_shard[shard] < 2 {
            per_shard[shard] += 1;
            out.push(id);
        }
        if per_shard.iter().all(|&n| n == 2) {
            return out;
        }
    }
    unreachable!()
}

/// One round of batches: each device walks a few regions, batches split
/// mid-walk so flows cross batch boundaries.
fn walk(store: &SemanticsStore, devices: &[String], round: u32) {
    for (k, d) in devices.iter().enumerate() {
        let id = DeviceId::new(d);
        let base = i64::from(round) * 10_000 + k as i64 * 100;
        let regions = [1 + round, 2 + (k as u32 % 3), 5, 1 + round];
        let batch: Vec<MobilitySemantics> = regions
            .iter()
            .enumerate()
            .map(|(j, &r)| {
                let event = if j % 2 == 0 { "stay" } else { "pass-by" };
                sem(d, r, event, base + j as i64 * 60)
            })
            .collect();
        let (first, rest) = batch.split_at(2);
        store.ingest(&id, first);
        store.ingest(&id, rest);
    }
}

/// The script; `checkpoint` runs at its midpoint (durable store only).
fn script(store: &SemanticsStore, checkpoint: &dyn Fn(&SemanticsStore)) {
    let devices = devices();
    walk(store, &devices, 0);
    store.register_device(&DeviceId::new("registered-silent"));
    store.end_session(&DeviceId::new(&devices[0]));
    store.end_session(&DeviceId::new(&devices[3]));
    walk(store, &devices, 1);
    store.clear();
    walk(store, &devices, 2);
    // A batch carrying a semantics of another device.
    let d = DeviceId::new(&devices[1]);
    store.ingest(
        &d,
        &[
            sem(&devices[1], 8, "stay", 90_000),
            sem(&devices[2], 9, "stay", 90_100),
        ],
    );
    checkpoint(store);
    store.end_session(&DeviceId::new(&devices[5]));
    walk(store, &devices, 3);
    store.end_session(&DeviceId::new(&devices[2]));
    store.register_device(&DeviceId::new("registered-late"));
    walk(store, &devices, 4);
}

fn persisted(store: &SemanticsStore, path: &std::path::Path) -> Vec<u8> {
    store.persist(path).unwrap();
    fs::read(path).unwrap()
}

#[test]
fn replay_over_tiny_segments_with_clear_and_checkpoint_equals_never_crashed_store() {
    for checkpointed in [false, true] {
        let dir = TempDir::new(if checkpointed { "ckpt" } else { "plain" });
        let config = DurabilityConfig {
            fsync: FsyncPolicy::Never,
            segment_bytes: 512,
            ..DurabilityConfig::new(&dir.0)
        };
        {
            let (durable, _) = SemanticsStore::recover(&config, SHARDS).unwrap();
            script(&durable, &|s| {
                if checkpointed {
                    s.checkpoint().unwrap();
                }
            });
            let stats = durable.wal_stats().unwrap();
            assert!(stats.segments > 4, "multi-segment log: {}", stats.segments);
            assert!(stats.rotations > 10, "rotations: {}", stats.rotations);
        }

        let control = SemanticsStore::with_shards(SHARDS);
        script(&control, &|_| {});
        let stats = control.stats();
        assert!(
            stats.devices_per_shard.iter().all(|&n| n > 0),
            "every shard holds devices: {:?}",
            stats.devices_per_shard
        );

        let (recovered, report) = SemanticsStore::recover(&config, SHARDS).unwrap();
        assert_eq!(report.snapshot_loaded, checkpointed);
        assert!(!report.torn_tail_truncated);
        assert!(report.replayed_records > 0);
        let all = SemanticsSelector::all();
        assert_eq!(recovered.top_flows(&all, 100), control.top_flows(&all, 100));
        assert_eq!(
            persisted(&recovered, &dir.0.join("recovered.json")),
            persisted(&control, &dir.0.join("control.json")),
            "checkpointed={checkpointed}: byte-identical persisted state"
        );
    }
}
