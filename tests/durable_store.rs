//! The durable store through the root facade: recover the store crate's
//! golden durability directory (a checkpoint snapshot plus the WAL after
//! it) and check its occupancy and one device's semantics.

use std::fs;
use std::path::{Path, PathBuf};
use trips::annotate::MobilitySemantics;
use trips::data::{DeviceId, Timestamp};
use trips::dsm::RegionId;
use trips::geom::IndoorPoint;
use trips::store::{DurabilityConfig, FsyncPolicy, SemanticsSelector, SemanticsStore, StoreStats};

/// A scratch copy of the fixture, removed on drop (recovery opens the log
/// for appending, so the committed files are never recovered in place).
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn fixture_copy() -> Scratch {
    let from =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/store/tests/fixtures/golden-durability");
    let to = std::env::temp_dir().join(format!("trips-facade-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&to);
    fs::create_dir_all(&to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
    Scratch(to)
}

#[allow(clippy::too_many_arguments)]
fn sem(
    device: &str,
    event: &str,
    region: u32,
    name: &str,
    start_s: i64,
    end_s: i64,
    inferred: bool,
    point: Option<IndoorPoint>,
) -> MobilitySemantics {
    MobilitySemantics {
        device: DeviceId::new(device),
        event: event.into(),
        region: RegionId(region),
        region_name: name.into(),
        start: Timestamp::from_millis(start_s * 1000 + 17),
        end: Timestamp::from_millis(end_s * 1000 + 431),
        inferred,
        display_point: point,
    }
}

#[test]
fn facade_recovers_the_golden_durability_dir() {
    let dir = fixture_copy();
    let config = DurabilityConfig {
        fsync: FsyncPolicy::Never,
        ..DurabilityConfig::new(&dir.0)
    };
    let (store, report) = SemanticsStore::recover(&config, 0).expect("fixture recovers");
    assert!(report.snapshot_loaded && report.replayed_records > 0);
    assert_eq!(
        store.stats(),
        StoreStats {
            shards: 4,
            devices: 4,
            semantics: 11,
            regions: 4,
            devices_per_shard: vec![0, 1, 1, 2],
        }
    );
    // dev-b's batch carried one semantics of dev-x, region 1 arrived
    // under two names, and the queue entry is inferred with no point.
    assert_eq!(
        store.semantics(&SemanticsSelector::all().with_device_pattern("dev-b")),
        vec![
            sem(
                "dev-b",
                "stay",
                1,
                "Nike (old sign)",
                2000,
                2300,
                false,
                None
            ),
            sem(
                "dev-x",
                "stay",
                4,
                "Gate",
                2300,
                2350,
                false,
                Some(IndoorPoint::new(9.0, 3.0, 1))
            ),
            sem("dev-b", "queue", 3, "Cafe", 2350, 2500, true, None),
            sem("dev-b", "pass-by", 2, "Hall", 2600, 2620, false, None),
            sem(
                "dev-b",
                "stay",
                1,
                "Nike",
                2620,
                2900,
                false,
                Some(IndoorPoint::new(1.5, 2.5, 0))
            ),
        ]
    );
}
