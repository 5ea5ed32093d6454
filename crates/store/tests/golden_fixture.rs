//! A committed durability directory pins the on-disk formats and every
//! query answer. `fixtures/golden-durability/` holds a checkpoint
//! snapshot and the WAL segments written after it. The script below
//! produced it, and the recorded answers and re-checkpoint bytes came from
//! the same run. The script covers three event labels, one region id
//! under two names, inferred and display-less semantics, a semantics whose
//! device differs from its batch's device, registrations, session ends
//! and a wipe after the checkpoint.
//!
//! Recovering the fixture must give the recorded answers, and so must
//! loading its checkpoint snapshot on its own. A fresh checkpoint of the
//! recovered store must write the recorded snapshot byte for byte.
//!
//! To rewrite the fixture after a deliberate format change, run
//! `cargo test -p trips-store --test golden_fixture -- --ignored` and
//! commit the result.

use std::fs;
use std::path::{Path, PathBuf};
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, Duration, Timestamp};
use trips_dsm::RegionId;
use trips_geom::IndoorPoint;
use trips_store::{
    DurabilityConfig, FsyncPolicy, Query, QueryRequest, SemanticsSelector, SemanticsStore,
};

const SHARDS: usize = 4;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("trips-store-golden-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn config(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: 2048,
        ..DurabilityConfig::new(dir)
    }
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
    point: Option<(f64, f64, i16)>,
) -> MobilitySemantics {
    MobilitySemantics {
        device: DeviceId::new(device),
        event: event.into(),
        region: RegionId(region),
        region_name: name.into(),
        start: Timestamp::from_millis(start_s * 1000 + 17),
        end: Timestamp::from_millis(end_s * 1000 + 431),
        inferred,
        display_point: point.map(|(x, y, f)| IndoorPoint::new(x, y, f)),
    }
}

/// Applies the fixture's script; the checkpoint is taken between the two
/// halves.
fn before_checkpoint(store: &SemanticsStore) {
    let (a, b, silent) = (
        DeviceId::new("dev-a"),
        DeviceId::new("dev-b"),
        DeviceId::new("dev-silent"),
    );
    store.ingest(
        &a,
        &[
            sem(
                "dev-a",
                "stay",
                1,
                "Nike",
                0,
                600,
                false,
                Some((1.5, 2.25, 0)),
            ),
            sem(
                "dev-a",
                "pass-by",
                2,
                "Hall",
                600,
                630,
                false,
                Some((4.0, -0.1, 0)),
            ),
            sem("dev-a", "queue", 3, "Cafe", 630, 900, true, None),
        ],
    );
    store.ingest(
        &b,
        &[
            sem("dev-b", "pass-by", 2, "Hall", 10, 40, false, None),
            sem(
                "dev-b",
                "stay",
                1,
                "Nike (old sign)",
                40,
                700,
                false,
                Some((1.0, 1.0, 0)),
            ),
            sem(
                "dev-b",
                "stay",
                4,
                "Gate",
                700,
                720,
                false,
                Some((9.75, 3.5, 1)),
            ),
        ],
    );
    store.register_device(&silent);
    store.end_session(&a);
    store.ingest(
        &a,
        &[
            sem(
                "dev-a",
                "stay",
                2,
                "Hall",
                1000,
                1300,
                false,
                Some((4.5, 0.5, 0)),
            ),
            sem("dev-z", "pass-by", 1, "Nike", 1300, 1310, false, None),
        ],
    );
}

fn after_checkpoint(store: &SemanticsStore) {
    let ids: Vec<DeviceId> = ["dev-a", "dev-b", "dev-c", "dev-d", "dev-late"]
        .into_iter()
        .map(DeviceId::new)
        .collect();
    let (a, b, c, d, late) = (&ids[0], &ids[1], &ids[2], &ids[3], &ids[4]);
    store.ingest(
        c,
        &[sem(
            "dev-c",
            "stay",
            5,
            "Lab",
            0,
            3600,
            false,
            Some((0.0, 0.0, 2)),
        )],
    );
    store.clear();
    store.ingest(
        a,
        &[
            sem(
                "dev-a",
                "stay",
                1,
                "Nike",
                2000,
                2400,
                false,
                Some((1.25, 2.0, 0)),
            ),
            sem(
                "dev-a",
                "queue",
                3,
                "Cafe",
                2400,
                2460,
                false,
                Some((6.0, 6.0, 0)),
            ),
            sem(
                "dev-a",
                "pass-by",
                1,
                "Nike (old sign)",
                2460,
                2470,
                true,
                None,
            ),
        ],
    );
    store.ingest(
        b,
        &[
            sem(
                "dev-b",
                "stay",
                1,
                "Nike (old sign)",
                2000,
                2300,
                false,
                None,
            ),
            sem(
                "dev-x",
                "stay",
                4,
                "Gate",
                2300,
                2350,
                false,
                Some((9.0, 3.0, 1)),
            ),
            sem("dev-b", "queue", 3, "Cafe", 2350, 2500, true, None),
        ],
    );
    store.end_session(b);
    store.ingest(
        b,
        &[
            sem("dev-b", "pass-by", 2, "Hall", 2600, 2620, false, None),
            sem(
                "dev-b",
                "stay",
                1,
                "Nike",
                2620,
                2900,
                false,
                Some((1.5, 2.5, 0)),
            ),
        ],
    );
    store.register_device(late);
    store.ingest(
        d,
        &[
            sem(
                "dev-d",
                "stay",
                4,
                "Gate",
                100,
                400,
                false,
                Some((9.5, 3.25, 1)),
            ),
            sem("dev-d", "pass-by", 2, "Hall", 400, 430, false, None),
        ],
    );
    store.end_session(d);
    store.end_session(d);
    // Continues dev-a's session across a batch boundary: Nike → Hall.
    store.ingest(
        a,
        &[sem(
            "dev-a",
            "stay",
            2,
            "Hall",
            2500,
            2800,
            false,
            Some((4.25, 0.75, 0)),
        )],
    );
    store.register_device(a);
}

/// Every query kind under every selector class the store serves.
fn requests() -> Vec<QueryRequest> {
    let window = (
        Timestamp::from_millis(2_300_000),
        Timestamp::from_millis(2_700_000),
    );
    let selectors = [
        SemanticsSelector::all(),
        SemanticsSelector::all().with_device_pattern("dev-a*"),
        SemanticsSelector::all().with_device_pattern("dev-?"),
        SemanticsSelector::all().with_region(RegionId(1)),
        SemanticsSelector::all().with_event("stay"),
        SemanticsSelector::all().with_event("queue"),
        SemanticsSelector::all().with_event("no-such-label"),
        SemanticsSelector::all().between(window.0, window.1),
        SemanticsSelector::all()
            .with_region(RegionId(1))
            .with_event("pass-by"),
    ];
    let queries = [
        Query::PopularRegions,
        Query::TopFlows { limit: 20 },
        Query::DwellHistogram {
            bucket: Duration::from_mins(1),
        },
        Query::DeviceSummaries,
        Query::Semantics,
        Query::Stats,
    ];
    selectors
        .iter()
        .flat_map(|s| {
            queries
                .iter()
                .map(move |q| QueryRequest::new(s.clone(), q.clone()))
        })
        .collect()
}

/// The store's answers to [`requests`], one JSON document per line.
fn answers(store: &SemanticsStore) -> String {
    let mut out = String::new();
    for request in requests() {
        out.push_str(&serde_json::to_string(&store.query(&request)).unwrap());
        out.push('\n');
    }
    out
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Recovers a scratch copy of the fixture, so the committed files stay
/// untouched (recovery opens the log for appending).
fn recover_copy(scratch: &Path) -> SemanticsStore {
    let dir = scratch.join("wal");
    copy_dir(&fixtures().join("golden-durability"), &dir);
    let (store, report) = SemanticsStore::recover(&config(&dir), 0).expect("fixture recovers");
    assert!(report.snapshot_loaded, "the fixture has a checkpoint");
    assert!(report.replayed_records > 0, "and a log after it");
    assert!(!report.torn_tail_truncated, "and no torn tail");
    store
}

#[test]
fn golden_fixture_recovers_to_recorded_answers() {
    let scratch = TempDir::new("recover");
    let store = recover_copy(&scratch.0);
    assert_eq!(store.shard_count(), SHARDS);
    assert_eq!(
        answers(&store),
        fs::read_to_string(fixtures().join("golden-answers.ndjson")).unwrap(),
        "recovered answers differ from the recorded ones"
    );

    let snapshot = SemanticsStore::load(fixtures().join("golden-durability/snapshot.json"))
        .expect("checkpoint snapshot loads");
    assert_eq!(
        answers(&snapshot),
        fs::read_to_string(fixtures().join("golden-checkpoint-answers.ndjson")).unwrap(),
        "checkpoint snapshot answers differ from the recorded ones"
    );

    let report = store.checkpoint().expect("re-checkpoint");
    assert_eq!(
        fs::read(&report.snapshot_path).unwrap(),
        fs::read(fixtures().join("golden-recheckpoint.json")).unwrap(),
        "re-checkpoint snapshot bytes differ from the recorded ones"
    );
}

/// Rewrites the fixture from the script (see the module docs).
#[test]
#[ignore = "rewrites the committed fixture"]
fn regenerate_golden_fixture() {
    let out = fixtures();
    let dir = out.join("golden-durability");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    {
        let (store, _) = SemanticsStore::recover(&config(&dir), SHARDS).unwrap();
        before_checkpoint(&store);
        store.checkpoint().unwrap();
        after_checkpoint(&store);
    }
    let snapshot = SemanticsStore::load(dir.join("snapshot.json")).unwrap();
    fs::write(
        out.join("golden-checkpoint-answers.ndjson"),
        answers(&snapshot),
    )
    .unwrap();

    let scratch = TempDir::new("regenerate");
    let store = recover_copy(&scratch.0);
    fs::write(out.join("golden-answers.ndjson"), answers(&store)).unwrap();
    let report = store.checkpoint().unwrap();
    fs::copy(&report.snapshot_path, out.join("golden-recheckpoint.json")).unwrap();
}
