//! Snapshot/restore: the versioned JSON format documented in the crate
//! docs. Only the raw per-device semantics travel; aggregates are rebuilt
//! on load so a snapshot can never disagree with its aggregates. Loading
//! walks the parsed document and interns each semantics object straight
//! into its shard, borrowing the strings from the document.
//!
//! Writes are **atomic**: the document goes to a `<path>.tmp` sibling
//! which is fsynced and renamed over the target, so a crash mid-write can
//! never leave a torn snapshot — readers see the old file or the new one,
//! nothing in between. The version field is checked *before* the body is
//! parsed, so a snapshot from a newer build (whose shape this build may
//! not even recognize) fails with the typed
//! [`SemanticsStoreError::Version`] rather than a shape error or a silent
//! misparse.

use crate::shard::{SemanticsView, Shard};
use crate::SemanticsStore;
use serde::Serialize;
use std::fs;
use std::io::Write;
use std::path::Path;
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, Timestamp};

pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// Errors raised by snapshot persist/load and durability
/// recovery/checkpoint.
#[derive(Debug)]
pub enum SemanticsStoreError {
    Io(std::io::Error),
    Serde(String),
    /// The file's `version` field is not one this build understands
    /// (typically a snapshot written by a newer build).
    Version(u32),
    /// The write-ahead log is unreadable (mid-log corruption, bad
    /// segment) or failed an I/O operation.
    Wal(trips_wal::WalError),
    /// A durability-only operation (checkpoint) on a store with no WAL.
    NotDurable,
}

impl std::fmt::Display for SemanticsStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemanticsStoreError::Io(e) => write!(f, "semantics store I/O error: {e}"),
            SemanticsStoreError::Serde(e) => {
                write!(f, "semantics store serialization error: {e}")
            }
            SemanticsStoreError::Version(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SemanticsStoreError::Wal(e) => write!(f, "semantics store durability error: {e}"),
            SemanticsStoreError::NotDurable => {
                write!(f, "store has no durability layer (checkpoint needs a WAL)")
            }
        }
    }
}

impl std::error::Error for SemanticsStoreError {}

impl From<std::io::Error> for SemanticsStoreError {
    fn from(e: std::io::Error) -> Self {
        SemanticsStoreError::Io(e)
    }
}

impl From<trips_wal::WalError> for SemanticsStoreError {
    fn from(e: trips_wal::WalError) -> Self {
        SemanticsStoreError::Wal(e)
    }
}

#[derive(Serialize)]
pub(crate) struct SnapshotFile {
    pub(crate) version: u32,
    pub(crate) shards: usize,
    /// For a durability **checkpoint**: the WAL segment sequence recovery
    /// resumes replay from — everything in older segments is already in
    /// this snapshot. `None` for plain [`SemanticsStore::persist`]
    /// snapshots (and absent in pre-durability files, which read as
    /// `None`). Living inside the snapshot document, it is published by
    /// the same atomic rename as the data it describes.
    pub(crate) wal_seq: Option<u64>,
    /// Per device: its semantics split into **sessions** at the
    /// `end_session` boundaries, so flow suppression across independent
    /// sequences survives a persist/load roundtrip (a trailing empty
    /// session encodes a boundary after the final semantics).
    pub(crate) devices: Vec<(String, Vec<Vec<MobilitySemantics>>)>,
}

/// Builds the snapshot document from already-locked shards (the
/// checkpoint path holds write guards; `persist` passes read guards).
/// This is one of the edges where rows become named semantics again.
pub(crate) fn build_snapshot<'a>(
    shards: impl Iterator<Item = &'a Shard>,
    shard_count: usize,
    wal_seq: Option<u64>,
) -> SnapshotFile {
    let mut devices: Vec<(String, Vec<Vec<MobilitySemantics>>)> = Vec::new();
    for shard in shards {
        for (device, entry) in &shard.devices {
            devices.push((device.as_str().to_string(), shard.sessions(device, entry)));
        }
    }
    devices.sort_by(|a, b| a.0.cmp(&b.0));
    SnapshotFile {
        version: SNAPSHOT_VERSION,
        shards: shard_count,
        wal_seq,
        devices,
    }
}

/// Serializes and publishes a snapshot atomically: write `<path>.tmp`,
/// fsync it, rename over `path`, fsync the directory (best-effort). A
/// pre-existing stale `.tmp` (from a crashed earlier attempt) is simply
/// overwritten.
pub(crate) fn write_atomic(path: &Path, file: &SnapshotFile) -> Result<(), SemanticsStoreError> {
    let json =
        serde_json::to_string(file).map_err(|e| SemanticsStoreError::Serde(e.to_string()))?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A parsed snapshot document whose version this build reads.
pub(crate) struct Snapshot {
    pub(crate) shards: usize,
    pub(crate) wal_seq: Option<u64>,
    value: serde::Value,
}

fn serde_err(e: impl std::fmt::Display) -> SemanticsStoreError {
    SemanticsStoreError::Serde(e.to_string())
}

/// Reads a snapshot file and checks its header. The `version` field is
/// inspected on the raw JSON value *before* anything else, so files from
/// newer builds fail with [`SemanticsStoreError::Version`] even when
/// their shape has diverged.
pub(crate) fn read_snapshot(path: &Path) -> Result<Snapshot, SemanticsStoreError> {
    let json = fs::read_to_string(path)?;
    let value: serde::Value = serde_json::from_str(&json).map_err(serde_err)?;
    let obj = value
        .as_object()
        .ok_or_else(|| serde_err("snapshot is not a JSON object"))?;
    let version = value
        .get("version")
        .and_then(serde::Value::as_i64)
        .ok_or_else(|| serde_err("snapshot has no integer `version` field"))?;
    if version != i64::from(SNAPSHOT_VERSION) {
        return Err(SemanticsStoreError::Version(
            u32::try_from(version).unwrap_or(u32::MAX),
        ));
    }
    Ok(Snapshot {
        shards: serde::de_field(obj, "shards").map_err(serde_err)?,
        wal_seq: serde::de_field(obj, "wal_seq").map_err(serde_err)?,
        value,
    })
}

/// A semantics object of a snapshot as a borrowed view: its strings stay
/// in the parsed document.
fn view_of(v: &serde::Value) -> Result<SemanticsView<'_>, serde::Error> {
    let obj = v.as_object().ok_or_else(|| {
        serde::Error::custom(format!("expected semantics object, got {}", v.kind()))
    })?;
    let str_field = |key: &str| -> Result<&str, serde::Error> {
        v.get(key)
            .and_then(serde::Value::as_str)
            .ok_or_else(|| serde::Error::custom(format!("field `{key}`: expected string")))
    };
    Ok(SemanticsView {
        device: str_field("device")?,
        event: str_field("event")?,
        region: serde::de_field(obj, "region")?,
        region_name: str_field("region_name")?,
        start: serde::de_field::<Timestamp>(obj, "start")?.as_millis(),
        end: serde::de_field::<Timestamp>(obj, "end")?.as_millis(),
        inferred: serde::de_field(obj, "inferred")?,
        display_point: serde::de_field(obj, "display_point")?,
    })
}

fn array<'v>(v: &'v serde::Value, what: &str) -> Result<&'v [serde::Value], SemanticsStoreError> {
    v.as_array()
        .ok_or_else(|| serde_err(format!("{what}: expected array, got {}", v.kind())))
}

/// Rebuilds a store (and every aggregate) from a snapshot document,
/// interning each semantics straight from the parsed document into its
/// shard.
pub(crate) fn store_from_snapshot(
    snapshot: &Snapshot,
) -> Result<SemanticsStore, SemanticsStoreError> {
    let store = SemanticsStore::with_shards(snapshot.shards);
    for pair in array(&snapshot.value["devices"], "devices")? {
        let (device, sessions) = match array(pair, "device entry")? {
            [device, sessions] => (device, array(sessions, "sessions")?),
            _ => return Err(serde_err("device entry: expected [device, sessions]")),
        };
        let device = DeviceId::new(
            device
                .as_str()
                .ok_or_else(|| serde_err("device entry: expected device id string"))?,
        );
        let mut shard = store.shards()[store.shard_index(&device)].write();
        // Registered even when every session is empty.
        shard.devices.entry(device.clone()).or_default();
        for (i, session) in sessions.iter().enumerate() {
            let mut error = None;
            let views = array(session, "session")?
                .iter()
                .map_while(|v| view_of(v).map_err(|e| error = Some(e)).ok());
            shard.ingest(&device, views);
            if let Some(e) = error {
                return Err(serde_err(e));
            }
            let entry = shard.devices.get_mut(&device).expect("registered above");
            if i + 1 < sessions.len() && entry.session_last().is_some() {
                entry.breaks.push(entry.rows.len());
            }
        }
    }
    Ok(store)
}

impl SemanticsStore {
    /// Writes a version-1 snapshot of the store to `path`, atomically
    /// (tmp file + rename — a crash mid-persist leaves the previous
    /// file, never a torn one).
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<(), SemanticsStoreError> {
        let guards: Vec<_> = self.shards().iter().map(|s| s.read()).collect();
        let file = build_snapshot(guards.iter().map(|g| &**g), self.shard_count(), None);
        drop(guards);
        write_atomic(path.as_ref(), &file)
    }

    /// Restores a store from a snapshot written by [`SemanticsStore::persist`],
    /// recreating the recorded shard count, session boundaries, and every
    /// aggregate. The result is **not** durable — use
    /// [`SemanticsStore::recover`] to boot a WAL-backed store.
    pub fn load(path: impl AsRef<Path>) -> Result<SemanticsStore, SemanticsStoreError> {
        store_from_snapshot(&read_snapshot(path.as_ref())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SemanticsSelector;
    use trips_data::{Duration, Timestamp};
    use trips_dsm::RegionId;

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

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("trips-semstore-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries() {
        let store = SemanticsStore::with_shards(8);
        for d in 0..10 {
            let id = format!("dev-{d}");
            let sems: Vec<MobilitySemantics> = (0..5)
                .map(|i| {
                    sem(
                        &id,
                        (d + i) % 4,
                        if i % 2 == 0 { "stay" } else { "pass-by" },
                        i as i64 * 100,
                        i as i64 * 100 + 60,
                    )
                })
                .collect();
            store.ingest(&DeviceId::new(&id), &sems);
        }
        store.register_device(&DeviceId::new("silent"));

        let path = temp_path("roundtrip");
        store.persist(&path).unwrap();
        let back = SemanticsStore::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(back.shard_count(), store.shard_count());
        assert_eq!(
            back.device_count(),
            store.device_count(),
            "empty device kept"
        );
        let all = SemanticsSelector::all();
        assert_eq!(back.popular_regions(&all), store.popular_regions(&all));
        assert_eq!(back.top_flows(&all, 20), store.top_flows(&all, 20));
        assert_eq!(
            back.dwell_histogram(&all, Duration::from_mins(1)),
            store.dwell_histogram(&all, Duration::from_mins(1))
        );
        assert_eq!(back.device_summaries(&all), store.device_summaries(&all));
        assert_eq!(back.semantics(&all), store.semantics(&all));
    }

    #[test]
    fn session_boundaries_survive_roundtrip() {
        let store = SemanticsStore::with_shards(4);
        let d = DeviceId::new("two-sessions");
        store.ingest(&d, &[sem("two-sessions", 1, "stay", 0, 600)]);
        store.end_session(&d);
        store.ingest(&d, &[sem("two-sessions", 2, "pass-by", 700, 730)]);
        let c = DeviceId::new("continuous");
        store.ingest(&c, &[sem("continuous", 1, "stay", 0, 600)]);
        store.ingest(&c, &[sem("continuous", 2, "pass-by", 700, 730)]);

        let all = SemanticsSelector::all();
        assert_eq!(
            store.top_flows(&all, 10).len(),
            1,
            "only the continuous flow"
        );

        let path = temp_path("sessions");
        store.persist(&path).unwrap();
        let back = SemanticsStore::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            back.top_flows(&all, 10),
            store.top_flows(&all, 10),
            "suppressed cross-session flow must not reappear after load"
        );
        assert_eq!(back.semantics(&all), store.semantics(&all));
    }

    /// A serving restart path may snapshot before any ingest arrived: an
    /// empty store must persist and come back empty (same shard count, no
    /// devices, every query empty) rather than erroring.
    #[test]
    fn empty_store_roundtrip() {
        let store = SemanticsStore::with_shards(8);
        let path = temp_path("empty");
        store.persist(&path).unwrap();
        let back = SemanticsStore::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.shard_count(), 8);
        assert!(back.is_empty());
        assert_eq!(back.semantics_count(), 0);
        let all = SemanticsSelector::all();
        assert!(back.popular_regions(&all).is_empty());
        assert!(back.top_flows(&all, 10).is_empty());
        assert!(back.semantics(&all).is_empty());
    }

    #[test]
    fn unknown_version_rejected() {
        let path = temp_path("version");
        std::fs::write(&path, r#"{"version":99,"shards":4,"devices":[]}"#).unwrap();
        let err = SemanticsStore::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, SemanticsStoreError::Version(99)), "{err}");
    }

    /// Forward compatibility: a snapshot from a **newer** build — larger
    /// version, fields this build has never heard of, a reshaped
    /// `devices` — must fail with the typed `Version` error, not a shape
    /// error and certainly not a silent misparse into an empty store.
    #[test]
    fn newer_snapshot_version_is_a_typed_error_even_with_unknown_shape() {
        let path = temp_path("future");
        std::fs::write(
            &path,
            format!(
                r#"{{"version":{},"shards":4,"codec":"columnar-zstd","devices":{{"packed":"AAAA"}}}}"#,
                SNAPSHOT_VERSION + 1
            ),
        )
        .unwrap();
        let err = SemanticsStore::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        match err {
            SemanticsStoreError::Version(v) => assert_eq!(v, SNAPSHOT_VERSION + 1),
            other => panic!("want Version error, got {other}"),
        }
    }

    /// A snapshot cut off mid-write (crash, full disk) must surface a
    /// serde error — not a panic — so a restarting server can report it
    /// and start fresh.
    #[test]
    fn truncated_snapshot_is_an_error_not_a_panic() {
        // Build a real snapshot, then truncate it at several points.
        let store = SemanticsStore::with_shards(4);
        store.ingest(
            &DeviceId::new("dev-a"),
            &[
                sem("dev-a", 1, "stay", 0, 600),
                sem("dev-a", 2, "pass-by", 600, 630),
            ],
        );
        let path = temp_path("truncated");
        store.persist(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        for frac in [0.25, 0.5, 0.9] {
            let cut = (full.len() as f64 * frac) as usize;
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = SemanticsStore::load(&path).unwrap_err();
            assert!(
                matches!(err, SemanticsStoreError::Serde(_)),
                "cut at {cut}/{}: {err}",
                full.len()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_and_missing_files_surface_errors() {
        let path = temp_path("garbage");
        std::fs::write(&path, "not json at all {").unwrap();
        let err = SemanticsStore::load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, SemanticsStoreError::Serde(_)), "{err}");
        let missing = SemanticsStore::load(temp_path("missing-never-written")).unwrap_err();
        assert!(matches!(missing, SemanticsStoreError::Io(_)), "{missing}");
    }

    /// Persist is atomic: a crashed earlier attempt's partial `.tmp`
    /// must not poison a later persist, and a reader never sees the tmp
    /// shadow as the snapshot.
    #[test]
    fn persist_overwrites_a_preseeded_partial_tmp() {
        let path = temp_path("atomic");
        let tmp = std::path::PathBuf::from(format!("{}.tmp", path.display()));
        // Simulate a crash mid-write from a previous run.
        std::fs::write(&tmp, r#"{"version":1,"shards":4,"dev"#).unwrap();

        let store = SemanticsStore::with_shards(4);
        store.ingest(&DeviceId::new("dev-a"), &[sem("dev-a", 1, "stay", 0, 600)]);
        store.persist(&path).unwrap();

        assert!(!tmp.exists(), "tmp shadow renamed away");
        let back = SemanticsStore::load(&path).unwrap();
        assert_eq!(back.semantics_count(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
