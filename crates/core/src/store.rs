//! Backend storage: "The data configurated in steps (2)-(3) will be stored
//! in the backend for the reuse in other translation tasks in the same
//! indoor space" (paper §4).
//!
//! The store persists DSMs, Event Editor training sets, and semantics-store
//! snapshots to a directory, keyed by name, behind a thread-safe in-memory
//! cache. It is the snapshot/restore backend for the in-memory
//! [`trips_store::SemanticsStore`] ([`Store::save_semantics`] /
//! [`Store::load_semantics`]).

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use trips_annotate::{EventEditor, TrainingSet};
use trips_dsm::{json as dsm_json, DigitalSpaceModel};
use trips_store::{SemanticsStore, SemanticsStoreError};

/// Errors raised by the store.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    Dsm(trips_dsm::DsmError),
    Serde(String),
    NotFound(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Dsm(e) => write!(f, "store DSM error: {e}"),
            StoreError::Serde(e) => write!(f, "store serialization error: {e}"),
            StoreError::NotFound(k) => write!(f, "'{k}' not in store"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<trips_dsm::DsmError> for StoreError {
    fn from(e: trips_dsm::DsmError) -> Self {
        StoreError::Dsm(e)
    }
}

impl From<SemanticsStoreError> for StoreError {
    fn from(e: SemanticsStoreError) -> Self {
        match e {
            SemanticsStoreError::Io(io) => StoreError::Io(io),
            other => StoreError::Serde(other.to_string()),
        }
    }
}

/// Serializable form of an event editor's training data.
#[derive(serde::Serialize, serde::Deserialize)]
struct StoredTraining {
    patterns: Vec<(String, String)>,
    xs: Vec<Vec<f64>>,
    ys: Vec<usize>,
}

/// Directory-backed configuration store with an in-memory cache.
pub struct Store {
    dir: PathBuf,
    dsm_cache: RwLock<BTreeMap<String, DigitalSpaceModel>>,
    /// DSM names whose files already passed `list_dsms` validation, so
    /// repeat listings stay O(directory entries) instead of re-reading
    /// every file.
    validated_dsms: RwLock<std::collections::BTreeSet<String>>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            dsm_cache: RwLock::new(BTreeMap::new()),
            validated_dsms: RwLock::new(std::collections::BTreeSet::new()),
        })
    }

    fn dsm_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("dsm-{name}.json"))
    }

    fn training_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("events-{name}.json"))
    }

    /// Persists a DSM under `name`.
    pub fn save_dsm(&self, name: &str, dsm: &DigitalSpaceModel) -> Result<(), StoreError> {
        dsm_json::save(dsm, self.dsm_path(name))?;
        self.dsm_cache.write().insert(name.to_string(), dsm.clone());
        Ok(())
    }

    /// Loads a DSM by name (cache first, then disk; topology recomputed on
    /// cold loads).
    pub fn load_dsm(&self, name: &str) -> Result<DigitalSpaceModel, StoreError> {
        if let Some(dsm) = self.dsm_cache.read().get(name) {
            return Ok(dsm.clone());
        }
        let path = self.dsm_path(name);
        if !path.exists() {
            return Err(StoreError::NotFound(name.to_string()));
        }
        let dsm = dsm_json::load(path)?;
        self.dsm_cache.write().insert(name.to_string(), dsm.clone());
        Ok(dsm)
    }

    /// Lists stored DSM names.
    ///
    /// Unreadable or non-JSON `dsm-*.json` entries surface as errors here
    /// instead of being silently listed and only failing at `load_dsm`
    /// time. Validation reads each file once: names in the DSM cache or
    /// already validated by a previous listing are listed without touching
    /// the file again, so repeat listings are O(directory entries). Full
    /// DSM schema validation still happens at `load_dsm`; a file replaced
    /// with garbage *after* a successful listing is only caught there.
    pub fn list_dsms(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        // Snapshot known-good names up front: holding a lock across the
        // per-file reads would block writers (and then everyone, under
        // writer preference) for the whole directory scan.
        let mut known: std::collections::BTreeSet<String> =
            self.dsm_cache.read().keys().cloned().collect();
        known.extend(self.validated_dsms.read().iter().cloned());
        let mut newly_validated = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().to_string();
            if let Some(stripped) = name
                .strip_prefix("dsm-")
                .and_then(|n| n.strip_suffix(".json"))
            {
                if !known.contains(stripped) {
                    let text = fs::read_to_string(entry.path())?;
                    serde_json::from_str::<serde_json::Value>(&text)
                        .map_err(|e| StoreError::Serde(format!("{name}: {e}")))?;
                    newly_validated.push(stripped.to_string());
                }
                names.push(stripped.to_string());
            }
        }
        if !newly_validated.is_empty() {
            self.validated_dsms.write().extend(newly_validated);
        }
        names.sort();
        Ok(names)
    }

    /// Persists an event editor's patterns and designations under `name`.
    pub fn save_training(&self, name: &str, editor: &EventEditor) -> Result<(), StoreError> {
        let ts = editor
            .build_training_set()
            .map_err(|e| StoreError::Serde(e.to_string()))?;
        let stored = StoredTraining {
            patterns: editor
                .patterns()
                .iter()
                .map(|p| (p.name.clone(), p.description.clone()))
                .collect(),
            xs: ts.xs,
            ys: ts.ys,
        };
        let json =
            serde_json::to_string_pretty(&stored).map_err(|e| StoreError::Serde(e.to_string()))?;
        fs::write(self.training_path(name), json)?;
        Ok(())
    }

    fn semantics_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("semantics-{name}.json"))
    }

    /// Persists a semantics-store snapshot under `name` (the versioned JSON
    /// format documented in `trips-store`'s crate docs).
    pub fn save_semantics(&self, name: &str, store: &SemanticsStore) -> Result<(), StoreError> {
        store.persist(self.semantics_path(name))?;
        Ok(())
    }

    /// Restores a semantics store from the snapshot saved under `name`,
    /// recreating its shard layout and rebuilding all aggregates.
    pub fn load_semantics(&self, name: &str) -> Result<SemanticsStore, StoreError> {
        let path = self.semantics_path(name);
        if !path.exists() {
            return Err(StoreError::NotFound(name.to_string()));
        }
        Ok(SemanticsStore::load(path)?)
    }

    /// Lists stored semantics-snapshot names.
    pub fn list_semantics(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().to_string();
            if let Some(stripped) = name
                .strip_prefix("semantics-")
                .and_then(|n| n.strip_suffix(".json"))
            {
                names.push(stripped.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Loads a stored training set by name.
    pub fn load_training(&self, name: &str) -> Result<TrainingSet, StoreError> {
        let path = self.training_path(name);
        if !path.exists() {
            return Err(StoreError::NotFound(name.to_string()));
        }
        let json = fs::read_to_string(path)?;
        let stored: StoredTraining =
            serde_json::from_str(&json).map_err(|e| StoreError::Serde(e.to_string()))?;
        Ok(TrainingSet {
            xs: stored.xs,
            ys: stored.ys,
            label_names: stored.patterns.into_iter().map(|(n, _)| n).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::{DeviceId, RawRecord, Timestamp};
    use trips_dsm::builder::MallBuilder;

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("trips-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn editor_with_data() -> EventEditor {
        let mut e = EventEditor::with_default_patterns();
        let stay: Vec<RawRecord> = (0..10)
            .map(|i| {
                RawRecord::new(
                    DeviceId::new("d"),
                    5.0,
                    5.0,
                    0,
                    Timestamp::from_millis(i * 7000),
                )
            })
            .collect();
        let walk: Vec<RawRecord> = (0..10)
            .map(|i| {
                RawRecord::new(
                    DeviceId::new("d"),
                    2.0 * i as f64,
                    0.0,
                    0,
                    Timestamp::from_millis(i * 1000),
                )
            })
            .collect();
        e.designate_segment("stay", &stay).unwrap();
        e.designate_segment("pass-by", &walk).unwrap();
        e
    }

    #[test]
    fn dsm_roundtrip_with_cache() {
        let store = temp_store("dsm");
        let dsm = MallBuilder::new().shops_per_row(2).build();
        store.save_dsm("mall", &dsm).unwrap();
        let back = store.load_dsm("mall").unwrap();
        assert_eq!(back.entity_count(), dsm.entity_count());
        assert!(back.is_frozen());
        assert_eq!(store.list_dsms().unwrap(), vec!["mall"]);
    }

    #[test]
    fn cold_load_from_disk() {
        let dir = std::env::temp_dir().join(format!("trips-store-cold-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir).unwrap();
            store
                .save_dsm("mall", &MallBuilder::new().shops_per_row(2).build())
                .unwrap();
        }
        // New store instance: cache is empty, must read the file.
        let store2 = Store::open(&dir).unwrap();
        let dsm = store2.load_dsm("mall").unwrap();
        assert!(dsm.is_frozen(), "topology recomputed on load");
    }

    #[test]
    fn missing_keys() {
        let store = temp_store("missing");
        assert!(matches!(
            store.load_dsm("ghost"),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            store.load_training("ghost"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn list_dsms_surfaces_garbage_entries() {
        let store = temp_store("garbage");
        store
            .save_dsm("good", &MallBuilder::new().shops_per_row(2).build())
            .unwrap();
        assert_eq!(store.list_dsms().unwrap(), vec!["good"]);
        // A corrupt entry must fail the listing, not be listed as loadable.
        fs::write(store.dsm_path("bad"), "{ not json !").unwrap();
        match store.list_dsms() {
            Err(StoreError::Serde(msg)) => assert!(msg.contains("dsm-bad.json"), "{msg}"),
            other => panic!("garbage must surface as Serde error, got {other:?}"),
        }
    }

    #[test]
    fn list_dsms_validates_each_file_once() {
        let store = temp_store("validate-once");
        fs::write(store.dsm_path("cold"), "{}").unwrap();
        assert_eq!(store.list_dsms().unwrap(), vec!["cold"]);
        // After a successful listing the file is trusted: replacing it
        // with garbage no longer fails the (cached) listing — the damage
        // surfaces at load_dsm instead.
        fs::write(store.dsm_path("cold"), "{ not json !").unwrap();
        assert_eq!(store.list_dsms().unwrap(), vec!["cold"]);
        assert!(store.load_dsm("cold").is_err());
    }

    #[test]
    fn list_dsms_surfaces_unreadable_entries() {
        let store = temp_store("unreadable");
        // A directory masquerading as a DSM file is unreadable as a file;
        // the IO error must propagate instead of being swallowed.
        fs::create_dir_all(store.dsm_path("dir")).unwrap();
        assert!(matches!(store.list_dsms(), Err(StoreError::Io(_))));
    }

    #[test]
    fn semantics_snapshot_roundtrip_via_store() {
        use trips_data::Duration;
        use trips_store::SemanticsSelector;
        let store = temp_store("semantics");
        let sem_store = SemanticsStore::with_shards(4);
        for d in 0..6u32 {
            let id = DeviceId::new(&format!("dev-{d}"));
            let sems: Vec<trips_annotate::MobilitySemantics> = (0..4u32)
                .map(|i| trips_annotate::MobilitySemantics {
                    device: id.clone(),
                    event: if i % 2 == 0 { "stay" } else { "pass-by" }.into(),
                    region: trips_dsm::RegionId((d + i) % 3),
                    region_name: format!("R{}", (d + i) % 3).into(),
                    start: Timestamp::from_millis(i as i64 * 60_000),
                    end: Timestamp::from_millis(i as i64 * 60_000 + 30_000),
                    inferred: false,
                    display_point: None,
                })
                .collect();
            sem_store.ingest(&id, &sems);
        }
        store.save_semantics("mall-day1", &sem_store).unwrap();
        assert_eq!(store.list_semantics().unwrap(), vec!["mall-day1"]);
        let back = store.load_semantics("mall-day1").unwrap();
        let all = SemanticsSelector::all();
        assert_eq!(back.popular_regions(&all), sem_store.popular_regions(&all));
        assert_eq!(
            back.dwell_histogram(&all, Duration::from_mins(1)),
            sem_store.dwell_histogram(&all, Duration::from_mins(1))
        );
        assert_eq!(back.semantics(&all), sem_store.semantics(&all));
        assert!(matches!(
            store.load_semantics("ghost"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn training_roundtrip() {
        let store = temp_store("training");
        let editor = editor_with_data();
        store.save_training("mall-events", &editor).unwrap();
        let ts = store.load_training("mall-events").unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.label_names, vec!["stay", "pass-by"]);
        assert_eq!(ts.xs[0].len(), trips_annotate::features::FEATURE_DIM);
    }
}
