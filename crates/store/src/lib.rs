//! # trips-store — sharded concurrent mobility-semantics store
//!
//! TRIPS positions translation as the front half of a system whose payoff is
//! serving mobility-semantics *queries* — popular regions, flows, dwell
//! histograms — to many concurrent consumers (paper §1's applications).
//! This crate is the serving half: a [`SemanticsStore`] that absorbs
//! streaming translations while answering analytics reads concurrently,
//! without rescanning every stored semantics on each call.
//!
//! ## Architecture
//!
//! * **Sharding** — devices are partitioned over N shards by an FNV-1a hash
//!   of the device id, each shard behind its own `parking_lot::RwLock`.
//!   Writers for different devices contend only when they hash to the same
//!   shard; readers never block each other.
//! * **Compact rows** — a shard stores each semantics as a 48-byte row:
//!   a region-name slot (`u32`), an event-label id (`u32`), `start`/`end`
//!   in ms, the `inferred` flag and the display point, stored flat. A row
//!   whose own device differs from its batch's device keeps that device
//!   in a side list of its device entry.
//! * **Intern tables** — each shard keeps one table of `(region id, name)`
//!   slots and one of event labels. A region id that arrives under two
//!   names gets two slots sharing one aggregate, so every answer names
//!   things exactly as they arrived. `stay` is resolved to its label id
//!   once per shard, so the stay test is an integer compare. Live
//!   ingest, WAL replay and snapshot load all intern borrowed views
//!   straight into rows: no per-row `String`, and no clone of the
//!   caller's batch.
//! * **Incremental aggregates** — every shard maintains, alongside the
//!   rows, running aggregates updated at ingest time: per-region
//!   popularity (stays / pass-bys / unique stayers / total dwell) in a
//!   dense `Vec` behind a region-id index, directed region-to-region flow
//!   counts keyed by the pair of region indices, an exact-duration dwell
//!   multiset (bucketable at query time into any histogram width), and
//!   per-device visit summaries (sorted `Vec`s of region indices visited
//!   and stayed at). Unfiltered analytics queries are therefore
//!   **O(shards) merges** instead of full rescans; since a device lives in
//!   exactly one shard, per-shard unique-stayer counts sum exactly.
//! * **Names only at the edges** — region names and event labels become
//!   `String`s again only where they leave the store: the
//!   [`Query::Semantics`], [`Query::PopularRegions`] and
//!   [`Query::TopFlows`] answers and snapshot persist. The rule engine
//!   sees the caller's own batch, never the rows.
//! * **Typed queries** — [`SemanticsStore::query`] answers
//!   [`QueryRequest`]s (a [`SemanticsSelector`] filter plus a [`Query`]
//!   kind); concurrent readers share the store behind an `Arc`.
//!   Selectors reuse `trips-data`'s Data Selector conventions: device-id
//!   glob patterns ([`trips_data::glob_match`]) and **half-open**
//!   `[from, to)` temporal ranges, matching
//!   `SelectionRule::TemporalRange`. Filtered queries fall
//!   back to scanning only the matching devices' rows (still sharded),
//!   with the selector's region and event resolved once per shard against
//!   its intern tables. A name the shard never stored matches no row
//!   there, and a query never adds to an intern table.
//!
//! ## Shard-count heuristic
//!
//! [`default_shard_count`] picks `2 × available_parallelism`, rounded up to
//! a power of two and clamped to `[4, 64]`. Twice the hardware parallelism
//! keeps write contention low even when every core runs an ingesting
//! writer; the power-of-two count turns shard selection into a mask; and
//! the cap bounds the O(shards) merge cost of aggregate queries. Pass an
//! explicit count to [`SemanticsStore::with_shards`] to override (it is
//! rounded up to the next power of two, minimum 1).
//!
//! ## Snapshot format
//!
//! [`SemanticsStore::persist`] writes a single JSON document (version 1),
//! atomically (tmp file + rename):
//!
//! ```json
//! { "version": 1,
//!   "shards": 8,
//!   "wal_seq": null,
//!   "devices": [["<device id>", [[<MobilitySemantics...>], ...]], ...] }
//! ```
//!
//! Devices are sorted by id, each paired with its semantics in ingest
//! order, split into **sessions** at [`SemanticsStore::end_session`]
//! boundaries (a trailing empty session encodes a boundary after the last
//! semantics) so flow suppression across independent sequences survives a
//! roundtrip. Aggregates are *not* serialized — they are derivable, and
//! [`SemanticsStore::load`] rebuilds them by re-ingesting each session, so
//! the snapshot can never disagree with its aggregates. Loading walks the
//! parsed JSON document and interns each semantics object straight into
//! its shard, borrowing its strings from the document. `shards` records
//! the source store's shard count and is reused on load. Loading rejects
//! unknown versions with [`SemanticsStoreError::Version`] — checked on
//! the raw JSON before the body parse, so snapshots from newer builds
//! fail typed even when their shape diverged.
//!
//! The file-backed `trips-core` `Store` uses these two entry points as its
//! snapshot/restore backend (`Store::save_semantics` / `load_semantics`).
//!
//! ## Durability
//!
//! A store can be booted through [`SemanticsStore::recover`], which
//! attaches a `trips-wal` write-ahead log: every effective `ingest` /
//! `register_device` / `end_session` / `clear` appends a WAL record
//! **before** it is applied, so a caller that sees the mutation return
//! may ack it as durable (under the configured [`FsyncPolicy`]).
//! `wal_seq` in a snapshot marks it as a
//! **checkpoint** ([`SemanticsStore::checkpoint`]): the WAL rotates, the
//! snapshot is tagged with the new segment sequence and published
//! atomically, and older segments are retired. Recovery is `snapshot
//! load → replay segments ≥ wal_seq`, equivalent to the never-crashed
//! store. See the [`durability`] module docs for the record payloads,
//! lock ordering, and crash-safety argument.

#![forbid(unsafe_code)]

pub mod durability;
mod query;
pub mod rules;
mod shard;
mod snapshot;
mod types;

pub use durability::{CheckpointReport, DurabilityConfig, RecoveryReport, WalStats};
pub use query::{Query, QueryRequest, QueryResult, SemanticsSelector};
pub use rules::{
    Alert, AlertSink, CmpOp, CollectingSink, Condition, RegionSel, RuleEngine, RuleError, RuleSpec,
    RuleTrace, DEFAULT_RULE_LIMIT,
};
pub use snapshot::SemanticsStoreError;
pub use trips_wal::FsyncPolicy;
pub use types::{DeviceSummary, Flow, RegionPopularity, StoreHealth, StoreStats};

use durability::{Durability, WalOpRef};
use parking_lot::RwLock;
use shard::{SemanticsView, Shard};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use trips_annotate::MobilitySemantics;
use trips_data::DeviceId;

/// A multiplicative hasher (the Fx mix: rotate, xor, multiply by an odd
/// constant) for the store's and the rule engine's integer keys: DSM
/// region ids, store-assigned region indices and server-assigned rule
/// ids. SipHash was most of the cost of those lookups. SipHash resists
/// keys chosen to collide; these keys need no such defence, since no
/// client chooses them. Tables keyed by ids or values off the wire
/// (devices, dwell durations) keep SipHash or a `BTreeMap`.
#[derive(Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A map keyed by integer ids (see [`IdHasher`]).
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Default shard count: `2 × available_parallelism`, next power of two,
/// clamped to `[4, 64]` (see the module docs for the rationale).
pub fn default_shard_count() -> usize {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    (threads * 2).next_power_of_two().clamp(4, 64)
}

/// FNV-1a 64-bit — deterministic across runs and platforms, so a device
/// always lands in the same shard (snapshots and tests rely on this).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The per-device routing hash (FNV-1a 64-bit over the device id bytes),
/// exported so other layers can shard by device **consistently** with the
/// store: masking this hash with any power-of-two shard count keeps two
/// sharded structures (e.g. the server's per-shard translator locks and
/// the store's shards) aligned on the same device partitioning.
pub fn device_hash(device: &DeviceId) -> u64 {
    fnv1a(device.as_str().as_bytes())
}

/// Sharded, concurrently readable/writable store of translated mobility
/// semantics with incremental analytics aggregates.
///
/// All methods take `&self`: the store is `Sync` and designed to be shared
/// (typically via `Arc`) between ingesting writers and querying readers.
pub struct SemanticsStore {
    shards: Vec<RwLock<Shard>>,
    mask: usize,
    /// The WAL handle, attached by [`SemanticsStore::recover`]. Appends
    /// happen under the mutating device's shard write lock, so per-device
    /// WAL order always equals apply order.
    durability: Option<Durability>,
    /// Standing rules, evaluated after each applied ingest batch (a
    /// zero-rule engine costs one atomic load per batch). See [`rules`].
    rules: RuleEngine,
    /// Ingest shard-lock acquisitions that found the lock held (observed
    /// only while `trips_obs::enabled()`; the uninstrumented path takes
    /// the lock directly).
    lock_contended: AtomicU64,
}

impl Default for SemanticsStore {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SemanticsStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticsStore")
            .field("shards", &self.shard_count())
            .field("devices", &self.device_count())
            .field("semantics", &self.semantics_count())
            .finish()
    }
}

impl SemanticsStore {
    /// Creates a store with [`default_shard_count`] shards.
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// Creates a store with an explicit shard count (rounded up to the next
    /// power of two, minimum 1).
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        SemanticsStore {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            mask: n - 1,
            durability: None,
            rules: RuleEngine::new(),
            lock_contended: AtomicU64::new(0),
        }
    }

    /// The standing-rules engine evaluated on this store's ingest path.
    pub fn rules(&self) -> &RuleEngine {
        &self.rules
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn shards(&self) -> &[RwLock<Shard>] {
        &self.shards
    }

    /// The shard holding `device` (its [`device_hash`] masked by the
    /// power-of-two shard count). Callers that keep their own per-device
    /// state beside the store shard it by this index, so one device
    /// always meets the same lock in both.
    pub fn shard_index(&self, device: &DeviceId) -> usize {
        (fnv1a(device.as_str().as_bytes()) as usize) & self.mask
    }

    /// Ingests a batch of semantics for one device, appending to any
    /// previously ingested semantics and updating every aggregate
    /// incrementally (including the flow across the append boundary).
    ///
    /// An empty batch is a **no-op**: it must not register the device, or a
    /// serving path that naturally produces empty batches (a streaming
    /// micro-batch with nothing finalized, a wire request with zero usable
    /// records) would inflate [`SemanticsStore::device_count`] with devices
    /// that have no semantics. Use [`SemanticsStore::register_device`] when
    /// a known-but-silent device must appear (snapshot restore does).
    ///
    /// On a durable store (see [`SemanticsStore::recover`]) the batch is
    /// appended to the WAL before it is applied — when this returns, the
    /// batch is journaled (and on stable storage, under the configured
    /// fsync policy), so the caller may ack it.
    pub fn ingest(&self, device: &DeviceId, semantics: &[MobilitySemantics]) {
        if semantics.is_empty() {
            return;
        }
        let obs = trips_obs::enabled();
        {
            let lock = &self.shards[self.shard_index(device)];
            // Instrumented path: try the lock first so the uncontended
            // case pays no clock read; a miss counts as contention and
            // attributes the wait to the in-flight request's span.
            let mut shard = if obs {
                match lock.try_write() {
                    Some(guard) => guard,
                    None => {
                        let waiting = Instant::now();
                        let guard = lock.write();
                        self.lock_contended.fetch_add(1, Ordering::Relaxed);
                        trips_obs::stage::add_store_lock_wait_ns(
                            waiting.elapsed().as_nanos() as u64
                        );
                        guard
                    }
                }
            } else {
                lock.write()
            };
            let applying = obs.then(Instant::now);
            if let Some(d) = &self.durability {
                d.append(&WalOpRef::Ingest {
                    device: device.as_str(),
                    semantics,
                });
            }
            shard.ingest(device, semantics.iter().map(SemanticsView::of));
            if let Some(t) = applying {
                trips_obs::stage::add_store_ns(t.elapsed().as_nanos() as u64);
            }
        }
        // Standing rules see the batch after it is applied (and after the
        // shard lock is released — the engine's locks are leaf locks). The
        // serving layer serializes batches per device, so rule evaluation
        // order equals store order.
        self.rules.publish(device, semantics);
    }

    /// Ingest shard-lock acquisitions that had to wait (counted while
    /// observability is enabled).
    pub fn shard_lock_contention(&self) -> u64 {
        self.lock_contended.load(Ordering::Relaxed)
    }

    /// Registers `device` with no semantics (a deliberate empty entry —
    /// unlike an empty [`SemanticsStore::ingest`] batch, which is a no-op).
    /// Snapshot restore uses this to keep devices that were explicitly
    /// registered before persisting.
    pub fn register_device(&self, device: &DeviceId) {
        let mut shard = self.shards[self.shard_index(device)].write();
        if !shard.devices.contains_key(device) {
            // Journal only effective registrations — a re-register is a
            // no-op and must not bloat replay.
            if let Some(d) = &self.durability {
                d.append(&WalOpRef::Register {
                    device: device.as_str(),
                });
            }
            shard.devices.entry(device.clone()).or_default();
        }
    }

    /// Ends the current flow "session" for `device`: the next ingested
    /// batch will not count a directed flow from this device's previously
    /// ingested last region. Use when successive batches are independent
    /// sequences rather than a continuation — e.g. republishing separate
    /// translation results for the same device. Streaming ingest should
    /// *not* call this between micro-batches (their boundary flows are
    /// real).
    pub fn end_session(&self, device: &DeviceId) {
        {
            let mut shard = self.shards[self.shard_index(device)].write();
            let durable = self.durability.as_ref();
            if let Some(entry) = shard.devices.get_mut(device) {
                if entry.session_last().is_some() {
                    // Journal only effective boundaries (a second
                    // end_session in a row is a no-op).
                    if let Some(d) = durable {
                        d.append(&WalOpRef::EndSession {
                            device: device.as_str(),
                        });
                    }
                    entry.breaks.push(entry.rows.len());
                }
            }
        }
        // The device's session is over: release its occupancy contribution
        // in the rules engine.
        self.rules.device_gone(device);
    }

    /// Drops all devices and aggregates, keeping the shard layout (and
    /// journaling the wipe, so replay does not resurrect the dropped
    /// state). All shard locks are taken *before* the WAL append — the
    /// same shards-then-wal order as every other mutator and
    /// [`SemanticsStore::checkpoint`] — so a concurrent ingest can never
    /// be ordered after the wipe in memory but before it in the log.
    pub fn clear(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        if let Some(d) = &self.durability {
            d.append(&WalOpRef::Clear);
        }
        for g in &mut guards {
            **g = Shard::default();
        }
        drop(guards);
        // Tracked rule state (occupancy/flows/positions) describes the
        // wiped data; registered rules survive, their counters re-arm.
        self.rules.reset_state();
    }

    /// Number of registered devices.
    pub fn device_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().devices.len()).sum()
    }

    /// Total semantics stored.
    pub fn semantics_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().semantics_count).sum()
    }

    /// Whether no device has been ingested.
    pub fn is_empty(&self) -> bool {
        self.device_count() == 0
    }

    /// Cheap occupancy counters — one pass over the shard locks reading
    /// two integers each, no per-device or per-region iteration. Suitable
    /// for a serving health endpoint called at high frequency; the full
    /// [`SemanticsStore::stats`] adds region counts and per-shard balance
    /// at O(regions + shards) cost.
    pub fn store_stats(&self) -> StoreHealth {
        let mut devices = 0;
        let mut semantics = 0;
        for s in &self.shards {
            let s = s.read();
            devices += s.devices.len();
            semantics += s.semantics_count;
        }
        StoreHealth {
            shards: self.shard_count(),
            devices,
            semantics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::Timestamp;
    use trips_dsm::RegionId;

    pub(crate) fn sem(
        device: &str,
        region: u32,
        name: &str,
        event: &str,
        start_s: i64,
        end_s: i64,
    ) -> MobilitySemantics {
        MobilitySemantics {
            device: DeviceId::new(device),
            event: event.into(),
            region: RegionId(region),
            region_name: name.into(),
            start: Timestamp::from_millis(start_s * 1000),
            end: Timestamp::from_millis(end_s * 1000),
            inferred: false,
            display_point: None,
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(SemanticsStore::with_shards(0).shard_count(), 1);
        assert_eq!(SemanticsStore::with_shards(1).shard_count(), 1);
        assert_eq!(SemanticsStore::with_shards(3).shard_count(), 4);
        assert_eq!(SemanticsStore::with_shards(8).shard_count(), 8);
        let d = default_shard_count();
        assert!(d.is_power_of_two() && (4..=64).contains(&d));
    }

    #[test]
    fn sharding_is_deterministic_and_total() {
        let store = SemanticsStore::with_shards(8);
        for i in 0..100 {
            let d = DeviceId::new(&format!("dev-{i}"));
            let a = store.shard_index(&d);
            assert_eq!(a, store.shard_index(&d), "stable per device");
            assert!(a < store.shard_count());
        }
    }

    #[test]
    fn ingest_counts_and_clear() {
        let store = SemanticsStore::with_shards(4);
        assert!(store.is_empty());
        let d = DeviceId::new("a.b.c.1");
        store.ingest(&d, &[sem("a.b.c.1", 1, "Nike", "stay", 0, 600)]);
        store.register_device(&DeviceId::new("a.b.c.2"));
        assert_eq!(store.device_count(), 2, "explicit registration counts");
        assert_eq!(store.semantics_count(), 1);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.semantics_count(), 0);
    }

    /// Regression (serving batch path): an empty ingest batch must not
    /// register a phantom device — servers naturally produce empty batches
    /// (a micro-batch with nothing finalized, a request with zero usable
    /// records) and `device_count` would creep upward forever.
    #[test]
    fn empty_ingest_does_not_inflate_device_count() {
        let store = SemanticsStore::with_shards(4);
        store.ingest(&DeviceId::new("phantom"), &[]);
        assert!(store.is_empty(), "empty batch must not register a device");
        assert_eq!(store.device_count(), 0);
        // An empty batch for an existing device is a harmless no-op.
        let d = DeviceId::new("real");
        store.ingest(&d, &[sem("real", 1, "Nike", "stay", 0, 600)]);
        store.ingest(&d, &[]);
        assert_eq!(store.device_count(), 1);
        assert_eq!(store.semantics_count(), 1);
        // Explicit registration is still available for known-silent devices.
        store.register_device(&DeviceId::new("silent"));
        assert_eq!(store.device_count(), 2);
        assert_eq!(store.semantics_count(), 1);
    }

    #[test]
    fn store_stats_is_cheap_occupancy_view() {
        let store = SemanticsStore::with_shards(4);
        assert_eq!(
            store.store_stats(),
            StoreHealth {
                shards: 4,
                devices: 0,
                semantics: 0
            }
        );
        store.ingest(&DeviceId::new("a"), &[sem("a", 1, "Nike", "stay", 0, 600)]);
        store.ingest(
            &DeviceId::new("b"),
            &[
                sem("b", 1, "Nike", "stay", 0, 300),
                sem("b", 2, "Hall", "pass-by", 300, 330),
            ],
        );
        let health = store.store_stats();
        assert_eq!((health.devices, health.semantics), (2, 3));
        // Agrees with the heavier full stats.
        let full = store.stats();
        assert_eq!((full.devices, full.semantics), (2, 3));
    }
}
