//! Query layer: selector-filtered analytics over the sharded store.
//!
//! Unfiltered (match-all) requests merge the per-shard incremental
//! aggregates — O(shards). Filtered requests scan only the matching
//! devices' semantics inside each shard, applying the same accumulation,
//! so filtered and unfiltered paths agree wherever they overlap (pinned by
//! this module's tests).

use crate::types::{DeviceSummary, Flow, RegionPopularity, StoreHealth, StoreStats};
use crate::SemanticsStore;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use trips_annotate::MobilitySemantics;
use trips_data::{glob_match, DeviceId, Duration, Timestamp};
use trips_dsm::RegionId;

/// Filter over stored semantics, reusing the Data Selector's conventions
/// from `trips-data`: device-id glob patterns (`*` / `?`, as in
/// `SelectionRule::DevicePattern`) and **half-open** `[from, to)` temporal
/// ranges (as in `SelectionRule::TemporalRange`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SemanticsSelector {
    /// Device-id glob (`None` = every device).
    pub device_pattern: Option<String>,
    /// Restrict to one semantic region.
    pub region: Option<RegionId>,
    /// Restrict to one event annotation (e.g. `"stay"`).
    pub event: Option<String>,
    /// Half-open window `[from, to)`: a semantics matches when its
    /// interval, treated half-open as `[start, end)`, intersects the
    /// window (`start < to && end > from`), so back-to-back windows
    /// partition time with no double-counted semantics — the same
    /// convention as `trips-data`'s `TemporalRange`. A zero-duration
    /// semantics is treated as the instant `start` (matches when
    /// `from <= start < to`).
    pub range: Option<(Timestamp, Timestamp)>,
}

impl SemanticsSelector {
    /// Matches everything (the aggregate fast path).
    pub fn all() -> Self {
        SemanticsSelector::default()
    }

    /// Adds a device-id glob pattern.
    pub fn with_device_pattern(mut self, pattern: &str) -> Self {
        self.device_pattern = Some(pattern.to_string());
        self
    }

    /// Restricts to one region.
    pub fn with_region(mut self, region: RegionId) -> Self {
        self.region = Some(region);
        self
    }

    /// Restricts to one event annotation.
    pub fn with_event(mut self, event: &str) -> Self {
        self.event = Some(event.to_string());
        self
    }

    /// Restricts to the half-open window `[from, to)`.
    pub fn between(mut self, from: Timestamp, to: Timestamp) -> Self {
        self.range = Some((from, to));
        self
    }

    /// Whether the selector matches everything (enables the O(shards)
    /// aggregate merge).
    pub fn is_all(&self) -> bool {
        self.device_pattern.is_none()
            && self.region.is_none()
            && self.event.is_none()
            && self.range.is_none()
    }

    /// Device-level predicate (glob only).
    pub fn matches_device(&self, device: &DeviceId) -> bool {
        self.device_pattern
            .as_deref()
            .map_or(true, |p| glob_match(p, device.as_str()))
    }

    /// Semantics-level predicate (region / event / half-open time window;
    /// the device predicate is applied separately).
    pub fn matches(&self, s: &MobilitySemantics) -> bool {
        self.region.map_or(true, |r| s.region == r)
            && self.event.as_deref().map_or(true, |e| s.event == e)
            && self.range.map_or(true, |(from, to)| {
                if s.start == s.end {
                    s.start >= from && s.start < to
                } else {
                    s.start < to && s.end > from
                }
            })
    }
}

/// What to compute over the selected semantics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// Regions ranked by stay count then total dwell.
    PopularRegions,
    /// Directed region-to-region transitions ranked by count.
    TopFlows { limit: usize },
    /// Histogram of stay dwell times with the given bucket width.
    DwellHistogram { bucket: Duration },
    /// Per-device visit summaries (keyed by device id).
    DeviceSummaries,
    /// The matching semantics themselves (device-major, ingest order).
    Semantics,
    /// Store occupancy counters (ignores the selector).
    Stats,
}

/// A selector plus a query kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    pub selector: SemanticsSelector,
    pub query: Query,
}

impl QueryRequest {
    pub fn new(selector: SemanticsSelector, query: Query) -> Self {
        QueryRequest { selector, query }
    }
}

/// The result of a [`QueryRequest`], variant-matched to its [`Query`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryResult {
    PopularRegions(Vec<RegionPopularity>),
    Flows(Vec<Flow>),
    DwellHistogram(Vec<(Duration, usize)>),
    DeviceSummaries(Vec<(DeviceId, DeviceSummary)>),
    Semantics(Vec<MobilitySemantics>),
    Stats(StoreStats),
}

impl SemanticsStore {
    /// Answers one request (see the per-query methods for details).
    pub fn query(&self, request: &QueryRequest) -> QueryResult {
        match &request.query {
            Query::PopularRegions => {
                QueryResult::PopularRegions(self.popular_regions(&request.selector))
            }
            Query::TopFlows { limit } => {
                QueryResult::Flows(self.top_flows(&request.selector, *limit))
            }
            Query::DwellHistogram { bucket } => {
                QueryResult::DwellHistogram(self.dwell_histogram(&request.selector, *bucket))
            }
            Query::DeviceSummaries => {
                QueryResult::DeviceSummaries(self.device_summaries(&request.selector))
            }
            Query::Semantics => QueryResult::Semantics(self.semantics(&request.selector)),
            Query::Stats => QueryResult::Stats(self.stats()),
        }
    }

    /// Regions ranked by stays (desc), then total dwell (desc); ties keep
    /// region-id order.
    pub fn popular_regions(&self, selector: &SemanticsSelector) -> Vec<RegionPopularity> {
        let mut map: BTreeMap<RegionId, RegionPopularity> = BTreeMap::new();
        if selector.is_all() {
            for shard in self.shards() {
                let shard = shard.read();
                for (rid, agg) in &shard.regions {
                    let e = map.entry(*rid).or_insert_with(|| RegionPopularity {
                        region: *rid,
                        region_name: agg.name.clone(),
                        stays: 0,
                        pass_bys: 0,
                        unique_stayers: 0,
                        total_dwell: Duration::ZERO,
                    });
                    e.stays += agg.stays;
                    e.pass_bys += agg.pass_bys;
                    e.unique_stayers += agg.stayers.len();
                    e.total_dwell = e.total_dwell + Duration(agg.dwell_ms);
                }
            }
        } else {
            let mut stayers: BTreeMap<RegionId, usize> = BTreeMap::new();
            for shard in self.shards() {
                let shard = shard.read();
                for (device, entry) in &shard.devices {
                    if !selector.matches_device(device) {
                        continue;
                    }
                    let mut stayed: BTreeSet<RegionId> = BTreeSet::new();
                    for s in entry.semantics.iter().filter(|s| selector.matches(s)) {
                        let e = map.entry(s.region).or_insert_with(|| RegionPopularity {
                            region: s.region,
                            region_name: s.region_name.clone(),
                            stays: 0,
                            pass_bys: 0,
                            unique_stayers: 0,
                            total_dwell: Duration::ZERO,
                        });
                        if s.event == "stay" {
                            e.stays += 1;
                            e.total_dwell = e.total_dwell + s.duration();
                            stayed.insert(s.region);
                        } else {
                            e.pass_bys += 1;
                        }
                    }
                    for r in stayed {
                        *stayers.entry(r).or_default() += 1;
                    }
                }
            }
            for (r, n) in stayers {
                if let Some(e) = map.get_mut(&r) {
                    e.unique_stayers = n;
                }
            }
        }
        let mut out: Vec<RegionPopularity> = map.into_values().collect();
        out.sort_by(|a, b| {
            b.stays
                .cmp(&a.stays)
                .then(b.total_dwell.cmp(&a.total_dwell))
        });
        out
    }

    /// Directed region-to-region transitions ranked by count (desc); ties
    /// keep (from, to) order. Filtered requests count transitions between
    /// *consecutive matching* semantics of each matching device.
    pub fn top_flows(&self, selector: &SemanticsSelector, limit: usize) -> Vec<Flow> {
        let mut counts: BTreeMap<(RegionId, RegionId), (String, String, usize)> = BTreeMap::new();
        if selector.is_all() {
            for shard in self.shards() {
                let shard = shard.read();
                for ((from, to), agg) in &shard.flows {
                    counts
                        .entry((*from, *to))
                        .or_insert_with(|| (agg.from_name.clone(), agg.to_name.clone(), 0))
                        .2 += agg.count;
                }
            }
        } else {
            for shard in self.shards() {
                let shard = shard.read();
                for (device, entry) in &shard.devices {
                    if !selector.matches_device(device) {
                        continue;
                    }
                    let mut prev: Option<&MobilitySemantics> = None;
                    let mut breaks = entry.breaks.iter().peekable();
                    for (i, s) in entry.semantics.iter().enumerate() {
                        // Session boundaries suppress flows on the fast
                        // path (`DeviceEntry::session_last`); mirror that here.
                        while breaks.peek().is_some_and(|b| **b <= i) {
                            prev = None;
                            breaks.next();
                        }
                        if !selector.matches(s) {
                            continue;
                        }
                        if let Some(p) = prev {
                            if p.region != s.region {
                                counts
                                    .entry((p.region, s.region))
                                    .or_insert_with(|| {
                                        (p.region_name.clone(), s.region_name.clone(), 0)
                                    })
                                    .2 += 1;
                            }
                        }
                        prev = Some(s);
                    }
                }
            }
        }
        let mut flows: Vec<Flow> = counts
            .into_iter()
            .map(|((from, to), (from_name, to_name, count))| Flow {
                from,
                from_name,
                to,
                to_name,
                count,
            })
            .collect();
        flows.sort_by_key(|f| std::cmp::Reverse(f.count));
        flows.truncate(limit);
        flows
    }

    /// Histogram of stay dwell times with the given bucket width
    /// (`bucket` must be positive).
    pub fn dwell_histogram(
        &self,
        selector: &SemanticsSelector,
        bucket: Duration,
    ) -> Vec<(Duration, usize)> {
        assert!(bucket.as_millis() > 0, "bucket must be positive");
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        if selector.is_all() {
            for shard in self.shards() {
                let shard = shard.read();
                for (dur_ms, n) in &shard.dwell {
                    *counts.entry(dur_ms / bucket.as_millis()).or_default() += n;
                }
            }
        } else {
            for shard in self.shards() {
                let shard = shard.read();
                for (device, entry) in &shard.devices {
                    if !selector.matches_device(device) {
                        continue;
                    }
                    for s in entry
                        .semantics
                        .iter()
                        .filter(|s| s.event == "stay" && selector.matches(s))
                    {
                        let b = s.duration().as_millis() / bucket.as_millis();
                        *counts.entry(b).or_default() += 1;
                    }
                }
            }
        }
        counts
            .into_iter()
            .map(|(b, n)| (Duration(b * bucket.as_millis()), n))
            .collect()
    }

    /// Per-device summaries for matching devices, in device-id order.
    pub fn device_summaries(&self, selector: &SemanticsSelector) -> Vec<(DeviceId, DeviceSummary)> {
        let mut out: BTreeMap<DeviceId, DeviceSummary> = BTreeMap::new();
        for shard in self.shards() {
            let shard = shard.read();
            for (device, entry) in &shard.devices {
                if !selector.matches_device(device) {
                    continue;
                }
                let summary = if selector.is_all() {
                    DeviceSummary {
                        device: device.anonymized(),
                        regions_visited: entry.regions.len(),
                        stays: entry.stays,
                        accounted: Duration(entry.accounted_ms),
                    }
                } else {
                    let mut regions: BTreeSet<RegionId> = BTreeSet::new();
                    let (mut stays, mut accounted_ms) = (0usize, 0i64);
                    for s in entry.semantics.iter().filter(|s| selector.matches(s)) {
                        regions.insert(s.region);
                        if s.event == "stay" {
                            stays += 1;
                        }
                        accounted_ms += s.duration().as_millis();
                    }
                    DeviceSummary {
                        device: device.anonymized(),
                        regions_visited: regions.len(),
                        stays,
                        accounted: Duration(accounted_ms),
                    }
                };
                out.insert(device.clone(), summary);
            }
        }
        out.into_iter().collect()
    }

    /// The matching semantics, device-major (device-id order), in ingest
    /// order within each device.
    pub fn semantics(&self, selector: &SemanticsSelector) -> Vec<MobilitySemantics> {
        let mut per_device: BTreeMap<DeviceId, Vec<MobilitySemantics>> = BTreeMap::new();
        for shard in self.shards() {
            let shard = shard.read();
            for (device, entry) in &shard.devices {
                if !selector.matches_device(device) {
                    continue;
                }
                let matching: Vec<MobilitySemantics> = entry
                    .semantics
                    .iter()
                    .filter(|s| selector.matches(s))
                    .cloned()
                    .collect();
                if !matching.is_empty() {
                    per_device.insert(device.clone(), matching);
                }
            }
        }
        per_device.into_values().flatten().collect()
    }

    /// Store occupancy counters.
    pub fn stats(&self) -> StoreStats {
        let mut devices = 0;
        let mut semantics = 0;
        let mut regions: BTreeSet<RegionId> = BTreeSet::new();
        let mut per_shard = Vec::with_capacity(self.shard_count());
        for shard in self.shards() {
            let shard = shard.read();
            devices += shard.devices.len();
            semantics += shard.semantics_count;
            regions.extend(shard.regions.keys().copied());
            per_shard.push(shard.devices.len());
        }
        StoreStats {
            shards: self.shard_count(),
            devices,
            semantics,
            regions: regions.len(),
            devices_per_shard: per_shard,
        }
    }
}

/// Shareable, cloneable handle answering [`QueryRequest`]s against one
/// store — the API concurrent consumers hold.
#[derive(Clone)]
pub struct QueryService {
    store: Arc<SemanticsStore>,
}

impl QueryService {
    pub fn new(store: Arc<SemanticsStore>) -> Self {
        QueryService { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<SemanticsStore> {
        &self.store
    }

    /// Answers one request.
    pub fn query(&self, request: &QueryRequest) -> QueryResult {
        self.store.query(request)
    }

    pub fn popular_regions(&self, selector: &SemanticsSelector) -> Vec<RegionPopularity> {
        self.store.popular_regions(selector)
    }

    pub fn top_flows(&self, selector: &SemanticsSelector, limit: usize) -> Vec<Flow> {
        self.store.top_flows(selector, limit)
    }

    pub fn dwell_histogram(
        &self,
        selector: &SemanticsSelector,
        bucket: Duration,
    ) -> Vec<(Duration, usize)> {
        self.store.dwell_histogram(selector, bucket)
    }

    pub fn device_summaries(&self, selector: &SemanticsSelector) -> Vec<(DeviceId, DeviceSummary)> {
        self.store.device_summaries(selector)
    }

    pub fn semantics(&self, selector: &SemanticsSelector) -> Vec<MobilitySemantics> {
        self.store.semantics(selector)
    }

    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Cheap occupancy counters (device/semantics counts, shard count) —
    /// the health-endpoint view; see [`SemanticsStore::store_stats`].
    pub fn store_stats(&self) -> StoreHealth {
        self.store.store_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_annotate::MobilitySemantics;

    fn sem(
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

    /// The analytics sample from `trips-core` (two devices, Nike/Hall/
    /// Adidas), ingested under each listed shard count.
    fn sample(shards: usize) -> SemanticsStore {
        let store = SemanticsStore::with_shards(shards);
        store.ingest(
            &DeviceId::new("a.b.c.1"),
            &[
                sem("a.b.c.1", 1, "Nike", "stay", 0, 600),
                sem("a.b.c.1", 2, "Hall", "pass-by", 600, 630),
                sem("a.b.c.1", 3, "Adidas", "stay", 630, 900),
            ],
        );
        store.ingest(
            &DeviceId::new("a.b.c.2"),
            &[
                sem("a.b.c.2", 2, "Hall", "pass-by", 0, 60),
                sem("a.b.c.2", 1, "Nike", "stay", 60, 360),
                sem("a.b.c.2", 2, "Hall", "pass-by", 360, 400),
                sem("a.b.c.2", 1, "Nike", "stay", 400, 500),
            ],
        );
        store
    }

    #[test]
    fn popularity_ranks_by_stays_across_shard_counts() {
        for shards in [1, 4, 16] {
            let pops = sample(shards).popular_regions(&SemanticsSelector::all());
            assert_eq!(pops[0].region_name, "Nike", "shards={shards}");
            assert_eq!(pops[0].stays, 3);
            assert_eq!(pops[0].unique_stayers, 2);
            assert_eq!(pops[0].total_dwell, Duration::from_secs(1000));
            let hall = pops.iter().find(|p| p.region_name == "Hall").unwrap();
            assert_eq!((hall.stays, hall.pass_bys), (0, 3));
        }
    }

    #[test]
    fn shard_count_is_query_invariant() {
        let one = sample(1);
        let many = sample(16);
        let all = SemanticsSelector::all();
        assert_eq!(one.popular_regions(&all), many.popular_regions(&all));
        assert_eq!(one.top_flows(&all, 10), many.top_flows(&all, 10));
        assert_eq!(
            one.dwell_histogram(&all, Duration::from_mins(5)),
            many.dwell_histogram(&all, Duration::from_mins(5))
        );
        assert_eq!(one.device_summaries(&all), many.device_summaries(&all));
        assert_eq!(one.semantics(&all), many.semantics(&all));
    }

    #[test]
    fn incremental_ingest_equals_batch_ingest() {
        let batch = sample(4);
        // Same data, but device 1's semantics arrive in three calls.
        let inc = SemanticsStore::with_shards(4);
        let d1 = DeviceId::new("a.b.c.1");
        inc.ingest(&d1, &[sem("a.b.c.1", 1, "Nike", "stay", 0, 600)]);
        inc.ingest(&d1, &[sem("a.b.c.1", 2, "Hall", "pass-by", 600, 630)]);
        inc.ingest(&d1, &[sem("a.b.c.1", 3, "Adidas", "stay", 630, 900)]);
        inc.ingest(
            &DeviceId::new("a.b.c.2"),
            &[
                sem("a.b.c.2", 2, "Hall", "pass-by", 0, 60),
                sem("a.b.c.2", 1, "Nike", "stay", 60, 360),
                sem("a.b.c.2", 2, "Hall", "pass-by", 360, 400),
                sem("a.b.c.2", 1, "Nike", "stay", 400, 500),
            ],
        );
        let all = SemanticsSelector::all();
        assert_eq!(batch.popular_regions(&all), inc.popular_regions(&all));
        assert_eq!(
            batch.top_flows(&all, 10),
            inc.top_flows(&all, 10),
            "flows must count across ingest batch boundaries"
        );
        assert_eq!(batch.device_summaries(&all), inc.device_summaries(&all));
    }

    #[test]
    fn filtered_path_agrees_with_fast_path_on_match_all_shape() {
        // A selector that matches everything but is not `is_all` forces the
        // rescan path; results must agree with the aggregate path.
        let store = sample(8);
        let rescan = SemanticsSelector::all().with_device_pattern("*");
        let fast = SemanticsSelector::all();
        assert!(!rescan.is_all());
        assert_eq!(store.popular_regions(&fast), store.popular_regions(&rescan));
        assert_eq!(store.top_flows(&fast, 10), store.top_flows(&rescan, 10));
        assert_eq!(
            store.dwell_histogram(&fast, Duration::from_mins(5)),
            store.dwell_histogram(&rescan, Duration::from_mins(5))
        );
        assert_eq!(
            store.device_summaries(&fast),
            store.device_summaries(&rescan)
        );
    }

    #[test]
    fn filtered_flows_respect_session_boundaries() {
        let store = SemanticsStore::with_shards(4);
        let d = DeviceId::new("sessions");
        store.ingest(&d, &[sem("sessions", 1, "Nike", "stay", 0, 600)]);
        store.end_session(&d);
        store.ingest(&d, &[sem("sessions", 2, "Hall", "pass-by", 700, 730)]);
        let fast = SemanticsSelector::all();
        let rescan = SemanticsSelector::all().with_device_pattern("*");
        assert!(
            store.top_flows(&fast, 10).is_empty(),
            "aggregate path suppresses the cross-session flow"
        );
        assert_eq!(
            store.top_flows(&fast, 10),
            store.top_flows(&rescan, 10),
            "rescan path must suppress it too"
        );
    }

    #[test]
    fn device_pattern_filters() {
        let store = sample(8);
        let sel = SemanticsSelector::all().with_device_pattern("*.1");
        let sums = store.device_summaries(&sel);
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].0.as_str(), "a.b.c.1");
        let pops = store.popular_regions(&sel);
        let nike = pops.iter().find(|p| p.region_name == "Nike").unwrap();
        assert_eq!((nike.stays, nike.unique_stayers), (1, 1));
    }

    #[test]
    fn region_and_event_filters() {
        let store = sample(8);
        let stays = store.semantics(&SemanticsSelector::all().with_event("stay"));
        assert_eq!(stays.len(), 4);
        assert!(stays.iter().all(|s| s.event == "stay"));
        let nike = store.semantics(&SemanticsSelector::all().with_region(RegionId(1)));
        assert_eq!(nike.len(), 3);
    }

    #[test]
    fn temporal_range_is_half_open() {
        let store = sample(8);
        // Window [600 s, 900 s): device 1's Nike stay is [0, 600] — it
        // *ends* exactly at the window start, so treated half-open it has
        // zero overlap and is excluded; the Hall pass-by [600, 630] and
        // Adidas stay [630, 900] are in.
        let sel = SemanticsSelector::all().between(
            Timestamp::from_millis(600_000),
            Timestamp::from_millis(900_000),
        );
        let got = store.semantics(&sel);
        assert!(got.iter().any(|s| s.region_name == "Adidas"));
        assert!(got.iter().any(|s| s.region_name == "Hall"));
        assert!(
            !got.iter()
                .any(|s| s.region_name == "Nike" && s.end == Timestamp::from_millis(600_000)),
            "interval ending at the window start has zero overlap"
        );
        // Back-to-back windows partition time: every semantics lands in
        // exactly one of [0, 600) and [600, 1200) — no double counting.
        let w1 = SemanticsSelector::all()
            .between(Timestamp::from_millis(0), Timestamp::from_millis(600_000));
        let w2 = SemanticsSelector::all().between(
            Timestamp::from_millis(600_000),
            Timestamp::from_millis(1_200_000),
        );
        let (n1, n2) = (store.semantics(&w1).len(), store.semantics(&w2).len());
        assert_eq!(
            n1 + n2,
            store.semantics(&SemanticsSelector::all()).len(),
            "adjacent windows must partition the semantics"
        );
        assert!(n1 > 0 && n2 > 0);
        // A window strictly after every semantics matches nothing; so does
        // a zero-width window (nothing fits inside [t, t)).
        let late = SemanticsSelector::all().between(
            Timestamp::from_millis(10_000_000),
            Timestamp::from_millis(20_000_000),
        );
        assert!(store.semantics(&late).is_empty());
        let empty = SemanticsSelector::all().between(
            Timestamp::from_millis(600_000),
            Timestamp::from_millis(600_000),
        );
        assert!(store.semantics(&empty).is_empty());
        // A zero-duration semantics is the instant `start`: included by a
        // window starting there, excluded by one ending there.
        let store2 = SemanticsStore::with_shards(2);
        store2.ingest(
            &DeviceId::new("blip"),
            &[sem("blip", 9, "Kiosk", "pass-by", 600, 600)],
        );
        let before = SemanticsSelector::all()
            .between(Timestamp::from_millis(0), Timestamp::from_millis(600_000));
        let after = SemanticsSelector::all().between(
            Timestamp::from_millis(600_000),
            Timestamp::from_millis(1_200_000),
        );
        assert!(store2.semantics(&before).is_empty());
        assert_eq!(store2.semantics(&after).len(), 1);
    }

    #[test]
    fn query_request_dispatch() {
        let service = QueryService::new(Arc::new(sample(8)));
        let req = QueryRequest::new(SemanticsSelector::all(), Query::PopularRegions);
        match service.query(&req) {
            QueryResult::PopularRegions(p) => assert_eq!(p[0].region_name, "Nike"),
            other => panic!("wrong variant: {other:?}"),
        }
        match service.query(&QueryRequest::new(SemanticsSelector::all(), Query::Stats)) {
            QueryResult::Stats(s) => {
                assert_eq!((s.devices, s.semantics, s.regions), (2, 7, 3));
                assert_eq!(s.devices_per_shard.iter().sum::<usize>(), 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn query_service_store_stats_matches_full_stats() {
        let service = QueryService::new(Arc::new(sample(8)));
        let health = service.store_stats();
        let full = service.stats();
        assert_eq!(health.shards, full.shards);
        assert_eq!(health.devices, full.devices);
        assert_eq!(health.semantics, full.semantics);
        assert_eq!((health.devices, health.semantics), (2, 7));
    }

    /// The typed query surface must survive a JSON round-trip unchanged —
    /// the serving layer ships these exact shapes over the wire.
    #[test]
    fn query_types_roundtrip_through_json() {
        let store = sample(8);
        let requests = vec![
            QueryRequest::new(SemanticsSelector::all(), Query::PopularRegions),
            QueryRequest::new(
                SemanticsSelector::all().with_device_pattern("*.1"),
                Query::TopFlows { limit: 5 },
            ),
            QueryRequest::new(
                SemanticsSelector::all()
                    .with_region(RegionId(1))
                    .with_event("stay")
                    .between(Timestamp::from_millis(0), Timestamp::from_millis(900_000)),
                Query::DwellHistogram {
                    bucket: Duration::from_mins(5),
                },
            ),
            QueryRequest::new(SemanticsSelector::all(), Query::DeviceSummaries),
            QueryRequest::new(SemanticsSelector::all(), Query::Semantics),
            QueryRequest::new(SemanticsSelector::all(), Query::Stats),
        ];
        for req in requests {
            let json = serde_json::to_string(&req).unwrap();
            let back: QueryRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "request roundtrip: {json}");
            let result = store.query(&req);
            let rjson = serde_json::to_string(&result).unwrap();
            let rback: QueryResult = serde_json::from_str(&rjson).unwrap();
            assert_eq!(rback, result, "result roundtrip for {req:?}");
        }
    }

    #[test]
    fn empty_store_queries() {
        let store = SemanticsStore::with_shards(4);
        let all = SemanticsSelector::all();
        assert!(store.popular_regions(&all).is_empty());
        assert!(store.top_flows(&all, 5).is_empty());
        assert!(store
            .dwell_histogram(&all, Duration::from_mins(1))
            .is_empty());
        assert!(store.device_summaries(&all).is_empty());
        assert!(store.semantics(&all).is_empty());
    }
}
