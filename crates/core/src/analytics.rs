//! Downstream analytics over translated mobility semantics.
//!
//! The paper motivates translation with the applications it "enables, e.g.,
//! indoor behavior prediction, popular indoor location discovery and
//! in-store marketing" (§1, refs \[6\]\[8\]\[2\]). This module implements the
//! analytics a mall analyst runs *after* translation — all of them consume
//! only semantics, never raw records, demonstrating the representation's
//! value.
//!
//! Since the `trips-store` refactor these functions are thin wrappers over
//! [`trips_store::SemanticsStore`] queries: each builds a one-shot
//! single-shard store from the [`TranslationResult`] and runs the
//! corresponding aggregate query, producing results identical to the old
//! full-rescan implementations (pinned by this module's tests and the
//! workspace `analytics_equivalence` test). Long-lived consumers should
//! query the live store published by `Trips::run` / the streaming
//! translator instead — that path reuses the incremental aggregates and
//! never rescans.

use crate::translator::TranslationResult;
use std::collections::BTreeMap;
use trips_data::{DeviceId, Duration};
use trips_store::{SemanticsSelector, SemanticsStore};

pub use trips_store::{DeviceSummary, Flow, RegionPopularity};

/// Publishes every device translation into `store` (device order
/// preserved; devices with no semantics still register).
///
/// Each entry is published as an independent session: if the same device
/// id appears in several result entries, no directed flow is counted
/// across the entry boundary — matching the pre-refactor per-entry
/// `windows(2)` flow counting. Region/dwell aggregates for such a device
/// merge across its entries (as the rescan implementations also did), and
/// its [`device_summaries`] row reflects the merged totals.
pub fn ingest_result(store: &SemanticsStore, result: &TranslationResult) {
    for d in &result.devices {
        // A translated device with zero semantics was still selected and
        // processed — register it so store stats reflect the run's scope
        // (a plain empty `ingest` is deliberately a no-op).
        store.register_device(d.raw.device());
        store.ingest(d.raw.device(), &d.semantics);
        store.end_session(d.raw.device());
    }
}

/// One-shot store for the wrapper functions: a single shard keeps the
/// merge step trivial for transient use.
fn store_from(result: &TranslationResult) -> SemanticsStore {
    let store = SemanticsStore::with_shards(1);
    ingest_result(&store, result);
    store
}

/// Ranks regions by stay count (popular indoor location discovery, ref \[8\]).
pub fn popular_regions(result: &TranslationResult) -> Vec<RegionPopularity> {
    store_from(result).popular_regions(&SemanticsSelector::all())
}

/// Ranks region-to-region transitions by frequency (the mobility patterns
/// behind indoor behavior prediction, ref \[6\]).
pub fn top_flows(result: &TranslationResult, limit: usize) -> Vec<Flow> {
    store_from(result).top_flows(&SemanticsSelector::all(), limit)
}

/// Histogram of stay dwell times with the given bucket width.
pub fn dwell_histogram(result: &TranslationResult, bucket: Duration) -> Vec<(Duration, usize)> {
    store_from(result).dwell_histogram(&SemanticsSelector::all(), bucket)
}

/// Summarises each translated device, in translation (input) order.
pub fn device_summaries(result: &TranslationResult) -> Vec<DeviceSummary> {
    let by_id: BTreeMap<DeviceId, DeviceSummary> = store_from(result)
        .device_summaries(&SemanticsSelector::all())
        .into_iter()
        .collect();
    result
        .devices
        .iter()
        .map(|d| by_id[d.raw.device()].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::DeviceTranslation;
    use trips_annotate::MobilitySemantics;
    use trips_clean::{CleaningAudit, CleaningReport};
    use trips_data::{DeviceId, PositioningSequence, Timestamp};
    use trips_dsm::RegionId;

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

    fn device(name: &str, sems: Vec<MobilitySemantics>) -> DeviceTranslation {
        let d = DeviceId::new(name);
        let raw = PositioningSequence::new(d);
        DeviceTranslation {
            cleaned: CleaningAudit {
                repairs: Vec::new(),
                report: CleaningReport::default(),
            },
            raw,
            original_semantics: sems.clone(),
            semantics: sems,
        }
    }

    fn sample() -> TranslationResult {
        TranslationResult {
            report: Default::default(),
            devices: vec![
                device(
                    "a.b.c.1",
                    vec![
                        sem("a.b.c.1", 1, "Nike", "stay", 0, 600),
                        sem("a.b.c.1", 2, "Hall", "pass-by", 600, 630),
                        sem("a.b.c.1", 3, "Adidas", "stay", 630, 900),
                    ],
                ),
                device(
                    "a.b.c.2",
                    vec![
                        sem("a.b.c.2", 2, "Hall", "pass-by", 0, 60),
                        sem("a.b.c.2", 1, "Nike", "stay", 60, 360),
                        sem("a.b.c.2", 2, "Hall", "pass-by", 360, 400),
                        sem("a.b.c.2", 1, "Nike", "stay", 400, 500),
                    ],
                ),
            ],
        }
    }

    #[test]
    fn popularity_ranks_by_stays() {
        let pops = popular_regions(&sample());
        assert_eq!(pops[0].region_name, "Nike");
        assert_eq!(pops[0].stays, 3);
        assert_eq!(pops[0].unique_stayers, 2);
        assert_eq!(pops[0].total_dwell, Duration::from_secs(1000));
        let hall = pops.iter().find(|p| p.region_name == "Hall").unwrap();
        assert_eq!(hall.stays, 0);
        assert_eq!(hall.pass_bys, 3);
        assert_eq!(hall.conversion_rate(), 0.0);
        let nike = &pops[0];
        assert!((nike.conversion_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flows_count_directed_transitions() {
        let flows = top_flows(&sample(), 10);
        let nike_to_hall = flows
            .iter()
            .find(|f| f.from_name == "Nike" && f.to_name == "Hall")
            .unwrap();
        assert_eq!(nike_to_hall.count, 2);
        let hall_to_nike = flows
            .iter()
            .find(|f| f.from_name == "Hall" && f.to_name == "Nike")
            .unwrap();
        assert_eq!(hall_to_nike.count, 2);
        // Limit respected.
        assert_eq!(top_flows(&sample(), 1).len(), 1);
    }

    #[test]
    fn dwell_histogram_buckets() {
        let h = dwell_histogram(&sample(), Duration::from_mins(5));
        // Stays: 600 s (bucket 2), 270 s (bucket 0), 300 s (bucket 1), 100 s (bucket 0).
        let total: usize = h.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 4);
        assert_eq!(h[0].1, 2, "two stays under 5 min: {h:?}");
    }

    #[test]
    fn device_summaries_aggregate() {
        let s = device_summaries(&sample());
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].device, "a.*.1");
        assert_eq!(s[0].regions_visited, 3);
        assert_eq!(s[0].stays, 2);
        assert_eq!(s[0].accounted, Duration::from_secs(900));
    }

    #[test]
    fn device_summaries_preserve_translation_order() {
        // Store iteration is device-id ordered; the wrapper must restore
        // the result's device order.
        let mut r = sample();
        r.devices.reverse();
        let s = device_summaries(&r);
        assert_eq!(s[0].device, "a.*.2");
        assert_eq!(s[1].device, "a.*.1");
    }

    #[test]
    fn duplicate_device_entries_do_not_flow_across_entries() {
        // Two result entries for the same device (e.g. two selected
        // sessions): flows must not be counted across the entry boundary,
        // exactly like the pre-refactor per-entry windows(2) counting.
        let r = TranslationResult {
            report: Default::default(),
            devices: vec![
                device("a.b.c.9", vec![sem("a.b.c.9", 1, "Nike", "stay", 0, 600)]),
                device(
                    "a.b.c.9",
                    vec![sem("a.b.c.9", 2, "Hall", "pass-by", 700, 730)],
                ),
            ],
        };
        assert!(
            top_flows(&r, 10).is_empty(),
            "no flow may span separate result entries"
        );
        // Region aggregates merge across the entries (as the rescan also
        // merged by region), and both summary rows carry the merged totals.
        let pops = popular_regions(&r);
        assert_eq!(pops.len(), 2);
        let sums = device_summaries(&r);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0], sums[1]);
        assert_eq!(sums[0].regions_visited, 2);
    }

    #[test]
    fn empty_result_analytics() {
        let r = TranslationResult::default();
        assert!(popular_regions(&r).is_empty());
        assert!(top_flows(&r, 5).is_empty());
        assert!(dwell_histogram(&r, Duration::from_mins(1)).is_empty());
        assert!(device_summaries(&r).is_empty());
    }
}
