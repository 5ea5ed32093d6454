//! Pins the `trips-store` refactor of `trips_core::analytics`: the thin
//! wrapper functions must return results **identical** to the pre-refactor
//! full-rescan implementations on the golden e2e fixture, and the live
//! store published by `Trips::run` must agree with both.
//!
//! The `rescan` module below is a verbatim port of the pre-refactor
//! analytics implementations (full pass over `TranslationResult` on every
//! call) kept as the reference oracle.

use trips::core::analytics;
use trips::prelude::*;

const GOLDEN_SEED: u64 = 0x601D;

/// The pre-refactor full-rescan analytics, preserved as the oracle.
mod rescan {
    use std::collections::BTreeMap;
    use trips::core::analytics::{DeviceSummary, Flow, RegionPopularity};
    use trips::core::TranslationResult;
    use trips::data::Duration;
    use trips::dsm::RegionId;

    pub fn popular_regions(result: &TranslationResult) -> Vec<RegionPopularity> {
        let mut map: BTreeMap<RegionId, RegionPopularity> = BTreeMap::new();
        let mut stayers: BTreeMap<RegionId, std::collections::BTreeSet<&str>> = BTreeMap::new();
        for d in &result.devices {
            for s in &d.semantics {
                let e = map.entry(s.region).or_insert_with(|| RegionPopularity {
                    region: s.region,
                    region_name: s.region_name.to_string(),
                    stays: 0,
                    pass_bys: 0,
                    unique_stayers: 0,
                    total_dwell: Duration::ZERO,
                });
                if s.event == "stay" {
                    e.stays += 1;
                    e.total_dwell = e.total_dwell + s.duration();
                    stayers
                        .entry(s.region)
                        .or_default()
                        .insert(d.raw.device().as_str());
                } else {
                    e.pass_bys += 1;
                }
            }
        }
        let mut out: Vec<RegionPopularity> = map
            .into_values()
            .map(|mut p| {
                p.unique_stayers = stayers.get(&p.region).map_or(0, |s| s.len());
                p
            })
            .collect();
        out.sort_by(|a, b| {
            b.stays
                .cmp(&a.stays)
                .then(b.total_dwell.cmp(&a.total_dwell))
        });
        out
    }

    pub fn top_flows(result: &TranslationResult, limit: usize) -> Vec<Flow> {
        let mut counts: BTreeMap<(RegionId, RegionId), (String, String, usize)> = BTreeMap::new();
        for d in &result.devices {
            for w in d.semantics.windows(2) {
                if w[0].region == w[1].region {
                    continue;
                }
                let e = counts.entry((w[0].region, w[1].region)).or_insert_with(|| {
                    (
                        w[0].region_name.to_string(),
                        w[1].region_name.to_string(),
                        0,
                    )
                });
                e.2 += 1;
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

    pub fn dwell_histogram(result: &TranslationResult, bucket: Duration) -> Vec<(Duration, usize)> {
        assert!(bucket.as_millis() > 0, "bucket must be positive");
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        for d in &result.devices {
            for s in d.semantics.iter().filter(|s| s.event == "stay") {
                let b = s.duration().as_millis() / bucket.as_millis();
                *counts.entry(b).or_default() += 1;
            }
        }
        counts
            .into_iter()
            .map(|(b, n)| (Duration(b * bucket.as_millis()), n))
            .collect()
    }

    pub fn device_summaries(result: &TranslationResult) -> Vec<DeviceSummary> {
        result
            .devices
            .iter()
            .map(|d| {
                let regions: std::collections::BTreeSet<RegionId> =
                    d.semantics.iter().map(|s| s.region).collect();
                DeviceSummary {
                    device: d.raw.device().anonymized(),
                    regions_visited: regions.len(),
                    stays: d.semantics.iter().filter(|s| s.event == "stay").count(),
                    accounted: Duration(d.semantics.iter().map(|s| s.duration().as_millis()).sum()),
                }
            })
            .collect()
    }
}

fn golden_system() -> trips::core::Trips {
    let ds = trips::sim::scenario::generate(
        2,
        4,
        &ScenarioConfig {
            devices: 8,
            days: 1,
            seed: GOLDEN_SEED,
            ..ScenarioConfig::default()
        },
    );
    let editor = trips_bench::editor_from_truth(&ds, ds.traces.len());
    Trips::new(Configurator::new(ds.dsm.clone()).with_event_editor(editor))
}

#[test]
fn wrappers_identical_to_prerefactor_rescan_on_golden_fixture() {
    let ds = trips::sim::scenario::generate(
        2,
        4,
        &ScenarioConfig {
            devices: 8,
            days: 1,
            seed: GOLDEN_SEED,
            ..ScenarioConfig::default()
        },
    );
    let mut system = golden_system();
    let result = system.run(ds.sequences()).expect("pipeline runs").clone();
    assert!(result.total_semantics() > 0, "fixture must be non-trivial");

    assert_eq!(
        analytics::popular_regions(&result),
        rescan::popular_regions(&result),
        "popular_regions drifted from the pre-refactor implementation"
    );
    for limit in [1, 5, usize::MAX] {
        assert_eq!(
            analytics::top_flows(&result, limit),
            rescan::top_flows(&result, limit),
            "top_flows(limit={limit}) drifted"
        );
    }
    for bucket in [Duration::from_secs(30), Duration::from_mins(5)] {
        assert_eq!(
            analytics::dwell_histogram(&result, bucket),
            rescan::dwell_histogram(&result, bucket),
            "dwell_histogram drifted"
        );
    }
    assert_eq!(
        analytics::device_summaries(&result),
        rescan::device_summaries(&result),
        "device_summaries drifted"
    );
}

#[test]
fn live_query_service_agrees_with_rescan_oracle() {
    let ds = trips::sim::scenario::generate(
        2,
        4,
        &ScenarioConfig {
            devices: 8,
            days: 1,
            seed: GOLDEN_SEED,
            ..ScenarioConfig::default()
        },
    );
    let mut system = golden_system();
    let result = system.run(ds.sequences()).expect("pipeline runs").clone();
    let store = system.semantics_store();
    let all = SemanticsSelector::all();

    assert_eq!(
        store.popular_regions(&all),
        rescan::popular_regions(&result)
    );
    assert_eq!(store.top_flows(&all, 10), rescan::top_flows(&result, 10));
    assert_eq!(
        store.dwell_histogram(&all, Duration::from_mins(5)),
        rescan::dwell_histogram(&result, Duration::from_mins(5))
    );
    // Store summaries are device-id ordered; the oracle is input ordered —
    // compare as sorted multisets plus per-device lookup.
    let mut oracle = rescan::device_summaries(&result);
    oracle.sort_by(|a, b| a.device.cmp(&b.device));
    let mut via_store: Vec<_> = store
        .device_summaries(&all)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    via_store.sort_by(|a, b| a.device.cmp(&b.device));
    assert_eq!(via_store, oracle);

    // Typed dispatch returns the same data.
    match store.query(&QueryRequest::new(all, Query::PopularRegions)) {
        QueryResult::PopularRegions(p) => assert_eq!(p, rescan::popular_regions(&result)),
        other => panic!("wrong variant: {other:?}"),
    }
}
