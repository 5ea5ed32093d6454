//! One shard: per-device semantics plus the incremental aggregates that
//! make unfiltered analytics queries O(shards) merges.

use std::collections::{BTreeMap, BTreeSet};
use trips_annotate::MobilitySemantics;
use trips_data::DeviceId;
use trips_dsm::RegionId;

/// Everything stored for one device within its shard.
#[derive(Default)]
pub(crate) struct DeviceEntry {
    /// Full semantics sequence in ingest order.
    pub semantics: Vec<MobilitySemantics>,
    /// Distinct regions visited.
    pub regions: BTreeSet<RegionId>,
    /// Number of `stay` semantics.
    pub stays: usize,
    /// Total time accounted for by semantics (ms).
    pub accounted_ms: i64,
    /// Indices into `semantics` where a session ended (`end_session`):
    /// no flow is counted across these boundaries, and snapshots split at
    /// them so the suppression survives persist/load.
    pub breaks: Vec<usize>,
}

impl DeviceEntry {
    /// The last ingested semantics, if the current session has one — the
    /// origin of the directed flow the next ingested semantics may close
    /// (carried across ingest batch boundaries, cut by `end_session`).
    pub fn session_last(&self) -> Option<&MobilitySemantics> {
        let session_start = self.breaks.last().copied().unwrap_or(0);
        self.semantics[session_start..].last()
    }
}

/// Running per-region popularity aggregate.
pub(crate) struct RegionAgg {
    pub name: String,
    pub stays: usize,
    pub pass_bys: usize,
    /// Devices that stayed at least once. Devices are partitioned by shard,
    /// so summing set sizes across shards gives the exact unique count.
    pub stayers: BTreeSet<DeviceId>,
    pub dwell_ms: i64,
}

/// Running directed-flow aggregate.
pub(crate) struct FlowAgg {
    pub from_name: String,
    pub to_name: String,
    pub count: usize,
}

#[derive(Default)]
pub(crate) struct Shard {
    pub devices: BTreeMap<DeviceId, DeviceEntry>,
    pub regions: BTreeMap<RegionId, RegionAgg>,
    pub flows: BTreeMap<(RegionId, RegionId), FlowAgg>,
    /// Exact stay durations (ms) → count; bucketed at query time so any
    /// histogram width stays an O(distinct durations) merge.
    pub dwell: BTreeMap<i64, usize>,
    pub semantics_count: usize,
}

impl Shard {
    /// Applies a batch borrowed from the caller (the live ingest path,
    /// which still hands the batch to the rule engine afterwards).
    pub fn ingest(&mut self, device: &DeviceId, semantics: &[MobilitySemantics]) {
        self.ingest_iter(device, semantics.iter().cloned());
    }

    /// Applies a batch the caller no longer needs (WAL replay), moving
    /// each semantics into the device's sequence instead of cloning it.
    pub fn ingest_owned(&mut self, device: &DeviceId, semantics: Vec<MobilitySemantics>) {
        self.ingest_iter(device, semantics);
    }

    fn ingest_iter<I>(&mut self, device: &DeviceId, semantics: I)
    where
        I: IntoIterator<Item = MobilitySemantics>,
        I::IntoIter: ExactSizeIterator,
    {
        let semantics = semantics.into_iter();
        let Shard {
            devices,
            regions,
            flows,
            dwell,
            semantics_count,
        } = self;
        let entry = devices.entry(device.clone()).or_default();
        entry.semantics.reserve(semantics.len());
        for s in semantics {
            let dur_ms = s.duration().as_millis();
            let region = regions.entry(s.region).or_insert_with(|| RegionAgg {
                name: s.region_name.clone(),
                stays: 0,
                pass_bys: 0,
                stayers: BTreeSet::new(),
                dwell_ms: 0,
            });
            if s.event == "stay" {
                region.stays += 1;
                region.dwell_ms += dur_ms;
                region.stayers.insert(device.clone());
                entry.stays += 1;
                *dwell.entry(dur_ms).or_default() += 1;
            } else {
                region.pass_bys += 1;
            }
            if let Some(prev) = entry.session_last() {
                if prev.region != s.region {
                    flows
                        .entry((prev.region, s.region))
                        .or_insert_with(|| FlowAgg {
                            from_name: prev.region_name.clone(),
                            to_name: s.region_name.clone(),
                            count: 0,
                        })
                        .count += 1;
                }
            }
            entry.regions.insert(s.region);
            entry.accounted_ms += dur_ms;
            entry.semantics.push(s);
            *semantics_count += 1;
        }
    }
}
