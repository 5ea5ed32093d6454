//! One shard: compact per-device rows, the intern tables they point into,
//! and the incremental aggregates that make unfiltered analytics queries
//! O(shards) merges.
//!
//! A stored semantics is a 48-byte [`Row`]: a name slot, a label id,
//! `start`/`end` in ms, the `inferred` flag and the display point. The
//! region id, region name and event label live once per shard in
//! [`Tables`]. Every ingest path (live batches, WAL replay, snapshot load)
//! hands the shard borrowed [`SemanticsView`]s, and interning turns each
//! into a row without allocating. The tables hold interned [`Name`]s, so a
//! materialized semantics copies its two names, and a name is interned
//! only when a shard first sees it.

use crate::IdMap;
use std::collections::BTreeMap;
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, Name, Timestamp};
use trips_dsm::RegionId;
use trips_geom::{IndoorPoint, Point};

/// A semantics on its way into a shard, borrowing its strings from the
/// caller: a live batch, a WAL payload or a parsed snapshot.
pub(crate) struct SemanticsView<'a> {
    pub device: &'a str,
    pub event: &'a str,
    pub region: RegionId,
    pub region_name: &'a str,
    pub start: i64,
    pub end: i64,
    pub inferred: bool,
    pub display_point: Option<IndoorPoint>,
}

impl<'a> SemanticsView<'a> {
    pub fn of(s: &'a MobilitySemantics) -> Self {
        SemanticsView {
            device: s.device.as_str(),
            event: &s.event,
            region: s.region,
            region_name: &s.region_name,
            start: s.start.as_millis(),
            end: s.end.as_millis(),
            inferred: s.inferred,
            display_point: s.display_point,
        }
    }
}

/// One stored semantics. `name` is a slot in [`Tables::names`] (which
/// also fixes the region id), `label` an index into [`Tables::labels`].
/// The display point is stored flat; `x`/`y`/`floor` are zero when
/// `has_point` is false. `label` is a `u32`: the row pads to 48 bytes
/// either way, and a `u16` would need an overflow path for a caller that
/// sends more than 65,536 distinct labels.
pub(crate) struct Row {
    pub start: i64,
    pub end: i64,
    x: f64,
    y: f64,
    pub name: u32,
    pub label: u32,
    floor: i16,
    has_point: bool,
    pub inferred: bool,
}

impl Row {
    pub fn duration_ms(&self) -> i64 {
        self.end - self.start
    }

    fn display_point(&self) -> Option<IndoorPoint> {
        self.has_point.then_some(IndoorPoint {
            xy: Point {
                x: self.x,
                y: self.y,
            },
            floor: self.floor,
        })
    }
}

/// Everything stored for one device within its shard.
#[derive(Default)]
pub(crate) struct DeviceEntry {
    /// Full semantics sequence in ingest order.
    pub rows: Vec<Row>,
    /// Rows whose own device differs from this entry's device, as
    /// `(row index, device)` in row order. Almost always empty.
    foreign: Vec<(usize, DeviceId)>,
    /// Distinct regions visited, as sorted region indices.
    pub regions: Vec<u32>,
    /// Distinct regions stayed at, as sorted region indices: the device's
    /// share of each region's unique-stayer count.
    stayed: Vec<u32>,
    /// Number of `stay` semantics.
    pub stays: usize,
    /// Total time accounted for by semantics (ms).
    pub accounted_ms: i64,
    /// Indices into `rows` where a session ended (`end_session`): no flow
    /// is counted across these boundaries, and snapshots split at them so
    /// the suppression survives persist/load.
    pub breaks: Vec<usize>,
}

impl DeviceEntry {
    /// The last ingested row, if the current session has one — the origin
    /// of the directed flow the next ingested semantics may close (carried
    /// across ingest batch boundaries, cut by `end_session`).
    pub fn session_last(&self) -> Option<&Row> {
        let session_start = self.breaks.last().copied().unwrap_or(0);
        self.rows[session_start..].last()
    }

    /// The device row `i` was ingested with: `own` (the entry's device)
    /// unless the semantics named another.
    pub fn device_at<'a>(&'a self, own: &'a DeviceId, i: usize) -> &'a DeviceId {
        if self.foreign.is_empty() {
            return own;
        }
        match self.foreign.binary_search_by_key(&i, |(at, _)| *at) {
            Ok(k) => &self.foreign[k].1,
            Err(_) => own,
        }
    }
}

/// Running per-region popularity aggregate.
pub(crate) struct RegionAgg {
    pub region: RegionId,
    /// The first name slot this region arrived under in this shard: the
    /// name aggregate answers report.
    pub name: u32,
    /// Every name slot of this region (usually just `name`).
    slots: Vec<u32>,
    pub stays: usize,
    pub pass_bys: usize,
    /// Devices that stayed at least once. Devices are partitioned by shard,
    /// so summing counts across shards gives the exact unique count.
    pub stayers: usize,
    pub dwell_ms: i64,
}

/// One interned region name.
pub(crate) struct NameSlot {
    /// Index of the region's aggregate in [`Tables::regions`].
    pub region: u32,
    pub name: Name,
}

/// The shard's intern tables and its per-region aggregates. A region id
/// that arrives under two names gets two name slots that share one
/// aggregate, so each row keeps the exact name it came with while the
/// aggregates stay keyed by region id.
#[derive(Default)]
pub(crate) struct Tables {
    pub names: Vec<NameSlot>,
    /// Event labels. They come from the Event Editor's label table, so
    /// there are a handful and a linear scan beats hashing.
    pub labels: Vec<Name>,
    /// The label id of `"stay"`, once interned.
    stay: Option<u32>,
    /// Region aggregates, dense, in first-seen order.
    pub regions: Vec<RegionAgg>,
    /// Region id → index in `regions`.
    region_index: IdMap<u32, u32>,
}

impl Tables {
    /// The name slot for `(region, name)`, interning it if new.
    fn intern_name(&mut self, region: RegionId, name: &str) -> u32 {
        let Tables {
            names,
            regions,
            region_index,
            ..
        } = self;
        let next = regions.len() as u32;
        let index = *region_index.entry(region.0).or_insert(next);
        if index == next {
            regions.push(RegionAgg {
                region,
                name: names.len() as u32,
                slots: Vec::new(),
                stays: 0,
                pass_bys: 0,
                stayers: 0,
                dwell_ms: 0,
            });
        }
        let agg = &mut regions[index as usize];
        if let Some(&slot) = agg
            .slots
            .iter()
            .find(|&&slot| *names[slot as usize].name == *name)
        {
            return slot;
        }
        let slot = names.len() as u32;
        agg.slots.push(slot);
        names.push(NameSlot {
            region: index,
            name: Name::new(name),
        });
        slot
    }

    /// The label id for `event`, interning it if new.
    fn intern_label(&mut self, event: &str) -> u32 {
        if let Some(id) = self.label_id(event) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.push(Name::new(event));
        if event == "stay" {
            self.stay = Some(id);
        }
        id
    }

    /// The label id for `event`, if any row carries it (never interns:
    /// queries use this).
    pub fn label_id(&self, event: &str) -> Option<u32> {
        self.labels
            .iter()
            .position(|l| *l == *event)
            .map(|i| i as u32)
    }

    /// The region index for `region`, if any row carries it.
    pub fn region_index(&self, region: RegionId) -> Option<u32> {
        self.region_index.get(&region.0).copied()
    }

    pub fn is_stay(&self, label: u32) -> bool {
        self.stay == Some(label)
    }

    /// The region index of a name slot.
    pub fn region_of(&self, slot: u32) -> u32 {
        self.names[slot as usize].region
    }

    /// The region id of a name slot.
    pub fn region_id(&self, slot: u32) -> RegionId {
        self.regions[self.region_of(slot) as usize].region
    }

    pub fn name(&self, slot: u32) -> Name {
        self.names[slot as usize].name
    }

    /// Materializes a row as the semantics it was ingested as.
    pub fn semantics(&self, device: &DeviceId, row: &Row) -> MobilitySemantics {
        MobilitySemantics {
            device: device.clone(),
            event: self.labels[row.label as usize],
            region: self.region_id(row.name),
            region_name: self.name(row.name),
            start: Timestamp::from_millis(row.start),
            end: Timestamp::from_millis(row.end),
            inferred: row.inferred,
            display_point: row.display_point(),
        }
    }
}

/// Running directed-flow aggregate: the name slots the flow was first
/// seen with, and its count.
pub(crate) struct FlowAgg {
    pub from: u32,
    pub to: u32,
    pub count: usize,
}

/// The flow-map key of a directed pair of region indices.
pub(crate) fn flow_key(from: u32, to: u32) -> u64 {
    (u64::from(from) << 32) | u64::from(to)
}

#[derive(Default)]
pub(crate) struct Shard {
    pub devices: BTreeMap<DeviceId, DeviceEntry>,
    pub tables: Tables,
    /// Directed flows keyed by [`flow_key`] of their region indices.
    pub flows: IdMap<u64, FlowAgg>,
    /// Exact stay durations (ms) → count; bucketed at query time so any
    /// histogram width stays an O(distinct durations) merge.
    pub dwell: BTreeMap<i64, usize>,
    pub semantics_count: usize,
}

/// Inserts `x` into the sorted `set`; whether it was new.
fn insert_sorted(set: &mut Vec<u32>, x: u32) -> bool {
    match set.binary_search(&x) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, x);
            true
        }
    }
}

impl Shard {
    /// Appends a batch for `device`, interning each semantics into a row
    /// and updating every aggregate (including the flow across the
    /// previous batch's boundary). The one ingest path: live batches,
    /// WAL replay and snapshot load all come through here.
    pub fn ingest<'a>(
        &mut self,
        device: &DeviceId,
        semantics: impl IntoIterator<Item = SemanticsView<'a>>,
    ) {
        let semantics = semantics.into_iter();
        let Shard {
            devices,
            tables,
            flows,
            dwell,
            semantics_count,
        } = self;
        let entry = devices.entry(device.clone()).or_default();
        entry.rows.reserve(semantics.size_hint().0);
        for s in semantics {
            let name = tables.intern_name(s.region, s.region_name);
            let label = tables.intern_label(s.event);
            let region = tables.region_of(name);
            let dur_ms = s.end - s.start;
            let stay = tables.is_stay(label);
            let agg = &mut tables.regions[region as usize];
            if stay {
                agg.stays += 1;
                agg.dwell_ms += dur_ms;
                if insert_sorted(&mut entry.stayed, region) {
                    agg.stayers += 1;
                }
                entry.stays += 1;
                *dwell.entry(dur_ms).or_default() += 1;
            } else {
                agg.pass_bys += 1;
            }
            if let Some(prev) = entry.session_last() {
                let from = tables.region_of(prev.name);
                if from != region {
                    flows
                        .entry(flow_key(from, region))
                        .or_insert(FlowAgg {
                            from: prev.name,
                            to: name,
                            count: 0,
                        })
                        .count += 1;
                }
            }
            insert_sorted(&mut entry.regions, region);
            entry.accounted_ms += dur_ms;
            if s.device != device.as_str() {
                entry
                    .foreign
                    .push((entry.rows.len(), DeviceId::new(s.device)));
            }
            let point = s.display_point;
            entry.rows.push(Row {
                start: s.start,
                end: s.end,
                x: point.map_or(0.0, |p| p.xy.x),
                y: point.map_or(0.0, |p| p.xy.y),
                name,
                label,
                floor: point.map_or(0, |p| p.floor),
                has_point: point.is_some(),
                inferred: s.inferred,
            });
            *semantics_count += 1;
        }
    }

    /// The device's semantics split into sessions at its `end_session`
    /// boundaries (a trailing empty session encodes a boundary after the
    /// last row): the snapshot form.
    pub fn sessions(&self, device: &DeviceId, entry: &DeviceEntry) -> Vec<Vec<MobilitySemantics>> {
        let materialize = |from: usize, to: usize| -> Vec<MobilitySemantics> {
            (from..to)
                .map(|i| {
                    self.tables
                        .semantics(entry.device_at(device, i), &entry.rows[i])
                })
                .collect()
        };
        let mut sessions = Vec::with_capacity(entry.breaks.len() + 1);
        let mut start = 0usize;
        for &b in &entry.breaks {
            sessions.push(materialize(start, b));
            start = b;
        }
        sessions.push(materialize(start, entry.rows.len()));
        sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_stay_compact() {
        assert_eq!(std::mem::size_of::<Row>(), 48);
    }
}
