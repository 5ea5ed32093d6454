//! Reference-model property test for the store's queries.
//!
//! A naive model keeps each device's semantics as a plain
//! `Vec<MobilitySemantics>` with its session breaks and answers every
//! query by rescanning them. Random scripts of `ingest`, `end_session`,
//! `register_device` and `clear` run against the model and against stores
//! of 1 and 4 shards. Every query kind under every selector class (all, a
//! device pattern, a region, an event, a window, and a random mix of
//! them) must give the model's answer.
//!
//! The scripts use three event labels, give some regions a second name,
//! and sometimes ingest a semantics whose own device differs from its
//! batch's device. Selectors also name a label and a region that were
//! never stored, which must match nothing.
//!
//! Where one region id arrives under two names, an answer names the
//! region (or flow) after its first occurrence in the store's scan order:
//! shard by shard, and within a shard, in ingest order for the
//! unfiltered aggregates and in (device id, ingest) order for filtered
//! rescans. The model reproduces that order from the public
//! [`device_hash`].

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, Duration, Timestamp};
use trips_dsm::RegionId;
use trips_geom::IndoorPoint;
use trips_store::{
    device_hash, DeviceSummary, Flow, Query, QueryRequest, QueryResult, RegionPopularity,
    SemanticsSelector, SemanticsStore, StoreStats,
};

const DEVICES: [&str; 5] = ["a.1", "a.2", "b.1", "b.2", "c.3"];
const PATTERNS: [&str; 4] = ["a.*", "*.2", "b.?", "zz*"];
const EVENTS: [&str; 3] = ["stay", "pass-by", "queue"];
/// Regions 0..REGIONS are stored; region REGIONS never is.
const REGIONS: u32 = 5;

fn region_name(region: u32, alt: bool) -> String {
    if alt {
        format!("alt-{region}")
    } else {
        format!("region-{region}")
    }
}

#[derive(Debug, Clone)]
enum Op {
    Ingest(usize, Vec<MobilitySemantics>),
    EndSession(usize),
    Register(usize),
    Clear,
}

/// Decodes one op from four random words; `clock` keeps time moving.
fn decode(w: (u32, u32, u32, u32), clock: &mut i64) -> Op {
    let (kind, a, b, c) = w;
    let device = (a % DEVICES.len() as u32) as usize;
    match kind % 100 {
        0..=64 => {
            let len = (b % 4) as usize; // 0 = an empty batch, a no-op
            let batch = (0..len)
                .map(|i| {
                    let bits = c.rotate_left(7 * i as u32);
                    let region = bits % REGIONS;
                    let dur = i64::from(bits / 8 % 6) * 45_000; // 0 = an instant
                    let start = *clock;
                    *clock += dur + i64::from(bits / 64 % 3) * 30_000;
                    let own = if bits / 256 % 10 == 0 {
                        DEVICES[(device + 1) % DEVICES.len()]
                    } else {
                        DEVICES[device]
                    };
                    MobilitySemantics {
                        device: DeviceId::new(own),
                        event: EVENTS[(bits / 4096 % 3) as usize].into(),
                        region: RegionId(region),
                        region_name: region_name(region, region < 2 && bits / 16384 % 3 == 0)
                            .into(),
                        start: Timestamp::from_millis(start),
                        end: Timestamp::from_millis(start + dur),
                        inferred: bits / 65536 % 4 == 0,
                        display_point: (bits / 262_144 % 3 != 0).then(|| {
                            IndoorPoint::new(f64::from(bits % 97) * 0.37, -f64::from(b % 13), 1)
                        }),
                    }
                })
                .collect();
            Op::Ingest(device, batch)
        }
        65..=84 => Op::EndSession(device),
        85..=96 => Op::Register(device),
        _ => Op::Clear,
    }
}

#[derive(Default)]
struct Dev {
    sems: Vec<MobilitySemantics>,
    breaks: Vec<usize>,
}

impl Dev {
    fn session_last(&self) -> Option<&MobilitySemantics> {
        self.sems[self.breaks.last().copied().unwrap_or(0)..].last()
    }
}

/// One flow as the store first counts it: (shard, from, to, names).
type FlowEvent = (usize, u32, u32, String, String);

struct Model {
    shards: usize,
    devices: BTreeMap<String, Dev>,
    /// Every semantics since the last clear, in ingest order, with the
    /// shard of its batch's device.
    log: Vec<(usize, MobilitySemantics)>,
    /// Every counted flow since the last clear, in ingest order.
    flow_log: Vec<FlowEvent>,
}

impl Model {
    fn new(shards: usize) -> Model {
        Model {
            shards,
            devices: BTreeMap::new(),
            log: Vec::new(),
            flow_log: Vec::new(),
        }
    }

    fn shard(&self, device: &str) -> usize {
        device_hash(&DeviceId::new(device)) as usize % self.shards
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Ingest(d, batch) => {
                if batch.is_empty() {
                    return;
                }
                let shard = self.shard(DEVICES[*d]);
                let dev = self.devices.entry(DEVICES[*d].to_string()).or_default();
                for s in batch {
                    if let Some(prev) = dev.session_last() {
                        if prev.region != s.region {
                            self.flow_log.push((
                                shard,
                                prev.region.0,
                                s.region.0,
                                prev.region_name.to_string(),
                                s.region_name.to_string(),
                            ));
                        }
                    }
                    dev.sems.push(s.clone());
                    self.log.push((shard, s.clone()));
                }
            }
            Op::EndSession(d) => {
                if let Some(dev) = self.devices.get_mut(DEVICES[*d]) {
                    if dev.session_last().is_some() {
                        dev.breaks.push(dev.sems.len());
                    }
                }
            }
            Op::Register(d) => {
                self.devices.entry(DEVICES[*d].to_string()).or_default();
            }
            Op::Clear => {
                self.devices.clear();
                self.log.clear();
                self.flow_log.clear();
            }
        }
    }

    /// Matching devices in the store's scan order: by shard, then id.
    fn scan(&self, sel: &SemanticsSelector) -> Vec<(&String, &Dev)> {
        let mut out: Vec<(&String, &Dev)> = self
            .devices
            .iter()
            .filter(|(id, _)| sel.matches_device(&DeviceId::new(id)))
            .collect();
        out.sort_by_key(|(id, _)| (self.shard(id), (*id).clone()));
        out
    }

    fn popular_regions(&self, sel: &SemanticsSelector) -> Vec<RegionPopularity> {
        let mut map: BTreeMap<u32, RegionPopularity> = BTreeMap::new();
        let mut stayers: BTreeMap<u32, BTreeSet<&String>> = BTreeMap::new();
        for (id, dev) in self.scan(sel) {
            for s in dev.sems.iter().filter(|s| sel.matches(s)) {
                let e = map.entry(s.region.0).or_insert_with(|| RegionPopularity {
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
                    stayers.entry(s.region.0).or_default().insert(id);
                } else {
                    e.pass_bys += 1;
                }
            }
        }
        for (region, e) in &mut map {
            e.unique_stayers = stayers.get(region).map_or(0, BTreeSet::len);
            if sel.is_all() {
                // Aggregates name a region after its first semantics in
                // the first shard that holds it.
                e.region_name = (0..self.shards)
                    .find_map(|shard| {
                        self.log
                            .iter()
                            .find(|(at, s)| *at == shard && s.region.0 == *region)
                            .map(|(_, s)| s.region_name.to_string())
                    })
                    .expect("a stored region has a first semantics");
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

    fn top_flows(&self, sel: &SemanticsSelector, limit: usize) -> Vec<Flow> {
        let mut counts: BTreeMap<(u32, u32), (String, String, usize)> = BTreeMap::new();
        for (_, dev) in self.scan(sel) {
            let mut prev: Option<&MobilitySemantics> = None;
            for (i, s) in dev.sems.iter().enumerate() {
                if dev.breaks.contains(&i) {
                    prev = None;
                }
                if !sel.matches(s) {
                    continue;
                }
                if let Some(p) = prev.filter(|p| p.region != s.region) {
                    counts
                        .entry((p.region.0, s.region.0))
                        .or_insert_with(|| {
                            (p.region_name.to_string(), s.region_name.to_string(), 0)
                        })
                        .2 += 1;
                }
                prev = Some(s);
            }
        }
        if sel.is_all() {
            for (&(from, to), names) in &mut counts {
                let first = (0..self.shards)
                    .find_map(|shard| {
                        self.flow_log
                            .iter()
                            .find(|f| f.0 == shard && f.1 == from && f.2 == to)
                    })
                    .expect("a counted flow has a first occurrence");
                names.0 = first.3.clone();
                names.1 = first.4.clone();
            }
        }
        let mut flows: Vec<Flow> = counts
            .into_iter()
            .map(|((from, to), (from_name, to_name, count))| Flow {
                from: RegionId(from),
                from_name,
                to: RegionId(to),
                to_name,
                count,
            })
            .collect();
        flows.sort_by_key(|f| std::cmp::Reverse(f.count));
        flows.truncate(limit);
        flows
    }

    fn dwell_histogram(&self, sel: &SemanticsSelector, bucket: Duration) -> Vec<(Duration, usize)> {
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        for (_, dev) in self.scan(sel) {
            for s in &dev.sems {
                if s.event == "stay" && sel.matches(s) {
                    *counts
                        .entry(s.duration().as_millis() / bucket.as_millis())
                        .or_default() += 1;
                }
            }
        }
        counts
            .into_iter()
            .map(|(b, n)| (Duration(b * bucket.as_millis()), n))
            .collect()
    }

    fn device_summaries(&self, sel: &SemanticsSelector) -> Vec<(DeviceId, DeviceSummary)> {
        let mut out: Vec<(DeviceId, DeviceSummary)> = self
            .scan(sel)
            .into_iter()
            .map(|(id, dev)| {
                let matching: Vec<&MobilitySemantics> =
                    dev.sems.iter().filter(|s| sel.matches(s)).collect();
                let id = DeviceId::new(id);
                let summary = DeviceSummary {
                    device: id.anonymized(),
                    regions_visited: matching
                        .iter()
                        .map(|s| s.region)
                        .collect::<BTreeSet<_>>()
                        .len(),
                    stays: matching.iter().filter(|s| s.event == "stay").count(),
                    accounted: Duration(matching.iter().map(|s| s.duration().as_millis()).sum()),
                };
                (id, summary)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn semantics(&self, sel: &SemanticsSelector) -> Vec<MobilitySemantics> {
        self.devices
            .iter()
            .filter(|(id, _)| sel.matches_device(&DeviceId::new(id)))
            .flat_map(|(_, dev)| dev.sems.iter().filter(|s| sel.matches(s)).cloned())
            .collect()
    }

    fn stats(&self) -> StoreStats {
        let mut per_shard = vec![0; self.shards];
        for id in self.devices.keys() {
            per_shard[self.shard(id)] += 1;
        }
        StoreStats {
            shards: self.shards,
            devices: self.devices.len(),
            semantics: self.devices.values().map(|d| d.sems.len()).sum(),
            regions: self
                .devices
                .values()
                .flat_map(|d| d.sems.iter().map(|s| s.region))
                .collect::<BTreeSet<_>>()
                .len(),
            devices_per_shard: per_shard,
        }
    }

    fn query(&self, request: &QueryRequest) -> QueryResult {
        let sel = &request.selector;
        match &request.query {
            Query::PopularRegions => QueryResult::PopularRegions(self.popular_regions(sel)),
            Query::TopFlows { limit } => QueryResult::Flows(self.top_flows(sel, *limit)),
            Query::DwellHistogram { bucket } => {
                QueryResult::DwellHistogram(self.dwell_histogram(sel, *bucket))
            }
            Query::DeviceSummaries => QueryResult::DeviceSummaries(self.device_summaries(sel)),
            Query::Semantics => QueryResult::Semantics(self.semantics(sel)),
            Query::Stats => QueryResult::Stats(self.stats()),
        }
    }
}

/// The selectors every check runs: one per class, the never-stored label
/// and region, and a random mix from `mix`.
fn selectors(mix: (u32, u32, u32)) -> Vec<SemanticsSelector> {
    let (a, b, c) = mix;
    let window = |x: u32| {
        let from = i64::from(x % 40) * 30_000;
        (
            Timestamp::from_millis(from),
            Timestamp::from_millis(from + i64::from(x / 40 % 20) * 30_000),
        )
    };
    let (from, to) = window(c);
    let mut mixed = SemanticsSelector::all();
    if a % 2 == 0 {
        mixed = mixed.with_device_pattern(PATTERNS[(a / 2 % 4) as usize]);
    }
    if a / 8 % 2 == 0 {
        mixed = mixed.with_region(RegionId(b % (REGIONS + 1)));
    }
    if a / 16 % 2 == 0 {
        mixed = mixed.with_event(["stay", "pass-by", "queue", "nope"][(b / 8 % 4) as usize]);
    }
    if a / 32 % 2 == 0 {
        let (f, t) = window(b);
        mixed = mixed.between(f, t);
    }
    vec![
        SemanticsSelector::all(),
        SemanticsSelector::all().with_device_pattern(PATTERNS[(a % 4) as usize]),
        SemanticsSelector::all().with_region(RegionId(b % REGIONS)),
        SemanticsSelector::all().with_region(RegionId(REGIONS)),
        SemanticsSelector::all().with_event(EVENTS[(c % 3) as usize]),
        SemanticsSelector::all().with_event("nope"),
        SemanticsSelector::all().between(from, to),
        mixed,
    ]
}

fn queries(limit: usize) -> [Query; 6] {
    [
        Query::PopularRegions,
        Query::TopFlows { limit },
        Query::DwellHistogram {
            bucket: Duration::from_secs(70),
        },
        Query::DeviceSummaries,
        Query::Semantics,
        Query::Stats,
    ]
}

fn check(words: &[(u32, u32, u32, u32)], mix: (u32, u32, u32)) -> Result<(), TestCaseError> {
    let mut clock = 0i64;
    let ops: Vec<Op> = words.iter().map(|w| decode(*w, &mut clock)).collect();
    for shards in [1, 4] {
        let store = SemanticsStore::with_shards(shards);
        let mut model = Model::new(shards);
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Ingest(d, batch) => store.ingest(&DeviceId::new(DEVICES[*d]), batch),
                Op::EndSession(d) => store.end_session(&DeviceId::new(DEVICES[*d])),
                Op::Register(d) => store.register_device(&DeviceId::new(DEVICES[*d])),
                Op::Clear => store.clear(),
            }
            model.apply(op);
            if step % 8 != 7 && step + 1 != ops.len() {
                continue;
            }
            for selector in selectors(mix) {
                for query in queries((mix.2 % 6) as usize) {
                    let request = QueryRequest::new(selector.clone(), query);
                    prop_assert_eq!(
                        store.query(&request),
                        model.query(&request),
                        "{} shards, step {}: {:?}",
                        shards,
                        step,
                        request
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn queries_match_naive_model(
        words in prop::collection::vec((0u32..100, 0u32..1_000_000, 0u32..1_000_000, 0u32..u32::MAX), 1..40),
        mix in (0u32..1_000, 0u32..1_000, 0u32..1_000),
    ) {
        check(&words, mix)?;
    }
}
