//! Reference-model property test for the standing-rule engine.
//!
//! A deliberately naive evaluator — rescan every rule for every published
//! semantic, plain `HashMap` state, no caches or indexes — is driven with
//! the same random single-threaded operation sequence as a [`RuleEngine`]:
//! `register` over every condition family and selector kind (with and
//! without device globs, holds, priorities and sinks), `unregister`,
//! `publish` batches over small device and region alphabets,
//! `device_gone`, `reset_state` and `set_region_floors`. After every
//! operation both must have delivered the same alerts, and at the end
//! both must report the same `traces()`.
//!
//! The model encodes the engine's state contract:
//! * positions are tracked while any rule is registered and dropped when
//!   the last rule goes;
//! * occupancy and flow counters are maintained while any state rule is
//!   registered and dropped when the last state rule goes;
//! * `reset_state` drops positions and counters and re-arms every state
//!   rule's rising edge and hold.
//!
//! Region names are a function of the region id, as they are in a DSM.

use std::collections::HashMap;

use proptest::prelude::*;
use trips_annotate::MobilitySemantics;
use trips_data::{glob_match, DeviceId, Timestamp};
use trips_dsm::RegionId;
use trips_store::{
    Alert, CmpOp, CollectingSink, Condition, RegionSel, RuleEngine, RuleError, RuleSpec, RuleTrace,
};

const LIMIT: usize = 6;
const DEVICES: [&str; 4] = ["a.1", "a.2", "b.1", "b.2"];
const REGIONS: u32 = 6;
const NAME_GLOBS: [&str; 4] = ["shop-*", "hall-?", "*", "none"];
const DEVICE_GLOBS: [&str; 3] = ["a.*", "*.2", "b.1"];
const CMPS: [CmpOp; 6] = [
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Eq,
    CmpOp::Ne,
];
/// Two alternative region→floor maps; region 5 is never mapped.
const FLOOR_MAPS: [&[(u32, i16)]; 2] = [
    &[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)],
    &[(0, 1), (2, 0), (4, 1)],
];

fn region_name(region: u32) -> String {
    if region % 2 == 0 {
        format!("shop-{region}")
    } else {
        format!("hall-{region}")
    }
}

fn region_sel(kind: u32, pick: u32) -> RegionSel {
    match kind % 3 {
        0 => RegionSel::Id(pick % REGIONS),
        1 => RegionSel::Name(NAME_GLOBS[(pick % 4) as usize].to_string()),
        _ => RegionSel::Floor((pick % 3) as i16),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Register(RuleSpec, bool),
    Unregister(usize),
    Publish(usize, Vec<(u32, bool, i64)>),
    DeviceGone(usize),
    Reset,
    Floors(usize),
}

/// Decodes one op from four random words.
fn decode(w: (u32, u32, u32, u32)) -> Op {
    let (kind, a, b, c) = w;
    match kind % 100 {
        0..=21 => {
            let device = (a % 4 != 0).then(|| DEVICE_GLOBS[(a % 3) as usize].to_string());
            let cmp = CMPS[(b % 6) as usize];
            let condition = match a % 4 {
                0 => Condition::Enters {
                    device,
                    region: region_sel(b / 7, c),
                },
                1 => Condition::Dwells {
                    device,
                    region: region_sel(b / 7, c),
                    cmp,
                    threshold_ms: i64::from(c % 5) * 30_000,
                },
                2 => Condition::Occupancy {
                    region: region_sel(b / 7, c),
                    cmp,
                    count: i64::from(c / 11 % 4),
                },
                _ => Condition::Flow {
                    from: region_sel(b / 7, c),
                    to: region_sel(b / 13, c / 3),
                    cmp,
                    count: i64::from(c / 11 % 4),
                },
            };
            // Holds are mostly on state rules; an occasional one on an
            // event rule exercises the registration error.
            let hold_ms = (c % 5 == 0 && (condition.is_state() || b % 9 == 0))
                .then_some(i64::from(b % 4) * 60_000);
            let spec = RuleSpec {
                name: if b % 3 == 0 {
                    String::new()
                } else {
                    format!("r{b}")
                },
                priority: (c % 5) as i32 - 2,
                condition,
                hold_ms,
                message: (a % 5 == 0).then(|| format!("msg-{a}")),
                source: format!("src-{c}"),
            };
            Op::Register(spec, b % 8 != 0)
        }
        22..=29 => Op::Unregister(a as usize),
        30..=89 => {
            let len = 1 + (a % 4) as usize;
            let steps = (0..len)
                .map(|i| {
                    let r = (b >> (i * 3)) % 7;
                    // Region 6 is outside the floor maps and name globs'
                    // alphabet; fold it back onto a real region.
                    let region = if r == 6 { c % REGIONS } else { r };
                    let stay = (c >> i) & 1 == 0;
                    let dur = i64::from((c >> (8 + i * 4)) % 16) * 20_000;
                    (region, stay, dur)
                })
                .collect();
            Op::Publish((a / 7 % 4) as usize, steps)
        }
        90..=95 => Op::DeviceGone((a % 4) as usize),
        96..=97 => Op::Reset,
        _ => Op::Floors((a % 2) as usize),
    }
}

fn sem(device: &str, region: u32, stay: bool, start_ms: i64, end_ms: i64) -> MobilitySemantics {
    MobilitySemantics {
        device: DeviceId::new(device),
        event: if stay { "stay" } else { "pass-by" }.into(),
        region: RegionId(region),
        region_name: region_name(region).into(),
        start: Timestamp::from_millis(start_ms),
        end: Timestamp::from_millis(end_ms),
        inferred: false,
        display_point: None,
    }
}

struct ModelRule {
    id: u64,
    spec: RuleSpec,
    sink: bool,
    evals: u64,
    fires: u64,
    last_eval_ms: Option<i64>,
    last_fire_ms: Option<i64>,
    active: bool,
    pending_since_ms: Option<i64>,
}

#[derive(Default)]
struct Model {
    rules: Vec<ModelRule>,
    next_id: u64,
    floors: HashMap<u32, i16>,
    positions: HashMap<String, u32>,
    occupancy: HashMap<u32, i64>,
    flows: HashMap<(u32, u32), u64>,
    names: HashMap<u32, String>,
    alerts: Vec<Alert>,
}

fn sel_matches(sel: &RegionSel, region: u32, name: &str, floors: &HashMap<u32, i16>) -> bool {
    match sel {
        RegionSel::Id(id) => *id == region,
        RegionSel::Name(glob) => glob_match(glob, name),
        RegionSel::Floor(f) => floors.get(&region) == Some(f),
    }
}

fn device_ok(glob: &Option<String>, device: &str) -> bool {
    glob.as_deref().map_or(true, |g| glob_match(g, device))
}

impl Model {
    fn has_state_rules(&self) -> bool {
        self.rules.iter().any(|r| r.spec.condition.is_state())
    }

    fn register(&mut self, mut spec: RuleSpec, sink: bool) -> Result<u64, RuleError> {
        if spec.hold_ms.is_some() && !spec.condition.is_state() {
            return Err(RuleError::HoldOnEventCondition);
        }
        if self.rules.len() >= LIMIT {
            return Err(RuleError::TooManyRules { limit: LIMIT });
        }
        self.next_id += 1;
        let id = self.next_id;
        if spec.name.is_empty() {
            spec.name = format!("rule-{id}");
        }
        self.rules.push(ModelRule {
            id,
            spec,
            sink,
            evals: 0,
            fires: 0,
            last_eval_ms: None,
            last_fire_ms: None,
            active: false,
            pending_since_ms: None,
        });
        Ok(id)
    }

    fn unregister(&mut self, id: u64) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.id != id);
        if self.rules.is_empty() {
            self.positions.clear();
            self.names.clear();
        }
        if !self.has_state_rules() {
            self.occupancy.clear();
            self.flows.clear();
        }
        self.rules.len() != before
    }

    fn device_gone(&mut self, device: &str) {
        if let Some(p) = self.positions.remove(device) {
            if let Some(n) = self.occupancy.get_mut(&p) {
                *n = (*n - 1).max(0);
            }
        }
    }

    fn reset(&mut self) {
        self.positions.clear();
        self.occupancy.clear();
        self.flows.clear();
        self.names.clear();
        for r in &mut self.rules {
            r.active = false;
            r.pending_since_ms = None;
        }
    }

    fn ordered(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rules.len()).collect();
        order.sort_by_key(|&i| {
            (
                std::cmp::Reverse(self.rules[i].spec.priority),
                self.rules[i].id,
            )
        });
        order
    }

    fn fire(rule: &mut ModelRule, s: &MobilitySemantics, alerts: &mut Vec<Alert>) {
        rule.fires += 1;
        rule.last_fire_ms = Some(s.end.as_millis());
        if rule.sink {
            let device = s.device.as_str();
            alerts.push(Alert {
                rule_id: rule.id,
                rule_name: rule.spec.name.clone(),
                device: Some(device.to_string()),
                region: Some(s.region.0),
                region_name: Some(s.region_name.to_string()),
                message: rule.spec.message.clone().unwrap_or_else(|| {
                    format!(
                        "rule {} fired for device {device} in {}",
                        rule.spec.name, s.region_name
                    )
                }),
                at_ms: s.end.as_millis(),
                seq: rule.fires,
            });
        }
    }

    fn publish(&mut self, device: &str, batch: &[MobilitySemantics]) {
        if self.rules.is_empty() {
            return;
        }
        let stateful = self.has_state_rules();
        for s in batch {
            let region = s.region.0;
            let at = s.end.as_millis();
            self.names.insert(region, s.region_name.to_string());
            let prev = self.positions.insert(device.to_string(), region);
            let transition = prev != Some(region);
            let mut flow_count = 0;
            if transition && stateful {
                if let Some(n) = prev.and_then(|p| self.occupancy.get_mut(&p)) {
                    *n = (*n - 1).max(0);
                }
                *self.occupancy.entry(region).or_insert(0) += 1;
                if let Some(p) = prev {
                    let n = self.flows.entry((p, region)).or_insert(0);
                    *n += 1;
                    flow_count = *n;
                }
            }
            let prev_name = prev
                .and_then(|p| self.names.get(&p).cloned())
                .unwrap_or_default();
            for i in self.ordered() {
                let floors = &self.floors;
                let rule = &mut self.rules[i];
                let holds = match &rule.spec.condition {
                    Condition::Enters {
                        device: g,
                        region: sel,
                    } => {
                        if !transition
                            || !device_ok(g, device)
                            || !sel_matches(sel, region, &s.region_name, floors)
                        {
                            continue;
                        }
                        true
                    }
                    Condition::Dwells {
                        device: g,
                        region: sel,
                        cmp,
                        threshold_ms,
                    } => {
                        if s.event != "stay"
                            || !device_ok(g, device)
                            || !sel_matches(sel, region, &s.region_name, floors)
                        {
                            continue;
                        }
                        cmp.holds((s.end - s.start).as_millis(), *threshold_ms)
                    }
                    Condition::Occupancy {
                        region: sel,
                        cmp,
                        count,
                    } => {
                        let touched = sel_matches(sel, region, &s.region_name, floors)
                            || prev.is_some_and(|p| sel_matches(sel, p, &prev_name, floors));
                        if !transition || !touched {
                            continue;
                        }
                        let value: i64 = self
                            .occupancy
                            .iter()
                            .filter(|(r, _)| {
                                let name = self.names.get(r).map(String::as_str).unwrap_or("");
                                sel_matches(sel, **r, name, floors)
                            })
                            .map(|(_, n)| *n)
                            .sum();
                        cmp.holds(value, *count)
                    }
                    Condition::Flow {
                        from,
                        to,
                        cmp,
                        count,
                    } => {
                        let Some(p) = prev.filter(|_| transition) else {
                            continue;
                        };
                        if !sel_matches(to, region, &s.region_name, floors)
                            || !sel_matches(from, p, &prev_name, floors)
                        {
                            continue;
                        }
                        cmp.holds(flow_count as i64, *count)
                    }
                };
                rule.evals += 1;
                rule.last_eval_ms = Some(at);
                if !rule.spec.condition.is_state() {
                    if holds {
                        Self::fire(rule, s, &mut self.alerts);
                    }
                    continue;
                }
                if !holds {
                    rule.active = false;
                    rule.pending_since_ms = None;
                    continue;
                }
                if rule.active {
                    continue;
                }
                let due = match (rule.spec.hold_ms, rule.pending_since_ms) {
                    (None, _) => true,
                    (Some(_), None) => {
                        rule.pending_since_ms = Some(at);
                        false
                    }
                    (Some(hold), Some(since)) => at - since >= hold,
                };
                if due {
                    rule.active = true;
                    Self::fire(rule, s, &mut self.alerts);
                }
            }
        }
    }

    fn traces(&self) -> Vec<RuleTrace> {
        self.ordered()
            .into_iter()
            .map(|i| {
                let r = &self.rules[i];
                RuleTrace {
                    id: r.id,
                    name: r.spec.name.clone(),
                    priority: r.spec.priority,
                    source: r.spec.source.clone(),
                    evals: r.evals,
                    fires: r.fires,
                    last_eval_ms: r.last_eval_ms,
                    last_fire_ms: r.last_fire_ms,
                }
            })
            .collect()
    }
}

/// Runs `ops` against a fresh engine and a fresh model; fails at the first
/// operation after which their alerts or traces differ.
fn check(ops: &[Op]) -> Result<(), TestCaseError> {
    let engine = RuleEngine::new();
    engine.set_limit(LIMIT);
    let sink = CollectingSink::new();
    let mut model = Model::default();
    let mut ids: Vec<u64> = Vec::new();
    let mut clock = 0i64;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Register(spec, with_sink) => {
                let got = engine.register(
                    spec.clone(),
                    with_sink.then(|| sink.clone() as std::sync::Arc<dyn trips_store::AlertSink>),
                );
                let want = model.register(spec.clone(), *with_sink);
                prop_assert_eq!(&got, &want, "step {}: register {:?}", step, op);
                if let Ok(id) = got {
                    ids.push(id);
                }
            }
            Op::Unregister(pick) => {
                // Mostly a live id; sometimes one that never existed.
                let id = if ids.is_empty() || pick % 5 == 4 {
                    1_000 + *pick as u64
                } else {
                    ids.remove(pick % ids.len())
                };
                prop_assert_eq!(engine.unregister(id), model.unregister(id), "step {}", step);
            }
            Op::Publish(d, steps) => {
                let device = DEVICES[*d];
                let batch: Vec<MobilitySemantics> = steps
                    .iter()
                    .map(|&(region, stay, dur)| {
                        let start = clock;
                        clock += dur + 1_000;
                        sem(device, region, stay, start, start + dur)
                    })
                    .collect();
                engine.publish(&DeviceId::new(device), &batch);
                model.publish(device, &batch);
            }
            Op::DeviceGone(d) => {
                engine.device_gone(&DeviceId::new(DEVICES[*d]));
                model.device_gone(DEVICES[*d]);
            }
            Op::Reset => {
                engine.reset_state();
                model.reset();
            }
            Op::Floors(k) => {
                let map = FLOOR_MAPS[*k];
                engine.set_region_floors(map.iter().map(|&(r, f)| (RegionId(r), f)));
                model.floors = map.iter().copied().collect();
            }
        }
        let got = sink.take();
        let want = std::mem::take(&mut model.alerts);
        prop_assert_eq!(&got, &want, "step {}: alerts after {:?}", step, op);
    }
    prop_assert_eq!(engine.traces(), model.traces());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn engine_matches_naive_reference_model(
        words in prop::collection::vec((0u32..100_000, 0u32..100_000, 0u32..100_000, 0u32..100_000), 1..80)
    ) {
        let ops: Vec<Op> = words.into_iter().map(decode).collect();
        check(&ops)?;
    }
}
