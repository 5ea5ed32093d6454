//! Standing rules: continuous predicates evaluated on the ingest path.
//!
//! Pull queries answer "what happened"; a monitoring deployment also needs
//! "tell me when" — device entered a restricted zone, floor occupancy
//! crossed a threshold, a dwell ran long. This module is the push half:
//! a [`RuleEngine`] that holds compiled [`RuleSpec`]s (typically produced
//! by the `trips-query-lang` compiler from TQL `WHEN … ALERT` statements)
//! and evaluates them **incrementally** as semantics are published into
//! the store — no rescans, no polling loop.
//!
//! ## Evaluation model
//!
//! [`RuleEngine::publish`] is called by [`SemanticsStore::ingest`] after
//! the batch is applied (the translator shard lock serializes batches per
//! device, so per-device ordering here equals store order). Each published
//! semantics entry drives:
//!
//! * **Event conditions** ([`Condition::Enters`], [`Condition::Dwells`]) —
//!   fire per matching entry: an `Enters` on a region *transition* (the
//!   device's tracked last region changed), a `Dwells` on a `"stay"` whose
//!   duration satisfies the comparison.
//! * **State conditions** ([`Condition::Occupancy`], [`Condition::Flow`]) —
//!   maintained counters (devices currently in a region / observed directed
//!   transitions) are compared on every transition that touches them; the
//!   rule fires on the **rising edge** (false → true) and re-arms when the
//!   condition goes false. With a hold duration (`FOR 5m` in TQL) the
//!   condition must stay true for that long — in *event time*, measured on
//!   the semantics timestamps — before firing.
//!
//! Rules are kept priority-ordered (highest first, ties by registration
//! id), so alert delivery order within one published entry is
//! deterministic. Every rule carries fire/eval counters and last-eval /
//! last-fire timestamps, exported as [`RuleTrace`]s for the server's
//! `Metrics` endpoint.
//!
//! ## Structure and lock budget
//!
//! The engine keeps three pieces:
//!
//! * a **rule plan** — the priority-ordered rules, the region→floor map
//!   and the state rules partitioned by the region they watch — compiled
//!   by every `register` / `unregister` under its write lock, and only
//!   read by `publish`;
//! * one **device entry** per device in a sharded map: its last region
//!   and its ENTERS/DWELLS rules (device globs applied), rebuilt when the
//!   plan's serial number changes;
//! * one **state mutex** over everything state rules share: occupancy and
//!   flow counters, the region names learned from the stream, and each
//!   state rule's rising-edge / hold flag.
//!
//! `publish` takes 2 locks per batch — the plan's read lock and the
//! device's entry shard — plus the state mutex, the one engine-wide
//! exclusive lock, at most once per region transition. State rules are
//! evaluated while it is held, so two publishers cannot both fire one
//! edge. A store with no rules pays one atomic load per ingest batch.
//!
//! ## Tracked state
//!
//! Counters reflect movement observed **since registration**, the only
//! sound reading for an incremental engine bolted onto a live stream.
//! State is kept only while something maintains it, and dropped the
//! moment nothing does:
//!
//! * device positions are tracked while any rule is registered, and
//!   dropped with the last rule;
//! * occupancy and flow counters are maintained while any state rule is
//!   registered, and dropped with the last state rule;
//! * [`RuleEngine::reset_state`] (the store was cleared) drops positions
//!   and counters and re-arms every state rule's edge and hold; the
//!   registered rules and their traces survive.
//!
//! Region names (for name selectors over the counters) are learned at
//! each transition into a region; a region id's name is fixed by the
//! DSM.
//!
//! ## Delivery
//!
//! Each rule owns an optional [`AlertSink`]; the server installs one per
//! subscriber connection, tests use [`CollectingSink`]. Sinks are invoked
//! **after** all engine locks are released, with alerts for one batch
//! delivered in rule-priority order. A sink returns `false` to signal it
//! dropped the alert (backpressure); the engine counts both outcomes
//! ([`RuleEngine::alerts_delivered`] / [`RuleEngine::alerts_dropped`]).
//!
//! [`SemanticsStore::ingest`]: crate::SemanticsStore::ingest

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use trips_annotate::MobilitySemantics;
use trips_data::{glob_match, DeviceId};
use trips_dsm::RegionId;

use crate::IdMap;

/// Sentinel for "no timestamp yet" in the atomic trace fields.
const NO_TS: i64 = i64::MIN;
/// Shards of the per-device entry map (publish holds one per batch).
const DEVICE_SHARDS: usize = 16;
/// Why a state rule's evaluation can rely on the state mutex: state
/// rules are candidates only on a region transition, which takes it.
const HELD: &str = "state rules are evaluated only on transitions, under the state mutex";
/// Default cap on registered rules (override with [`RuleEngine::set_limit`]).
pub const DEFAULT_RULE_LIMIT: usize = 1024;

/// Selects the regions a rule watches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionSel {
    /// One region by id.
    Id(u32),
    /// Every region whose display name matches this glob (`*` / `?`).
    Name(String),
    /// Every region on one floor (requires the region→floor map installed
    /// via [`RuleEngine::set_region_floors`]; unmapped regions never match).
    Floor(i16),
}

impl RegionSel {
    /// Whether `region` (with display name `name`) matches, under the
    /// engine's current region→floor knowledge.
    fn matches(&self, region: u32, name: &str, floors: &IdMap<u32, i16>) -> bool {
        match self {
            RegionSel::Id(id) => *id == region,
            RegionSel::Name(glob) => glob_match(glob, name),
            RegionSel::Floor(f) => floors.get(&region) == Some(f),
        }
    }
}

/// A comparison operator in a rule threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Gt,
    Ge,
    Lt,
    Le,
    Eq,
    Ne,
}

impl CmpOp {
    /// Applies the comparison: `lhs <op> rhs`.
    pub fn holds(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// The TQL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }
}

/// A compiled standing-rule predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Fires when a device (optionally matching a glob) transitions into a
    /// matching region. **Event condition** — no hold duration.
    Enters {
        device: Option<String>,
        region: RegionSel,
    },
    /// Fires when a `"stay"` in a matching region has a duration satisfying
    /// `cmp threshold_ms`. **Event condition** — no hold duration.
    Dwells {
        device: Option<String>,
        region: RegionSel,
        cmp: CmpOp,
        threshold_ms: i64,
    },
    /// Fires (rising edge) when the number of devices currently in matching
    /// regions satisfies `cmp count`. **State condition** — may hold.
    Occupancy {
        region: RegionSel,
        cmp: CmpOp,
        count: i64,
    },
    /// Fires (rising edge) when the observed directed transition count from
    /// a matching region into a matching region satisfies `cmp count`.
    /// **State condition** — may hold.
    Flow {
        from: RegionSel,
        to: RegionSel,
        cmp: CmpOp,
        count: i64,
    },
}

impl Condition {
    /// Event conditions fire per published entry; state conditions compare
    /// maintained counters and may carry a hold duration.
    pub fn is_state(&self) -> bool {
        matches!(self, Condition::Occupancy { .. } | Condition::Flow { .. })
    }
}

/// Everything needed to register a rule: the compiled predicate plus its
/// presentation (name, message, canonical TQL source) and scheduling
/// (priority, hold).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSpec {
    /// Display name; empty → `rule-<id>` is assigned at registration.
    pub name: String,
    /// Higher evaluates (and delivers) first; ties break by registration id.
    pub priority: i32,
    pub condition: Condition,
    /// Hold duration in ms (`FOR …`): the condition must stay true this
    /// long (event time) before firing. State conditions only.
    pub hold_ms: Option<i64>,
    /// Alert message; `None` → a default is synthesized per fire.
    pub message: Option<String>,
    /// Canonical TQL source text (shown in traces).
    pub source: String,
}

/// A fired alert, as delivered to sinks and pushed over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    pub rule_id: u64,
    pub rule_name: String,
    /// The device that triggered the fire (event conditions; state
    /// conditions report the device whose movement crossed the threshold).
    pub device: Option<String>,
    /// The region involved (entered region / dwell region / the transition
    /// target for state conditions).
    pub region: Option<u32>,
    pub region_name: Option<String>,
    pub message: String,
    /// Event time of the fire (ms; the triggering semantics' end).
    pub at_ms: i64,
    /// This rule's fire ordinal (1 = first fire).
    pub seq: u64,
}

/// Per-rule execution trace (the audit trail behind `Metrics`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleTrace {
    pub id: u64,
    pub name: String,
    pub priority: i32,
    /// Canonical TQL source.
    pub source: String,
    /// Times the predicate was evaluated against a relevant event.
    pub evals: u64,
    /// Times the rule fired an alert.
    pub fires: u64,
    /// Event time (ms) of the last evaluation, if any.
    pub last_eval_ms: Option<i64>,
    /// Event time (ms) of the last fire, if any.
    pub last_fire_ms: Option<i64>,
}

/// Receives fired alerts. Implementations must be cheap and non-blocking —
/// `deliver` runs on the ingest path (after engine locks are released).
/// Return `false` to report the alert was dropped (backpressure).
pub trait AlertSink: Send + Sync {
    fn deliver(&self, alert: &Alert) -> bool;
}

/// An [`AlertSink`] that buffers alerts in memory — the test harness sink.
#[derive(Default)]
pub struct CollectingSink {
    alerts: Mutex<Vec<Alert>>,
}

impl CollectingSink {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Drains everything collected so far.
    pub fn take(&self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts.lock())
    }

    pub fn len(&self) -> usize {
        self.alerts.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.alerts.lock().is_empty()
    }
}

impl AlertSink for CollectingSink {
    fn deliver(&self, alert: &Alert) -> bool {
        self.alerts.lock().push(alert.clone());
        true
    }
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// The engine's rule cap is reached.
    TooManyRules { limit: usize },
    /// `FOR` (hold) on an event condition — per-event fires have no
    /// duration to hold over.
    HoldOnEventCondition,
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleError::TooManyRules { limit } => {
                write!(f, "rule limit reached ({limit} registered)")
            }
            RuleError::HoldOnEventCondition => {
                write!(f, "FOR requires a state condition (occupancy/flow)")
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// One registered rule with its live counters.
struct Rule {
    id: u64,
    spec: RuleSpec,
    sink: Option<Arc<dyn AlertSink>>,
    evals: AtomicU64,
    fires: AtomicU64,
    last_eval_ms: AtomicI64,
    last_fire_ms: AtomicI64,
}

impl Rule {
    fn trace(&self) -> RuleTrace {
        let ts = |a: &AtomicI64| {
            let v = a.load(Ordering::Relaxed);
            (v != NO_TS).then_some(v)
        };
        RuleTrace {
            id: self.id,
            name: self.spec.name.clone(),
            priority: self.spec.priority,
            source: self.spec.source.clone(),
            evals: self.evals.load(Ordering::Relaxed),
            fires: self.fires.load(Ordering::Relaxed),
            last_eval_ms: ts(&self.last_eval_ms),
            last_fire_ms: ts(&self.last_fire_ms),
        }
    }
}

/// The compiled rule set. Changed only under the engine's write lock —
/// recompiled by `register` / `unregister`, its floor map replaced by
/// `set_region_floors` — and read by every publish for its whole batch,
/// so a rule-set change never lands inside a batch.
#[derive(Default)]
struct RulePlan {
    /// Bumped by every compile; device entries built from an older plan
    /// rebuild their partition on next use.
    serial: u64,
    /// Priority-ordered (desc, ties by id asc).
    rules: Vec<Rule>,
    /// Region id → floor, installed by the embedding layer from its DSM.
    floors: IdMap<u32, i16>,
    /// Whether any state rule is registered (counters are maintained).
    stateful: bool,
    /// A region transition only changes occupancy rules watching a
    /// touched region and flow rules ending in the moved-into region, so
    /// `Id`-selector state rules are bucketed by that id; only selectors
    /// that need name/floor resolution are tried on every transition.
    occ_by_region: IdMap<u32, Vec<u32>>,
    occ_other: Vec<u32>,
    flow_by_to: IdMap<u32, Vec<u32>>,
    flow_other: Vec<u32>,
}

impl RulePlan {
    /// Re-derives the state-rule partition from `rules` under a new serial.
    fn compile(&mut self) {
        self.serial += 1;
        self.occ_by_region.clear();
        self.occ_other.clear();
        self.flow_by_to.clear();
        self.flow_other.clear();
        for (idx, rule) in self.rules.iter().enumerate() {
            let idx = idx as u32;
            match &rule.spec.condition {
                Condition::Occupancy {
                    region: RegionSel::Id(id),
                    ..
                } => self.occ_by_region.entry(*id).or_default().push(idx),
                Condition::Occupancy { .. } => self.occ_other.push(idx),
                Condition::Flow {
                    to: RegionSel::Id(id),
                    ..
                } => self.flow_by_to.entry(*id).or_default().push(idx),
                Condition::Flow { .. } => self.flow_other.push(idx),
                Condition::Enters { .. } | Condition::Dwells { .. } => {}
            }
        }
        self.stateful = self.rules.iter().any(|r| r.spec.condition.is_state());
    }

    /// Appends the state rules a move from `prev` into `region` can
    /// change. The buckets are disjoint (a transition has `prev !=
    /// region`), so no rule is appended twice.
    fn state_candidates(&self, prev: Option<u32>, region: u32, out: &mut Vec<u32>) {
        out.extend(self.occ_by_region.get(&region).into_iter().flatten());
        out.extend_from_slice(&self.occ_other);
        if let Some(p) = prev {
            out.extend(self.occ_by_region.get(&p).into_iter().flatten());
            out.extend(self.flow_by_to.get(&region).into_iter().flatten());
            out.extend_from_slice(&self.flow_other);
        }
    }
}

/// One device's slice of the engine: where it was last seen and which
/// event rules can fire for it (indices into the plan's rules, device
/// globs already applied — once per device per plan, not per semantic).
#[derive(Default)]
struct DeviceEntry {
    /// The plan `enters` / `dwells` were built from. A serial rather than
    /// a pointer: a freed plan's address can be reused.
    serial: u64,
    region: Option<u32>,
    enters: Vec<u32>,
    dwells: Vec<u32>,
}

impl DeviceEntry {
    fn rebuild(&mut self, plan: &RulePlan, device: &str) {
        self.serial = plan.serial;
        self.enters.clear();
        self.dwells.clear();
        for (idx, rule) in plan.rules.iter().enumerate() {
            match &rule.spec.condition {
                Condition::Enters { device: pat, .. } if device_matches(pat, device) => {
                    self.enters.push(idx as u32)
                }
                Condition::Dwells { device: pat, .. } if device_matches(pat, device) => {
                    self.dwells.push(idx as u32)
                }
                _ => {}
            }
        }
    }
}

/// A state rule's progress towards its next fire.
enum Edge {
    /// True since this event time; waiting out the rule's hold.
    Pending(i64),
    /// Fired; re-arms when the condition goes false.
    Fired,
}

/// Everything state rules share, behind one mutex.
#[derive(Default)]
struct RuleState {
    /// Devices currently in each region.
    occupancy: IdMap<u32, i64>,
    /// Observed directed transition counts.
    flows: IdMap<(u32, u32), u64>,
    /// Region id → display name, learned from the published stream (used
    /// by name selectors over maintained counters).
    names: IdMap<u32, String>,
    /// Per state rule (by id); absent = armed and not pending.
    edges: IdMap<u64, Edge>,
}

impl RuleState {
    fn learn_name(&mut self, region: u32, name: &str) {
        if self.names.get(&region).map(String::as_str) != Some(name) {
            self.names.insert(region, name.to_string());
        }
    }

    /// Moves one device from `prev` into `region`; returns the directed
    /// flow's new count (0 without a `prev`).
    fn record_move(&mut self, prev: Option<u32>, region: u32) -> u64 {
        if let Some(n) = prev.and_then(|p| self.occupancy.get_mut(&p)) {
            *n = (*n - 1).max(0);
        }
        *self.occupancy.entry(region).or_insert(0) += 1;
        prev.map_or(0, |p| {
            let n = self.flows.entry((p, region)).or_insert(0);
            *n += 1;
            *n
        })
    }

    /// Current device count over every region the selector matches.
    fn occupancy_of(&self, sel: &RegionSel, floors: &IdMap<u32, i16>) -> i64 {
        match sel {
            RegionSel::Id(id) => self.occupancy.get(id).copied().unwrap_or(0),
            _ => self
                .occupancy
                .iter()
                .filter(|(rid, _)| {
                    let name = self.names.get(rid).map_or("", String::as_str);
                    sel.matches(**rid, name, floors)
                })
                .map(|(_, n)| *n)
                .sum(),
        }
    }

    /// Rising-edge firing with optional hold, re-armed when the condition
    /// goes false. Event-time hold: the condition must stay true across
    /// `hold_ms` of published timestamps. Returns whether the rule fires.
    fn advance_edge(&mut self, rule: &Rule, holds: bool, at: i64) -> bool {
        if !holds {
            self.edges.remove(&rule.id);
            return false;
        }
        match (self.edges.get(&rule.id), rule.spec.hold_ms) {
            (Some(Edge::Fired), _) => false,
            (Some(&Edge::Pending(since)), Some(hold)) if at - since < hold => false,
            (None, Some(_)) => {
                self.edges.insert(rule.id, Edge::Pending(at));
                false
            }
            _ => {
                self.edges.insert(rule.id, Edge::Fired);
                true
            }
        }
    }
}

/// The standing-rules engine (see the module docs for the evaluation
/// model). One lives inside every [`SemanticsStore`](crate::SemanticsStore);
/// all methods take `&self` and are safe under concurrent publish.
///
/// Lock order: plan → device shard → state.
pub struct RuleEngine {
    /// Registered-rule count, mirrored out of the lock so a store with no
    /// rules pays one relaxed load per ingest batch.
    count: AtomicUsize,
    next_id: AtomicU64,
    limit: AtomicUsize,
    plan: RwLock<RulePlan>,
    /// [`DeviceEntry`]s, sharded by the store's device hash (FNV-1a).
    devices: Vec<Mutex<HashMap<DeviceId, DeviceEntry>>>,
    state: Mutex<RuleState>,
    delivered: AtomicU64,
    dropped: AtomicU64,
    /// Engine-wide evaluation count (sum over rules, kept as its own
    /// atomic so scraping doesn't walk the rule list).
    evals_total: AtomicU64,
    /// Engine-wide fire count.
    fires_total: AtomicU64,
}

impl Default for RuleEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleEngine {
    pub fn new() -> Self {
        RuleEngine {
            count: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            limit: AtomicUsize::new(DEFAULT_RULE_LIMIT),
            plan: RwLock::new(RulePlan::default()),
            devices: (0..DEVICE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            state: Mutex::new(RuleState::default()),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evals_total: AtomicU64::new(0),
            fires_total: AtomicU64::new(0),
        }
    }

    /// Caps how many rules may be registered at once.
    pub fn set_limit(&self, limit: usize) {
        self.limit.store(limit.max(1), Ordering::Relaxed);
    }

    /// Installs the region→floor map (from the embedding layer's DSM) so
    /// `floor N` selectors can resolve. Replaces any previous map.
    pub fn set_region_floors<I>(&self, map: I)
    where
        I: IntoIterator<Item = (RegionId, i16)>,
    {
        self.plan.write().floors = map.into_iter().map(|(r, f)| (r.0, f)).collect();
    }

    /// Registers a compiled rule; returns its id. `sink` receives this
    /// rule's alerts (rules without a sink still count fires in traces).
    pub fn register(
        &self,
        mut spec: RuleSpec,
        sink: Option<Arc<dyn AlertSink>>,
    ) -> Result<u64, RuleError> {
        if spec.hold_ms.is_some() && !spec.condition.is_state() {
            return Err(RuleError::HoldOnEventCondition);
        }
        let mut plan = self.plan.write();
        let limit = self.limit.load(Ordering::Relaxed);
        if plan.rules.len() >= limit {
            return Err(RuleError::TooManyRules { limit });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        if spec.name.is_empty() {
            spec.name = format!("rule-{id}");
        }
        // Ids only grow, so the newcomer goes after every rule of equal
        // priority.
        let pos = plan
            .rules
            .iter()
            .position(|r| r.spec.priority < spec.priority)
            .unwrap_or(plan.rules.len());
        plan.rules.insert(
            pos,
            Rule {
                id,
                spec,
                sink,
                evals: AtomicU64::new(0),
                fires: AtomicU64::new(0),
                last_eval_ms: AtomicI64::new(NO_TS),
                last_fire_ms: AtomicI64::new(NO_TS),
            },
        );
        plan.compile();
        self.count.store(plan.rules.len(), Ordering::Relaxed);
        Ok(id)
    }

    /// Removes a rule; returns whether it existed. State that nothing
    /// maintains any more is dropped (see the module docs).
    pub fn unregister(&self, id: u64) -> bool {
        let mut plan = self.plan.write();
        let Some(pos) = plan.rules.iter().position(|r| r.id == id) else {
            return false;
        };
        plan.rules.remove(pos);
        plan.compile();
        self.count.store(plan.rules.len(), Ordering::Relaxed);
        if plan.rules.is_empty() {
            self.clear_state();
        } else {
            let mut state = self.state.lock();
            state.edges.remove(&id);
            if !plan.stateful {
                state.occupancy.clear();
                state.flows.clear();
            }
        }
        true
    }

    /// Registered-rule count (one relaxed load).
    pub fn rule_count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Alerts accepted by sinks so far.
    pub fn alerts_delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Alerts a sink reported dropped (backpressure).
    pub fn alerts_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total rule evaluations across all rules (including since-removed
    /// ones).
    pub fn evals_total(&self) -> u64 {
        self.evals_total.load(Ordering::Relaxed)
    }

    /// Total rule fires across all rules (including since-removed ones).
    pub fn fires_total(&self) -> u64 {
        self.fires_total.load(Ordering::Relaxed)
    }

    /// Per-rule traces, in evaluation (priority) order.
    pub fn traces(&self) -> Vec<RuleTrace> {
        self.plan.read().rules.iter().map(Rule::trace).collect()
    }

    /// Forgets a device's tracked position (its occupancy contribution is
    /// released). Call when the device's session ends.
    pub fn device_gone(&self, device: &DeviceId) {
        if self.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let gone = self.devices[device_shard(device)].lock().remove(device);
        if let Some(region) = gone.and_then(|entry| entry.region) {
            if let Some(n) = self.state.lock().occupancy.get_mut(&region) {
                *n = (*n - 1).max(0);
            }
        }
    }

    /// Drops all tracked state (positions, counters) and re-arms every
    /// state rule, but keeps registered rules and their traces. Call when
    /// the store is cleared.
    pub fn reset_state(&self) {
        // The write lock waits out in-flight batches, so none straddles
        // the reset.
        let _plan = self.plan.write();
        self.clear_state();
    }

    /// Drops positions and all state-rule state. Callers hold the plan's
    /// write lock.
    fn clear_state(&self) {
        for shard in &self.devices {
            shard.lock().clear();
        }
        *self.state.lock() = RuleState::default();
    }

    /// Evaluates every relevant rule against one published batch. Called
    /// by the store on the ingest path; per-device ordering is the
    /// caller's (translator lock) ordering. Sinks run after all engine
    /// locks are released.
    pub fn publish(&self, device: &DeviceId, batch: &[MobilitySemantics]) {
        if self.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        // Attribute the whole evaluation (locks, predicate walk, sink
        // delivery) to the in-flight request's rule_eval span stage.
        let evaluating = trips_obs::enabled().then(std::time::Instant::now);
        let mut fired: Vec<(Arc<dyn AlertSink>, Alert)> = Vec::new();
        {
            let plan = self.plan.read();
            // The last rule may have gone since the count was read; its
            // state is dropped and must not be tracked again.
            if plan.rules.is_empty() {
                return;
            }
            let key = device.as_str();
            let mut shard = self.devices[device_shard(device)].lock();
            let entry = shard.entry(device.clone()).or_default();
            if entry.serial != plan.serial {
                entry.rebuild(&plan, key);
            }
            // Candidate rule indices for one semantic and the moved-out-of
            // region's name, both reused across the batch.
            let mut candidates: Vec<u32> = Vec::new();
            let mut prev_name = String::new();
            for s in batch {
                let region = s.region.0;
                let at = s.end.as_millis();
                let prev = entry.region.replace(region);
                candidates.clear();
                if s.event == "stay" {
                    candidates.extend_from_slice(&entry.dwells);
                }
                // Only a transition moves counters, so only a transition
                // takes the state mutex; it stays held while this
                // semantic's rules are evaluated.
                let mut state = None;
                let mut flow_count = 0;
                if prev != Some(region) {
                    candidates.extend_from_slice(&entry.enters);
                    let mut st = self.state.lock();
                    st.learn_name(region, &s.region_name);
                    if plan.stateful {
                        flow_count = st.record_move(prev, region);
                        plan.state_candidates(prev, region, &mut candidates);
                        prev_name.clear();
                        if let Some(name) = prev.and_then(|p| st.names.get(&p)) {
                            prev_name.push_str(name);
                        }
                    }
                    state = Some(st);
                }
                if candidates.is_empty() {
                    continue;
                }
                // Delivery keeps the plan's priority order across
                // condition families.
                candidates.sort_unstable();
                for &candidate in &candidates {
                    let rule = &plan.rules[candidate as usize];
                    let matches =
                        |sel: &RegionSel| sel.matches(region, &s.region_name, &plan.floors);
                    let holds = match &rule.spec.condition {
                        // Candidates only on a transition (ENTERS) or a
                        // stay (DWELLS); device globs were applied when
                        // the entry was built.
                        Condition::Enters { region: sel, .. } => {
                            if !matches(sel) {
                                continue;
                            }
                            true
                        }
                        Condition::Dwells {
                            region: sel,
                            cmp,
                            threshold_ms,
                            ..
                        } => {
                            if !matches(sel) {
                                continue;
                            }
                            cmp.holds((s.end - s.start).as_millis(), *threshold_ms)
                        }
                        Condition::Occupancy {
                            region: sel,
                            cmp,
                            count,
                        } => {
                            let touched = matches(sel)
                                || prev.is_some_and(|p| sel.matches(p, &prev_name, &plan.floors));
                            if !touched {
                                continue;
                            }
                            let st = state.as_deref().expect(HELD);
                            cmp.holds(st.occupancy_of(sel, &plan.floors), *count)
                        }
                        Condition::Flow {
                            from,
                            to,
                            cmp,
                            count,
                        } => {
                            let Some(p) = prev else {
                                continue;
                            };
                            if !matches(to) || !from.matches(p, &prev_name, &plan.floors) {
                                continue;
                            }
                            cmp.holds(flow_count as i64, *count)
                        }
                    };
                    self.touch_eval(rule, at);
                    let fires = if rule.spec.condition.is_state() {
                        let st = state.as_deref_mut().expect(HELD);
                        st.advance_edge(rule, holds, at)
                    } else {
                        holds
                    };
                    if fires {
                        self.fire(rule, s, key, at, &mut fired);
                    }
                }
            }
        }
        for (sink, alert) in fired {
            if sink.deliver(&alert) {
                self.delivered.fetch_add(1, Ordering::Relaxed);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(t) = evaluating {
            trips_obs::stage::add_rules_ns(t.elapsed().as_nanos() as u64);
        }
    }

    fn touch_eval(&self, rule: &Rule, at: i64) {
        rule.evals.fetch_add(1, Ordering::Relaxed);
        rule.last_eval_ms.store(at, Ordering::Relaxed);
        self.evals_total.fetch_add(1, Ordering::Relaxed);
    }

    fn fire(
        &self,
        rule: &Rule,
        s: &MobilitySemantics,
        device: &str,
        at: i64,
        fired: &mut Vec<(Arc<dyn AlertSink>, Alert)>,
    ) {
        let seq = rule.fires.fetch_add(1, Ordering::Relaxed) + 1;
        rule.last_fire_ms.store(at, Ordering::Relaxed);
        self.fires_total.fetch_add(1, Ordering::Relaxed);
        let Some(sink) = &rule.sink else {
            return;
        };
        let message = rule.spec.message.clone().unwrap_or_else(|| {
            let place = if s.region_name.is_empty() {
                String::new()
            } else {
                format!(" in {}", s.region_name)
            };
            format!("rule {} fired for device {device}{place}", rule.spec.name)
        });
        fired.push((
            sink.clone(),
            Alert {
                rule_id: rule.id,
                rule_name: rule.spec.name.clone(),
                device: Some(device.to_string()),
                region: Some(s.region.0),
                region_name: Some(String::from(s.region_name)),
                message,
                at_ms: at,
                seq,
            },
        ));
    }
}

fn device_shard(device: &DeviceId) -> usize {
    (crate::fnv1a(device.as_str().as_bytes()) as usize) % DEVICE_SHARDS
}

fn device_matches(pattern: &Option<String>, device: &str) -> bool {
    match pattern {
        None => true,
        Some(glob) => glob_match(glob, device),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sem;

    fn spec(condition: Condition) -> RuleSpec {
        RuleSpec {
            name: String::new(),
            priority: 0,
            condition,
            hold_ms: None,
            message: None,
            source: String::new(),
        }
    }

    #[test]
    fn enters_fires_on_region_transitions_only() {
        let engine = RuleEngine::new();
        let sink = CollectingSink::new();
        let id = engine
            .register(
                spec(Condition::Enters {
                    device: None,
                    region: RegionSel::Name("lab-*".into()),
                }),
                Some(sink.clone()),
            )
            .unwrap();
        let d = DeviceId::new("dev-1");
        engine.publish(&d, &[sem("dev-1", 1, "lab-a", "stay", 0, 60)]);
        engine.publish(&d, &[sem("dev-1", 1, "lab-a", "stay", 60, 120)]); // same region: no edge
        engine.publish(&d, &[sem("dev-1", 2, "atrium", "pass-by", 120, 130)]);
        engine.publish(&d, &[sem("dev-1", 3, "lab-b", "stay", 130, 200)]);
        let alerts = sink.take();
        assert_eq!(alerts.len(), 2, "lab-a entry + lab-b entry: {alerts:?}");
        assert_eq!(alerts[0].rule_id, id);
        assert_eq!(alerts[0].region_name.as_deref(), Some("lab-a"));
        assert_eq!(alerts[1].region_name.as_deref(), Some("lab-b"));
        assert_eq!(alerts[1].seq, 2);
        let t = &engine.traces()[0];
        assert_eq!((t.fires, t.id), (2, id));
        assert_eq!(t.last_fire_ms, Some(200_000));
    }

    #[test]
    fn dwell_threshold_and_device_glob() {
        let engine = RuleEngine::new();
        let sink = CollectingSink::new();
        engine
            .register(
                spec(Condition::Dwells {
                    device: Some("a.*".into()),
                    region: RegionSel::Id(7),
                    cmp: CmpOp::Gt,
                    threshold_ms: 90_000,
                }),
                Some(sink.clone()),
            )
            .unwrap();
        // Short stay: evaluated, no fire.
        engine.publish(
            &DeviceId::new("a.1"),
            &[sem("a.1", 7, "vault", "stay", 0, 60)],
        );
        // Long stay, wrong device: not evaluated.
        engine.publish(
            &DeviceId::new("b.1"),
            &[sem("b.1", 7, "vault", "stay", 0, 600)],
        );
        // Long stay, matching: fires.
        engine.publish(
            &DeviceId::new("a.2"),
            &[sem("a.2", 7, "vault", "stay", 0, 600)],
        );
        // Pass-by is not a dwell.
        engine.publish(
            &DeviceId::new("a.3"),
            &[sem("a.3", 7, "vault", "pass-by", 0, 600)],
        );
        let alerts = sink.take();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].device.as_deref(), Some("a.2"));
        let t = &engine.traces()[0];
        assert_eq!((t.evals, t.fires), (2, 1));
    }

    #[test]
    fn occupancy_rising_edge_and_rearm() {
        let engine = RuleEngine::new();
        let sink = CollectingSink::new();
        engine
            .register(
                spec(Condition::Occupancy {
                    region: RegionSel::Id(5),
                    cmp: CmpOp::Ge,
                    count: 2,
                }),
                Some(sink.clone()),
            )
            .unwrap();
        let (a, b) = (DeviceId::new("a"), DeviceId::new("b"));
        engine.publish(&a, &[sem("a", 5, "hall", "stay", 0, 10)]);
        assert!(sink.is_empty(), "occupancy 1 < 2");
        engine.publish(&b, &[sem("b", 5, "hall", "stay", 0, 20)]);
        assert_eq!(sink.len(), 1, "rising edge at occupancy 2");
        // Still satisfied → no re-fire.
        engine.publish(&a, &[sem("a", 5, "hall", "stay", 20, 30)]);
        assert_eq!(sink.len(), 1);
        // b leaves (occupancy 1 → condition false → re-arm), then returns.
        engine.publish(&b, &[sem("b", 9, "exit", "pass-by", 30, 40)]);
        engine.publish(&b, &[sem("b", 5, "hall", "stay", 40, 50)]);
        assert_eq!(sink.len(), 2, "re-fires after re-arm");
    }

    #[test]
    fn occupancy_hold_is_event_time() {
        let engine = RuleEngine::new();
        let sink = CollectingSink::new();
        engine
            .register(
                RuleSpec {
                    hold_ms: Some(300_000), // FOR 5m
                    ..spec(Condition::Occupancy {
                        region: RegionSel::Id(5),
                        cmp: CmpOp::Ge,
                        count: 1,
                    })
                },
                Some(sink.clone()),
            )
            .unwrap();
        let a = DeviceId::new("a");
        engine.publish(&a, &[sem("a", 5, "hall", "stay", 0, 10)]);
        assert!(sink.is_empty(), "condition true but hold not elapsed");
        // Another device keeps touching the region with later timestamps.
        engine.publish(&DeviceId::new("b"), &[sem("b", 5, "hall", "stay", 0, 200)]);
        assert!(sink.is_empty(), "200s < 5m hold");
        engine.publish(&DeviceId::new("c"), &[sem("c", 5, "hall", "stay", 0, 400)]);
        assert_eq!(sink.len(), 1, "held >= 5m in event time");
    }

    #[test]
    fn flow_threshold_counts_directed_transitions() {
        let engine = RuleEngine::new();
        let sink = CollectingSink::new();
        engine
            .register(
                spec(Condition::Flow {
                    from: RegionSel::Id(1),
                    to: RegionSel::Id(2),
                    cmp: CmpOp::Ge,
                    count: 2,
                }),
                Some(sink.clone()),
            )
            .unwrap();
        for (i, dev) in ["a", "b", "c"].iter().enumerate() {
            let d = DeviceId::new(dev);
            let t = i as i64 * 100;
            engine.publish(&d, &[sem(dev, 1, "shop", "stay", t, t + 10)]);
            engine.publish(&d, &[sem(dev, 2, "hall", "pass-by", t + 10, t + 20)]);
        }
        // Threshold 2 crossed on the second a→b transition; >= stays true
        // afterwards so the edge fires exactly once.
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn priority_orders_delivery_and_traces() {
        let engine = RuleEngine::new();
        let sink = CollectingSink::new();
        let mk = |name: &str, priority: i32| RuleSpec {
            name: name.into(),
            priority,
            ..spec(Condition::Enters {
                device: None,
                region: RegionSel::Name("*".into()),
            })
        };
        engine.register(mk("low", 1), Some(sink.clone())).unwrap();
        engine.register(mk("high", 9), Some(sink.clone())).unwrap();
        engine.register(mk("mid", 5), Some(sink.clone())).unwrap();
        engine.publish(&DeviceId::new("d"), &[sem("d", 1, "x", "stay", 0, 1)]);
        let names: Vec<String> = sink.take().into_iter().map(|a| a.rule_name).collect();
        assert_eq!(names, ["high", "mid", "low"]);
        let trace_names: Vec<String> = engine.traces().into_iter().map(|t| t.name).collect();
        assert_eq!(trace_names, ["high", "mid", "low"]);
    }

    #[test]
    fn floor_selector_uses_installed_map() {
        let engine = RuleEngine::new();
        engine.set_region_floors([(RegionId(1), 0), (RegionId(2), 2), (RegionId(3), 2)]);
        let sink = CollectingSink::new();
        engine
            .register(
                spec(Condition::Occupancy {
                    region: RegionSel::Floor(2),
                    cmp: CmpOp::Ge,
                    count: 2,
                }),
                Some(sink.clone()),
            )
            .unwrap();
        engine.publish(&DeviceId::new("a"), &[sem("a", 2, "f2-a", "stay", 0, 1)]);
        engine.publish(&DeviceId::new("b"), &[sem("b", 1, "f0", "stay", 0, 2)]);
        assert!(sink.is_empty(), "floor-0 region must not count");
        engine.publish(&DeviceId::new("c"), &[sem("c", 3, "f2-b", "stay", 0, 3)]);
        assert_eq!(sink.len(), 1, "two devices across floor-2 regions");
    }

    #[test]
    fn unregister_and_limit_and_hold_validation() {
        let engine = RuleEngine::new();
        engine.set_limit(2);
        let enters = || {
            spec(Condition::Enters {
                device: None,
                region: RegionSel::Id(1),
            })
        };
        let a = engine.register(enters(), None).unwrap();
        let _b = engine.register(enters(), None).unwrap();
        assert_eq!(
            engine.register(enters(), None),
            Err(RuleError::TooManyRules { limit: 2 })
        );
        assert!(engine.unregister(a));
        assert!(!engine.unregister(a), "double unregister is false");
        assert_eq!(engine.rule_count(), 1);
        assert_eq!(
            engine.register(
                RuleSpec {
                    hold_ms: Some(1000),
                    ..enters()
                },
                None
            ),
            Err(RuleError::HoldOnEventCondition)
        );
    }

    #[test]
    fn device_gone_releases_occupancy() {
        let engine = RuleEngine::new();
        let sink = CollectingSink::new();
        engine
            .register(
                spec(Condition::Occupancy {
                    region: RegionSel::Id(5),
                    cmp: CmpOp::Ge,
                    count: 2,
                }),
                Some(sink.clone()),
            )
            .unwrap();
        let (a, b) = (DeviceId::new("a"), DeviceId::new("b"));
        engine.publish(&a, &[sem("a", 5, "hall", "stay", 0, 10)]);
        engine.device_gone(&a);
        engine.publish(&b, &[sem("b", 5, "hall", "stay", 10, 20)]);
        assert!(
            sink.is_empty(),
            "a left before b arrived: occupancy never 2"
        );
        engine.publish(&a, &[sem("a", 5, "hall", "stay", 20, 30)]);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn zero_rules_is_a_noop_and_tracks_nothing() {
        let engine = RuleEngine::new();
        engine.publish(&DeviceId::new("a"), &[sem("a", 5, "hall", "stay", 0, 10)]);
        assert!(engine.state.lock().occupancy.is_empty());
        assert!(engine.devices.iter().all(|s| s.lock().is_empty()));
    }

    fn occupancy_at_least(region: u32, count: i64) -> RuleSpec {
        spec(Condition::Occupancy {
            region: RegionSel::Id(region),
            cmp: CmpOp::Ge,
            count,
        })
    }

    #[test]
    fn removing_the_last_rule_drops_tracked_state() {
        let engine = RuleEngine::new();
        let first = engine.register(occupancy_at_least(5, 9), None).unwrap();
        engine.publish(&DeviceId::new("a"), &[sem("a", 5, "hall", "stay", 0, 10)]);
        assert!(engine.unregister(first));
        // Untracked: with no rules, nothing follows `a` out of region 5.
        engine.publish(&DeviceId::new("a"), &[sem("a", 9, "exit", "stay", 10, 20)]);
        let sink = CollectingSink::new();
        engine
            .register(occupancy_at_least(5, 2), Some(sink.clone()))
            .unwrap();
        engine.publish(&DeviceId::new("b"), &[sem("b", 5, "hall", "stay", 20, 30)]);
        assert!(sink.is_empty(), "only b is in region 5: {:?}", sink.take());
        let tracked: usize = engine.devices.iter().map(|s| s.lock().len()).sum();
        assert_eq!(tracked, 1, "a was dropped with the last rule");
    }

    #[test]
    fn removing_the_last_state_rule_drops_counters() {
        let engine = RuleEngine::new();
        // An unrelated event rule keeps positions tracked throughout.
        engine
            .register(
                spec(Condition::Enters {
                    device: None,
                    region: RegionSel::Id(1),
                }),
                None,
            )
            .unwrap();
        let first = engine.register(occupancy_at_least(5, 9), None).unwrap();
        engine.publish(&DeviceId::new("a"), &[sem("a", 5, "hall", "stay", 0, 10)]);
        assert!(engine.unregister(first));
        engine.publish(&DeviceId::new("a"), &[sem("a", 9, "exit", "stay", 10, 20)]);
        let sink = CollectingSink::new();
        engine
            .register(occupancy_at_least(5, 2), Some(sink.clone()))
            .unwrap();
        engine.publish(&DeviceId::new("b"), &[sem("b", 5, "hall", "stay", 20, 30)]);
        assert!(sink.is_empty(), "only b is in region 5: {:?}", sink.take());
        engine.publish(&DeviceId::new("c"), &[sem("c", 5, "hall", "stay", 30, 40)]);
        assert_eq!(sink.len(), 1, "b and c are in region 5");
    }

    #[test]
    fn reset_state_rearms_state_rules() {
        let engine = RuleEngine::new();
        let sink = CollectingSink::new();
        engine
            .register(occupancy_at_least(5, 1), Some(sink.clone()))
            .unwrap();
        let a = DeviceId::new("a");
        engine.publish(&a, &[sem("a", 5, "hall", "stay", 0, 10)]);
        assert_eq!(sink.len(), 1);
        engine.reset_state();
        engine.publish(&a, &[sem("a", 5, "hall", "stay", 10, 20)]);
        assert_eq!(sink.len(), 2, "the wipe re-arms the rising edge");
        assert_eq!(engine.traces()[0].fires, 2, "traces survive the wipe");
    }
}
