//! `server_load` — closed-loop multi-threaded load generator for a live
//! `trips-serve` endpoint.
//!
//! Replays `trips_sim::scenario::generate_campus` traffic over the wire
//! (one ingest connection per building, device-major batches; each
//! connection flushes **its own** session before disconnecting — a
//! flush-all is scoped to the requesting session), then drives a
//! concurrent analyst query mix — and, unless disabled, an overload
//! burst sized to exceed the admission queue so the server's load
//! shedding is exercised. With `--scale-conns N` it additionally holds N
//! concurrent mostly-idle connections (the event-driven server's home
//! turf) and measures ping latency plus server memory while they are
//! held. Emits `BENCH_server.json` with ingest + query throughput and
//! tail latency (p50/p99/max/mean, comparable with `BENCH_store.json`)
//! plus the server's own overload counters.
//!
//! ```text
//! server_load --addr HOST:PORT [--quick] [--out PATH] [--protocol 1|2]
//!             [--buildings N] [--floors N] [--shops N] [--devices N]
//!             [--seed N] [--ingest-sessions N]
//!             [--query-conns N] [--query-iters N] [--pipeline N]
//!             [--no-overload] [--overload-conns N] [--overload-iters N]
//!             [--scale-conns N] [--scale-rounds N]
//!             [--rules N] [--expect-alerts MIN] [--rules-trace PATH]
//!             [--rules-overhead N] [--obs-overhead]
//!             [--baseline PATH] [--tolerance F]
//!             [--expect-shedding] [--expect-wal] [--shutdown]
//! ```
//!
//! `--protocol 2` runs every phase over the binary v2 framing (see
//! `trips_server::codec`); the default is NDJSON v1 — running both and
//! comparing the reports is the protocol's perf regression check.
//!
//! `--pipeline N` adds a pipelined-query phase after the closed-loop
//! query mix: each query connection sends its requests in back-to-back
//! batches of N (one write, N responses read in order) and the recorded
//! latency is the **whole-batch** round trip — the workload the server's
//! segmented `writev(2)` response batching is measured on. The report
//! gains a `pipeline` block, and `--baseline` gates on it when both runs
//! measured one. The report also records
//! `loop_shard_spread` — the server's max/min per-loop-shard
//! `bytes_read` ratio — so shard-placement skew is visible in the perf
//! trajectory.
//!
//! `--ingest-sessions N` replaces the per-building ingest layout with N
//! concurrent sessions: every campus device is assigned to one session
//! (sticky round-robin — a device never splits across sessions), and each
//! session interleaves its devices' batches, drawing the next device from
//! a deterministic per-session LCG, uniformly over the devices with
//! batches left. This is the multi-session workload the sharded
//! translator lock is measured on.
//!
//! `--baseline PATH` compares this run against a previously committed
//! report and **fails the run** (exit 1) when it regresses beyond
//! `--tolerance F` (default 4.0 — wide, because shared CI runners jitter
//! heavily; the gate catches collapses, not percent drift): ingest
//! throughput below `baseline/F`, ingest p99 above `baseline×F`, or (when
//! both runs held connections) scale ping p99 above `baseline×F`.
//!
//! `--rules N` registers N standing TQL rules (a deterministic mix of
//! `ENTERS` / `DWELLS` / `occupancy` / `flow` conditions) on a dedicated
//! subscriber connection **before** the ingest phase, so every ingest
//! batch is evaluated against them — the measured throughput then
//! includes rule evaluation. The subscriber's alerts are drained after
//! the paced phases; `--expect-alerts MIN` fails the run (exit 1) when
//! fewer arrive, and `--rules-trace PATH` writes the server's per-rule
//! evaluation traces (evals, fires, canonical source) as JSON.
//! `--rules-overhead N` runs a separate **in-process** A/B: the same
//! campus traffic through a `StreamingTranslator`-fed store with 0 and
//! with N registered rules (best of 7 rounds each; the arm that runs
//! first alternates per round so scheduler and thermal drift hit both
//! arms, and every round's walls go into the report); the run fails
//! when the with-rules ingest wall exceeds baseline × 1.10 — the "<10%
//! overhead" acceptance gate, measured without wire noise.
//!
//! `--obs-overhead` runs the same in-process A/B shape for the
//! observability layer: identical campus traffic through a
//! translator-fed store with the `trips-obs` instrumentation globally
//! disabled and enabled (best of 7 rounds in alternating order, repeats
//! summed exactly like `--rules-overhead`); the run fails when the
//! instrumented ingest wall exceeds baseline × 1.05 — the "<5%
//! observability overhead" acceptance gate, measured without wire noise.
//!
//! The report also records per-phase wall-clock (`phase_wall_ms`:
//! ingest / post-ingest drain / query mix / overload / scale hold) so
//! the perf trajectory is attributable phase by phase.
//!
//! The `--floors/--shops` layout must match the server's (campus
//! buildings share the mall layout the server's DSM was built from).
//! With `--expect-wal` (a durable server under test) the generator also
//! requests a checkpoint after the paced phases and asserts on the WAL
//! metrics: they must be present, with ≥ 1 segment and a fresh
//! checkpoint age — so `BENCH_server.json` tracks durability overhead
//! and checkpoint health alongside throughput.
//! Exit codes: `0` clean; `1` any hard protocol error in the paced phases,
//! a violated bounded-queue invariant, a failed `--scale-conns` hold,
//! `--expect-shedding` with no sheds observed, or `--expect-wal` with
//! missing/stale WAL metrics; `2` usage errors.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trips_core::stream::{StreamConfig, StreamingTranslator};
use trips_data::{DeviceId, Duration, RawRecord, Timestamp};
use trips_obs::LatencyRecorder;
use trips_server::{bootstrap_scenario, Client, Request, Response, ServerBootstrap, ServerError};
use trips_sim::ScenarioConfig;
use trips_store::{
    Alert, AlertSink, Query, QueryRequest, RuleSpec, SemanticsSelector, SemanticsStore,
};

struct Options {
    addr: String,
    quick: bool,
    out: String,
    protocol: u32,
    buildings: usize,
    floors: u16,
    shops: usize,
    devices: usize,
    seed: u64,
    /// `0` = legacy layout (one ingest connection per building).
    ingest_sessions: usize,
    query_conns: usize,
    query_iters: usize,
    /// `0` = no pipelined-query phase; otherwise the batch depth each
    /// query connection pipelines per write.
    pipeline: usize,
    overload: bool,
    overload_conns: usize,
    overload_iters: usize,
    scale_conns: usize,
    scale_rounds: usize,
    /// `0` = no standing rules registered before ingest.
    rules: usize,
    /// Minimum pushed alerts the subscriber must receive (`0` = no gate).
    expect_alerts: usize,
    /// Where to write the server's per-rule evaluation traces as JSON.
    rules_trace: Option<String>,
    /// `0` = skip the in-process rule-evaluation overhead A/B gate.
    rules_overhead: usize,
    /// Run the in-process observability-instrumentation overhead A/B.
    obs_overhead: bool,
    baseline: Option<String>,
    tolerance: f64,
    expect_shedding: bool,
    expect_wal: bool,
    shutdown: bool,
}

fn usage_and_exit(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: server_load --addr HOST:PORT [--quick] [--out PATH] [--protocol 1|2] \
         [--buildings N] [--floors N] [--shops N] [--devices N] [--seed N] \
         [--ingest-sessions N] \
         [--query-conns N] [--query-iters N] [--pipeline N] \
         [--no-overload] [--overload-conns N] \
         [--overload-iters N] [--scale-conns N] [--scale-rounds N] \
         [--rules N] [--expect-alerts MIN] [--rules-trace PATH] [--rules-overhead N] \
         [--obs-overhead] [--baseline PATH] [--tolerance F] \
         [--expect-shedding] [--expect-wal] [--shutdown]"
    );
    std::process::exit(2);
}

/// Connects a client speaking the configured protocol version.
fn connect(addr: &str, protocol: u32) -> std::io::Result<Client> {
    let mut client = Client::connect(addr)?;
    client.set_protocol(protocol)?;
    Ok(client)
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(value) = args.next() else {
        usage_and_exit(&format!("{flag} needs a value"));
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => usage_and_exit(&format!("invalid value {value:?} for {flag}")),
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        addr: String::new(),
        quick: false,
        out: "BENCH_server.json".to_string(),
        protocol: 1,
        buildings: 3,
        floors: 2,
        shops: 3,
        devices: 8,
        seed: 0xBEC4,
        ingest_sessions: 0,
        query_conns: 8,
        query_iters: 600,
        pipeline: 0,
        overload: true,
        overload_conns: 8,
        overload_iters: 150,
        scale_conns: 0,
        scale_rounds: 3,
        rules: 0,
        expect_alerts: 0,
        rules_trace: None,
        rules_overhead: 0,
        obs_overhead: false,
        baseline: None,
        tolerance: 4.0,
        expect_shedding: false,
        expect_wal: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => opts.addr = parse(&mut args, "--addr"),
            "--quick" => opts.quick = true,
            "--out" => opts.out = parse(&mut args, "--out"),
            "--protocol" => {
                opts.protocol = parse(&mut args, "--protocol");
                if !(opts.protocol == 1 || opts.protocol == 2) {
                    usage_and_exit("--protocol must be 1 (NDJSON) or 2 (binary)");
                }
            }
            "--buildings" => opts.buildings = parse(&mut args, "--buildings"),
            "--floors" => opts.floors = parse(&mut args, "--floors"),
            "--shops" => opts.shops = parse(&mut args, "--shops"),
            "--devices" => opts.devices = parse(&mut args, "--devices"),
            "--seed" => opts.seed = parse(&mut args, "--seed"),
            "--ingest-sessions" => opts.ingest_sessions = parse(&mut args, "--ingest-sessions"),
            "--query-conns" => opts.query_conns = parse(&mut args, "--query-conns"),
            "--query-iters" => opts.query_iters = parse(&mut args, "--query-iters"),
            "--pipeline" => opts.pipeline = parse(&mut args, "--pipeline"),
            "--no-overload" => opts.overload = false,
            "--overload-conns" => opts.overload_conns = parse(&mut args, "--overload-conns"),
            "--overload-iters" => opts.overload_iters = parse(&mut args, "--overload-iters"),
            "--scale-conns" => opts.scale_conns = parse(&mut args, "--scale-conns"),
            "--scale-rounds" => opts.scale_rounds = parse(&mut args, "--scale-rounds"),
            "--rules" => opts.rules = parse(&mut args, "--rules"),
            "--expect-alerts" => opts.expect_alerts = parse(&mut args, "--expect-alerts"),
            "--rules-trace" => opts.rules_trace = Some(parse(&mut args, "--rules-trace")),
            "--rules-overhead" => opts.rules_overhead = parse(&mut args, "--rules-overhead"),
            "--obs-overhead" => opts.obs_overhead = true,
            "--baseline" => opts.baseline = Some(parse(&mut args, "--baseline")),
            "--tolerance" => {
                opts.tolerance = parse(&mut args, "--tolerance");
                if opts.tolerance.is_nan() || opts.tolerance < 1.0 {
                    usage_and_exit("--tolerance must be >= 1.0");
                }
            }
            "--expect-shedding" => opts.expect_shedding = true,
            "--expect-wal" => opts.expect_wal = true,
            "--shutdown" => opts.shutdown = true,
            other => usage_and_exit(&format!("unknown argument: {other}")),
        }
    }
    if opts.addr.is_empty() {
        usage_and_exit("--addr is required");
    }
    if opts.quick {
        // Shrink the paced phases only; overload flags are honored as
        // given (a burst must stay large enough to exceed the queue).
        opts.buildings = opts.buildings.min(2);
        opts.devices = opts.devices.min(4);
        opts.query_conns = opts.query_conns.min(4);
        opts.query_iters = opts.query_iters.min(200);
    }
    opts
}

#[derive(Serialize, Deserialize)]
struct PhaseReport {
    requests: usize,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    mean_us: f64,
    wall_ms: f64,
}

fn phase_report(recorder: &LatencyRecorder, wall: std::time::Duration) -> PhaseReport {
    let s = recorder.summary(wall);
    PhaseReport {
        requests: s.count,
        ops_per_sec: s.ops_per_sec,
        p50_us: s.p50.as_secs_f64() * 1e6,
        p99_us: s.p99.as_secs_f64() * 1e6,
        max_us: s.max.as_secs_f64() * 1e6,
        mean_us: s.mean.as_secs_f64() * 1e6,
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

/// The `--pipeline N` phase: batches of N requests per write, responses
/// read in order; latency is the whole-batch round trip.
#[derive(Serialize, Deserialize)]
struct PipelineReport {
    /// Requests pipelined per write (`--pipeline N`).
    depth: usize,
    /// Whole-batch round-trip latency (each sample covers `depth`
    /// requests leaving in one write and `depth` responses read back).
    batch_rtt: PhaseReport,
}

#[derive(Serialize, Deserialize)]
struct OverloadReport {
    requests: usize,
    ok: usize,
    shed: usize,
    hard_errors: usize,
}

#[derive(Serialize, Deserialize)]
struct ScaleReport {
    /// Connections held concurrently (on top of the phase's admin conn).
    connections: usize,
    /// Active connections the server itself reported during the hold.
    active_connections_observed: usize,
    /// Server RSS in KiB while every connection was held (`None` where
    /// the server cannot measure it). The scaling gate checks this stays
    /// flat versus the baseline run.
    rss_kb_held: Option<u64>,
    /// Round-robin ping latency across the held connections.
    ping: PhaseReport,
}

#[derive(Serialize, Deserialize)]
struct ServerSide {
    requests: u64,
    shed: u64,
    bad_requests: u64,
    queue_capacity: usize,
    peak_queue_depth: usize,
    /// Server RSS in KiB at the end of the run.
    rss_kb: Option<u64>,
    /// WAL metrics (durable servers only): segment count, log bytes,
    /// replay debt, and checkpoint age — the durability-overhead signals
    /// the perf trajectory tracks.
    wal_segments: Option<usize>,
    wal_bytes: Option<u64>,
    wal_records_since_checkpoint: Option<u64>,
    wal_last_checkpoint_age_ms: Option<u64>,
}

/// Standing-rules phase: what the subscriber connection saw, what the
/// server accounted, and (when `--rules-overhead` ran) the in-process
/// evaluation-overhead A/B.
#[derive(Serialize, Deserialize)]
struct RulesReport {
    /// Rules registered on the subscriber connection before ingest.
    registered: usize,
    /// Alerts the subscriber connection actually received over the wire.
    alerts_received: usize,
    /// Server-side delivered/dropped counters (drops = sink refused +
    /// slow-subscriber backpressure).
    server_alerts_delivered: u64,
    server_alerts_dropped: u64,
    /// Total fires across every rule's server-side trace.
    fires_total: u64,
    overhead: Option<RulesOverheadReport>,
}

/// The `--rules-overhead` A/B: identical traffic through an in-process
/// translator-fed store with 0 vs N rules, best of [`OVERHEAD_ROUNDS`]
/// rounds whose arm order alternates.
#[derive(Serialize, Deserialize)]
struct RulesOverheadReport {
    rules: usize,
    baseline_wall_ms: f64,
    with_rules_wall_ms: f64,
    /// Every round's wall per arm, in round order.
    #[serde(default)]
    baseline_rounds_ms: Vec<f64>,
    #[serde(default)]
    with_rules_rounds_ms: Vec<f64>,
    /// `(with - baseline) / baseline`, in percent. May be negative under
    /// runner noise; the gate only fails past +10%.
    overhead_pct: f64,
    /// Alerts the N rules fired during the measured run (proof the rules
    /// were actually exercised, not globbed out of the hot path).
    alerts_fired: u64,
    ok: bool,
}

/// The `--obs-overhead` A/B: identical in-process ingest with the
/// `trips-obs` instrumentation globally disabled vs enabled, best of
/// [`OVERHEAD_ROUNDS`] alternating rounds (the rules-overhead gate's
/// repeats-summed methodology applied to the observability layer).
#[derive(Serialize, Deserialize)]
struct ObsOverheadReport {
    baseline_wall_ms: f64,
    with_obs_wall_ms: f64,
    /// Every round's wall per arm, in round order.
    #[serde(default)]
    baseline_rounds_ms: Vec<f64>,
    #[serde(default)]
    with_obs_rounds_ms: Vec<f64>,
    /// `(with - baseline) / baseline`, in percent. May be negative under
    /// runner noise; the gate only fails past +5%.
    overhead_pct: f64,
    ok: bool,
}

/// Wall-clock per phase of the run, milliseconds. `drain_ms` is the
/// post-ingest quiescence wait (open sessions publishing their tails).
#[derive(Serialize, Deserialize, Default)]
struct PhaseWalls {
    ingest_ms: f64,
    drain_ms: f64,
    query_ms: f64,
    #[serde(default)]
    pipeline_ms: Option<f64>,
    overload_ms: Option<f64>,
    scale_ms: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct BenchReport {
    bench: String,
    quick: bool,
    addr: String,
    /// Wire protocol every phase ran over (1 = NDJSON, 2 = binary).
    protocol: u32,
    ingest_connections: usize,
    /// Multi-session layout (`--ingest-sessions`); 0 = per-building.
    ingest_sessions: usize,
    /// Cores visible to the *generator* — context for cross-machine
    /// comparisons (a 1-core runner cannot show parallel speedups).
    host_parallelism: usize,
    records: usize,
    ingest: PhaseReport,
    query_connections: usize,
    query: PhaseReport,
    /// The `--pipeline N` batched-query phase, when it ran.
    #[serde(default)]
    pipeline: Option<PipelineReport>,
    /// Max/min per-loop-shard `bytes_read` ratio reported by the server
    /// at the end of the run (min clamped to 1 byte; `None` when the
    /// server reported no loop shards). 1.0 = perfectly even placement.
    #[serde(default)]
    loop_shard_spread: Option<f64>,
    overload: Option<OverloadReport>,
    scale: Option<ScaleReport>,
    rules: Option<RulesReport>,
    /// The `--obs-overhead` instrumentation-cost A/B, when it ran.
    #[serde(default)]
    obs_overhead: Option<ObsOverheadReport>,
    /// Per-phase wall-clock, so the perf trajectory is attributable
    /// phase by phase (absent in reports from older generators).
    #[serde(default)]
    phase_wall_ms: Option<PhaseWalls>,
    server: ServerSide,
    hard_errors: usize,
}

/// The deterministic standing-rule mix `--rules` registers: all four
/// condition families, parameterized so no two rules are identical.
fn rule_tql(i: usize) -> String {
    match i % 4 {
        0 => format!(r#"RULE "load-enter-{i}" WHEN device ENTERS region "*" ALERT "entered""#),
        1 => format!(
            r#"RULE "load-dwell-{i}" WHEN device "b*" DWELLS IN region "*" >= {}m ALERT "long dwell""#,
            1 + i % 10
        ),
        2 => format!(
            r#"RULE "load-occ-{i}" WHEN occupancy(region "*") > {} ALERT "crowded""#,
            3 + i % 16
        ),
        _ => format!(
            r#"RULE "load-flow-{i}" WHEN flow(region "*" -> region "*") > {} ALERT "corridor""#,
            2 + i % 8
        ),
    }
}

/// The `--rules-overhead` mix: realistic *monitoring* rules — concrete
/// region ids, device-scoped globs, thresholds that rarely trip — plus
/// one live rule (index 0, scoped to building 0's devices) so
/// `alerts_fired` proves the engine ran. A fleet of match-everything
/// rules would measure alert-construction throughput, not evaluation
/// overhead — real monitoring fleets alert on a small fraction of
/// traffic.
fn overhead_rule_tql(i: usize) -> String {
    if i == 0 {
        return r#"RULE "ov-hot" WHEN device "b0.*" ENTERS region "*" ALERT "entered""#.to_string();
    }
    match i % 4 {
        0 => format!(
            r#"RULE "ov-enter-{i}" WHEN device "b{}.watch*" ENTERS region {} ALERT "watched device""#,
            i % 8,
            i % 24
        ),
        1 => format!(
            r#"RULE "ov-dwell-{i}" WHEN device "b{}.vip*" DWELLS IN region {} >= {}m ALERT "long dwell""#,
            i % 8,
            (7 + i) % 24,
            10 + i % 50
        ),
        2 => format!(
            r#"RULE "ov-occ-{i}" WHEN occupancy(region {}) > {} ALERT "crowded""#,
            i % 24,
            20 + i % 30
        ),
        _ => format!(
            r#"RULE "ov-flow-{i}" WHEN flow(region {} -> region {}) > {} ALERT "hot corridor""#,
            i % 24,
            (i + 5) % 24,
            15 + i % 25
        ),
    }
}

/// Counting sink for the in-process overhead A/B — delivery must cost
/// something nonzero (an atomic add) but never block.
struct CountSink(AtomicU64);

impl AlertSink for CountSink {
    fn deliver(&self, _alert: &Alert) -> bool {
        self.0.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// One timed in-process ingest round: the campus traffic through a
/// fresh translator-fed store with `rules` registered, `repeats` times
/// over (fresh store each repeat — store/translator construction is
/// excluded from the clock). Repeating aggregates the timed region into
/// tens of milliseconds so a 10% delta is measurable above scheduler
/// noise on small default workloads. Returns the summed wall clock.
fn timed_ingest(
    boot: &ServerBootstrap,
    traffic: &[Vec<(DeviceId, Vec<RawRecord>)>],
    rules: &[RuleSpec],
    sink: &Arc<CountSink>,
    repeats: usize,
) -> std::time::Duration {
    let mut total = std::time::Duration::ZERO;
    for _ in 0..repeats {
        let store = Arc::new(SemanticsStore::new());
        for spec in rules {
            store
                .rules()
                .register(spec.clone(), Some(sink.clone() as Arc<dyn AlertSink>))
                .expect("overhead rule registers");
        }
        store
            .rules()
            .set_region_floors(boot.dsm.regions().map(|r| (r.id, r.floor)));
        let mut translator = StreamingTranslator::from_editor(
            &boot.dsm,
            &boot.editor,
            None,
            StreamConfig::default(),
        )
        .expect("overhead translator")
        .with_store(store.clone());
        let t0 = Instant::now();
        for building in traffic {
            for (_, records) in building {
                for r in records {
                    translator.push(r.clone());
                }
            }
        }
        translator.finish();
        total += t0.elapsed();
    }
    total
}

/// Rounds of each in-process overhead A/B.
const OVERHEAD_ROUNDS: usize = 7;

/// Runs both arms of an overhead A/B for [`OVERHEAD_ROUNDS`] rounds,
/// baseline first in even rounds and second in odd ones, so
/// thermal/scheduler drift hits both arms. Returns each arm's walls in
/// milliseconds, in round order.
fn overhead_rounds(
    mut baseline: impl FnMut() -> std::time::Duration,
    mut with: impl FnMut() -> std::time::Duration,
) -> (Vec<f64>, Vec<f64>) {
    let (mut base_ms, mut with_ms) = (Vec::new(), Vec::new());
    for round in 0..OVERHEAD_ROUNDS {
        if round % 2 == 0 {
            base_ms.push(baseline().as_secs_f64() * 1e3);
            with_ms.push(with().as_secs_f64() * 1e3);
        } else {
            with_ms.push(with().as_secs_f64() * 1e3);
            base_ms.push(baseline().as_secs_f64() * 1e3);
        }
    }
    (base_ms, with_ms)
}

/// The smallest of a gate's per-round walls.
fn best_ms(rounds: &[f64]) -> f64 {
    rounds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `--rules-overhead N` gate: same traffic, 0 vs N rules, best of
/// [`OVERHEAD_ROUNDS`] alternating rounds each.
/// Gate: with-rules wall ≤ baseline × 1.10.
fn rules_overhead_gate(
    n_rules: usize,
    traffic: &[Vec<(DeviceId, Vec<RawRecord>)>],
    opts: &Options,
) -> RulesOverheadReport {
    eprintln!(
        "server_load: in-process rule-overhead A/B (0 vs {n_rules} rules, best of \
         {OVERHEAD_ROUNDS} rounds)..."
    );
    let boot = bootstrap_scenario(
        opts.floors,
        opts.shops,
        &ScenarioConfig {
            devices: opts.devices,
            days: 1,
            seed: opts.seed,
            ..ScenarioConfig::default()
        },
    );
    let specs: Vec<RuleSpec> = (0..n_rules)
        .map(|i| {
            let src = overhead_rule_tql(i);
            match trips_query_lang::compile(&src) {
                Ok(trips_query_lang::Compiled::Rule(spec)) => spec,
                other => panic!("rule mix {src:?} must compile to a rule: {other:?}"),
            }
        })
        .collect();
    let sink = Arc::new(CountSink(AtomicU64::new(0)));
    // Size each round so its timed region is large enough that the 10%
    // gate measures evaluation cost, not clock granularity: on the quick
    // default workload (~tens of thousands of records, low-ms ingest) a
    // single pass is noise-dominated.
    let records: usize = traffic
        .iter()
        .flat_map(|b| b.iter().map(|(_, r)| r.len()))
        .sum();
    let repeats = (400_000 / records.max(1)).clamp(1, 64);
    let mut alerts_fired = 0u64;
    let (baseline_rounds_ms, with_rules_rounds_ms) = overhead_rounds(
        || timed_ingest(&boot, traffic, &[], &sink, repeats),
        || {
            let before = sink.0.load(Ordering::Relaxed);
            let wall = timed_ingest(&boot, traffic, &specs, &sink, repeats);
            // Per-pass count: every repeat fires identically on a fresh store.
            alerts_fired = (sink.0.load(Ordering::Relaxed) - before) / repeats as u64;
            wall
        },
    );
    let baseline_wall_ms = best_ms(&baseline_rounds_ms);
    let with_rules_wall_ms = best_ms(&with_rules_rounds_ms);
    let overhead_pct = (with_rules_wall_ms - baseline_wall_ms) / baseline_wall_ms * 100.0;
    RulesOverheadReport {
        rules: n_rules,
        baseline_wall_ms,
        with_rules_wall_ms,
        baseline_rounds_ms,
        with_rules_rounds_ms,
        overhead_pct,
        alerts_fired,
        ok: with_rules_wall_ms <= baseline_wall_ms * 1.10,
    }
}

/// The `--obs-overhead` gate: same traffic through an in-process
/// translator-fed store with `trips_obs` instrumentation off vs on,
/// best of [`OVERHEAD_ROUNDS`] alternating rounds. The store/rules hot
/// paths gate their timing and contention accounting on
/// `trips_obs::enabled()`, so the toggle isolates exactly the
/// instrumentation cost the server pays.
/// Gate: instrumented wall ≤ baseline × 1.05.
fn obs_overhead_gate(
    traffic: &[Vec<(DeviceId, Vec<RawRecord>)>],
    opts: &Options,
) -> ObsOverheadReport {
    eprintln!(
        "server_load: in-process observability-overhead A/B (obs off vs on, best of \
         {OVERHEAD_ROUNDS} rounds)..."
    );
    let boot = bootstrap_scenario(
        opts.floors,
        opts.shops,
        &ScenarioConfig {
            devices: opts.devices,
            days: 1,
            seed: opts.seed,
            ..ScenarioConfig::default()
        },
    );
    let sink = Arc::new(CountSink(AtomicU64::new(0)));
    let records: usize = traffic
        .iter()
        .flat_map(|b| b.iter().map(|(_, r)| r.len()))
        .sum();
    // Same sizing rationale as the rules gate: aggregate the timed
    // region into tens of milliseconds so a 5% delta outweighs clock
    // granularity and scheduler noise.
    let repeats = (400_000 / records.max(1)).clamp(1, 64);
    let was_enabled = trips_obs::enabled();
    let timed_with_obs = |enabled: bool| {
        trips_obs::set_enabled(enabled);
        timed_ingest(&boot, traffic, &[], &sink, repeats)
    };
    let (baseline_rounds_ms, with_obs_rounds_ms) =
        overhead_rounds(|| timed_with_obs(false), || timed_with_obs(true));
    trips_obs::set_enabled(was_enabled);
    let baseline_wall_ms = best_ms(&baseline_rounds_ms);
    let with_obs_wall_ms = best_ms(&with_obs_rounds_ms);
    ObsOverheadReport {
        baseline_wall_ms,
        with_obs_wall_ms,
        baseline_rounds_ms,
        with_obs_rounds_ms,
        overhead_pct: (with_obs_wall_ms - baseline_wall_ms) / baseline_wall_ms * 100.0,
        ok: with_obs_wall_ms <= baseline_wall_ms * 1.05,
    }
}

fn query_mix(i: usize) -> (SemanticsSelector, Query) {
    match i % 6 {
        0 => (SemanticsSelector::all(), Query::PopularRegions),
        1 => (SemanticsSelector::all(), Query::TopFlows { limit: 10 }),
        2 => (
            SemanticsSelector::all(),
            Query::DwellHistogram {
                bucket: Duration::from_mins(5),
            },
        ),
        3 => (SemanticsSelector::all(), Query::DeviceSummaries),
        4 => (
            SemanticsSelector::all().with_device_pattern("b0.*"),
            Query::PopularRegions,
        ),
        _ => (
            SemanticsSelector::all().between(
                Timestamp::from_dhms(0, 10, 0, 0),
                Timestamp::from_dhms(0, 16, 0, 0),
            ),
            Query::Semantics,
        ),
    }
}

/// Picks which of a session's devices sends its next batch. `r53` is a
/// 53-bit uniform draw; only devices with batches left are candidates.
/// Every live device is equally likely.
fn draw_device(pending: &[VecDeque<&[RawRecord]>], r53: u64) -> usize {
    let live: Vec<usize> = (0..pending.len())
        .filter(|&i| !pending[i].is_empty())
        .collect();
    assert!(!live.is_empty(), "draw_device called with nothing left");
    // Multiply-shift, not modulo: unbiased over the live set.
    live[((u128::from(r53) * live.len() as u128) >> 53) as usize]
}

/// The legacy ingest layout: one closed-loop connection per building,
/// device-major batches, each connection flushing its own session.
fn ingest_legacy_layout(
    traffic: &[Vec<(DeviceId, Vec<RawRecord>)>],
    opts: &Options,
    hard_errors: &AtomicUsize,
    ingest_lat: &mut LatencyRecorder,
) {
    std::thread::scope(|s| {
        let handles: Vec<_> = traffic
            .iter()
            .map(|building| {
                let addr = opts.addr.as_str();
                let protocol = opts.protocol;
                s.spawn(move || {
                    let mut recorder = LatencyRecorder::new();
                    let mut client = connect(addr, protocol).expect("connect for ingest");
                    for (_, device_records) in building {
                        for batch in device_records.chunks(50) {
                            let t0 = Instant::now();
                            match client.ingest(batch.to_vec()) {
                                Ok(Response::Ingested { .. }) => {}
                                Ok(other) => {
                                    eprintln!("ingest error: {other:?}");
                                    hard_errors.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    eprintln!("ingest transport error: {e}");
                                    hard_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            recorder.record(t0.elapsed());
                        }
                    }
                    // A flush-all is scoped to the requesting session, so
                    // each ingest connection publishes its own devices
                    // before disconnecting (an admin connection could not
                    // flush them on our behalf).
                    match client.flush(None) {
                        Ok(Response::Flushed { .. }) => {}
                        other => {
                            eprintln!("session flush failed: {other:?}");
                            hard_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    recorder
                })
            })
            .collect();
        for h in handles {
            ingest_lat.merge(h.join().expect("ingest thread"));
        }
    });
}

fn main() {
    let opts = parse_args();
    let hard_errors = AtomicUsize::new(0);

    eprintln!(
        "server_load: generating {} campus traffic ({} buildings, {} devices/building)...",
        if opts.quick { "quick" } else { "full" },
        opts.buildings,
        opts.devices
    );
    let campus = trips_sim::scenario::generate_campus(
        opts.buildings,
        opts.floors,
        opts.shops,
        &ScenarioConfig {
            devices: opts.devices,
            days: 1,
            seed: opts.seed,
            ..ScenarioConfig::default()
        },
    );
    let traffic: Vec<Vec<(DeviceId, Vec<RawRecord>)>> = campus
        .buildings
        .iter()
        .map(|b| {
            b.dataset
                .traces
                .iter()
                .map(|t| (t.device.clone(), t.raw.records().to_vec()))
                .collect()
        })
        .collect();
    let records: usize = traffic
        .iter()
        .flat_map(|b| b.iter().map(|(_, r)| r.len()))
        .sum();

    // Phase 0 — standing rules: registered before ingest so every paced
    // phase below measures a server that is evaluating them. The
    // subscriber connection stays open (rules are session-scoped) and is
    // drained after the phases.
    let mut subscriber = if opts.rules > 0 {
        eprintln!(
            "server_load: subscribing {} standing rules before ingest...",
            opts.rules
        );
        let mut client = connect(opts.addr.as_str(), opts.protocol).expect("connect for rules");
        for i in 0..opts.rules {
            let tql = rule_tql(i);
            match client.subscribe(&tql) {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => {
                    eprintln!("subscribe rejected ({tql}): {e}");
                    hard_errors.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    eprintln!("subscribe transport error: {e}");
                    hard_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Some(client)
    } else {
        None
    };

    // Phase 1 — ingest. Two layouts:
    //  * legacy (`--ingest-sessions 0`): one closed-loop connection per
    //    building, device-major batches;
    //  * multi-session (`--ingest-sessions N`): campus devices assigned
    //    sticky round-robin to N sessions, each interleaving its devices'
    //    batches in a seeded uniform order — the workload the sharded
    //    translator lock is measured on.
    let ingest_connections = if opts.ingest_sessions > 0 {
        opts.ingest_sessions
    } else {
        traffic.len()
    };
    eprintln!("server_load: ingesting {records} records over {ingest_connections} connections...");
    let ingest_wall = Instant::now();
    let mut ingest_lat = LatencyRecorder::new();
    if opts.ingest_sessions > 0 {
        // Device k (campus-wide) belongs to session k % N for the whole
        // run — a device's records always flow through one connection, in
        // order, so translation semantics are unchanged by the layout.
        let mut per_session: Vec<Vec<&(DeviceId, Vec<RawRecord>)>> =
            (0..opts.ingest_sessions).map(|_| Vec::new()).collect();
        for (k, dev) in traffic.iter().flatten().enumerate() {
            per_session[k % opts.ingest_sessions].push(dev);
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = per_session
                .iter()
                .enumerate()
                .map(|(sid, devices)| {
                    let hard_errors = &hard_errors;
                    let addr = opts.addr.as_str();
                    let protocol = opts.protocol;
                    s.spawn(move || {
                        let mut recorder = LatencyRecorder::new();
                        let mut client = connect(addr, protocol).expect("connect for ingest");
                        // Per-device batch queues; each draw sends one
                        // device's next batch (order within a device is
                        // preserved, interleaving across devices is the
                        // point).
                        let mut pending: Vec<VecDeque<&[RawRecord]>> = devices
                            .iter()
                            .map(|(_, recs)| recs.chunks(50).collect())
                            .collect();
                        let mut remaining: usize = pending.iter().map(|q| q.len()).sum();
                        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15
                            ^ (sid as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                        while remaining > 0 {
                            lcg = lcg
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let idx = draw_device(&pending, lcg >> 11);
                            let batch = pending[idx].pop_front().expect("drawn queue non-empty");
                            remaining -= 1;
                            let t0 = Instant::now();
                            match client.ingest(batch.to_vec()) {
                                Ok(Response::Ingested { .. }) => {}
                                Ok(other) => {
                                    eprintln!("ingest error: {other:?}");
                                    hard_errors.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    eprintln!("ingest transport error: {e}");
                                    hard_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            recorder.record(t0.elapsed());
                        }
                        match client.flush(None) {
                            Ok(Response::Flushed { .. }) => {}
                            other => {
                                eprintln!("session flush failed: {other:?}");
                                hard_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        recorder
                    })
                })
                .collect();
            for h in handles {
                ingest_lat.merge(h.join().expect("ingest session thread"));
            }
        });
    } else {
        ingest_legacy_layout(&traffic, &opts, &hard_errors, &mut ingest_lat);
    }
    let ingest_wall = ingest_wall.elapsed();

    // Everything is queryable: each ingest session flushed itself above,
    // and any remainder published when its connection tore down. Verify
    // quiescence rather than flushing globally.
    let drain_wall = Instant::now();
    {
        let mut client = connect(opts.addr.as_str(), opts.protocol).expect("connect for health");
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match client.health() {
                Ok(Response::Health(h)) if h.open_devices == 0 => break,
                Ok(Response::Health(_)) if Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                other => {
                    eprintln!("ingest did not quiesce: {other:?}");
                    hard_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
    let drain_wall = drain_wall.elapsed();

    // Phase 2 — analyst query mix, closed loop per connection.
    eprintln!(
        "server_load: querying with {} connections x {} iterations...",
        opts.query_conns, opts.query_iters
    );
    let query_wall = Instant::now();
    let mut query_lat = LatencyRecorder::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.query_conns)
            .map(|conn| {
                let hard_errors = &hard_errors;
                let addr = opts.addr.as_str();
                let iters = opts.query_iters;
                let protocol = opts.protocol;
                s.spawn(move || {
                    let mut recorder = LatencyRecorder::new();
                    let mut client = connect(addr, protocol).expect("connect for queries");
                    for i in 0..iters {
                        let (selector, query) = query_mix(conn + i);
                        let t0 = Instant::now();
                        match client.query_parts(selector, query) {
                            Ok(Ok(_)) => {}
                            Ok(Err(e)) => {
                                // Any protocol error — including Overloaded —
                                // is a failure in the paced phase.
                                eprintln!("query error: {e}");
                                hard_errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("query transport error: {e}");
                                hard_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        recorder.record(t0.elapsed());
                    }
                    recorder
                })
            })
            .collect();
        for h in handles {
            query_lat.merge(h.join().expect("query thread"));
        }
    });
    let query_wall = query_wall.elapsed();

    // Phase 2b — pipelined query mix (`--pipeline N`): the same analyst
    // mix, but each connection sends batches of N requests in one write
    // and reads the N responses back in order. Each recorded latency is
    // the whole-batch round trip — N replies leaving the server in (at
    // best) one writev instead of N writes is exactly what this phase
    // measures.
    let mut pipeline_wall_ms = None;
    let pipeline = if opts.pipeline > 0 {
        eprintln!(
            "server_load: pipelined queries, {} connections x {} iterations, depth {}...",
            opts.query_conns, opts.query_iters, opts.pipeline
        );
        let pipe_wall = Instant::now();
        let mut pipe_lat = LatencyRecorder::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..opts.query_conns)
                .map(|conn| {
                    let hard_errors = &hard_errors;
                    let addr = opts.addr.as_str();
                    let (iters, depth, protocol) = (opts.query_iters, opts.pipeline, opts.protocol);
                    s.spawn(move || {
                        let mut recorder = LatencyRecorder::new();
                        let mut client =
                            connect(addr, protocol).expect("connect for pipelined queries");
                        let mut sent = 0usize;
                        while sent < iters {
                            let batch = depth.min(iters - sent);
                            let reqs: Vec<Request> = (0..batch)
                                .map(|i| {
                                    let (selector, query) = query_mix(conn + sent + i);
                                    Request::Query {
                                        request: QueryRequest::new(selector, query),
                                    }
                                })
                                .collect();
                            sent += batch;
                            let t0 = Instant::now();
                            match client.call_pipelined(reqs) {
                                Ok(resps) => {
                                    recorder.record(t0.elapsed());
                                    for resp in resps {
                                        match resp {
                                            Response::Query { .. } => {}
                                            other => {
                                                eprintln!("pipelined query error: {other:?}");
                                                hard_errors.fetch_add(1, Ordering::Relaxed);
                                            }
                                        }
                                    }
                                }
                                Err(e) => {
                                    eprintln!("pipelined transport error: {e}");
                                    hard_errors.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        recorder
                    })
                })
                .collect();
            for h in handles {
                pipe_lat.merge(h.join().expect("pipelined query thread"));
            }
        });
        let pipe_wall = pipe_wall.elapsed();
        pipeline_wall_ms = Some(pipe_wall.as_secs_f64() * 1e3);
        Some(PipelineReport {
            depth: opts.pipeline,
            batch_rtt: phase_report(&pipe_lat, pipe_wall),
        })
    } else {
        None
    };

    // Phase 3 — overload burst: hammer the queue, expect shedding to be
    // typed Overloaded responses and nothing worse.
    let mut overload_wall_ms = None;
    let overload = if opts.overload {
        eprintln!(
            "server_load: overload burst with {} connections x {} iterations...",
            opts.overload_conns, opts.overload_iters
        );
        let burst_wall = Instant::now();
        let ok = AtomicUsize::new(0);
        let shed = AtomicUsize::new(0);
        let burst_hard = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for conn in 0..opts.overload_conns {
                let (ok, shed, burst_hard) = (&ok, &shed, &burst_hard);
                let addr = opts.addr.as_str();
                let iters = opts.overload_iters;
                let protocol = opts.protocol;
                s.spawn(move || {
                    let mut client = connect(addr, protocol).expect("connect for burst");
                    for i in 0..iters {
                        let (selector, query) = query_mix(conn + i);
                        match client.query_parts(selector, query) {
                            Ok(Ok(_)) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Err(ServerError::Overloaded { .. })) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Err(e)) => {
                                eprintln!("burst hard error: {e}");
                                burst_hard.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("burst transport error: {e}");
                                burst_hard.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        overload_wall_ms = Some(burst_wall.elapsed().as_secs_f64() * 1e3);
        let report = OverloadReport {
            requests: opts.overload_conns * opts.overload_iters,
            ok: ok.load(Ordering::Relaxed),
            shed: shed.load(Ordering::Relaxed),
            hard_errors: burst_hard.load(Ordering::Relaxed),
        };
        hard_errors.fetch_add(report.hard_errors, Ordering::Relaxed);
        Some(report)
    } else {
        None
    };

    // Phase 4 — connection scaling: hold N concurrent mostly-idle
    // connections (the poll-loop's fd-per-connection model under test)
    // and round-robin pings across them while sampling the server's own
    // view of active connections and memory.
    let mut scale_wall_ms = None;
    let scale = if opts.scale_conns > 0 {
        eprintln!(
            "server_load: holding {} concurrent connections ({} ping rounds)...",
            opts.scale_conns, opts.scale_rounds
        );
        let threads = opts.scale_conns.min(16);
        let connected = std::sync::Barrier::new(threads + 1);
        let sampled = std::sync::Barrier::new(threads + 1);
        let mut ping_lat = LatencyRecorder::new();
        let mut observed = (0usize, None::<u64>);
        let hold_wall = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (connected, sampled, hard_errors) = (&connected, &sampled, &hard_errors);
                    let addr = opts.addr.as_str();
                    let (protocol, rounds) = (opts.protocol, opts.scale_rounds);
                    // Thread t holds connections t, t+threads, t+2*threads, …
                    let held = (t..opts.scale_conns).step_by(threads).count();
                    s.spawn(move || {
                        let mut clients = Vec::with_capacity(held);
                        for _ in 0..held {
                            match connect(addr, protocol) {
                                Ok(c) => clients.push(c),
                                Err(e) => {
                                    eprintln!("scale connect failed: {e}");
                                    hard_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        connected.wait(); // every connection is now held
                        sampled.wait(); // main thread sampled the server
                        let mut recorder = LatencyRecorder::new();
                        for _ in 0..rounds {
                            for client in &mut clients {
                                let t0 = Instant::now();
                                match client.ping() {
                                    Ok(Response::Pong) => recorder.record(t0.elapsed()),
                                    other => {
                                        eprintln!("scale ping failed: {other:?}");
                                        hard_errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        recorder
                    })
                })
                .collect();
            connected.wait();
            // Every connection is held: ask the server what it sees.
            match connect(opts.addr.as_str(), opts.protocol)
                .expect("connect for scale sample")
                .metrics()
            {
                Ok(Response::Metrics(m)) => observed = (m.active_connections, m.rss_kb),
                other => {
                    eprintln!("scale metrics failed: {other:?}");
                    hard_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            sampled.wait();
            for h in handles {
                ping_lat.merge(h.join().expect("scale thread"));
            }
        });
        let held = hold_wall.elapsed();
        scale_wall_ms = Some(held.as_secs_f64() * 1e3);
        let (active, rss_kb_held) = observed;
        if active < opts.scale_conns {
            eprintln!(
                "server_load: held {} connections but the server saw only {active} active",
                opts.scale_conns
            );
            hard_errors.fetch_add(1, Ordering::Relaxed);
        }
        Some(ScaleReport {
            connections: opts.scale_conns,
            active_connections_observed: active,
            rss_kb_held,
            ping: phase_report(&ping_lat, held),
        })
    } else {
        None
    };

    // Standing-rules wrap-up: drain the pushed alerts (the subscriber was
    // deliberately idle through the paced phases — exactly the slow
    // consumer the server's alert backpressure is sized for) and capture
    // the server's per-rule traces while the rules are still registered.
    let mut rules_summary: Option<(usize, u64)> = None;
    if let Some(client) = subscriber.as_mut() {
        let mut received = 0usize;
        loop {
            match client.recv_alert(std::time::Duration::from_millis(500)) {
                Ok(Some(_)) => received += 1,
                Ok(None) => break,
                Err(e) => {
                    eprintln!("alert drain failed: {e}");
                    hard_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        let fires_total = match client.list_rules() {
            Ok(Ok(traces)) => {
                if let Some(path) = &opts.rules_trace {
                    let json = serde_json::to_string_pretty(&traces).expect("traces serialize");
                    std::fs::write(path, json).expect("write rules trace");
                    eprintln!("server_load: per-rule traces written to {path}");
                }
                traces.iter().map(|t| t.fires).sum()
            }
            other => {
                eprintln!("list_rules failed: {other:?}");
                hard_errors.fetch_add(1, Ordering::Relaxed);
                0
            }
        };
        rules_summary = Some((received, fires_total));
    }
    drop(subscriber);

    // Server-side accounting: metrics prove the bounded-queue invariant
    // (and, with --expect-wal, the durability layer's health).
    let mut alert_counters = (0u64, 0u64);
    let mut loop_shard_spread = None;
    let mut admin = connect(opts.addr.as_str(), opts.protocol).expect("connect for metrics");
    if opts.expect_wal {
        // Exercise checkpoint+compact over the wire so the asserted
        // metrics reflect a server that has actually checkpointed.
        match admin.snapshot("checkpoint") {
            Ok(Response::SnapshotSaved { path, .. }) => {
                eprintln!("server_load: checkpointed ({path})");
            }
            other => {
                eprintln!("checkpoint failed: {other:?}");
                hard_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let server_side = match admin.metrics() {
        Ok(Response::Metrics(m)) => {
            if m.peak_queue_depth > m.queue_capacity {
                eprintln!(
                    "BOUNDED-QUEUE VIOLATION: peak depth {} > capacity {}",
                    m.peak_queue_depth, m.queue_capacity
                );
                hard_errors.fetch_add(1, Ordering::Relaxed);
            }
            if opts.expect_wal {
                match &m.wal {
                    None => {
                        eprintln!("server_load: --expect-wal set but Metrics has no wal block");
                        hard_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(w) => {
                        if w.segments < 1 {
                            eprintln!(
                                "server_load: wal reports {} segments (want ≥ 1)",
                                w.segments
                            );
                            hard_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        match w.last_checkpoint_age_ms {
                            Some(age) if age < 60_000 => {}
                            other => {
                                eprintln!(
                                    "server_load: checkpoint age {other:?} after an explicit \
                                     checkpoint (want Some(< 60000))"
                                );
                                hard_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            alert_counters = (m.alerts_delivered, m.alerts_dropped);
            // Placement skew across event-loop shards: max/min bytes_read
            // (min clamped to 1 byte so an idle shard reads as a large —
            // not infinite — spread). 1.0 = perfectly even.
            if !m.loop_shards.is_empty() {
                let max = m
                    .loop_shards
                    .iter()
                    .map(|s| s.bytes_read)
                    .max()
                    .unwrap_or(0);
                let min = m
                    .loop_shards
                    .iter()
                    .map(|s| s.bytes_read)
                    .min()
                    .unwrap_or(0);
                loop_shard_spread = Some(max.max(1) as f64 / min.max(1) as f64);
            }
            ServerSide {
                requests: m.requests,
                shed: m.shed,
                bad_requests: m.bad_requests,
                queue_capacity: m.queue_capacity,
                peak_queue_depth: m.peak_queue_depth,
                rss_kb: m.rss_kb,
                wal_segments: m.wal.as_ref().map(|w| w.segments),
                wal_bytes: m.wal.as_ref().map(|w| w.bytes),
                wal_records_since_checkpoint: m.wal.as_ref().map(|w| w.records_since_checkpoint),
                wal_last_checkpoint_age_ms: m.wal.as_ref().and_then(|w| w.last_checkpoint_age_ms),
            }
        }
        other => {
            eprintln!("metrics failed: {other:?}");
            hard_errors.fetch_add(1, Ordering::Relaxed);
            ServerSide {
                requests: 0,
                shed: 0,
                bad_requests: 0,
                queue_capacity: 0,
                peak_queue_depth: 0,
                rss_kb: None,
                wal_segments: None,
                wal_bytes: None,
                wal_records_since_checkpoint: None,
                wal_last_checkpoint_age_ms: None,
            }
        }
    };
    if opts.shutdown {
        let _ = admin.shutdown();
    }

    let hard = hard_errors.load(Ordering::Relaxed);
    let ingest_phase = phase_report(&ingest_lat, ingest_wall);
    // The overhead A/B runs in-process after the wire phases (it needs no
    // server, and running it earlier would contend with them for cores).
    let overhead = (opts.rules_overhead > 0)
        .then(|| rules_overhead_gate(opts.rules_overhead, &traffic, &opts));
    let obs_overhead = opts
        .obs_overhead
        .then(|| obs_overhead_gate(&traffic, &opts));
    let rules_report = if rules_summary.is_some() || overhead.is_some() {
        let (alerts_received, fires_total) = rules_summary.unwrap_or((0, 0));
        Some(RulesReport {
            registered: opts.rules,
            alerts_received,
            server_alerts_delivered: alert_counters.0,
            server_alerts_dropped: alert_counters.1,
            fires_total,
            overhead,
        })
    } else {
        None
    };
    let report = BenchReport {
        bench: "server_load".to_string(),
        quick: opts.quick,
        addr: opts.addr.clone(),
        protocol: opts.protocol,
        ingest_connections,
        ingest_sessions: opts.ingest_sessions,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        records,
        ingest: ingest_phase,
        query_connections: opts.query_conns,
        query: phase_report(&query_lat, query_wall),
        pipeline,
        loop_shard_spread,
        overload,
        scale,
        rules: rules_report,
        obs_overhead,
        phase_wall_ms: Some(PhaseWalls {
            ingest_ms: ingest_wall.as_secs_f64() * 1e3,
            drain_ms: drain_wall.as_secs_f64() * 1e3,
            query_ms: query_wall.as_secs_f64() * 1e3,
            pipeline_ms: pipeline_wall_ms,
            overload_ms: overload_wall_ms,
            scale_ms: scale_wall_ms,
        }),
        server: server_side,
        hard_errors: hard,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, &json).expect("write report");
    println!(
        "server_load: ingest {} batches ({} records) -> {:.0} req/s, p50 {:.0} us, p99 {:.0} us, max {:.0} us",
        report.ingest.requests,
        report.records,
        report.ingest.ops_per_sec,
        report.ingest.p50_us,
        report.ingest.p99_us,
        report.ingest.max_us,
    );
    println!(
        "server_load: query {} requests over {} conns -> {:.0} req/s, p50 {:.0} us, p99 {:.0} us, max {:.0} us",
        report.query.requests,
        report.query_connections,
        report.query.ops_per_sec,
        report.query.p50_us,
        report.query.p99_us,
        report.query.max_us,
    );
    if let Some(p) = &report.pipeline {
        println!(
            "server_load: pipelined depth {} -> {} batches, batch RTT p50 {:.0} us, p99 {:.0} us, max {:.0} us",
            p.depth, p.batch_rtt.requests, p.batch_rtt.p50_us, p.batch_rtt.p99_us, p.batch_rtt.max_us,
        );
    }
    if let Some(spread) = report.loop_shard_spread {
        println!("server_load: loop-shard bytes spread (max/min) {spread:.2}x");
    }
    if let Some(o) = &report.overload {
        println!(
            "server_load: overload burst {} requests -> {} ok, {} shed, {} hard errors",
            o.requests, o.ok, o.shed, o.hard_errors
        );
    }
    if let Some(sc) = &report.scale {
        println!(
            "server_load: held {} conns (server saw {}) -> ping p50 {:.0} us, p99 {:.0} us, rss {} KiB",
            sc.connections,
            sc.active_connections_observed,
            sc.ping.p50_us,
            sc.ping.p99_us,
            sc.rss_kb_held.map_or("n/a".to_string(), |k| k.to_string()),
        );
    }
    if let Some(r) = &report.rules {
        println!(
            "server_load: rules {} registered -> {} alerts received ({} delivered / {} dropped \
             server-side), {} fires total",
            r.registered,
            r.alerts_received,
            r.server_alerts_delivered,
            r.server_alerts_dropped,
            r.fires_total,
        );
        if let Some(o) = &r.overhead {
            println!(
                "server_load: rule overhead A/B ({} rules): ingest {:.0} ms -> {:.0} ms \
                 ({:+.1}%, {} alerts fired) ({})",
                o.rules,
                o.baseline_wall_ms,
                o.with_rules_wall_ms,
                o.overhead_pct,
                o.alerts_fired,
                if o.ok { "ok" } else { "FAIL" },
            );
        }
    }
    if let Some(o) = &report.obs_overhead {
        println!(
            "server_load: observability overhead A/B: ingest {:.0} ms -> {:.0} ms ({:+.1}%) ({})",
            o.baseline_wall_ms,
            o.with_obs_wall_ms,
            o.overhead_pct,
            if o.ok { "ok" } else { "FAIL" },
        );
    }
    if let Some(w) = &report.phase_wall_ms {
        println!(
            "server_load: phase walls: ingest {:.0} ms, drain {:.0} ms, query {:.0} ms{}{}",
            w.ingest_ms,
            w.drain_ms,
            w.query_ms,
            w.overload_ms
                .map_or(String::new(), |m| format!(", overload {m:.0} ms")),
            w.scale_ms
                .map_or(String::new(), |m| format!(", scale {m:.0} ms")),
        );
    }
    println!("report written to {}", opts.out);

    if hard > 0 {
        eprintln!("server_load: {hard} hard errors");
        std::process::exit(1);
    }
    if opts.expect_shedding {
        let shed = report.overload.as_ref().map_or(0, |o| o.shed);
        if shed == 0 {
            eprintln!("server_load: --expect-shedding set but no Overloaded responses observed");
            std::process::exit(1);
        }
    }
    if opts.expect_alerts > 0 {
        let got = report.rules.as_ref().map_or(0, |r| r.alerts_received);
        if got < opts.expect_alerts {
            eprintln!(
                "server_load: --expect-alerts {} but only {got} alerts arrived",
                opts.expect_alerts
            );
            std::process::exit(1);
        }
    }
    if let Some(o) = report.rules.as_ref().and_then(|r| r.overhead.as_ref()) {
        if !o.ok {
            eprintln!(
                "server_load: rule evaluation overhead {:+.1}% with {} rules exceeds the 10% gate",
                o.overhead_pct, o.rules
            );
            std::process::exit(1);
        }
    }
    if let Some(o) = report.obs_overhead.as_ref() {
        if !o.ok {
            eprintln!(
                "server_load: observability instrumentation overhead {:+.1}% exceeds the 5% gate",
                o.overhead_pct
            );
            std::process::exit(1);
        }
    }
    // `--baseline`: regression gate against a committed report. Runs
    // last, after this run's report is on disk for post-mortems.
    if let Some(path) = &opts.baseline {
        let baseline = load_report(path);
        let tol = opts.tolerance;
        let mut failed = false;
        let mut gate = |what: &str, ok: bool, got: f64, bound: f64| {
            let verdict = if ok { "ok" } else { "FAIL" };
            println!("server_load: baseline {what}: {got:.0} vs bound {bound:.0} ({verdict})");
            failed |= !ok;
        };
        let ops_floor = baseline.ingest.ops_per_sec / tol;
        gate(
            "ingest ops/sec >= floor",
            ingest_ops_ok(report.ingest.ops_per_sec, ops_floor),
            report.ingest.ops_per_sec,
            ops_floor,
        );
        let p99_ceil = baseline.ingest.p99_us * tol;
        gate(
            "ingest p99 <= ceiling",
            report.ingest.p99_us <= p99_ceil,
            report.ingest.p99_us,
            p99_ceil,
        );
        if let (Some(here), Some(base)) = (&report.scale, &baseline.scale) {
            let ping_ceil = base.ping.p99_us * tol;
            gate(
                "scale ping p99 <= ceiling",
                here.ping.p99_us <= ping_ceil,
                here.ping.p99_us,
                ping_ceil,
            );
        }
        if let (Some(here), Some(base)) = (&report.pipeline, &baseline.pipeline) {
            let batch_ceil = base.batch_rtt.p99_us * tol;
            gate(
                "pipelined batch p99 <= ceiling",
                here.batch_rtt.p99_us <= batch_ceil,
                here.batch_rtt.p99_us,
                batch_ceil,
            );
        }
        if failed {
            eprintln!("server_load: regression beyond tolerance {tol} against baseline {path}");
            std::process::exit(1);
        }
    }
}

/// Reads a prior `server_load` report (`--baseline`).
fn load_report(path: &str) -> BenchReport {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_and_exit(&format!("cannot read report {path}: {e}")));
    serde_json::from_str(&raw)
        .unwrap_or_else(|e| usage_and_exit(&format!("cannot parse report {path}: {e}")))
}

/// A throughput floor holds when this run met it (a zero baseline —
/// e.g. a hand-edited report — gates nothing).
fn ingest_ops_ok(got: f64, floor: f64) -> bool {
    floor <= 0.0 || got >= floor
}
