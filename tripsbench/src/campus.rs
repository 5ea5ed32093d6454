//! `campus-ingest`: the write-heavy serving path. A durable in-process
//! `TripsServer` on loopback (WAL in a scratch dir, default `EveryN(64)`
//! group commit) with standing rules subscribed on connection A; A and B
//! replay a noisy campus trace, devices split between them by
//! `device_hash`, each pipelining v2 ingest batches up to its final
//! `Flush`. Each round boots a fresh server, so set-up is timed every round.

use crate::common::{median, nproc, percentile, ratio, Json, WorkDir};
use crate::inputs::{self, Frame, Venue};
use crate::wire::{send_frames, Pace, WireConn};
use crate::{layers, Args, Outcome};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trips_core::stream::{StreamConfig, StreamingTranslator};
use trips_data::{DeviceId, RawRecord};
use trips_server::{MetricsReport, Request, Response, ServerConfig, ServerHandle, TripsServer};
use trips_store::{
    device_hash, DurabilityConfig, Query, QueryRequest, QueryResult, SemanticsSelector,
    SemanticsStore,
};

const BUILDINGS: usize = 4;
const DEVICES_PER_BUILDING: usize = 100;
const DAYS: usize = 3;
/// Error rates of the default Wi-Fi model scaled ×2: an assumed noisier
/// feed, not calibrated against any measured positioning error.
pub const NOISE: f64 = 2.0;
const BATCH: usize = 512;
/// Requests each connection keeps in flight.
const WINDOW: usize = 8;
/// Untimed rounds before the measured ones.
const WARMUP_ROUNDS: usize = 1;
/// Extra set-ups timed after every round (each boots a server on an empty
/// journal, subscribes the rules and shuts it down), so `setup_s` is the
/// median of many set-ups spread over the run.
const EXTRA_SETUPS_PER_ROUND: usize = 3;

/// The serving configuration both serving workloads use: workers and loop
/// shards sized to the cores, durable in `dir` with the default policy.
pub fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        loop_shards: nproc(),
        durability: Some(DurabilityConfig::new(dir)),
        ..ServerConfig::default()
    }
}

/// Server sizing as the live server reports it.
pub fn sizing_note(m: &MetricsReport) -> Json {
    Json::obj([
        ("workers", Json::Num(nproc() as f64)),
        ("loop_shards", Json::Num(m.loop_shards.len() as f64)),
        ("translator_shards", Json::Num(m.translator_shards as f64)),
        ("queue_capacity", Json::Num(m.queue_capacity as f64)),
        ("event_backend", Json::Str(m.event_backend.clone())),
        (
            "fsync",
            Json::Str(DurabilityConfig::new(".").fsync.to_string()),
        ),
    ])
}

/// Boots a server on loopback: DSM load, server construction (which
/// recovers `dir`), listener, first answered `Ping`. Returns the handle
/// and how long that took.
pub fn boot(venue: &Venue, dir: &Path) -> (ServerHandle, std::net::SocketAddr, f64) {
    let editor = venue.editor.clone();
    let start = Instant::now();
    let dsm = trips_dsm::json::from_json(&venue.dsm_json).expect("DSM loads");
    let server = TripsServer::new(dsm, editor, server_config(dir)).expect("server boots");
    let handle = server.spawn("127.0.0.1:0").expect("server listens");
    let addr = handle.addr();
    let mut probe = WireConn::connect(addr).expect("connect");
    let pong = probe.call(Request::Ping).expect("ping");
    assert_eq!(pong, Response::Pong, "server answers");
    (handle, addr, start.elapsed().as_secs_f64())
}

pub fn query(
    conn: &mut WireConn,
    selector: SemanticsSelector,
    query: Query,
) -> Option<QueryResult> {
    match conn.call(Request::Query {
        request: QueryRequest::new(selector, query),
    }) {
        Ok(Response::Query { result }) => Some(result),
        _ => None,
    }
}

/// Region-time accuracy of the served semantics, read back over the wire
/// one device at a time.
pub fn served_accuracy(conn: &mut WireConn, venue: &Venue) -> (f64, u64) {
    let mut reports = Vec::new();
    let mut failed = 0;
    for (device, visits) in &venue.truth {
        let selector = SemanticsSelector::all().with_device_pattern(device.as_str());
        match query(conn, selector, Query::Semantics) {
            Some(QueryResult::Semantics(sems)) => {
                reports.push(trips_core::assess::assess(&sems, visits))
            }
            _ => failed += 1,
        }
    }
    (
        trips_core::assess::aggregate(&reports).region_time_accuracy,
        failed,
    )
}

/// What the served store must answer after a round: the same records
/// through an in-process `StreamingTranslator` + store.
struct Reference {
    stats: QueryResult,
    popular: QueryResult,
}

fn reference(venue: &Venue, feeds: &[Vec<RawRecord>]) -> Reference {
    let dsm = trips_dsm::json::from_json(&venue.dsm_json).expect("DSM loads");
    let store = Arc::new(SemanticsStore::new());
    let mut stream =
        StreamingTranslator::from_editor(&dsm, &venue.editor, None, StreamConfig::default())
            .expect("editor trains")
            .with_store(store.clone());
    for feed in feeds {
        for r in feed {
            stream.push(r.clone());
        }
    }
    stream.finish();
    Reference {
        stats: store.query(&QueryRequest::new(SemanticsSelector::all(), Query::Stats)),
        popular: store.query(&QueryRequest::new(
            SemanticsSelector::all(),
            Query::PopularRegions,
        )),
    }
}

/// One connection's share of the feed: devices with `device_hash` ≡ `k`.
fn split(feed: &[RawRecord], k: u64) -> Vec<RawRecord> {
    feed.iter()
        .filter(|r| device_hash(&r.device) % 2 == k)
        .cloned()
        .collect()
}

struct Round {
    setup_s: f64,
    records_per_s: f64,
    latencies_us: Vec<f64>,
    errors: u64,
    batches: u64,
    alerts: u64,
    checks: Vec<(&'static str, bool)>,
    accuracy: Option<(f64, u64)>,
    metrics: Option<MetricsReport>,
    server: Option<Json>,
    /// Resident memory with the server still up, after the checks.
    rss_mb: f64,
}

struct Served {
    handle: ServerHandle,
    a: WireConn,
    b: WireConn,
    subscribed: bool,
    setup_s: f64,
}

/// Set-up: boot, then subscribe the standing rules on connection A (in one
/// pipelined write, as a client registering a rule set does) and connect B.
fn set_up(venue: &Venue, rules: &[String], dir: &Path) -> Served {
    let (handle, addr, boot_s) = boot(venue, dir);
    let start = Instant::now();
    let mut a = WireConn::connect(addr).expect("connect A");
    let subscribes = rules
        .iter()
        .map(|tql| Request::Subscribe { tql: tql.clone() })
        .collect();
    let subscribed = a.call_batch(subscribes).is_ok_and(|answers| {
        answers
            .iter()
            .all(|(resp, _)| matches!(resp, Response::Subscribed { .. }))
    });
    let b = WireConn::connect(addr).expect("connect B");
    Served {
        handle,
        a,
        b,
        subscribed,
        setup_s: boot_s + start.elapsed().as_secs_f64(),
    }
}

fn round(
    venue: &Venue,
    rules: &[String],
    frames: &[Vec<Frame>; 2],
    reference: &Reference,
    dir: &Path,
    with_accuracy: bool,
    with_server_stats: bool,
) -> Round {
    let Served {
        handle,
        mut a,
        mut b,
        subscribed,
        setup_s,
    } = set_up(venue, rules, dir);

    let begin = Instant::now();
    let (sa, sb) = std::thread::scope(|s| {
        let ta = s.spawn(|| send_frames(&mut a, &frames[0], Pace::Window(WINDOW)));
        let tb = s.spawn(|| send_frames(&mut b, &frames[1], Pace::Window(WINDOW)));
        (ta.join().expect("sender A"), tb.join().expect("sender B"))
    });
    let (sa, sb) = (sa.expect("connection A"), sb.expect("connection B"));
    let end = sa.last_ack.max(sb.last_ack).expect("acks arrived");
    let records = sa.records + sb.records;
    let records_per_s = records as f64 / end.duration_since(begin).as_secs_f64();
    let mut latencies_us = sa.latencies_us;
    latencies_us.extend(sb.latencies_us);

    let stats = query(&mut a, SemanticsSelector::all(), Query::Stats);
    let popular = query(&mut a, SemanticsSelector::all(), Query::PopularRegions);
    let accuracy = with_accuracy.then(|| served_accuracy(&mut b, venue));
    let server = with_server_stats.then(|| server_stats(&mut b, "Ingest"));
    let metrics = match b.call(Request::Metrics) {
        Ok(Response::Metrics(m)) => Some(m),
        _ => None,
    };
    let expected: u64 = frames.iter().flatten().map(|f| f.records as u64).sum();
    let checks = vec![
        ("rules_subscribed", subscribed),
        ("all_records_acked", records == expected),
        (
            "served_stats_equal_in_process",
            stats.as_ref() == Some(&reference.stats),
        ),
        (
            "served_popular_regions_equal_in_process",
            popular.as_ref() == Some(&reference.popular),
        ),
        ("rules_delivered_alerts", a.alerts > 0),
    ];
    let alerts = a.alerts;
    let rss_mb = crate::common::rss_mb("VmRSS");
    drop((a, b));
    handle.shutdown().expect("server drains");
    Round {
        setup_s,
        records_per_s,
        batches: latencies_us.len() as u64 + sa.errors + sb.errors,
        latencies_us,
        errors: sa.errors + sb.errors,
        alerts,
        checks,
        accuracy,
        metrics,
        server,
        rss_mb,
    }
}

/// Per-stage medians of the live server's spans of one request kind, plus
/// its queue high-water mark and shed count.
pub fn server_stats(conn: &mut WireConn, kind: &str) -> Json {
    let mut fields = Vec::new();
    if let Ok(Response::Traces { spans }) = conn.call(Request::TraceDump { limit: None }) {
        let spans: Vec<_> = spans.into_iter().filter(|s| s.kind == kind).collect();
        fields.push(("spans".to_string(), Json::Num(spans.len() as f64)));
        for stage in [
            "loop_ready",
            "queue_wait",
            "decode",
            "translator_lock",
            "store_publish",
            "rule_eval",
            "reply_write",
        ] {
            let us: Vec<f64> = spans
                .iter()
                .filter_map(|s| s.stage_us(stage))
                .map(|v| v as f64)
                .collect();
            fields.push((format!("server.{stage}_us"), Json::Num(median(&us))));
        }
    }
    if let Ok(Response::Metrics(m)) = conn.call(Request::Metrics) {
        fields.push((
            "server.queue_peak".into(),
            Json::Num(m.peak_queue_depth as f64),
        ));
        fields.push(("server.shed".into(), Json::Num(m.shed as f64)));
        fields.push((
            "server.store_lock_contention".into(),
            Json::Num(m.store_lock_contention as f64),
        ));
    }
    Json::Obj(fields)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let generated = Instant::now();
    let venue = inputs::campus(args.seed, BUILDINGS, DEVICES_PER_BUILDING, DAYS, NOISE, "");
    let feed = venue.feed();
    let feeds = [split(&feed, 0), split(&feed, 1)];
    let frames = [
        inputs::ingest_frames(&feeds[0], BATCH, true),
        inputs::ingest_frames(&feeds[1], BATCH, true),
    ];
    let devices: Vec<DeviceId> = venue.sequences.iter().map(|s| s.device().clone()).collect();
    let rules = inputs::rule_mix(&inputs::device_pattern(BUILDINGS, 0));
    let reference = reference(&venue, &feeds);
    let generate_s = generated.elapsed().as_secs_f64();
    let work = WorkDir::new("campus-ingest").expect("scratch dir");
    out.note(
        "inputs",
        Json::obj([
            ("devices", Json::Num(devices.len() as f64)),
            ("days", Json::Num(DAYS as f64)),
            ("buildings", Json::Num(BUILDINGS as f64)),
            ("floors", Json::Num(f64::from(inputs::FLOORS))),
            ("records", Json::Num(feed.len() as f64)),
            ("noise_scale", Json::Num(NOISE)),
            ("rules", Json::Num(rules.len() as f64)),
            ("batch", Json::Num(BATCH as f64)),
            ("window", Json::Num(WINDOW as f64)),
            ("connections", Json::Num(2.0)),
            ("generate_s", Json::Num(generate_s)),
        ]),
    );
    if args.trace {
        // One served round for the live server's own spans and counters,
        // then the in-process layer sweep over the same trace.
        let dir = work.fresh("round").expect("scratch dir");
        let r = round(&venue, &rules, &frames, &reference, &dir, false, true);
        for (name, ok) in &r.checks {
            out.check(name, *ok);
        }
        out.note("server", r.server.unwrap_or(Json::Obj(Vec::new())));
        if let Some(m) = &r.metrics {
            out.note("sizing", sizing_note(m));
        }
        let dsm = trips_dsm::json::from_json(&venue.dsm_json).expect("DSM loads");
        let pattern = inputs::device_pattern(BUILDINGS, 1);
        let sweep = layers::sweep(&dsm, &venue.editor, &venue, &rules, &[], &pattern, &work);
        crate::finish_trace(args, &mut out, sweep);
        return out;
    }

    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut latencies_us = Vec::new();
    let mut round_p50_us = Vec::new();
    let mut rss = Vec::new();
    let mut alerts = 0;
    let mut accuracy = None;
    let mut rounds = 0usize;
    let mut phase = Instant::now();
    while rounds < WARMUP_ROUNDS || phase.elapsed() < Duration::from_secs_f64(args.seconds) {
        let dir = work.fresh(&format!("round-{rounds}")).expect("scratch dir");
        let r = round(
            &venue,
            &rules,
            &frames,
            &reference,
            &dir,
            accuracy.is_none(),
            false,
        );
        let _ = std::fs::remove_dir_all(&dir);
        setup_s.push(r.setup_s);
        for _ in 0..EXTRA_SETUPS_PER_ROUND {
            let dir = work.fresh("setup").expect("scratch dir");
            let served = set_up(&venue, &rules, &dir);
            out.check("rules_subscribed", served.subscribed);
            setup_s.push(served.setup_s);
            drop((served.a, served.b));
            served.handle.shutdown().expect("server drains");
            let _ = std::fs::remove_dir_all(&dir);
        }
        out.ops("ingest_batches", r.batches, r.errors);
        for (name, ok) in &r.checks {
            out.check(name, *ok);
        }
        if let Some((acc, failed)) = r.accuracy {
            out.ops("accuracy_reads", venue.truth.len() as u64, failed);
            accuracy = Some(acc);
        }
        if rounds == 0 {
            out.check("metrics_answered", r.metrics.is_some());
            if let Some(m) = &r.metrics {
                out.note("sizing", sizing_note(m));
            }
        }
        alerts += r.alerts;
        rounds += 1;
        if rounds <= WARMUP_ROUNDS {
            phase = Instant::now();
        } else {
            rates.push(r.records_per_s);
            rss.push(r.rss_mb);
            round_p50_us.push(median(&r.latencies_us));
            latencies_us.extend(r.latencies_us);
        }
    }

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("records_per_s", median(&rates), "1/s");
    out.metric(
        "region_time_accuracy",
        accuracy.unwrap_or(f64::NAN),
        "share",
    );
    out.metric("rss_mb", median(&rss), "MB");
    out.note(
        "samples",
        Json::obj([
            ("rounds", Json::Num(rounds as f64)),
            ("setups", Json::Num(setup_s.len() as f64)),
            ("acked_batches", Json::Num(latencies_us.len() as f64)),
            ("request_p50_us", Json::Num(median(&round_p50_us))),
            ("request_p99_us", Json::Num(percentile(&latencies_us, 99.0))),
            ("alerts", Json::Num(alerts as f64)),
            (
                "alerts_per_round",
                Json::Num(ratio(alerts as f64, rounds as f64)),
            ),
        ]),
    );
    out
}
