//! `analyst-query`: the read-heavy serving path with writes beside the
//! reads. Set-up writes a journal by translating a campus trace into a
//! durable store; every round boots a server by recovering a copy of that
//! journal (so set-up is the restart cost). Connection A then runs
//! closed-loop analyst dashboard refreshes while connection B sends an
//! open-loop ingest trickle on a timetable.

use crate::campus::{boot, served_accuracy, server_stats, sizing_note, NOISE};
use crate::common::{copy_dir, median, micros, percentile, Json, WorkDir};
use crate::inputs::{self, Frame, Venue};
use crate::wire::{send_frames, Pace, Sent, WireConn};
use crate::{layers, Args, Outcome};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trips_core::stream::{StreamConfig, StreamingTranslator};
use trips_data::{DeviceId, Duration as Span};
use trips_server::{Request, Response};
use trips_store::{
    DurabilityConfig, Query, QueryRequest, QueryResult, SemanticsSelector, SemanticsStore,
};

const BUILDINGS: usize = 4;
const DEVICES_PER_BUILDING: usize = 100;
const DAYS: usize = 3;
/// Trickle: records per batch and batches per second (well below the
/// ingest knee of `campus-ingest`).
const TRICKLE_BATCH: usize = 40;
const TRICKLE_PER_S: u32 = 50;
/// Timed phase of one round.
const ROUND: Duration = Duration::from_secs(2);
const WARMUP_ROUNDS: usize = 1;
/// Extra recoveries timed after every round, so `setup_s` is the median
/// of many boots spread over the run.
const EXTRA_BOOTS_PER_ROUND: usize = 2;
/// Device patterns and time windows the scan queries rotate through.
const VARIANTS: usize = 12;
/// Scan panels per refresh, one per building; each is three scans.
const PANELS: usize = 4;

/// One dashboard refresh: three aggregate queries answered from the
/// incremental aggregates, then per building a panel of three scans
/// answered by a filtered rescan (a device pattern, a time window, and a
/// TQL `FIND` compiled client-side).
struct Dashboard {
    patterns: Vec<String>,
    finds: Vec<String>,
}

impl Dashboard {
    fn agg() -> [Query; 3] {
        [
            Query::PopularRegions,
            Query::TopFlows { limit: 10 },
            Query::DwellHistogram {
                bucket: Span::from_mins(5),
            },
        ]
    }

    /// The scan requests of refresh `k`, with the TQL compile done here
    /// (timed as part of the request, as a client pays it).
    fn scans(&self, k: usize) -> Vec<QueryRequest> {
        let mut out = Vec::with_capacity(3 * PANELS);
        for panel in 0..PANELS {
            let v = (k * PANELS + panel) % VARIANTS;
            let (from, to) = inputs::window(v);
            let find = match trips_query_lang::compile(&self.finds[v]) {
                Ok(trips_query_lang::Compiled::Query(q)) => q,
                other => panic!("{:?} must compile to a query: {other:?}", self.finds[v]),
            };
            out.push(QueryRequest::new(
                SemanticsSelector::all().with_device_pattern(&self.patterns[v]),
                Query::Semantics,
            ));
            out.push(QueryRequest::new(
                SemanticsSelector::all().between(from, to),
                Query::DeviceSummaries,
            ));
            out.push(find);
        }
        out
    }

    /// The answers the recovered store must give right after boot.
    fn checks(&self) -> Vec<QueryRequest> {
        let mut out: Vec<QueryRequest> = Self::agg()
            .into_iter()
            .map(|q| QueryRequest::new(SemanticsSelector::all(), q))
            .collect();
        out.push(QueryRequest::new(SemanticsSelector::all(), Query::Stats));
        out.extend(self.scans(0));
        out
    }
}

#[derive(Default)]
struct Refreshes {
    /// Whole-refresh latency (µs).
    refresh_us: Vec<f64>,
    /// Rows the answers carried (semantics records, device summaries,
    /// region, flow and histogram rows).
    rows: u64,
    agg_us: Vec<f64>,
    scan_us: Vec<f64>,
    queries: u64,
    failed: u64,
}

/// Closed loop on connection A until `stop`: each refresh pipelines its
/// queries in one write, as a dashboard does, and waits for all of them.
/// A query's own latency is the gap between its answer and the previous
/// one (the server answers a connection's requests in order).
fn refresh_loop(conn: &mut WireConn, dash: &Dashboard, stop: &AtomicBool, out: &mut Refreshes) {
    let mut k = 0usize;
    while !stop.load(Ordering::Acquire) {
        let start = Instant::now();
        let mut reqs: Vec<Request> = Dashboard::agg()
            .into_iter()
            .map(|q| Request::Query {
                request: QueryRequest::new(SemanticsSelector::all(), q),
            })
            .collect();
        reqs.extend(
            dash.scans(k)
                .into_iter()
                .map(|request| Request::Query { request }),
        );
        match conn.call_batch(reqs) {
            Ok(answers) => {
                let mut prev = start;
                for (i, (resp, at)) in answers.into_iter().enumerate() {
                    let class = if i < 3 {
                        &mut out.agg_us
                    } else {
                        &mut out.scan_us
                    };
                    class.push(micros(at.duration_since(prev)));
                    prev = at;
                    match resp {
                        Response::Query { result } => out.rows += rows(&result),
                        _ => out.failed += 1,
                    }
                }
            }
            Err(_) => out.failed += (3 + 3 * PANELS) as u64,
        }
        out.refresh_us.push(micros(start.elapsed()));
        out.queries += (3 + 3 * PANELS) as u64;
        k += 1;
    }
}

fn rows(result: &QueryResult) -> u64 {
    (match result {
        QueryResult::PopularRegions(v) => v.len(),
        QueryResult::Flows(v) => v.len(),
        QueryResult::DwellHistogram(v) => v.len(),
        QueryResult::DeviceSummaries(v) => v.len(),
        QueryResult::Semantics(v) => v.len(),
        QueryResult::Stats(_) => 1,
    }) as u64
}

/// Writes the journal: the trace through the served translation path into
/// a durable store. Returns the answers its store gives to `checks`.
fn write_journal(venue: &Venue, dir: &Path, checks: &[QueryRequest]) -> Vec<QueryResult> {
    let dsm = trips_dsm::json::from_json(&venue.dsm_json).expect("DSM loads");
    let (store, _) =
        SemanticsStore::recover(&DurabilityConfig::new(dir), 0).expect("journal opens");
    let store = Arc::new(store);
    let mut stream =
        StreamingTranslator::from_editor(&dsm, &venue.editor, None, StreamConfig::default())
            .expect("editor trains")
            .with_store(store.clone());
    for r in venue.feed() {
        stream.push(r);
    }
    stream.finish();
    store.sync_wal().expect("journal syncs");
    checks.iter().map(|q| store.query(q)).collect()
}

struct Round {
    setup_s: f64,
    refreshes: Refreshes,
    trickle: Sent,
    trickle_frames: u64,
    check_failures: u64,
    accuracy: Option<(f64, u64)>,
    metrics: Option<trips_server::MetricsReport>,
    server: Option<Json>,
    /// Resident memory with the server still up, after the timed phase.
    rss_mb: f64,
}

#[allow(clippy::too_many_arguments)]
fn round(
    venue: &Venue,
    journal: &Path,
    dir: &Path,
    dash: &Dashboard,
    checks: &[QueryRequest],
    expected: &[QueryResult],
    trickle: &[Frame],
    with_accuracy: bool,
    with_server_stats: bool,
) -> Round {
    copy_dir(journal, dir).expect("journal copies");
    let (handle, addr, boot_s) = boot(venue, dir);
    let start = Instant::now();
    let mut a = WireConn::connect(addr).expect("connect A");
    let mut b = WireConn::connect(addr).expect("connect B");
    let setup_s = boot_s + start.elapsed().as_secs_f64();

    // The recovered store must answer like the store that wrote the journal.
    let check_failures = checks
        .iter()
        .zip(expected)
        .filter(|(q, want)| {
            !matches!(
                a.call(Request::Query { request: (*q).clone() }),
                Ok(Response::Query { result }) if &result == *want
            )
        })
        .count() as u64;
    let accuracy = with_accuracy.then(|| served_accuracy(&mut a, venue));

    let stop = AtomicBool::new(false);
    let mut refreshes = Refreshes::default();
    let sent = std::thread::scope(|s| {
        let reader = s.spawn(|| refresh_loop(&mut a, dash, &stop, &mut refreshes));
        let pace = Pace::Schedule {
            start: Instant::now(),
            interval: Duration::from_secs(1) / TRICKLE_PER_S,
        };
        let sent = send_frames(&mut b, trickle, pace);
        stop.store(true, Ordering::Release);
        reader.join().expect("analyst loop");
        sent.expect("trickle connection")
    });
    let server = with_server_stats.then(|| server_stats(&mut b, "Query"));
    let metrics = match b.call(Request::Metrics) {
        Ok(Response::Metrics(m)) => Some(m),
        _ => None,
    };
    let rss_mb = crate::common::rss_mb("VmRSS");
    drop((a, b));
    handle.shutdown().expect("server drains");
    Round {
        setup_s,
        refreshes,
        trickle: sent,
        trickle_frames: trickle.len() as u64,
        check_failures,
        accuracy,
        metrics,
        server,
        rss_mb,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let generated = Instant::now();
    let venue = inputs::campus(args.seed, BUILDINGS, DEVICES_PER_BUILDING, DAYS, NOISE, "");
    // The trickle: other devices of the same campus layout.
    let trickle_venue = inputs::campus(args.seed ^ 0x7F4A_7C15, BUILDINGS, 25, 1, NOISE, "t");
    let per_round = (ROUND.as_secs_f64() * f64::from(TRICKLE_PER_S)) as usize;
    let trickle_feed = trickle_venue.feed();
    let trickle = inputs::ingest_frames(
        &trickle_feed[..(per_round * TRICKLE_BATCH).min(trickle_feed.len())],
        TRICKLE_BATCH,
        false,
    );
    let devices: Vec<DeviceId> = venue.sequences.iter().map(|s| s.device().clone()).collect();
    let dash = Dashboard {
        patterns: (0..VARIANTS)
            .map(|v| inputs::device_pattern(BUILDINGS, v))
            .collect(),
        finds: Vec::new(),
    };
    let dash = Dashboard {
        finds: (0..VARIANTS)
            .map(|v| inputs::find_tql(&dash.patterns[(v + 1) % VARIANTS], v))
            .collect(),
        ..dash
    };
    let checks = dash.checks();
    let work = WorkDir::new("analyst-query").expect("scratch dir");
    let journal = work.fresh("journal").expect("scratch dir");
    let expected = write_journal(&venue, &journal, &checks);
    let generate_s = generated.elapsed().as_secs_f64();
    let journal_bytes: u64 = std::fs::read_dir(&journal)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    out.note(
        "inputs",
        Json::obj([
            ("devices", Json::Num(devices.len() as f64)),
            ("days", Json::Num(DAYS as f64)),
            ("buildings", Json::Num(BUILDINGS as f64)),
            ("floors", Json::Num(f64::from(inputs::FLOORS))),
            ("records", Json::Num(venue.record_count() as f64)),
            ("noise_scale", Json::Num(NOISE)),
            ("journal_bytes", Json::Num(journal_bytes as f64)),
            (
                "trickle_records_per_s",
                Json::Num(f64::from(TRICKLE_PER_S) * TRICKLE_BATCH as f64),
            ),
            (
                "trickle_devices",
                Json::Num(trickle_venue.sequences.len() as f64),
            ),
            ("round_s", Json::Num(ROUND.as_secs_f64())),
            ("generate_s", Json::Num(generate_s)),
        ]),
    );

    if args.trace {
        let dir = work.fresh("round").expect("scratch dir");
        let r = round(
            &venue, &journal, &dir, &dash, &checks, &expected, &trickle, false, true,
        );
        out.ops(
            "recovered_answers_equal_written",
            checks.len() as u64,
            r.check_failures,
        );
        out.ops("queries", r.refreshes.queries, r.refreshes.failed);
        let mut server = match r.server {
            Some(Json::Obj(fields)) => fields,
            _ => Vec::new(),
        };
        server.push((
            "gen.late_ms".into(),
            Json::Num(percentile(&r.trickle.late_us, 99.0) / 1e3),
        ));
        out.note("server", Json::Obj(server));
        if let Some(m) = &r.metrics {
            out.note("sizing", sizing_note(m));
        }
        let dsm = trips_dsm::json::from_json(&venue.dsm_json).expect("DSM loads");
        let rules = inputs::rule_mix(&dash.patterns[0]);
        let sweep = layers::sweep(
            &dsm,
            &venue.editor,
            &venue,
            &rules,
            &dash.finds,
            &dash.patterns[1],
            &work,
        );
        crate::finish_trace(args, &mut out, sweep);
        return out;
    }

    let mut setup_s = Vec::new();
    let mut all = Refreshes::default();
    let mut read_rates = Vec::new();
    let mut trickle_rates = Vec::new();
    let mut round_p50_us = Vec::new();
    let mut rss = Vec::new();
    let mut trickle_us = Vec::new();
    let mut late_us = Vec::new();
    let mut accuracy = None;
    let mut rounds = 0usize;
    // Whole rounds fill `--seconds`; the warm-up round is a quarter round.
    let measured = (args.seconds / ROUND.as_secs_f64()).round().max(1.0) as usize;
    while rounds < WARMUP_ROUNDS + measured {
        let warmup = rounds < WARMUP_ROUNDS;
        let frames = if warmup {
            &trickle[..trickle.len() / 4]
        } else {
            &trickle[..]
        };
        let dir = work.fresh(&format!("round-{rounds}")).expect("scratch dir");
        let r = round(
            &venue,
            &journal,
            &dir,
            &dash,
            &checks,
            &expected,
            frames,
            accuracy.is_none(),
            false,
        );
        let _ = std::fs::remove_dir_all(&dir);
        setup_s.push(r.setup_s);
        for _ in 0..EXTRA_BOOTS_PER_ROUND {
            let dir = work.fresh("boot").expect("scratch dir");
            copy_dir(&journal, &dir).expect("journal copies");
            let (handle, _, boot_s) = boot(&venue, &dir);
            handle.shutdown().expect("server drains");
            let _ = std::fs::remove_dir_all(&dir);
            setup_s.push(boot_s);
        }
        out.ops(
            "recovered_answers_equal_written",
            checks.len() as u64,
            r.check_failures,
        );
        out.ops("queries", r.refreshes.queries, r.refreshes.failed);
        let trickle_failed =
            r.trickle.errors + r.trickle_frames - r.trickle.latencies_us.len() as u64;
        out.ops("trickle_batches", r.trickle_frames, trickle_failed);
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
        rounds += 1;
        if warmup {
            continue;
        }
        if let (Some(first), Some(last)) = (r.trickle.first, r.trickle.last_ack) {
            trickle_rates.push(r.trickle.records as f64 / last.duration_since(first).as_secs_f64());
        }
        trickle_us.extend(r.trickle.latencies_us);
        late_us.extend(r.trickle.late_us);
        round_p50_us.push(median(&r.refreshes.refresh_us));
        read_rates
            .push(r.refreshes.rows as f64 / (r.refreshes.refresh_us.iter().sum::<f64>() / 1e6));
        rss.push(r.rss_mb);
        all.refresh_us.extend(r.refreshes.refresh_us);
        all.agg_us.extend(r.refreshes.agg_us);
        all.scan_us.extend(r.refreshes.scan_us);
        all.queries += r.refreshes.queries;
    }

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("records_per_s", median(&trickle_rates), "1/s");
    out.metric(
        "region_time_accuracy",
        accuracy.unwrap_or(f64::NAN),
        "share",
    );
    out.metric("rss_mb", median(&rss), "MB");
    let measured_s = all.refresh_us.iter().sum::<f64>() / 1e6;
    out.note(
        "classes",
        Json::obj([
            ("queries_per_s", Json::Num(all.queries as f64 / measured_s)),
            ("rows_per_s", Json::Num(median(&read_rates))),
            ("query_agg_p50_us", Json::Num(percentile(&all.agg_us, 50.0))),
            ("query_agg_p99_us", Json::Num(percentile(&all.agg_us, 99.0))),
            (
                "query_scan_p50_us",
                Json::Num(percentile(&all.scan_us, 50.0)),
            ),
            (
                "query_scan_p99_us",
                Json::Num(percentile(&all.scan_us, 99.0)),
            ),
            ("trickle_batches", Json::Num(trickle_us.len() as f64)),
            ("ingest_p50_us", Json::Num(percentile(&trickle_us, 50.0))),
            ("ingest_p99_us", Json::Num(percentile(&trickle_us, 99.0))),
            ("gen.late_ms", Json::Num(percentile(&late_us, 99.0) / 1e3)),
            (
                "gen.late_max_ms",
                Json::Num(percentile(&late_us, 100.0) / 1e3),
            ),
        ]),
    );
    out.note(
        "samples",
        Json::obj([
            ("rounds", Json::Num(rounds as f64)),
            ("setups", Json::Num(setup_s.len() as f64)),
            ("refreshes", Json::Num(all.refresh_us.len() as f64)),
            ("request_p50_us", Json::Num(median(&round_p50_us))),
            (
                "request_p99_us",
                Json::Num(percentile(&all.refresh_us, 99.0)),
            ),
        ]),
    );
    out
}
