//! Observability-layer tests: scrape `GET /metrics` under live load,
//! verify the exposition stays valid and monotonic, exercise the
//! slow-log / trace-dump endpoints on both protocol versions, and check
//! the HTTP responder's routing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, RawRecord};
use trips_dsm::RegionId;
use trips_obs::{validate_exposition, STAGE_COUNT};
use trips_server::{
    bootstrap_scenario, Client, Response, ServerBootstrap, ServerConfig, TripsServer,
};
use trips_sim::ScenarioConfig;
use trips_store::{DurabilityConfig, Query, QueryRequest, SemanticsSelector, SemanticsStore};

const FLOORS: u16 = 1;
const SHOPS: usize = 3;

fn scenario(devices: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        devices,
        days: 1,
        seed,
        ..ScenarioConfig::default()
    }
}

fn deployment() -> ServerBootstrap {
    bootstrap_scenario(FLOORS, SHOPS, &scenario(3, 0x0B5E))
}

/// `(device, records)` traffic matching the deployment's layout.
fn traffic(devices: usize, seed: u64) -> Vec<(DeviceId, Vec<RawRecord>)> {
    let campus = trips_sim::scenario::generate_campus(1, FLOORS, SHOPS, &scenario(devices, seed));
    campus.buildings[0]
        .dataset
        .traces
        .iter()
        .map(|t| (t.device.clone(), t.raw.records().to_vec()))
        .collect()
}

/// One blocking HTTP/1.0 request against the metrics listener; returns
/// `(status_line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header/body separator");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

#[test]
fn http_metrics_endpoint_serves_valid_exposition_and_404s_elsewhere() {
    let boot = deployment();
    let server = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let metrics = handle.metrics_addr().expect("metrics listener bound");

    // A little traffic so the latency histograms have samples.
    let mut client = Client::connect(handle.addr()).unwrap();
    for (_, records) in traffic(2, 0xFACE) {
        for batch in records.chunks(200) {
            assert!(matches!(
                client.ingest(batch.to_vec()).unwrap(),
                Response::Ingested { .. }
            ));
        }
    }

    let (status, body) = http_get(metrics, "/metrics");
    assert!(status.contains("200"), "status line: {status}");
    let parsed = validate_exposition(&body).expect("exposition parses");
    for family in [
        "trips_requests_total",
        "trips_connections_active",
        "trips_translator_shards",
        "trips_store_devices",
        "trips_rule_evals_total",
        "trips_slow_requests_total",
        "trips_loop_shard_connections{shard=\"0\"}",
        "trips_request_latency_us_count{endpoint=\"ingest\"}",
    ] {
        assert!(
            parsed.contains_key(family),
            "missing series {family} in:\n{body}"
        );
    }
    assert!(
        parsed["trips_request_latency_us_count{endpoint=\"ingest\"}"] >= 1.0,
        "ingest latency histogram saw the batches"
    );
    assert!(body.contains("# TYPE trips_request_latency_us histogram"));

    let (status, body) = http_get(metrics, "/definitely-not-metrics");
    assert!(status.contains("404"), "status line: {status}");
    assert!(body.contains("/metrics"));

    // The same payload is served over the native protocol, and it names
    // the same families.
    let over_wire = client.metrics_prom().unwrap().expect("MetricsProm ok");
    let wire_parsed = validate_exposition(&over_wire).expect("wire exposition parses");
    assert!(wire_parsed.contains_key("trips_requests_total"));

    handle.shutdown().unwrap();
}

/// Boot recovery's cost is exported: the `Metrics` report and the
/// Prometheus gauges carry the same replayed-record count and wall time
/// as the server's `RecoveryReport`; a non-durable server has neither.
#[test]
fn recovery_cost_is_exported_by_metrics_and_prometheus() {
    let dir = std::env::temp_dir().join(format!("trips-obs-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig::new(&dir);
    {
        // Journal three batches for the server to replay.
        let (store, _) = SemanticsStore::recover(&durability, 0).unwrap();
        for (device, records) in traffic(3, 0xB007) {
            let semantics: Vec<MobilitySemantics> = records
                .iter()
                .take(2)
                .map(|r| MobilitySemantics {
                    device: device.clone(),
                    event: "stay".into(),
                    region: RegionId(1),
                    region_name: "Shop".into(),
                    start: r.ts,
                    end: r.ts,
                    inferred: false,
                    display_point: None,
                })
                .collect();
            store.ingest(&device, &semantics);
        }
    }
    for durable in [true, false] {
        let boot = deployment();
        let server = TripsServer::new(
            boot.dsm,
            boot.editor,
            ServerConfig {
                metrics_addr: Some("127.0.0.1:0".to_string()),
                durability: durable.then(|| durability.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let report = server.recovery_report().cloned();
        assert_eq!(report.is_some(), durable);
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let Response::Metrics(m) = client.metrics().unwrap() else {
            panic!("metrics request failed");
        };
        assert_eq!(m.recovery_us, report.as_ref().map_or(0, |r| r.elapsed_us));
        assert_eq!(
            m.recovery_replayed_records,
            report.as_ref().map_or(0, |r| r.replayed_records)
        );
        let (_, body) = http_get(handle.metrics_addr().unwrap(), "/metrics");
        let parsed = validate_exposition(&body).expect("exposition parses");
        match &report {
            Some(r) => {
                assert_eq!(r.replayed_records, 3, "one record per journaled batch");
                assert!(r.elapsed_us > 0);
                assert_eq!(parsed["trips_recovery_replayed_records"], 3.0);
                assert_eq!(parsed["trips_recovery_us"], r.elapsed_us as f64);
            }
            None => {
                assert!(!parsed.contains_key("trips_recovery_us"));
                assert!(!parsed.contains_key("trips_recovery_replayed_records"));
            }
        }
        drop(client);
        handle.shutdown().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scraping_under_live_load_stays_valid_and_monotonic() {
    let boot = deployment();
    let server = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let metrics = handle.metrics_addr().unwrap();

    let stop = AtomicBool::new(false);
    let request_errors = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Ingest load: loop the traffic until the scraper is done.
        s.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            let flows = traffic(3, 0xD00D);
            'outer: loop {
                for (_, records) in &flows {
                    for batch in records.chunks(50) {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        match client.ingest(batch.to_vec()) {
                            Ok(Response::Ingested { .. }) => {}
                            _ => {
                                request_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
        });
        // Query load on a second connection.
        s.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            while !stop.load(Ordering::Relaxed) {
                let req = QueryRequest::new(SemanticsSelector::all(), Query::PopularRegions);
                match client.query(req) {
                    Ok(Ok(_)) => {}
                    _ => {
                        request_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });

        // Scrape repeatedly while both are running: every exposition must
        // parse and every counter must be monotonic scrape over scrape.
        let mut last = validate_exposition(&http_get(metrics, "/metrics").1).unwrap();
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(50));
            let (status, body) = http_get(metrics, "/metrics");
            assert!(status.contains("200"));
            let parsed = validate_exposition(&body).expect("mid-load exposition parses");
            for series in [
                "trips_requests_total",
                "trips_connections_accepted_total",
                "trips_request_latency_us_count{endpoint=\"ingest\"}",
                "trips_request_latency_us_count{endpoint=\"query\"}",
                "trips_rule_evals_total",
                "trips_wal_fsyncs_total",
            ] {
                // WAL families only exist on durable servers — skip those.
                let (Some(now), Some(before)) = (parsed.get(series), last.get(series)) else {
                    continue;
                };
                assert!(now >= before, "{series} went backwards: {before} -> {now}");
            }
            assert!(parsed["trips_requests_total"] >= 1.0);
            last = parsed;
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        request_errors.load(Ordering::Relaxed),
        0,
        "scraping must not disturb request traffic"
    );
    handle.shutdown().unwrap();
}

#[test]
fn zero_threshold_slow_log_captures_full_span_trees_on_both_wires() {
    let boot = deployment();
    let server = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            // Promote *every* request: the trace-one-request switch.
            slow_threshold_us: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let flows = traffic(2, 0xBEEF);
    let (_, records) = &flows[0];
    assert!(matches!(
        client
            .ingest(records[..100.min(records.len())].to_vec())
            .unwrap(),
        Response::Ingested { .. }
    ));
    let req = QueryRequest::new(SemanticsSelector::all(), Query::Semantics);
    client.query(req).unwrap().unwrap();

    let (threshold_us, _evicted, spans) = client.slow_log(None).unwrap().expect("SlowLog ok");
    assert_eq!(threshold_us, 0);
    let ingest_span = spans
        .iter()
        .find(|s| s.kind == "Ingest")
        .expect("ingest span promoted at threshold 0");
    assert_eq!(ingest_span.endpoint, "ingest");
    assert_eq!(
        ingest_span.stages_us.len(),
        STAGE_COUNT,
        "every pipeline stage present in the span tree"
    );
    assert!(ingest_span.total_us > 0, "total covers parse -> reply");
    assert!(ingest_span.unix_ms > 0, "wall-clock correlation stamp");
    // The end-to-end total includes the queue/worker hop, so it is at
    // least the measured queue wait.
    assert!(ingest_span.total_us >= ingest_span.stage_us("queue_wait").unwrap());
    let query_span = spans
        .iter()
        .find(|s| s.kind == "Query")
        .expect("query span promoted at threshold 0");
    assert_eq!(query_span.endpoint, "query");

    // The trace rings hold the same spans (plus inline admin ones), and
    // both protocol versions serve them.
    let traces = client.trace_dump(None).unwrap().expect("TraceDump ok");
    assert!(traces.iter().any(|s| s.kind == "Ingest"));
    let mut v2 = Client::connect_v2(handle.addr()).unwrap();
    let (t2, _, spans2) = v2.slow_log(Some(1000)).unwrap().expect("v2 SlowLog ok");
    assert_eq!(t2, 0);
    assert!(spans2.iter().any(|s| s.kind == "Ingest"));
    let traces2 = v2.trace_dump(Some(5)).unwrap().expect("v2 TraceDump ok");
    assert!(traces2.len() <= 5, "limit caps the dump");

    // Admin requests answered inline also appear in the rings.
    client.metrics().unwrap();
    let traces = client.trace_dump(None).unwrap().unwrap();
    assert!(traces.iter().any(|s| s.endpoint == "admin"));

    // Metrics report mirrors the slow-log promotion counter.
    match client.metrics().unwrap() {
        Response::Metrics(report) => {
            assert!(report.slow_requests > 0, "promotions counted");
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    handle.shutdown().unwrap();
}
