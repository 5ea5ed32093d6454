//! End-to-end serving tests: boot a real server on an ephemeral port and
//! drive it over TCP — concurrent ingest + query, snapshot (a WAL
//! checkpoint) → restart → identical results, load shedding past the admission queue, connection
//! caps, and wire-level error handling.

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use trips_core::stream::{StreamConfig, StreamingTranslator};
use trips_data::{DeviceId, Duration, RawRecord, Timestamp};
use trips_server::{
    bootstrap_scenario, Client, Request, Response, ServerBootstrap, ServerConfig, ServerError,
    TripsServer,
};
use trips_sim::ScenarioConfig;
use trips_store::{
    DurabilityConfig, Query, QueryRequest, QueryResult, SemanticsSelector, SemanticsStore,
};

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

/// The deployment configuration both boots of a server share (training is
/// deterministic per seed, so "restart" = bootstrap again).
fn deployment() -> ServerBootstrap {
    bootstrap_scenario(FLOORS, SHOPS, &scenario(4, 0x5EED))
}

/// Campus traffic that fits the deployment's mall layout, grouped
/// per-building as `(device, its records in time order)`.
fn campus_traffic(
    buildings: usize,
    devices: usize,
    seed: u64,
) -> Vec<Vec<(DeviceId, Vec<RawRecord>)>> {
    let campus =
        trips_sim::scenario::generate_campus(buildings, FLOORS, SHOPS, &scenario(devices, seed));
    campus
        .buildings
        .iter()
        .map(|b| {
            b.dataset
                .traces
                .iter()
                .map(|t| (t.device.clone(), t.raw.records().to_vec()))
                .collect()
        })
        .collect()
}

fn queries_to_compare() -> Vec<QueryRequest> {
    vec![
        QueryRequest::new(SemanticsSelector::all(), Query::Semantics),
        QueryRequest::new(SemanticsSelector::all(), Query::PopularRegions),
        QueryRequest::new(SemanticsSelector::all(), Query::TopFlows { limit: 50 }),
        QueryRequest::new(
            SemanticsSelector::all(),
            Query::DwellHistogram {
                bucket: Duration::from_mins(5),
            },
        ),
        QueryRequest::new(SemanticsSelector::all(), Query::DeviceSummaries),
        QueryRequest::new(
            SemanticsSelector::all().with_device_pattern("b0.*"),
            Query::PopularRegions,
        ),
        QueryRequest::new(
            SemanticsSelector::all().between(
                Timestamp::from_dhms(0, 10, 0, 0),
                Timestamp::from_dhms(0, 16, 0, 0),
            ),
            Query::Semantics,
        ),
    ]
}

/// The acceptance-criteria flow: ingest a campus over the wire into a
/// durable server while concurrently querying it, flush, compare against
/// an in-process reference translation, snapshot (checkpoint), restart
/// from the same WAL directory, and verify every query answers
/// identically.
#[test]
fn ingest_query_snapshot_restart_roundtrip() {
    let traffic = campus_traffic(2, 4, 0xCAFE);
    let dir = std::env::temp_dir().join(format!("trips-server-e2e-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || ServerConfig {
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, durable()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Two ingest connections (one per building) racing a query connection.
    let ingested = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for building in &traffic {
            let ingested = &ingested;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (_, records) in building {
                    for batch in records.chunks(50) {
                        match client.ingest(batch.to_vec()).unwrap() {
                            Response::Ingested {
                                accepted, rejected, ..
                            } => {
                                assert_eq!(rejected, 0, "sim records are well-formed");
                                ingested.fetch_add(accepted, Ordering::Relaxed);
                            }
                            other => panic!("ingest failed: {other:?}"),
                        }
                    }
                }
            });
        }
        // Analyst traffic while the streams are open: health + analytics
        // must answer (possibly partial data), never error.
        s.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            for _ in 0..30 {
                match client.health().unwrap() {
                    Response::Health(h) => assert_eq!(h.status, "ok"),
                    other => panic!("health failed: {other:?}"),
                }
                let result = client
                    .query_parts(SemanticsSelector::all(), Query::PopularRegions)
                    .unwrap();
                assert!(result.is_ok(), "query during ingest: {result:?}");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
    });
    let total_records: usize = traffic
        .iter()
        .flat_map(|b| b.iter().map(|(_, r)| r.len()))
        .sum();
    assert_eq!(ingested.load(Ordering::Relaxed), total_records);

    let mut client = Client::connect(addr).unwrap();

    // Semantics are queryable while streams are still open: flush one
    // device explicitly and find its semantics without closing anything.
    let (probe_device, _) = &traffic[0][0];
    match client.flush(Some(probe_device.as_str())).unwrap() {
        // `emitted` may be 0 here: session gaps can have already published
        // most of the day mid-push, leaving a tail that translates to
        // nothing — the query below is the real check.
        Response::Flushed { devices, .. } => assert!(devices <= 1),
        other => panic!("flush failed: {other:?}"),
    }
    match client
        .query_parts(
            SemanticsSelector::all().with_device_pattern(probe_device.as_str()),
            Query::Semantics,
        )
        .unwrap()
        .unwrap()
    {
        QueryResult::Semantics(sems) => {
            assert!(!sems.is_empty(), "probe semantics visible mid-stream")
        }
        other => panic!("wrong variant: {other:?}"),
    }

    // Flush everything and check the server against an in-process
    // reference translation of the same traffic.
    match client.flush(None).unwrap() {
        Response::Flushed { .. } => {}
        other => panic!("flush-all failed: {other:?}"),
    }
    let reference = reference_store(&traffic);
    let all = SemanticsSelector::all();
    let server_semantics = match client
        .query_parts(all.clone(), Query::Semantics)
        .unwrap()
        .unwrap()
    {
        QueryResult::Semantics(s) => s,
        other => panic!("wrong variant: {other:?}"),
    };
    assert_eq!(
        server_semantics,
        reference.semantics(&all),
        "wire-ingested semantics must equal in-process streaming translation"
    );
    let server_pops = match client
        .query_parts(all.clone(), Query::PopularRegions)
        .unwrap()
        .unwrap()
    {
        QueryResult::PopularRegions(p) => p,
        other => panic!("wrong variant: {other:?}"),
    };
    assert_eq!(server_pops, reference.popular_regions(&all));

    // Snapshot + graceful drain. A durable server checkpoints into its
    // WAL directory and ignores the wire path.
    let before: Vec<QueryResult> = queries_to_compare()
        .into_iter()
        .map(|q| client.query(q).unwrap().unwrap())
        .collect();
    match client.snapshot("ignored-on-durable-servers").unwrap() {
        Response::SnapshotSaved {
            path,
            devices,
            semantics,
        } => {
            assert_eq!(
                path,
                dir.join("snapshot.json").display().to_string(),
                "checkpoint lives in the wal dir"
            );
            assert!(devices > 0 && semantics > 0);
        }
        other => panic!("snapshot failed: {other:?}"),
    }
    drop(client);
    let report = handle.shutdown().unwrap();
    assert!(report.requests > 0);
    assert_eq!(report.shed, 0, "default queue must not shed this workload");
    assert_eq!(report.bad_requests, 0);
    assert!(report.devices > 0 && report.semantics > 0);

    // Restart from the same WAL dir: every query must answer identically.
    let boot2 = deployment();
    let server2 = TripsServer::new(boot2.dsm, boot2.editor, durable()).unwrap();
    assert!(server2.recovery_report().unwrap().snapshot_loaded);
    let handle2 = server2.spawn("127.0.0.1:0").unwrap();
    let mut client2 = Client::connect(handle2.addr()).unwrap();
    let after: Vec<QueryResult> = queries_to_compare()
        .into_iter()
        .map(|q| client2.query(q).unwrap().unwrap())
        .collect();
    assert_eq!(before, after, "restart from snapshot must be lossless");
    drop(client2);
    handle2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ingests `traffic` into a freshly booted server under `config` (one
/// connection per building, each flushing its own session), then answers
/// the comparison queries.
fn serve_and_query(
    traffic: &[Vec<(DeviceId, Vec<RawRecord>)>],
    config: ServerConfig,
) -> Vec<QueryResult> {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, config).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();
    std::thread::scope(|s| {
        for building in traffic {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (_, records) in building {
                    for batch in records.chunks(50) {
                        match client.ingest(batch.to_vec()).unwrap() {
                            Response::Ingested { rejected, .. } => assert_eq!(rejected, 0),
                            other => panic!("ingest failed: {other:?}"),
                        }
                    }
                }
                match client.flush(None).unwrap() {
                    Response::Flushed { .. } => {}
                    other => panic!("flush failed: {other:?}"),
                }
            });
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let results = queries_to_compare()
        .into_iter()
        .map(|q| client.query(q).unwrap().unwrap())
        .collect();
    drop(client);
    handle.shutdown().unwrap();
    results
}

/// The sharding acceptance criterion: translation through four loop
/// shards and eight store shards (and so eight session-buffer locks) must
/// be **bit-identical** to a serial server (one loop, one shard) over the
/// same traffic — a device's buffers live wholly within one shard, so
/// partitioning by device hash must not change a single emitted semantic.
#[test]
fn sharded_translation_is_bit_identical_to_serial() {
    let traffic = campus_traffic(2, 4, 0xB17);
    let serial = serve_and_query(
        &traffic,
        ServerConfig {
            loop_shards: 1,
            shards: 1,
            ..ServerConfig::default()
        },
    );
    let sharded = serve_and_query(
        &traffic,
        ServerConfig {
            loop_shards: 4,
            shards: 8,
            ..ServerConfig::default()
        },
    );
    assert_eq!(
        serial, sharded,
        "sharded topology changed the translated output"
    );
}

/// The same traffic through an in-process `StreamingTranslator` with an
/// attached store — the ground truth the server must match.
fn reference_store(traffic: &[Vec<(DeviceId, Vec<RawRecord>)>]) -> Arc<SemanticsStore> {
    let boot = deployment();
    let store = Arc::new(SemanticsStore::new());
    let mut translator =
        StreamingTranslator::from_editor(&boot.dsm, &boot.editor, None, StreamConfig::default())
            .unwrap()
            .with_store(store.clone());
    for building in traffic {
        for (_, records) in building {
            for r in records {
                translator.push(r.clone());
            }
        }
    }
    translator.finish();
    store
}

/// Driving the server past its admission queue must shed with typed
/// `Overloaded` errors while memory stays bounded (peak queue depth never
/// exceeds capacity) and no request fails any other way.
#[test]
fn overload_sheds_with_bounded_queue() {
    let boot = deployment();
    let server = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            max_connections: 32,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Substance for the queries: pre-ingest synthetic semantics directly
    // into the live store (the wire is not under test here).
    let store = server.store();
    for d in 0..50u32 {
        let id = DeviceId::new(&format!("bulk-{d:03}"));
        let sems: Vec<trips_annotate::MobilitySemantics> = (0..40u32)
            .map(|i| trips_annotate::MobilitySemantics {
                device: id.clone(),
                event: if i % 2 == 0 { "stay" } else { "pass-by" }.into(),
                region: trips_dsm::RegionId((d + i) % 7),
                region_name: format!("R{}", (d + i) % 7).into(),
                start: Timestamp::from_millis(i as i64 * 60_000),
                end: Timestamp::from_millis(i as i64 * 60_000 + 30_000),
                inferred: false,
                display_point: None,
            })
            .collect();
        store.ingest(&id, &sems);
    }
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let shed = AtomicUsize::new(0);
    let ok = AtomicUsize::new(0);
    let hard_errors = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (shed, ok, hard_errors) = (&shed, &ok, &hard_errors);
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..150 {
                    let query = if i % 2 == 0 {
                        Query::Semantics
                    } else {
                        Query::PopularRegions
                    };
                    match client.query_parts(SemanticsSelector::all(), query).unwrap() {
                        Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(ServerError::Overloaded { queue_capacity }) => {
                            assert_eq!(queue_capacity, 1);
                            shed.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => {
                            eprintln!("hard error: {e}");
                            hard_errors.fetch_add(1, Ordering::Relaxed)
                        }
                    };
                }
            });
        }
    });
    assert_eq!(hard_errors.load(Ordering::Relaxed), 0);
    assert!(ok.load(Ordering::Relaxed) > 0, "some queries must succeed");
    assert!(
        shed.load(Ordering::Relaxed) > 0,
        "8 closed-loop clients against workers=1/queue=1 must shed"
    );

    // The server's own accounting agrees, and the bounded-memory invariant
    // held: the queue never grew beyond its capacity.
    let mut admin = Client::connect(addr).unwrap();
    match admin.metrics().unwrap() {
        Response::Metrics(m) => {
            assert_eq!(m.shed as usize, shed.load(Ordering::Relaxed));
            assert_eq!(m.queue_capacity, 1);
            assert!(
                m.peak_queue_depth <= m.queue_capacity,
                "peak {} exceeded capacity {}",
                m.peak_queue_depth,
                m.queue_capacity
            );
            let query_ep = m.endpoints.iter().find(|e| e.endpoint == "query").unwrap();
            assert_eq!(
                query_ep.count,
                ok.load(Ordering::Relaxed),
                "shed requests never execute"
            );
            assert!(query_ep.max_us >= query_ep.p99_us && query_ep.p99_us >= query_ep.p50_us);
            assert!(query_ep.mean_us > 0.0);
        }
        other => panic!("metrics failed: {other:?}"),
    }
    // Health still answers inline while the work queue is tiny.
    match admin.health().unwrap() {
        Response::Health(h) => assert_eq!(h.store.devices, 50),
        other => panic!("health failed: {other:?}"),
    }
    drop(admin);
    let report = handle.shutdown().unwrap();
    assert_eq!(report.shed as usize, shed.load(Ordering::Relaxed));
    assert!(report.peak_queue_depth <= 1);
}

/// On a single loop shard, overload must still shed: the shard takes one
/// request per connection each lap and admits them against the cap
/// before running any, so with six closed-loop clients and room for one
/// request, every lap turns some away with a typed `Overloaded`. (A shard
/// that admitted each request only as it ran it would never see one
/// pending, and would never shed.) Admission must also rotate: no client
/// may be shed on every attempt.
#[test]
fn overload_sheds_on_one_loop_shard() {
    let boot = deployment();
    let server = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            loop_shards: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let store = server.store();
    for d in 0..20u32 {
        let id = DeviceId::new(&format!("bulk-{d:03}"));
        let sems: Vec<trips_annotate::MobilitySemantics> = (0..40u32)
            .map(|i| trips_annotate::MobilitySemantics {
                device: id.clone(),
                event: "stay".into(),
                region: trips_dsm::RegionId((d + i) % 7),
                region_name: format!("R{}", (d + i) % 7).into(),
                start: Timestamp::from_millis(i as i64 * 60_000),
                end: Timestamp::from_millis(i as i64 * 60_000 + 30_000),
                inferred: false,
                display_point: None,
            })
            .collect();
        store.ingest(&id, &sems);
    }
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let (shed, hard_errors) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let served_per_client: Vec<usize> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..6)
            .map(|_| {
                let (shed, hard_errors) = (&shed, &hard_errors);
                s.spawn(move || {
                    let mut client = Client::connect_v2(addr).unwrap();
                    let mut served = 0;
                    for _ in 0..100 {
                        match client
                            .query_parts(SemanticsSelector::all(), Query::PopularRegions)
                            .unwrap()
                        {
                            Ok(_) => served += 1,
                            Err(ServerError::Overloaded { queue_capacity: 1 }) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("hard error: {e}");
                                hard_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    served
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(hard_errors.load(Ordering::Relaxed), 0);
    assert!(
        shed.load(Ordering::Relaxed) > 0,
        "6 closed-loop clients on one loop shard with room for 1 must shed"
    );
    assert!(
        served_per_client.iter().all(|&n| n > 0),
        "every client gets a turn: {served_per_client:?}"
    );
    let mut admin = Client::connect(addr).unwrap();
    match admin.metrics().unwrap() {
        Response::Metrics(m) => {
            assert_eq!(m.loop_shards.len(), 1);
            assert_eq!(m.shed as usize, shed.load(Ordering::Relaxed));
            assert!(m.peak_queue_depth <= 1, "peak {}", m.peak_queue_depth);
        }
        other => panic!("metrics failed: {other:?}"),
    }
    drop(admin);
    let report = handle.shutdown().unwrap();
    assert!(report.peak_queue_depth <= 1);
}

#[test]
fn connection_cap_rejects_with_typed_error() {
    let boot = deployment();
    let server = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut first = Client::connect(addr).unwrap();
    assert_eq!(first.ping().unwrap(), Response::Pong, "first session live");

    let mut second = Client::connect(addr).unwrap();
    match second.ping().unwrap() {
        Response::Error(ServerError::TooManyConnections { limit }) => assert_eq!(limit, 1),
        other => panic!("expected connection rejection, got {other:?}"),
    }
    // The rejected socket is closed server-side.
    assert!(second.ping().is_err());

    // Freeing the slot admits a new session.
    drop(first);
    let mut third = loop {
        let mut c = Client::connect(addr).unwrap();
        match c.ping().unwrap() {
            Response::Pong => break c,
            Response::Error(ServerError::TooManyConnections { .. }) => {
                // The first session's teardown hasn't been observed yet.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            other => panic!("unexpected: {other:?}"),
        }
    };
    assert_eq!(third.ping().unwrap(), Response::Pong);
    // Rejected sockets count as rejected only — never as accepted.
    match third.metrics().unwrap() {
        Response::Metrics(m) => {
            assert_eq!(
                m.connections_accepted, 2,
                "only the first and third sessions were accepted"
            );
            assert!(m.connections_rejected >= 1);
            assert_eq!(m.active_connections, 1);
        }
        other => panic!("metrics failed: {other:?}"),
    }
    drop(third);
    handle.shutdown().unwrap();
}

/// Wire-level robustness: garbage lines and wrong versions get typed
/// errors and the connection keeps serving; empty ingest batches do not
/// register phantom devices; unwritable snapshot paths surface `Internal`.
#[test]
fn wire_errors_and_edge_cases() {
    use std::io::{BufRead, BufReader, Write};
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Raw socket: garbage, then wrong version, then a valid ping — the
    // session must survive all three.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    raw.write_all(b"this is not json\n").unwrap();
    reader.read_line(&mut line).unwrap();
    let resp = trips_server::decode_response(line.trim()).unwrap();
    assert_eq!(resp.id, 0);
    assert!(matches!(
        resp.resp,
        Response::Error(ServerError::BadRequest { .. })
    ));
    line.clear();
    raw.write_all(b"{\"v\":99,\"id\":7,\"req\":\"Ping\"}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    let resp = trips_server::decode_response(line.trim()).unwrap();
    assert_eq!(resp.id, 7, "version errors carry the correlation id");
    assert!(matches!(
        resp.resp,
        Response::Error(ServerError::UnsupportedVersion { got: 99, want: 1 })
    ));
    line.clear();
    raw.write_all(b"{\"v\":1,\"id\":8,\"req\":\"Ping\"}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    let resp = trips_server::decode_response(line.trim()).unwrap();
    assert_eq!((resp.id, resp.resp), (8, Response::Pong));
    drop((raw, reader));

    let mut client = Client::connect(addr).unwrap();
    // Empty ingest batch: accepted but registers nothing (the store's
    // empty-slice guard seen from the wire).
    match client.ingest(Vec::new()).unwrap() {
        Response::Ingested {
            accepted,
            rejected,
            emitted,
        } => assert_eq!((accepted, rejected, emitted), (0, 0, 0)),
        other => panic!("empty ingest failed: {other:?}"),
    }
    // A record with non-finite coordinates cannot even be expressed in
    // JSON (NaN has no representation) — it dies at the parse boundary as
    // a BadRequest rather than reaching the buffers.
    let bad = RawRecord::new(
        DeviceId::new("bad"),
        f64::NAN,
        0.0,
        0,
        Timestamp::from_millis(0),
    );
    match client.ingest(vec![bad]).unwrap() {
        Response::Error(ServerError::BadRequest { .. }) => {}
        other => panic!("expected parse rejection, got {other:?}"),
    }
    match client.health().unwrap() {
        Response::Health(h) => {
            assert_eq!(
                h.store.devices, 0,
                "no phantom devices from empty/bad batches"
            );
            assert_eq!(h.open_devices, 0);
        }
        other => panic!("health failed: {other:?}"),
    }
    // Snapshot on a non-durable server: a typed BadRequest (the wire must
    // not name server paths), then the server keeps serving. The refusal
    // is application-level, not wire-level, so it does not count toward
    // `bad_requests` below.
    match client
        .snapshot("/nonexistent-trips-dir/deep/snap.json")
        .unwrap()
    {
        Response::Error(ServerError::BadRequest { message }) => {
            assert!(message.contains("snapshot rejected"), "{message}");
        }
        other => panic!("expected snapshot rejection, got {other:?}"),
    }
    assert_eq!(client.ping().unwrap(), Response::Pong);
    drop(client);

    let report = handle.shutdown().unwrap();
    assert_eq!(
        report.bad_requests, 3,
        "garbage + wrong version + unrepresentable record"
    );
}

/// Draining refuses new work but finishes what was admitted: after
/// `Shutdown`, a second connection's requests get `ShuttingDown`.
#[test]
fn drain_refuses_new_work() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Open a bystander connection BEFORE the drain starts (connections
    // after it may be refused at accept time).
    let mut bystander = Client::connect(addr).unwrap();
    assert_eq!(bystander.ping().unwrap(), Response::Pong);

    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(admin.shutdown().unwrap(), Response::ShuttingDown);

    // The draining server refuses the bystander's new work with a typed
    // error (or the socket is already torn down — also a valid drain).
    match bystander.call(Request::Query {
        request: QueryRequest::new(SemanticsSelector::all(), Query::PopularRegions),
    }) {
        Ok(Response::Error(ServerError::ShuttingDown)) => {}
        Ok(other) => panic!("draining server must refuse work, got {other:?}"),
        Err(_) => {} // connection already closed by the drain
    }
    handle.join().unwrap();
}

/// Pipelined calls: N requests leave in one write, N responses come back
/// in request order — over both framings, with a mixed request batch and
/// enough depth that the server's write queue actually batches replies.
#[test]
fn pipelined_calls_answer_in_order() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    for protocol in [1u32, 2] {
        let mut client = Client::connect(addr).unwrap();
        client.set_protocol(protocol).unwrap();
        // A mixed batch: pings interleaved with queries and a health
        // probe, so ordered responses are distinguishable by kind.
        let reqs: Vec<Request> = (0..32)
            .map(|i| match i % 3 {
                0 => Request::Ping,
                1 => Request::Query {
                    request: QueryRequest::new(SemanticsSelector::all(), Query::PopularRegions),
                },
                _ => Request::Health,
            })
            .collect();
        let resps = client.call_pipelined(reqs).unwrap();
        assert_eq!(resps.len(), 32);
        for (i, resp) in resps.iter().enumerate() {
            match (i % 3, resp) {
                (0, Response::Pong) => {}
                (1, Response::Query { .. }) => {}
                (2, Response::Health(_)) => {}
                (_, other) => panic!("protocol {protocol}: response {i} out of order: {other:?}"),
            }
        }
        // The connection stays healthy for sequential calls afterwards.
        assert_eq!(client.ping().unwrap(), Response::Pong);
    }
    handle.shutdown().unwrap();
}
