//! End-to-end durability: a WAL-backed server recovers its queryable
//! state across restarts (with and without checkpoints), `Snapshot`
//! means checkpoint+compact, `Health`/`Metrics` expose WAL occupancy,
//! and the blocking client's read timeout keeps a stalled server from
//! hanging callers.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration as StdDuration, Instant};
use trips_data::{DeviceId, Duration, RawRecord, Timestamp};
use trips_server::{
    bootstrap_scenario, Client, Response, ServerBootstrap, ServerConfig, TripsServer,
};
use trips_sim::ScenarioConfig;
use trips_store::{DurabilityConfig, Query, QueryRequest, QueryResult, SemanticsSelector};

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

/// Training is deterministic per seed, so "restart" = bootstrap again.
fn deployment() -> ServerBootstrap {
    bootstrap_scenario(FLOORS, SHOPS, &scenario(4, 0x5EED))
}

fn traffic(seed: u64) -> Vec<(DeviceId, Vec<RawRecord>)> {
    let campus = trips_sim::scenario::generate_campus(2, FLOORS, SHOPS, &scenario(4, seed));
    campus
        .buildings
        .iter()
        .flat_map(|b| {
            b.dataset
                .traces
                .iter()
                .map(|t| (t.device.clone(), t.raw.records().to_vec()))
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
            SemanticsSelector::all().between(
                Timestamp::from_dhms(0, 10, 0, 0),
                Timestamp::from_dhms(0, 16, 0, 0),
            ),
            Query::Semantics,
        ),
    ]
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trips-server-wal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        durability: Some(DurabilityConfig::new(dir)),
        ..ServerConfig::default()
    }
}

fn answers(client: &mut Client) -> Vec<QueryResult> {
    queries_to_compare()
        .into_iter()
        .map(|q| client.query(q).unwrap().unwrap())
        .collect()
}

fn ingest_all(client: &mut Client, traffic: &[(DeviceId, Vec<RawRecord>)]) {
    for (_, records) in traffic {
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
}

/// Ingest → flush → capture answers → graceful drain → reboot from the
/// same WAL directory (no checkpoint was ever taken, so this is pure
/// replay) → identical answers.
#[test]
fn wal_replay_restores_query_results_across_restart() {
    let dir = wal_dir("replay");
    let before;
    {
        let boot = deployment();
        let server = TripsServer::new(boot.dsm, boot.editor, durable_config(&dir)).unwrap();
        assert!(
            server.recovery_report().unwrap().replayed_records == 0,
            "fresh dir"
        );
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        ingest_all(&mut client, &traffic(0xD00D));

        // WAL occupancy is observable over the wire.
        match client.health().unwrap() {
            Response::Health(h) => {
                let wal = h.wal.expect("durable server reports wal stats");
                assert!(wal.records_since_checkpoint > 0, "ingest journaled");
                assert!(wal.segments >= 1);
                assert!(wal.last_checkpoint_age_ms.is_none(), "never checkpointed");
            }
            other => panic!("health failed: {other:?}"),
        }
        before = answers(&mut client);
        drop(client);
        handle.shutdown().unwrap();
    }

    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, durable_config(&dir)).unwrap();
    let report = server.recovery_report().unwrap().clone();
    assert!(!report.snapshot_loaded, "no checkpoint was taken");
    assert!(report.replayed_records > 0, "ingest replayed from the WAL");
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        answers(&mut client),
        before,
        "recovery is invisible to queries"
    );
    drop(client);
    handle.shutdown().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// `Snapshot` on a durable server = checkpoint + compact: the response
/// carries the checkpoint path inside the WAL dir, older segments are
/// retired, and a restart replays only post-checkpoint mutations — while
/// answering identically.
#[test]
fn snapshot_request_checkpoints_compacts_and_recovers() {
    let dir = wal_dir("checkpoint");
    let before;
    {
        let boot = deployment();
        let server = TripsServer::new(boot.dsm, boot.editor, durable_config(&dir)).unwrap();
        let handle = server.spawn("127.0.0.1:0").unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        ingest_all(&mut client, &traffic(0xBEEF));

        match client.snapshot("ignored-on-durable-servers").unwrap() {
            Response::SnapshotSaved { path, .. } => {
                assert!(
                    path.starts_with(dir.to_str().unwrap()),
                    "checkpoint lives in the wal dir, got {path}"
                );
                assert!(PathBuf::from(&path).exists());
            }
            other => panic!("snapshot failed: {other:?}"),
        }
        match client.metrics().unwrap() {
            Response::Metrics(m) => {
                let wal = m.wal.expect("durable server reports wal metrics");
                assert_eq!(wal.records_since_checkpoint, 0, "checkpoint resets debt");
                assert!(wal.last_checkpoint_age_ms.is_some());
                assert_eq!(wal.segments, 1, "older segments retired");
            }
            other => panic!("metrics failed: {other:?}"),
        }

        // Post-checkpoint traffic lands in the new segment only.
        ingest_all(&mut client, &traffic(0xF00D));
        before = answers(&mut client);
        drop(client);
        handle.shutdown().unwrap();
    }

    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, durable_config(&dir)).unwrap();
    let report = server.recovery_report().unwrap().clone();
    assert!(report.snapshot_loaded, "checkpoint snapshot used");
    assert!(report.replayed_records > 0, "post-checkpoint ops replayed");
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(answers(&mut client), before);
    drop(client);
    handle.shutdown().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// The blocking client against a socket that accepts and then never
/// replies: with a read timeout installed the call returns a typed
/// timeout error in bounded time instead of hanging forever.
#[test]
fn client_read_timeout_bounds_a_stalled_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Accept connections, read nothing, write nothing, never close.
    let stall = std::thread::spawn(move || {
        let mut held = Vec::new();
        while held.len() < 2 {
            if let Ok((stream, _)) = listener.accept() {
                held.push(stream);
            }
        }
        std::thread::sleep(StdDuration::from_secs(5));
        drop(held);
    });

    // Via connect_with_timeout (timeout installed automatically).
    let mut client = Client::connect_with_timeout(addr, StdDuration::from_millis(200)).unwrap();
    let t0 = Instant::now();
    let err = client.ping().expect_err("stalled server must time out");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{err}"
    );
    assert!(
        t0.elapsed() < StdDuration::from_secs(3),
        "timed out in bounded time, took {:?}",
        t0.elapsed()
    );

    // Via set_read_timeout on a plain connection.
    let mut client = Client::connect(addr).unwrap();
    client
        .set_read_timeout(Some(StdDuration::from_millis(200)))
        .unwrap();
    let err = client.ping().expect_err("stalled server must time out");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{err}"
    );
    drop(client);
    let _ = stall.join();
}
