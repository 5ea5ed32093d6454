//! Cross-session regression tests: a connection's `Flush { device: None }`
//! and its teardown must be scoped to *its own* session, never touching
//! devices other live connections are still streaming; a non-durable
//! server must refuse wire-level snapshots without writing anything.
//!
//! These pin the two serving bugs fixed alongside protocol v2:
//!
//! 1. flush-all used to call `translator.finish()`, flushing **every**
//!    connection's buffers;
//! 2. teardown used to flush + `end_session` every device the connection
//!    had ingested, even when another live connection was still streaming
//!    the same device.

use std::time::Duration as StdDuration;
use trips_data::{DeviceId, RawRecord, Timestamp};
use trips_server::{
    bootstrap_scenario, Client, Response, ServerBootstrap, ServerConfig, ServerError, TripsServer,
};
use trips_sim::ScenarioConfig;

fn deployment() -> ServerBootstrap {
    bootstrap_scenario(
        1,
        3,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0x5E55,
            ..ScenarioConfig::default()
        },
    )
}

/// A short burst of records for `device` that stays buffered: the
/// timestamps sit well inside the default 10-minute flush gap and far
/// under the buffer cap, so only a flush or a session end publishes them.
fn buffered_burst(device: &str, base_minutes: i64) -> Vec<RawRecord> {
    (0..20)
        .map(|i| {
            RawRecord::new(
                DeviceId::new(device),
                4.0 + (i as f64) * 0.4,
                5.0,
                0,
                Timestamp::from_dhms(0, 10, base_minutes, i * 2),
            )
        })
        .collect()
}

fn open_devices(client: &mut Client) -> usize {
    match client.health().unwrap() {
        Response::Health(h) => h.open_devices,
        other => panic!("health failed: {other:?}"),
    }
}

/// Bugfix 1: a flush-all from one connection leaves other sessions'
/// buffers alone.
#[test]
fn flush_all_is_scoped_to_the_requesting_session() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect_v2(addr).unwrap(); // mixed versions on purpose

    // Each session streams its own device; both stay buffered.
    match a.ingest(buffered_burst("dev-a", 0)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest a failed: {other:?}"),
    }
    match b.ingest(buffered_burst("dev-b", 0)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest b failed: {other:?}"),
    }
    assert_eq!(open_devices(&mut a), 2, "both devices buffered");

    // A's flush-all publishes dev-a only.
    match a.flush(None).unwrap() {
        Response::Flushed { devices, .. } => {
            assert_eq!(
                devices, 1,
                "flush-all touches only the session's own device"
            )
        }
        other => panic!("flush failed: {other:?}"),
    }
    assert_eq!(
        open_devices(&mut a),
        1,
        "dev-b still buffered after a's flush-all"
    );

    // B's flush-all now publishes dev-b.
    match b.flush(None).unwrap() {
        Response::Flushed { devices, .. } => assert_eq!(devices, 1),
        other => panic!("flush failed: {other:?}"),
    }
    assert_eq!(open_devices(&mut a), 0);

    // A flush-all from a session that never ingested is a no-op.
    let mut bystander = Client::connect(addr).unwrap();
    match bystander.flush(None).unwrap() {
        Response::Flushed { devices, emitted } => assert_eq!((devices, emitted), (0, 0)),
        other => panic!("flush failed: {other:?}"),
    }

    drop((a, b, bystander));
    handle.shutdown().unwrap();
}

/// Bugfix 2: disconnecting one of two connections streaming the *same*
/// device must not flush or end the device's session — the refcount only
/// reaches zero when the last connection goes away.
#[test]
fn teardown_spares_devices_shared_with_live_sessions() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut watch = Client::connect(addr).unwrap();
    let mut first = Client::connect(addr).unwrap();
    let mut second = Client::connect_v2(addr).unwrap();

    // Both connections stream the same device (a device roaming between
    // access points reaches the server over more than one ingest path).
    match first.ingest(buffered_burst("dev-shared", 0)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }
    match second.ingest(buffered_burst("dev-shared", 1)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }
    assert_eq!(open_devices(&mut watch), 1);

    // First connection goes away; the device must stay open because the
    // second connection still streams it.
    drop(first);
    // Teardown is immediate on the event loop, but give it a few health
    // round-trips to be observed — the device must *remain* open.
    for _ in 0..10 {
        assert_eq!(
            open_devices(&mut watch),
            1,
            "shared device survives the first disconnect"
        );
        std::thread::sleep(StdDuration::from_millis(5));
    }

    // The survivor keeps streaming — the buffer is still live.
    match second.ingest(buffered_burst("dev-shared", 2)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }

    // Last reference gone: now the device flushes and its session ends.
    drop(second);
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    loop {
        if open_devices(&mut watch) == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "last disconnect must flush the shared device"
        );
        std::thread::sleep(StdDuration::from_millis(10));
    }

    drop(watch);
    handle.shutdown().unwrap();
}

/// The session invariants must hold *across loop shards*: with four
/// event-loop shards the acceptor deals consecutive connections to
/// different shards, so two clients streaming the same device live on
/// different loops (and their device's session buffer in one shared
/// buffer shard). Flush-all stays session-scoped, teardown stays
/// refcounted, and `Metrics` reports the shard topology.
#[test]
fn sessions_hold_across_loop_shards() {
    let boot = deployment();
    let server = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            loop_shards: 4,
            shards: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Connect in order: round-robin places each on its own loop shard
    // (watch:0, solo:1, first:2, second:3), mixing wire versions.
    let mut watch = Client::connect(addr).unwrap();
    let mut solo = Client::connect(addr).unwrap();
    let mut first = Client::connect(addr).unwrap();
    let mut second = Client::connect_v2(addr).unwrap();

    match solo.ingest(buffered_burst("dev-solo", 0)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }
    match first.ingest(buffered_burst("dev-shared", 0)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }
    match second.ingest(buffered_burst("dev-shared", 1)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }
    assert_eq!(open_devices(&mut watch), 2, "dev-solo + dev-shared open");

    // The topology is visible: four loop shards, each holding exactly one
    // of the four connections; a power-of-two translator shard count.
    match watch.metrics().unwrap() {
        Response::Metrics(m) => {
            assert_eq!(m.event_backend, "poll");
            assert_eq!(m.loop_shards.len(), 4);
            let conns: Vec<usize> = m.loop_shards.iter().map(|s| s.connections).collect();
            assert_eq!(conns, vec![1, 1, 1, 1], "round-robin spread: {conns:?}");
            assert_eq!(m.translator_shards, 4);
        }
        other => panic!("metrics failed: {other:?}"),
    }

    // solo's flush-all (from loop shard 1) publishes only its own device,
    // not dev-shared buffered on another translator shard by other loops.
    match solo.flush(None).unwrap() {
        Response::Flushed { devices, .. } => assert_eq!(devices, 1),
        other => panic!("flush failed: {other:?}"),
    }
    assert_eq!(open_devices(&mut watch), 1, "dev-shared still buffered");

    // first (loop shard 2) disconnects; second (loop shard 3) still
    // streams dev-shared — the cross-shard refcount must spare it.
    drop(first);
    for _ in 0..10 {
        assert_eq!(
            open_devices(&mut watch),
            1,
            "shared device survives a disconnect on another loop shard"
        );
        std::thread::sleep(StdDuration::from_millis(5));
    }
    match second.ingest(buffered_burst("dev-shared", 2)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }

    // Last reference gone: the device flushes and its session ends.
    drop(second);
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    loop {
        if open_devices(&mut watch) == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "last disconnect must flush the shared device"
        );
        std::thread::sleep(StdDuration::from_millis(10));
    }

    drop((watch, solo));
    handle.shutdown().unwrap();
}

/// Bugfix 3 (the wire must not name server paths): a non-durable server
/// refuses every `Snapshot` with a typed `BadRequest` whatever the path's
/// shape, writes nothing, and the session survives.
#[test]
fn snapshot_without_durability_is_refused_and_writes_nothing() {
    let root = std::env::temp_dir().join(format!("trips-snap-root-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();

    let boot = deployment();
    let config = ServerConfig {
        shards: 8,
        ..ServerConfig::default()
    };
    let server = TripsServer::new(boot.dsm, boot.editor, config).unwrap();
    // Without a WAL dir the store boots empty, in memory, sharded as asked.
    let store = server.store();
    assert!(store.is_empty() && !store.is_durable());
    assert_eq!(store.shard_count(), 8);
    assert!(server.recovery_report().is_none());
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let mut client = Client::connect_v2(handle.addr()).unwrap();

    match client.ingest(buffered_burst("dev-snap", 0)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }

    let absolute = root.join("mall.json").display().to_string();
    let relative = [
        "trips-snap-oops.json",
        "trips-snap-nightly/mall.json",
        "../trips-snap-escape.json",
    ];
    for path in relative.iter().copied().chain([absolute.as_str()]) {
        match client.snapshot(path).unwrap() {
            Response::Error(ServerError::BadRequest { message }) => {
                assert!(message.contains("--wal-dir"), "{path}: {message}")
            }
            other => panic!("{path} must be refused, got {other:?}"),
        }
    }
    assert_eq!(
        std::fs::read_dir(&root).unwrap().count(),
        0,
        "nothing written"
    );
    for path in relative {
        assert!(!std::path::Path::new(path).exists(), "{path} written");
    }

    // The refusal flushed nothing and the session keeps ingesting.
    assert_eq!(open_devices(&mut client), 1);
    match client.ingest(buffered_burst("dev-snap", 1)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest after refusal failed: {other:?}"),
    }

    drop(client);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
