//! Adaptive loop-shard placement: the acceptor places each new connection
//! on the least-loaded shard (an EWMA over observed bytes read + queued
//! jobs), so while one connection keeps its shard busy, new connections
//! land on the other shard — and stay fully serviceable there.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use trips_data::{DeviceId, RawRecord, Timestamp};
use trips_server::{bootstrap_scenario, Client, Response, ServerConfig, TripsServer};
use trips_sim::ScenarioConfig;

#[test]
fn new_connections_avoid_the_hot_shard() {
    let boot = bootstrap_scenario(
        1,
        3,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0xBA1A,
            ..ScenarioConfig::default()
        },
    );
    let handle = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            loop_shards: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn("127.0.0.1:0")
    .unwrap();
    let addr = handle.addr();

    // One connection hammers ingest so its shard's observed load (bytes +
    // jobs) dominates; while it is hot, every new connection is placed on
    // the other shard.
    let stop = AtomicBool::new(false);
    let counts = std::thread::scope(|s| {
        let stop = &stop;
        s.spawn(move || {
            let mut hot = Client::connect(addr).unwrap();
            let records: Vec<RawRecord> = (0..50)
                .map(|i| {
                    RawRecord::new(
                        DeviceId::new("3a.7f.00.01"),
                        1.0 + i as f64 * 0.1,
                        2.0,
                        0,
                        Timestamp::from_millis(i * 1000),
                    )
                })
                .collect();
            while !stop.load(Ordering::Relaxed) {
                let _ = hot.ingest(records.clone());
            }
        });
        // Held idle connections, opened while the hot shard is busy.
        std::thread::sleep(Duration::from_millis(200));
        let mut held: Vec<Client> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
        // A Pong proves the owning shard adopted the connection, so the
        // per-shard gauges below count all four.
        for client in &mut held {
            match client.ping().unwrap() {
                Response::Pong => {}
                other => panic!("ping on a held connection failed: {other:?}"),
            }
        }
        let counts: Vec<usize> = match held[0].metrics().unwrap() {
            Response::Metrics(m) => m.loop_shards.iter().map(|s| s.connections).collect(),
            other => panic!("metrics failed: {other:?}"),
        };
        stop.store(true, Ordering::Relaxed);
        counts
    });

    // The hot connection alone on one shard, the four held ones together
    // on the other.
    let mut sorted = counts.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        vec![1, 4],
        "held connections must avoid the hot shard: {counts:?}"
    );
    handle.shutdown().unwrap();
}
