//! Idle-connection reaping (`--idle-timeout`): connections with no
//! traffic past the timeout are closed by their event loop (checked on
//! its bounded wait laps), counted in `connections_reaped`, while active
//! connections ride through untouched.

use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use trips_server::{bootstrap_scenario, Client, Response, ServerConfig, TripsServer};
use trips_sim::ScenarioConfig;

#[test]
fn idle_connections_reaped_active_survive() {
    let boot = bootstrap_scenario(
        1,
        3,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0x1D1E,
            ..ScenarioConfig::default()
        },
    );
    let handle = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn("127.0.0.1:0")
    .unwrap();
    let addr = handle.addr();

    // A raw idle connection: never sends a byte, so it is quiescent from
    // the server's perspective and must be reaped after the timeout.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // An active connection pinging well inside the timeout window.
    let mut active = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_millis(1200);
    while Instant::now() < deadline {
        match active.ping().unwrap() {
            Response::Pong => {}
            other => panic!("active ping failed: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // The reaped socket reads EOF (server closed it); the blocking read
    // also proves the close actually happened rather than timing out.
    let mut buf = [0u8; 16];
    let n = idle.read(&mut buf).unwrap();
    assert_eq!(n, 0, "idle connection must be closed by the server");

    // The still-active connection works and the reap is accounted.
    match active.metrics().unwrap() {
        Response::Metrics(m) => {
            assert!(
                m.connections_reaped >= 1,
                "expected at least one reaped connection, got {}",
                m.connections_reaped
            );
        }
        other => panic!("metrics failed: {other:?}"),
    }
    handle.shutdown().unwrap();
}

/// With the timeout off (the default), idle connections are never reaped.
#[test]
fn no_timeout_means_no_reaping() {
    let boot = bootstrap_scenario(
        1,
        3,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0x1D1E,
            ..ScenarioConfig::default()
        },
    );
    let handle = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default())
        .unwrap()
        .spawn("127.0.0.1:0")
        .unwrap();
    let addr = handle.addr();
    let _idle = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let mut client = Client::connect(addr).unwrap();
    match client.metrics().unwrap() {
        Response::Metrics(m) => {
            assert_eq!(m.connections_reaped, 0);
            assert!(
                m.active_connections >= 2,
                "both connections must still be open, saw {}",
                m.active_connections
            );
        }
        other => panic!("metrics failed: {other:?}"),
    }
    handle.shutdown().unwrap();
}
