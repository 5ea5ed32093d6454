//! End-to-end standing-query tests: subscribe TQL rules over TCP (both
//! protocol versions), stream traffic, and assert pushed alerts arrive on
//! the subscribing connections — plus the session-scoping rules: only the
//! owning connection can unsubscribe, and teardown unregisters.

use std::time::{Duration as StdDuration, Instant};
use trips_data::{DeviceId, RawRecord, Timestamp};
use trips_server::{
    bootstrap_scenario, Client, Response, ServerBootstrap, ServerConfig, ServerError, TripsServer,
};
use trips_sim::ScenarioConfig;
use trips_store::{Alert, QueryResult};

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

/// A walk for `device` that crosses the mall floor, so the translator
/// publishes at least one region entry when flushed.
fn walk(device: &str, base_minutes: i64) -> Vec<RawRecord> {
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

fn drain_alerts(client: &mut Client, quiet: StdDuration) -> Vec<Alert> {
    let mut alerts = Vec::new();
    while let Some(alert) = client.recv_alert(quiet).unwrap() {
        alerts.push(alert);
    }
    alerts
}

#[test]
fn standing_rules_alert_over_both_protocols() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut sub_v1 = Client::connect(addr).unwrap();
    let mut sub_v2 = Client::connect_v2(addr).unwrap();
    let tql = r#"RULE "entries" WHEN device ENTERS region "*" ALERT "device entered""#;
    let (id_v1, name_v1) = sub_v1.subscribe(tql).unwrap().unwrap();
    let (id_v2, name_v2) = sub_v2.subscribe(tql).unwrap().unwrap();
    assert_ne!(id_v1, id_v2);
    assert_eq!(name_v1, "entries");
    assert_eq!(name_v2, "entries");

    // A third connection streams two devices and flushes — publication
    // runs the rules, which push to both subscribers.
    let mut feeder = Client::connect(addr).unwrap();
    for device in ["walker-a", "walker-b"] {
        match feeder.ingest(walk(device, 0)).unwrap() {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
            other => panic!("ingest failed: {other:?}"),
        }
    }
    match feeder.flush(None).unwrap() {
        Response::Flushed { .. } => {}
        other => panic!("flush failed: {other:?}"),
    }

    let a_v1 = drain_alerts(&mut sub_v1, StdDuration::from_secs(2));
    let a_v2 = drain_alerts(&mut sub_v2, StdDuration::from_secs(2));
    assert!(
        a_v1.len() >= 2,
        "both walkers entered at least one region: {a_v1:?}"
    );
    assert_eq!(
        a_v1.len(),
        a_v2.len(),
        "identical rules over identical traffic fire identically"
    );
    for alert in &a_v1 {
        assert_eq!(alert.rule_id, id_v1);
        assert_eq!(alert.rule_name, "entries");
        assert_eq!(alert.message, "device entered");
        assert!(alert.device.is_some(), "ENTERS alerts carry the device");
        assert!(alert.region.is_some(), "ENTERS alerts carry the region");
    }
    assert!(a_v2.iter().all(|a| a.rule_id == id_v2));

    // Traces are server-wide and visible from any connection.
    let rules = feeder.list_rules().unwrap().unwrap();
    assert_eq!(rules.len(), 2);
    for trace in &rules {
        assert_eq!(trace.name, "entries");
        assert_eq!(trace.fires, a_v1.len() as u64);
        assert!(
            trace.source.contains("ENTERS"),
            "trace echoes canonical TQL"
        );
    }
    match feeder.metrics().unwrap() {
        Response::Metrics(report) => {
            assert_eq!(report.rules.len(), 2);
            assert_eq!(report.alerts_delivered, (a_v1.len() + a_v2.len()) as u64);
            assert_eq!(report.alerts_dropped, 0);
        }
        other => panic!("metrics failed: {other:?}"),
    }

    // Ownership: a session can only unsubscribe its own rules.
    assert!(!sub_v1.unsubscribe(id_v2).unwrap().unwrap(), "not its rule");
    assert!(!sub_v1.unsubscribe(99_999).unwrap().unwrap());
    assert!(sub_v1.unsubscribe(id_v1).unwrap().unwrap());
    assert!(!sub_v1.unsubscribe(id_v1).unwrap().unwrap(), "already gone");

    // After v1 unsubscribes, fresh traffic alerts only the v2 subscriber.
    match feeder.ingest(walk("walker-c", 30)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }
    match feeder.flush(Some("walker-c")).unwrap() {
        Response::Flushed { .. } => {}
        other => panic!("flush failed: {other:?}"),
    }
    let late_v2 = drain_alerts(&mut sub_v2, StdDuration::from_secs(2));
    assert!(!late_v2.is_empty(), "surviving subscription still fires");
    assert!(
        drain_alerts(&mut sub_v1, StdDuration::from_millis(200)).is_empty(),
        "unsubscribed session goes quiet"
    );

    drop((sub_v1, sub_v2, feeder));
    handle.shutdown().unwrap();
}

/// An alert caused by an ingest on one loop shard must reach a subscriber
/// owned by another: the one reply path that still crosses threads.
#[test]
fn alerts_cross_loop_shards() {
    let boot = deployment();
    let server = TripsServer::new(
        boot.dsm,
        boot.editor,
        ServerConfig {
            loop_shards: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Connected before either sends anything, so idle placement deals them
    // to different shards.
    let mut subscriber = Client::connect_v2(addr).unwrap();
    let mut feeder = Client::connect(addr).unwrap();
    let deadline = Instant::now() + StdDuration::from_secs(5);
    loop {
        let conns: Vec<usize> = match subscriber.metrics().unwrap() {
            Response::Metrics(m) => m.loop_shards.iter().map(|s| s.connections).collect(),
            other => panic!("metrics failed: {other:?}"),
        };
        if conns.iter().sum::<usize>() == 2 {
            assert_eq!(conns, vec![1, 1], "one connection per shard");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "placement never settled: {conns:?}"
        );
        std::thread::sleep(StdDuration::from_millis(10));
    }

    let tql = r#"RULE "entries" WHEN device ENTERS region "*" ALERT "device entered""#;
    let (rule_id, _) = subscriber.subscribe(tql).unwrap().unwrap();
    match feeder.ingest(walk("walker-x", 0)).unwrap() {
        Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
        other => panic!("ingest failed: {other:?}"),
    }
    match feeder.flush(None).unwrap() {
        Response::Flushed { emitted, .. } => assert!(emitted > 0),
        other => panic!("flush failed: {other:?}"),
    }
    let alerts = drain_alerts(&mut subscriber, StdDuration::from_secs(2));
    assert!(!alerts.is_empty(), "the pushed alert crossed shards");
    assert!(alerts.iter().all(|a| a.rule_id == rule_id));

    drop((subscriber, feeder));
    handle.shutdown().unwrap();
}

#[test]
fn subscribe_rejects_find_and_bad_tql() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    match client.subscribe("FIND stats").unwrap() {
        Err(ServerError::BadRequest { message }) => {
            assert!(
                message.contains("one-shot"),
                "explains the split: {message}"
            );
        }
        other => panic!("FIND over Subscribe must be rejected: {other:?}"),
    }
    // Parse errors come back with the rendered caret diagnostic.
    match client.subscribe("WHEN device ENTERS room 3 ALERT").unwrap() {
        Err(ServerError::BadRequest { message }) => {
            assert!(message.contains("expected `region"), "{message}");
            assert!(message.contains('^'), "caret rendering included: {message}");
        }
        other => panic!("bad TQL must be rejected: {other:?}"),
    }
    // The connection is fine afterwards — and one-shot TQL works on it.
    match client.query_tql("FIND stats").unwrap().unwrap() {
        QueryResult::Stats(_) => {}
        other => panic!("expected stats: {other:?}"),
    }

    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn teardown_unregisters_session_rules() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut subscriber = Client::connect_v2(addr).unwrap();
    subscriber
        .subscribe(r#"WHEN occupancy(region "*") > 1000 ALERT "crowded""#)
        .unwrap()
        .unwrap();
    let mut observer = Client::connect(addr).unwrap();
    assert_eq!(observer.list_rules().unwrap().unwrap().len(), 1);

    // Closing the subscribing connection must unregister its rules once
    // the loop shard notices the hangup.
    drop(subscriber);
    let deadline = Instant::now() + StdDuration::from_secs(5);
    loop {
        if observer.list_rules().unwrap().unwrap().is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rules survived their session's teardown"
        );
        std::thread::sleep(StdDuration::from_millis(25));
    }

    drop(observer);
    handle.shutdown().unwrap();
}

#[test]
fn rules_subscribed_later_do_not_count_departed_devices() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let feed = |client: &mut Client, device: &str| {
        match client.ingest(walk(device, 0)).unwrap() {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
            other => panic!("ingest failed: {other:?}"),
        }
        match client.flush(Some(device)).unwrap() {
            Response::Flushed { .. } => {}
            other => panic!("flush failed: {other:?}"),
        }
    };

    // One session subscribes an occupancy rule and streams a device, so
    // the device is counted while it is inside the venue.
    let mut first = Client::connect_v2(addr).unwrap();
    first
        .subscribe(r#"WHEN occupancy(region "*") > 1000 ALERT "crowded""#)
        .unwrap()
        .unwrap();
    feed(&mut first, "walker-a");

    // Closing it unregisters the last rule, then ends walker-a's session:
    // the device leaves while no rule tracks anything.
    drop(first);
    let mut observer = Client::connect(addr).unwrap();
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !observer.list_rules().unwrap().unwrap().is_empty() {
        assert!(Instant::now() < deadline, "rules survived their session");
        std::thread::sleep(StdDuration::from_millis(25));
    }
    // Teardown ends the session's devices right after unregistering; give
    // it time to, so walker-a has left before the next subscription. The
    // assertions below hold whichever comes first.
    std::thread::sleep(StdDuration::from_millis(200));

    // A new subscriber's rule must count only devices present now.
    let mut second = Client::connect_v2(addr).unwrap();
    second
        .subscribe(r#"WHEN occupancy(region "*") >= 2 ALERT "pair""#)
        .unwrap()
        .unwrap();
    feed(&mut observer, "walker-b");
    let ghost = drain_alerts(&mut second, StdDuration::from_millis(500));
    assert!(ghost.is_empty(), "walker-a left before walker-b: {ghost:?}");
    feed(&mut observer, "walker-c");
    let pair = drain_alerts(&mut second, StdDuration::from_secs(2));
    assert_eq!(
        pair.len(),
        1,
        "walker-b and walker-c are both inside: {pair:?}"
    );

    drop((second, observer));
    handle.shutdown().unwrap();
}
