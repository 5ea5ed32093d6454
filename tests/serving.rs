//! The serving layer through the root facade: boot a server from the
//! prelude types, round-trip ingest → flush → query over TCP, and check a
//! pipelined v2 session against an in-process streaming translator.

use std::sync::Arc;
use trips::core::stream::{StreamConfig, StreamingTranslator};
use trips::prelude::*;
use trips::server::{bootstrap_scenario, Request, Response};
use trips::store::{device_hash, StoreHealth};

/// `records` re-attributed to `device` (same positions and times).
fn relabel(records: &[RawRecord], device: &str) -> Vec<RawRecord> {
    let device = DeviceId::new(device);
    records
        .iter()
        .map(|r| RawRecord {
            device: device.clone(),
            ..r.clone()
        })
        .collect()
}

#[test]
fn facade_serves_ingest_and_query_over_tcp() {
    let boot = bootstrap_scenario(
        1,
        2,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0xFACE,
            ..ScenarioConfig::default()
        },
    );
    let traffic = trips::sim::scenario::generate(
        1,
        2,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0xD00D,
            ..ScenarioConfig::default()
        },
    );

    // The oracle below translates with the same deployment in-process.
    let (dsm, editor) = (boot.dsm.clone(), boot.editor.clone());
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let store = server.store();
    let handle = server.spawn("127.0.0.1:0").unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.ping().unwrap(), Response::Pong);
    for trace in &traffic.traces {
        match client.ingest(trace.raw.records().to_vec()).unwrap() {
            Response::Ingested { rejected, .. } => assert_eq!(rejected, 0),
            other => panic!("ingest failed: {other:?}"),
        }
    }
    match client.flush(None).unwrap() {
        Response::Flushed { devices, .. } => assert_eq!(devices, traffic.traces.len()),
        other => panic!("flush failed: {other:?}"),
    }

    // Query over the wire...
    let wire = match client
        .query_parts(SemanticsSelector::all(), Query::PopularRegions)
        .unwrap()
        .unwrap()
    {
        QueryResult::PopularRegions(p) => p,
        other => panic!("wrong variant: {other:?}"),
    };
    assert!(!wire.is_empty(), "two shoppers must produce semantics");
    // ...agrees with the in-process store it serves.
    assert_eq!(wire, store.popular_regions(&SemanticsSelector::all()));
    // And the cheap health view agrees with the store.
    match client.health().unwrap() {
        Response::Health(h) => {
            let expected: StoreHealth = store.store_stats();
            assert_eq!(h.store, expected);
            assert!(h.store.semantics > 0);
        }
        other => panic!("health failed: {other:?}"),
    }

    // One v2 connection pipelines a single-device batch and a batch mixing
    // two devices on different translator shards (their hashes differ in
    // the low two bits, and there are at least four shards), then flushes
    // its session — every ingest shape goes through the same path.
    let solo = relabel(traffic.traces[0].raw.records(), "v2-solo");
    let (mix_a, mix_b) = ("v2-mix-a", "v2-mix-b");
    assert_ne!(
        device_hash(&DeviceId::new(mix_a)) & 3,
        device_hash(&DeviceId::new(mix_b)) & 3,
        "the mixed batch must span translator shards"
    );
    let (a, b) = (
        relabel(traffic.traces[0].raw.records(), mix_a),
        relabel(traffic.traces[1].raw.records(), mix_b),
    );
    let mixed: Vec<RawRecord> = (0..a.len().max(b.len()))
        .flat_map(|i| a.get(i).into_iter().chain(b.get(i)).cloned())
        .collect();
    let mut v2 = Client::connect_v2(handle.addr()).unwrap();
    let replies = v2
        .call_pipelined(vec![
            Request::Ingest {
                records: solo.clone(),
            },
            Request::Ingest {
                records: mixed.clone(),
            },
            Request::Flush { device: None },
        ])
        .unwrap();
    for (reply, sent) in replies.iter().zip([solo.len(), mixed.len()]) {
        match reply {
            Response::Ingested {
                accepted, rejected, ..
            } => assert_eq!((*accepted, *rejected), (sent, 0)),
            other => panic!("v2 ingest failed: {other:?}"),
        }
    }
    match &replies[2] {
        Response::Flushed { devices, .. } => assert_eq!(*devices, 3),
        other => panic!("v2 flush failed: {other:?}"),
    }

    // The oracle: one in-process streaming translator fed the same records
    // in the same per-device order, flushed at the same points.
    let oracle_store = Arc::new(SemanticsStore::new());
    let mut oracle = StreamingTranslator::from_editor(&dsm, &editor, None, StreamConfig::default())
        .unwrap()
        .with_store(oracle_store.clone());
    for trace in &traffic.traces {
        for record in trace.raw.records() {
            oracle.push(record.clone());
        }
    }
    for trace in &traffic.traces {
        oracle.flush_device(trace.raw.device());
    }
    for record in solo.iter().chain(&mixed) {
        oracle.push(record.clone());
    }
    for device in ["v2-solo", mix_a, mix_b] {
        oracle.flush_device(&DeviceId::new(device));
    }
    for query in [Query::Stats, Query::PopularRegions] {
        let wire = v2
            .query_parts(SemanticsSelector::all(), query.clone())
            .unwrap()
            .unwrap();
        let want = oracle_store.query(&QueryRequest::new(SemanticsSelector::all(), query));
        assert_eq!(
            wire, want,
            "served store diverged from the in-process translator"
        );
        if let QueryResult::Stats(stats) = &wire {
            assert_eq!(stats.devices, traffic.traces.len() + 3);
        }
    }
    drop(v2);
    drop(client);
    let report = handle.shutdown().unwrap();
    assert_eq!(report.bad_requests, 0);
    assert_eq!(report.shed, 0);
}

#[test]
fn facade_durable_server_checkpoints_and_restarts_with_identical_answers() {
    let scenario = |seed| ScenarioConfig {
        devices: 2,
        days: 1,
        seed,
        ..ScenarioConfig::default()
    };
    let traffic = trips::sim::scenario::generate(1, 2, &scenario(0xD00D));
    let dir = std::env::temp_dir().join(format!("trips-facade-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let boot = || {
        let boot = bootstrap_scenario(1, 2, &scenario(0xFACE));
        let config = ServerConfig {
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServerConfig::default()
        };
        TripsServer::new(boot.dsm, boot.editor, config).unwrap()
    };
    let queries = [
        Query::Semantics,
        Query::PopularRegions,
        Query::TopFlows { limit: 20 },
        Query::DeviceSummaries,
    ];
    let answers = |client: &mut Client| -> Vec<QueryResult> {
        queries
            .iter()
            .map(|q| {
                client
                    .query_parts(SemanticsSelector::all(), q.clone())
                    .unwrap()
                    .unwrap()
            })
            .collect()
    };

    let handle = boot().spawn("127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for trace in &traffic.traces {
        match client.ingest(trace.raw.records().to_vec()).unwrap() {
            Response::Ingested { rejected, .. } => assert_eq!(rejected, 0),
            other => panic!("ingest failed: {other:?}"),
        }
    }
    // The checkpoint flushes the open sessions itself.
    match client.snapshot("ignored").unwrap() {
        Response::SnapshotSaved { semantics, .. } => assert!(semantics > 0),
        other => panic!("snapshot failed: {other:?}"),
    }
    let before = answers(&mut client);
    drop(client);
    handle.shutdown().unwrap();

    let server = boot();
    assert!(server.recovery_report().unwrap().snapshot_loaded);
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(answers(&mut client), before, "restart must be lossless");
    drop(client);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One v2 write of ~1 MiB — four times the bytes a loop shard reads per
/// lap — of pings with ingest batches mixed in. Every request is answered,
/// in order, without the client writing again: the shard keeps coming
/// back for the bytes still in the socket and for the requests still in
/// its read buffer.
#[test]
fn one_write_larger_than_the_read_budget_is_answered_in_full() {
    let boot = bootstrap_scenario(
        1,
        2,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0xFACE,
            ..ScenarioConfig::default()
        },
    );
    let traffic = trips::sim::scenario::generate(
        1,
        2,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0xD00D,
            ..ScenarioConfig::default()
        },
    );
    let records = relabel(traffic.traces[0].raw.records(), "big-write");
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();

    let mut reqs = Vec::new();
    let mut batches = records.chunks(50).cycle();
    let mut wire_bytes = 0;
    while wire_bytes < 4 * trips::server::server::DEFAULT_READ_BUDGET {
        let req = if reqs.len() % 500 == 499 {
            Request::Ingest {
                records: batches.next().unwrap().to_vec(),
            }
        } else {
            Request::Ping
        };
        wire_bytes += trips::server::codec::encode_request_frame(&trips::server::RequestEnvelope {
            v: 2,
            id: 1,
            req: req.clone(),
        })
        .len();
        reqs.push(req);
    }

    let mut client = Client::connect_v2(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let replies = client.call_pipelined(reqs.clone()).unwrap();
    assert_eq!(replies.len(), reqs.len());
    for (i, (req, reply)) in reqs.iter().zip(&replies).enumerate() {
        match (req, reply) {
            (Request::Ping, Response::Pong) => {}
            (
                Request::Ingest { records },
                Response::Ingested {
                    accepted, rejected, ..
                },
            ) => {
                assert_eq!((*accepted, *rejected), (records.len(), 0), "reply {i}")
            }
            other => panic!("reply {i} does not answer its request: {other:?}"),
        }
    }
    drop(client);
    let report = handle.shutdown().unwrap();
    assert_eq!((report.bad_requests, report.shed), (0, 0));
}

/// On a single loop shard, a client pipelines queries whose replies
/// overflow the socket buffers and reads nothing. The shard must not
/// stall on that blocked socket: another client's ping is answered within
/// a second. Afterwards the first client reads every reply, in order.
#[test]
fn a_client_that_stops_reading_does_not_stall_its_loop_shard() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    use trips::server::codec;

    let boot = bootstrap_scenario(
        1,
        2,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0xFACE,
            ..ScenarioConfig::default()
        },
    );
    let config = ServerConfig {
        loop_shards: 1,
        ..ServerConfig::default()
    };
    let server = TripsServer::new(boot.dsm, boot.editor, config).unwrap();
    let store = server.store();
    let device = DeviceId::new("hoarder");
    let sems: Vec<MobilitySemantics> = (0..10_000i64)
        .map(|i| MobilitySemantics {
            device: device.clone(),
            event: "stay".into(),
            region: RegionId((i % 7) as u32),
            region_name: format!("R{}", i % 7).into(),
            start: Timestamp::from_millis(i * 60_000),
            end: Timestamp::from_millis(i * 60_000 + 30_000),
            inferred: false,
            display_point: None,
        })
        .collect();
    store.ingest(&device, &sems);
    let handle = server.spawn("127.0.0.1:0").unwrap();

    // 48 queries of 10,000 semantics each: tens of MiB of replies, far
    // more than the socket buffers on both ends hold.
    const QUERIES: u64 = 48;
    let mut hoarder = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut wire = Vec::new();
    for id in 1..=QUERIES {
        wire.extend(codec::encode_request_frame(
            &trips::server::RequestEnvelope {
                v: 2,
                id,
                req: Request::Query {
                    request: QueryRequest::new(SemanticsSelector::all(), Query::Semantics),
                },
            },
        ));
    }
    hoarder.write_all(&wire).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    let mut pinger = Client::connect_v2(handle.addr()).unwrap();
    let started = Instant::now();
    assert_eq!(pinger.ping().unwrap(), Response::Pong);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a ping waited {:?} behind a client that stopped reading",
        started.elapsed()
    );

    hoarder
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for want in 1..=QUERIES {
        let mut header = [0u8; codec::HEADER_LEN];
        hoarder.read_exact(&mut header).unwrap();
        let (len, crc) = codec::parse_header(&header).unwrap().unwrap();
        let mut payload = vec![0u8; len];
        hoarder.read_exact(&mut payload).unwrap();
        codec::check_crc(&payload, crc).unwrap();
        let env = codec::decode_response_payload(&payload).unwrap();
        assert_eq!(env.id, want, "replies arrive in request order");
        match env.resp {
            Response::Query {
                result: QueryResult::Semantics(got),
            } => assert_eq!(got.len(), sems.len()),
            other => panic!("reply {want} is not the query's answer: {other:?}"),
        }
    }
    drop((hoarder, pinger));
    let report = handle.shutdown().unwrap();
    assert_eq!((report.bad_requests, report.shed), (0, 0));
}
