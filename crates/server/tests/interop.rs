//! Protocol interop: v1 and v2 clients against the same server, versions
//! mixed per message on one connection, malformed/truncated binary frames
//! (typed errors or a clean close — never a panic, never a wedged
//! server), and the v2 frame bytes pinned on the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use trips_data::{DeviceId, RawRecord, Timestamp};
use trips_server::{
    bootstrap_scenario, decode_response_frame, encode_request_frame, Client, Request,
    RequestEnvelope, Response, ServerBootstrap, ServerConfig, ServerError, TripsServer,
    FRAME_MAGIC, PROTOCOL_V2, PROTOCOL_VERSION,
};
use trips_sim::ScenarioConfig;
use trips_store::{Query, QueryResult, SemanticsSelector};
use trips_wal::crc32;

fn deployment() -> ServerBootstrap {
    bootstrap_scenario(
        1,
        3,
        &ScenarioConfig {
            devices: 2,
            days: 1,
            seed: 0x1217,
            ..ScenarioConfig::default()
        },
    )
}

fn burst(device: &str, minute: i64) -> Vec<RawRecord> {
    (0..20)
        .map(|i| {
            RawRecord::new(
                DeviceId::new(device),
                4.0 + (i as f64) * 0.4,
                5.0,
                0,
                Timestamp::from_dhms(0, 10, minute, i * 2),
            )
        })
        .collect()
}

/// Reads exactly one v2 frame off a raw socket.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 10];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(header[0], FRAME_MAGIC);
    let len = u32::from_le_bytes(header[2..6].try_into().unwrap()) as usize;
    let mut frame = header.to_vec();
    frame.resize(10 + len, 0);
    stream.read_exact(&mut frame[10..]).unwrap();
    frame
}

/// Four event-loop shards + four store (and session-buffer lock) shards:
/// the sharded topology every `*_across_loop_shards` variant runs under
/// (the acceptor deals consecutive connections to different loops).
fn sharded_config() -> ServerConfig {
    ServerConfig {
        loop_shards: 4,
        shards: 4,
        ..ServerConfig::default()
    }
}

/// A v2 client exercises every endpoint family end to end; the answers
/// match what a v1 client sees over the same server.
fn v2_client_matches_v1(config: ServerConfig) {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, config).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut v2 = Client::connect_v2(addr).unwrap();
    let mut v1 = Client::connect(addr).unwrap();

    assert_eq!(v2.ping().unwrap(), Response::Pong);
    match v2.ingest(burst("iop-1", 0)).unwrap() {
        Response::Ingested {
            accepted, rejected, ..
        } => assert_eq!((accepted, rejected), (20, 0)),
        other => panic!("v2 ingest failed: {other:?}"),
    }
    match v2.flush(Some("iop-1")).unwrap() {
        Response::Flushed { devices, emitted } => {
            assert_eq!(devices, 1);
            assert!(emitted >= 1);
        }
        other => panic!("v2 flush failed: {other:?}"),
    }

    // The two protocol versions must see identical query results.
    for query in [
        Query::Semantics,
        Query::PopularRegions,
        Query::TopFlows { limit: 10 },
        Query::DwellHistogram {
            bucket: trips_data::Duration::from_mins(5),
        },
        Query::DeviceSummaries,
        Query::Stats,
    ] {
        let from_v2 = v2
            .query_parts(SemanticsSelector::all(), query.clone())
            .unwrap()
            .unwrap();
        let from_v1 = v1
            .query_parts(SemanticsSelector::all(), query.clone())
            .unwrap()
            .unwrap();
        assert_eq!(from_v2, from_v1, "{query:?} differs across versions");
        if let QueryResult::Semantics(sems) = &from_v2 {
            assert!(!sems.is_empty(), "flushed semantics visible over v2");
        }
    }

    match v2.health().unwrap() {
        Response::Health(h) => assert_eq!(h.status, "ok"),
        other => panic!("v2 health failed: {other:?}"),
    }
    match v2.metrics().unwrap() {
        Response::Metrics(m) => assert!(m.requests > 0),
        other => panic!("v2 metrics failed: {other:?}"),
    }

    drop((v1, v2));
    handle.shutdown().unwrap();
}

#[test]
fn v2_client_full_roundtrip_matches_v1() {
    v2_client_matches_v1(ServerConfig::default());
}

/// The same interop pass with the clients split across four loop shards:
/// version detection, framing, and query results are per-connection state
/// and must not care which loop owns the socket.
#[test]
fn v2_client_full_roundtrip_matches_v1_across_loop_shards() {
    v2_client_matches_v1(sharded_config());
}

/// One connection may interleave v1 and v2 messages; the server answers
/// each in the framing it arrived in.
#[test]
fn versions_interleave_on_one_connection() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    for round in 0..4 {
        let version = if round % 2 == 0 {
            PROTOCOL_VERSION
        } else {
            PROTOCOL_V2
        };
        client.set_protocol(version).unwrap();
        assert_eq!(client.ping().unwrap(), Response::Pong, "round {round}");
        match client
            .ingest(burst(&format!("mix-{round}"), round))
            .unwrap()
        {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 20),
            other => panic!("round {round} ingest failed: {other:?}"),
        }
    }
    match client.flush(None).unwrap() {
        // All four devices belong to this one session regardless of which
        // framing carried their batches.
        Response::Flushed { devices, .. } => assert_eq!(devices, 4),
        other => panic!("flush failed: {other:?}"),
    }
    drop(client);
    handle.shutdown().unwrap();
}

/// Mixed-version concurrent clients: half v1, half v2, each streaming its
/// own device — every record lands, nothing interferes.
fn concurrent_mixed_versions(config: ServerConfig) {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, config).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let accepted = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for n in 0..8usize {
            let accepted = &accepted;
            s.spawn(move || {
                let mut client = if n % 2 == 0 {
                    Client::connect(addr).unwrap()
                } else {
                    Client::connect_v2(addr).unwrap()
                };
                for round in 0..5i64 {
                    match client.ingest(burst(&format!("cc-{n}"), round)).unwrap() {
                        Response::Ingested {
                            accepted: a,
                            rejected,
                            ..
                        } => {
                            assert_eq!(rejected, 0);
                            accepted.fetch_add(a, Ordering::Relaxed);
                        }
                        Response::Error(ServerError::Overloaded { .. }) => {}
                        other => panic!("client {n} ingest failed: {other:?}"),
                    }
                    // Interleaved analyst traffic on the same connection.
                    assert!(client
                        .query_parts(SemanticsSelector::all(), Query::Stats)
                        .unwrap()
                        .is_ok());
                }
                client.flush(None).unwrap();
            });
        }
    });
    assert_eq!(
        accepted.load(Ordering::Relaxed),
        8 * 5 * 20,
        "every batch landed (default queue never sheds this workload)"
    );

    let mut admin = Client::connect_v2(addr).unwrap();
    match admin
        .query_parts(SemanticsSelector::all(), Query::Stats)
        .unwrap()
        .unwrap()
    {
        QueryResult::Stats(stats) => assert_eq!(stats.devices, 8),
        other => panic!("wrong variant: {other:?}"),
    }
    drop(admin);
    handle.shutdown().unwrap();
}

#[test]
fn concurrent_mixed_version_clients() {
    concurrent_mixed_versions(ServerConfig::default());
}

/// Eight mixed-version clients dealt round-robin over four loop shards:
/// two connections per loop, devices hashed across translator shards —
/// the full sharded ingest path, with nothing lost and nothing crossed.
#[test]
fn concurrent_mixed_version_clients_across_loop_shards() {
    concurrent_mixed_versions(sharded_config());
}

/// The exact bytes of a v2 `Ping` frame, pinned: any codec change that
/// shifts the wire layout must be deliberate (and bump the version).
#[test]
fn golden_ping_frame_bytes_on_the_wire() {
    #[rustfmt::skip]
    let want = vec![
        0xF2,                   // magic
        0x02,                   // version
        9, 0, 0, 0,             // payload_len u32 le
        0xEB, 0xBE, 0xDB, 0x4F, // crc32c(payload) le
        1, 0, 0, 0, 0, 0, 0, 0, // id = 1 u64 le
        0,                      // tag: Ping
    ];
    let got = encode_request_frame(&RequestEnvelope {
        v: PROTOCOL_V2,
        id: 1,
        req: Request::Ping,
    });
    assert_eq!(got, want);

    // And the server really answers it: write the pinned bytes raw, read
    // a Pong frame back.
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&want).unwrap();
    let frame = read_frame(&mut raw);
    let (env, consumed) = decode_response_frame(&frame).unwrap().unwrap();
    assert_eq!(consumed, frame.len());
    assert_eq!((env.id, env.resp), (1, Response::Pong));
    drop(raw);
    handle.shutdown().unwrap();
}

/// Malformed and truncated binary frames: a well-delimited frame with a
/// bad body gets a typed `BadRequest` and the connection survives; frames
/// that desynchronize the stream (bad CRC, unknown version, oversized
/// length) get one error and a close; a truncated frame followed by
/// disconnect is ignored. The server never panics and keeps serving
/// throughout.
#[test]
fn malformed_frames_get_typed_errors_never_panics() {
    let boot = deployment();
    let server = TripsServer::new(boot.dsm, boot.editor, ServerConfig::default()).unwrap();
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // --- Recoverable: valid framing, garbage body (unknown request tag).
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let payload: Vec<u8> = [99u64.to_le_bytes().as_slice(), &[0xFF]].concat();
        let mut frame = vec![FRAME_MAGIC, 0x02];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        raw.write_all(&frame).unwrap();
        let (env, _) = decode_response_frame(&read_frame(&mut raw))
            .unwrap()
            .unwrap();
        assert_eq!(env.id, 99, "recoverable errors keep the correlation id");
        assert!(
            matches!(env.resp, Response::Error(ServerError::BadRequest { .. })),
            "{:?}",
            env.resp
        );
        // Same connection still serves.
        raw.write_all(&encode_request_frame(&RequestEnvelope {
            v: PROTOCOL_V2,
            id: 100,
            req: Request::Ping,
        }))
        .unwrap();
        let (env, _) = decode_response_frame(&read_frame(&mut raw))
            .unwrap()
            .unwrap();
        assert_eq!((env.id, env.resp), (100, Response::Pong));
    }

    // --- Fatal: corrupted payload (CRC mismatch) → one error, then close.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut frame = encode_request_frame(&RequestEnvelope {
            v: PROTOCOL_V2,
            id: 5,
            req: Request::Ping,
        });
        let last = frame.len() - 1;
        frame[last] ^= 0xA5;
        raw.write_all(&frame).unwrap();
        let (env, _) = decode_response_frame(&read_frame(&mut raw))
            .unwrap()
            .unwrap();
        assert!(matches!(
            env.resp,
            Response::Error(ServerError::BadRequest { .. })
        ));
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "fatal frame errors close the connection");
    }

    // --- Fatal: unknown frame version byte.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&[FRAME_MAGIC, 0x07, 0, 0, 0, 0, 0, 0, 0, 0])
            .unwrap();
        let (env, _) = decode_response_frame(&read_frame(&mut raw))
            .unwrap()
            .unwrap();
        assert!(matches!(
            env.resp,
            Response::Error(ServerError::BadRequest { .. })
        ));
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }

    // --- Fatal: oversized length prefix (no allocation happens).
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut frame = vec![FRAME_MAGIC, 0x02];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0; 4]);
        raw.write_all(&frame).unwrap();
        let (env, _) = decode_response_frame(&read_frame(&mut raw))
            .unwrap()
            .unwrap();
        assert!(matches!(
            env.resp,
            Response::Error(ServerError::BadRequest { .. })
        ));
    }

    // --- Truncated frame, then disconnect: silently discarded.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let frame = encode_request_frame(&RequestEnvelope {
            v: PROTOCOL_V2,
            id: 6,
            req: Request::Ping,
        });
        raw.write_all(&frame[..frame.len() - 3]).unwrap();
        drop(raw);
    }

    // --- v2-as-JSON: the version number without the framing is a
    // version error, answered as NDJSON.
    {
        use std::io::{BufRead, BufReader};
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"{\"v\":2,\"id\":3,\"req\":\"Ping\"}\n")
            .unwrap();
        let mut line = String::new();
        BufReader::new(raw.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        let env = trips_server::decode_response(line.trim()).unwrap();
        assert_eq!(env.id, 3);
        assert_eq!(
            env.resp,
            Response::Error(ServerError::UnsupportedVersion { got: 2, want: 1 }),
            "v2 is the binary framing; a JSON v:2 envelope is a mismatch"
        );
    }

    // After all of that, the server still serves both protocols.
    let mut check = Client::connect_v2(addr).unwrap();
    assert_eq!(check.ping().unwrap(), Response::Pong);
    check.set_protocol(PROTOCOL_VERSION).unwrap();
    assert_eq!(check.ping().unwrap(), Response::Pong);
    drop(check);
    let report = handle.shutdown().unwrap();
    assert!(report.bad_requests >= 4, "each bad frame was counted");
}
