//! The Prometheus exposition's shape, pinned: which families and series a
//! scrape of a durable, recovered server carries (against a recorded
//! fixture), and that the documented metric catalogue names exactly the
//! families the server exports.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;
use trips_data::{DeviceId, RawRecord};
use trips_obs::validate_exposition;
use trips_server::{bootstrap_scenario, Client, Response, ServerConfig, TripsServer};
use trips_sim::ScenarioConfig;
use trips_store::{DurabilityConfig, Query, QueryRequest, SemanticsSelector};

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

fn traffic(devices: usize, seed: u64) -> Vec<(DeviceId, Vec<RawRecord>)> {
    let campus = trips_sim::scenario::generate_campus(1, FLOORS, SHOPS, &scenario(devices, seed));
    campus.buildings[0]
        .dataset
        .traces
        .iter()
        .map(|t| (t.device.clone(), t.raw.records().to_vec()))
        .collect()
}

fn http_get_body(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body separator");
    assert!(head.starts_with("HTTP/1.0 200"), "status: {head}");
    body.to_string()
}

/// One `GET /metrics` from a durable server with 2 loop shards that
/// recovered a journal at boot, after one ingest, one query and one
/// admin request.
fn recovered_scrape(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("trips-exposition-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let boot = |metrics: bool| {
        let deployment = bootstrap_scenario(FLOORS, SHOPS, &scenario(3, 0x0B5E));
        TripsServer::new(
            deployment.dsm,
            deployment.editor,
            ServerConfig {
                loop_shards: 2,
                durability: Some(DurabilityConfig::new(&dir)),
                metrics_addr: metrics.then(|| "127.0.0.1:0".to_string()),
                ..ServerConfig::default()
            },
        )
        .unwrap()
    };
    let flows = traffic(2, 0xE4B0);

    // First boot journals one session, then drains.
    let handle = boot(false).spawn("127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        client.ingest(flows[0].1.clone()).unwrap(),
        Response::Ingested { .. }
    ));
    drop(client);
    handle.shutdown().unwrap();

    // Second boot recovers it.
    let server = boot(true);
    assert!(server.recovery_report().is_some());
    let handle = server.spawn("127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        client.ingest(flows[1].1.clone()).unwrap(),
        Response::Ingested { .. }
    ));
    client
        .query(QueryRequest::new(
            SemanticsSelector::all(),
            Query::PopularRegions,
        ))
        .unwrap()
        .expect("query ok");
    assert!(matches!(client.health().unwrap(), Response::Health(_)));
    let body = http_get_body(handle.metrics_addr().unwrap(), "/metrics");
    drop(client);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    validate_exposition(&body).expect("exposition parses");
    body
}

/// The `# HELP` / `# TYPE` lines and every sample's series key (name and
/// label set), in scrape order: the exposition minus its values.
fn shape(body: &str) -> String {
    body.lines()
        .map(|line| match line.strip_prefix('#') {
            Some(_) => line,
            None => line.rsplit_once(' ').map_or(line, |(series, _)| series),
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn scrape_shape_matches_the_recorded_fixture() {
    let fixture_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/exposition_shape.txt");
    let fixture = std::fs::read_to_string(&fixture_path).expect("read fixture");
    let got = shape(&recovered_scrape("shape"));
    if got != fixture {
        let first = got
            .lines()
            .zip(fixture.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(fixture.lines().count()));
        panic!(
            "scrape shape differs from {} at line {}:\n got: {:?}\nwant: {:?}",
            fixture_path.display(),
            first + 1,
            got.lines().nth(first),
            fixture.lines().nth(first),
        );
    }
}

#[test]
fn exported_families_match_the_documented_catalogue() {
    let scraped: BTreeSet<String> = recovered_scrape("catalogue")
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect();
    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(&doc_path).expect("read docs/OBSERVABILITY.md");
    let documented: BTreeSet<String> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("| `trips_"))
        .filter_map(|l| l.split_once('`'))
        .map(|(rest, _)| format!("trips_{rest}"))
        .collect();
    assert_eq!(
        scraped.difference(&documented).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "exported but missing from the catalogue in docs/OBSERVABILITY.md"
    );
    assert_eq!(
        documented.difference(&scraped).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "documented but not exported by a durable, recovered server"
    );
}
