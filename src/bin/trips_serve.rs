//! `trips-serve` — boot a TRIPS serving endpoint.
//!
//! Builds a simulated deployment (a mall DSM + an Event Editor trained on
//! ground truth — the repo's stand-in for a surveyed site), binds a TCP
//! listener and serves the wire protocol (NDJSON v1 and binary v2,
//! detected per message) until a `Shutdown` request drains it. With
//! `--port 0` the OS picks an ephemeral port; the chosen address is
//! printed as `listening on HOST:PORT` (and flushed) so scripts can
//! scrape it.
//!
//! ```text
//! trips-serve [--host H] [--port P] [--workers N] [--queue N]
//!             [--max-conns N] [--shards N] [--loop-shards N]
//!             [--translator-shards N] [--max-rules N]
//!             [--floors N] [--shops N] [--devices N] [--days N]
//!             [--seed N] [--snapshot PATH] [--snapshot-root DIR]
//!             [--wal-dir DIR] [--fsync always|every=N|never]
//!             [--segment-bytes N] [--metrics-addr HOST:PORT]
//!             [--slow-threshold-us N] [--idle-timeout SECS]
//! ```
//!
//! `--loop-shards` splits the event loop into N independent shards (one
//! thread each, default `min(cores, 4)`, each a level-triggered
//! `poll(2)` loop); a single acceptor places each new connection on the
//! least-loaded shard (observed bytes + jobs, round-robin when idle).
//! `--translator-shards` partitions the streaming-translator lock by
//! device hash (rounded to a power of two). `--max-rules` caps how many
//! standing TQL rules (`Subscribe` requests) may be registered at once
//! across all connections (default 1024).
//!
//! `--snapshot-root` enables wire-level `Snapshot` requests on a
//! non-durable server: the request's (relative, non-escaping) path
//! resolves inside this directory. Without it such requests are rejected
//! — the wire must not name arbitrary server filesystem locations.
//!
//! `--wal-dir` makes the store durable: boot recovers from the
//! directory (checkpoint snapshot + WAL replay, torn tail truncated) and
//! every acked ingest is journaled before the ack, under the `--fsync`
//! policy (default `every=64`). `Snapshot` admin requests then mean
//! checkpoint + compact. `--snapshot` (one-shot, non-durable boot) and
//! `--wal-dir` are mutually exclusive.
//!
//! `--metrics-addr` binds a second, dedicated listener serving
//! Prometheus text exposition at `GET /metrics` (HTTP/1.0, one request
//! per connection); the chosen address is printed as `metrics on
//! HOST:PORT`. `--slow-threshold-us` sets the latency above which a
//! request's span is promoted into the retrievable slow-log (0 promotes
//! every request — the trace-everything switch).
//!
//! `--idle-timeout SECS` reaps connections with no traffic for that long
//! (default off; each loop shard checks on its bounded wait laps) —
//! reaps count in the `connections_reaped` metric.
//!
//! Clients replaying `generate_campus` traffic must use the same
//! `--floors/--shops` layout (every campus building shares it); see the
//! README's "Serving" section and `server_load` in `trips-bench`.

use std::io::Write;
use std::net::TcpListener;
use trips::server::{bootstrap_scenario, ServerConfig, TripsServer};
use trips::sim::ScenarioConfig;
use trips::store::DurabilityConfig;
use trips::wal::FsyncPolicy;

struct Options {
    host: String,
    port: u16,
    config: ServerConfig,
    floors: u16,
    shops: usize,
    devices: usize,
    days: usize,
    seed: u64,
    /// Staged until we know whether --wal-dir was given.
    fsync: Option<FsyncPolicy>,
    segment_bytes: Option<u64>,
}

fn usage_and_exit(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: trips-serve [--host H] [--port P] [--workers N] [--queue N] \
         [--max-conns N] [--shards N] [--loop-shards N] [--translator-shards N] \
         [--max-rules N] [--floors N] [--shops N] [--devices N] [--days N] [--seed N] [--snapshot PATH] \
         [--snapshot-root DIR] [--wal-dir DIR] [--fsync always|every=N|never] \
         [--segment-bytes N] [--metrics-addr HOST:PORT] [--slow-threshold-us N] \
         [--idle-timeout SECS]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(value) = args.next() else {
        usage_and_exit(&format!("{flag} needs a value"));
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => usage_and_exit(&format!("invalid value {value:?} for {flag}")),
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        host: "127.0.0.1".to_string(),
        port: 0,
        config: ServerConfig::default(),
        floors: 2,
        shops: 3,
        devices: 8,
        days: 1,
        seed: 0x5EED,
        fsync: None,
        segment_bytes: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--host" => opts.host = parse(&mut args, "--host"),
            "--port" => opts.port = parse(&mut args, "--port"),
            "--workers" => opts.config.workers = parse(&mut args, "--workers"),
            "--queue" => opts.config.queue_capacity = parse(&mut args, "--queue"),
            "--max-conns" => opts.config.max_connections = parse(&mut args, "--max-conns"),
            "--shards" => opts.config.shards = parse(&mut args, "--shards"),
            "--loop-shards" => opts.config.loop_shards = parse(&mut args, "--loop-shards"),
            "--translator-shards" => {
                opts.config.translator_shards = parse(&mut args, "--translator-shards")
            }
            "--max-rules" => opts.config.max_rules = parse(&mut args, "--max-rules"),
            "--floors" => opts.floors = parse(&mut args, "--floors"),
            "--shops" => opts.shops = parse(&mut args, "--shops"),
            "--devices" => opts.devices = parse(&mut args, "--devices"),
            "--days" => opts.days = parse(&mut args, "--days"),
            "--seed" => opts.seed = parse(&mut args, "--seed"),
            "--snapshot" => {
                opts.config.snapshot = Some(parse::<String>(&mut args, "--snapshot").into())
            }
            "--snapshot-root" => {
                opts.config.snapshot_root =
                    Some(parse::<String>(&mut args, "--snapshot-root").into())
            }
            "--wal-dir" => {
                let dir: String = parse(&mut args, "--wal-dir");
                let durability = opts
                    .config
                    .durability
                    .get_or_insert_with(|| DurabilityConfig::new(&dir));
                durability.dir = dir.into();
            }
            "--fsync" => {
                let policy: FsyncPolicy = parse(&mut args, "--fsync");
                opts.fsync = Some(policy);
            }
            "--segment-bytes" => opts.segment_bytes = Some(parse(&mut args, "--segment-bytes")),
            "--metrics-addr" => {
                opts.config.metrics_addr = Some(parse::<String>(&mut args, "--metrics-addr"))
            }
            "--slow-threshold-us" => {
                opts.config.slow_threshold_us = parse(&mut args, "--slow-threshold-us")
            }
            "--idle-timeout" => {
                let secs: u64 = parse(&mut args, "--idle-timeout");
                if secs == 0 {
                    usage_and_exit("--idle-timeout must be at least 1 second");
                }
                opts.config.idle_timeout = Some(std::time::Duration::from_secs(secs));
            }
            other => usage_and_exit(&format!("unknown argument: {other}")),
        }
    }
    match opts.config.durability.as_mut() {
        Some(d) => {
            if let Some(fsync) = opts.fsync {
                d.fsync = fsync;
            }
            if let Some(bytes) = opts.segment_bytes {
                d.segment_bytes = bytes;
            }
        }
        None if opts.fsync.is_some() || opts.segment_bytes.is_some() => {
            usage_and_exit("--fsync/--segment-bytes need --wal-dir");
        }
        None => {}
    }
    if opts.config.durability.is_some() && opts.config.snapshot.is_some() {
        usage_and_exit("--snapshot and --wal-dir are mutually exclusive (a durable store's snapshot is its checkpoint)");
    }
    opts
}

fn main() {
    let opts = parse_args();
    eprintln!(
        "trips-serve: training deployment ({} floors, {} shops/row, {} devices, {} days, seed {:#x})...",
        opts.floors, opts.shops, opts.devices, opts.days, opts.seed
    );
    let boot = bootstrap_scenario(
        opts.floors,
        opts.shops,
        &ScenarioConfig {
            devices: opts.devices,
            days: opts.days,
            seed: opts.seed,
            ..ScenarioConfig::default()
        },
    );
    if let Some(path) = &opts.config.snapshot {
        eprintln!(
            "trips-serve: booting store from snapshot {}",
            path.display()
        );
    }
    if let Some(d) = &opts.config.durability {
        eprintln!(
            "trips-serve: durable store — wal dir {}, fsync {}, segment bytes {}",
            d.dir.display(),
            d.fsync,
            d.segment_bytes
        );
    }
    let server = match TripsServer::new(boot.dsm, boot.editor, opts.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trips-serve: cannot boot: {e}");
            std::process::exit(1);
        }
    };
    if let Some(r) = server.recovery_report() {
        eprintln!(
            "trips-serve: recovery — snapshot {}, {} wal records replayed over {} segments in {:.1} ms{}",
            if r.snapshot_loaded {
                "loaded"
            } else {
                "absent"
            },
            r.replayed_records,
            r.segments,
            r.elapsed_us as f64 / 1e3,
            if r.torn_tail_truncated {
                ", torn tail truncated"
            } else {
                ""
            },
        );
    }
    let listener = match TcpListener::bind((opts.host.as_str(), opts.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("trips-serve: cannot bind {}:{}: {e}", opts.host, opts.port);
            std::process::exit(1);
        }
    };
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    eprintln!(
        "trips-serve: loop shards {}, translator shards {}, rule cap {}",
        server.loop_shards(),
        server.translator_shards(),
        server.max_rules(),
    );
    println!("trips-serve: listening on {addr}");
    if let Some(metrics) = server.metrics_addr() {
        println!("trips-serve: metrics on {metrics}");
    }
    std::io::stdout().flush().expect("stdout flush");

    match server.serve(listener) {
        Ok(report) => {
            eprintln!(
                "trips-serve: drained — {} requests ({} shed, {} bad) over {} connections \
                 ({} rejected); peak queue {}; store holds {} devices / {} semantics",
                report.requests,
                report.shed,
                report.bad_requests,
                report.connections_accepted,
                report.connections_rejected,
                report.peak_queue_depth,
                report.devices,
                report.semantics,
            );
        }
        Err(e) => {
            eprintln!("trips-serve: serve failed: {e}");
            std::process::exit(1);
        }
    }
}
