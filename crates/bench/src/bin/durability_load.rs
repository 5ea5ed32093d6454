//! `durability_load` — measures what durability costs on the store's
//! ingest hot path, and what recovery costs at boot.
//!
//! Ingests identical synthetic semantics batches into four stores — a
//! no-WAL baseline and one durable store per fsync policy (`never`,
//! `every=N`, `always`) — recording per-batch append latency, then
//! measures wall-clock recovery (WAL replay) from the written logs.
//! Emits `BENCH_wal.json`.
//!
//! ```text
//! durability_load [--quick] [--out PATH] [--devices N] [--batches N]
//!                 [--batch-size N] [--every N] [--segment-bytes N]
//!                 [--no-gate]
//! ```
//!
//! Unless `--no-gate`, exits 1 when the `every=N` policy (the default
//! serving configuration) falls below **75%** of the no-WAL baseline
//! per-batch throughput — the durability layer is supposed to ride the
//! page cache, not double the ingest cost. The gate binds only the full
//! (canonical) workload; `--quick` runs are too short to gate reliably
//! on a shared machine, so there the ratio is reported but never fails
//! the run.

use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, Timestamp};
use trips_dsm::RegionId;
use trips_obs::{LatencyRecorder, LatencySummary};
use trips_store::{DurabilityConfig, FsyncPolicy, SemanticsStore};

struct Options {
    quick: bool,
    out: String,
    devices: usize,
    batches: usize,
    batch_size: usize,
    every: u32,
    segment_bytes: u64,
    gate: bool,
}

fn usage_and_exit(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: durability_load [--quick] [--out PATH] [--devices N] [--batches N] \
         [--batch-size N] [--every N] [--segment-bytes N] [--no-gate]"
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
        quick: false,
        out: "BENCH_wal.json".to_string(),
        devices: 32,
        batches: 600,
        // The serving path ingests in 50-record wire chunks (the
        // server_load/e2e batch size); measure at that granularity.
        batch_size: 50,
        every: 64,
        segment_bytes: 4 * 1024 * 1024,
        gate: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = parse(&mut args, "--out"),
            "--devices" => opts.devices = parse(&mut args, "--devices"),
            "--batches" => opts.batches = parse(&mut args, "--batches"),
            "--batch-size" => opts.batch_size = parse(&mut args, "--batch-size"),
            "--every" => opts.every = parse(&mut args, "--every"),
            "--segment-bytes" => opts.segment_bytes = parse(&mut args, "--segment-bytes"),
            "--no-gate" => opts.gate = false,
            other => usage_and_exit(&format!("unknown argument: {other}")),
        }
    }
    if opts.quick {
        // Shrink the run length only — fewer devices would also shrink
        // the baseline's per-batch cost and skew the overhead ratio.
        opts.batches = opts.batches.min(300);
    }
    opts
}

fn sem(device: &str, region: u32, event: &str, start_s: i64, end_s: i64) -> MobilitySemantics {
    MobilitySemantics {
        device: DeviceId::new(device),
        event: event.into(),
        region: RegionId(region),
        region_name: format!("Region-{region}").into(),
        start: Timestamp::from_millis(start_s * 1000),
        end: Timestamp::from_millis(end_s * 1000),
        inferred: false,
        display_point: None,
    }
}

/// Deterministic workload: `batches` batches of `batch_size` semantics,
/// round-robined over `devices` devices.
fn workload(opts: &Options) -> Vec<(DeviceId, Vec<MobilitySemantics>)> {
    (0..opts.batches)
        .map(|b| {
            let id = format!("dev-{:04}", b % opts.devices);
            let batch = (0..opts.batch_size)
                .map(|i| {
                    let t = (b * opts.batch_size + i) as i64 * 30;
                    sem(
                        &id,
                        ((b * 7 + i) % 23) as u32,
                        if (b + i) % 3 == 0 { "pass-by" } else { "stay" },
                        t,
                        t + 25,
                    )
                })
                .collect();
            (DeviceId::new(&id), batch)
        })
        .collect()
}

#[derive(Serialize)]
struct PolicyReport {
    policy: String,
    batches: usize,
    semantics: usize,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    mean_us: f64,
    wall_ms: f64,
    /// Per-batch throughput relative to the no-WAL baseline, derived
    /// from median latencies (`baseline_p50 / p50`; 1.0 = free).
    vs_baseline: f64,
    wal_segments: usize,
    wal_bytes: u64,
}

#[derive(Serialize)]
struct RecoveryBench {
    /// Fsync policy of the log being replayed (recovery itself is
    /// policy-independent; the log length is what matters).
    from_policy: String,
    replayed_records: u64,
    segments: usize,
    wall_ms: f64,
    records_per_sec: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    quick: bool,
    devices: usize,
    batches: usize,
    batch_size: usize,
    baseline_ops_per_sec: f64,
    baseline_p50_us: f64,
    baseline_p99_us: f64,
    policies: Vec<PolicyReport>,
    recovery: Vec<RecoveryBench>,
    /// The gated ratio: `every=N` per-batch throughput / baseline
    /// (median-derived).
    everyn_vs_baseline: f64,
    gate_threshold: f64,
    gate_passed: bool,
}

fn ingest_all(
    store: &SemanticsStore,
    work: &[(DeviceId, Vec<MobilitySemantics>)],
) -> (LatencyRecorder, f64) {
    let wall = Instant::now();
    let mut recorder = LatencyRecorder::new();
    for (device, batch) in work {
        let t0 = Instant::now();
        store.ingest(device, batch);
        recorder.record(t0.elapsed());
    }
    (recorder, wall.elapsed().as_secs_f64())
}

fn main() {
    let opts = parse_args();
    let work = workload(&opts);
    let semantics: usize = work.iter().map(|(_, b)| b.len()).sum();
    let scratch =
        std::env::temp_dir().join(format!("trips-durability-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    eprintln!(
        "durability_load: {} batches x {} semantics over {} devices ({})",
        opts.batches,
        opts.batch_size,
        opts.devices,
        if opts.quick { "quick" } else { "full" }
    );

    // Warmup: populate allocator arenas and fault in the workload so the
    // first measured store doesn't pay one-time costs.
    {
        let warmup = SemanticsStore::with_shards(8);
        let _ = ingest_all(&warmup, &work);
    }

    // Every configuration runs REPS times and keeps its best (lowest-
    // median) run: a single sub-second run on a shared machine can be
    // 2× off from scheduler/IO noise, and noise only ever slows a run.
    let reps = 3;

    // No-WAL baseline.
    let baseline = (0..reps)
        .map(|_| {
            let store = SemanticsStore::with_shards(8);
            let (lat, wall) = ingest_all(&store, &work);
            lat.summary(std::time::Duration::from_secs_f64(wall))
        })
        .min_by_key(|s| s.p50)
        .expect("at least one rep");
    eprintln!(
        "durability_load: baseline (no wal)    {:>9.0} batches/s  p50 {:>6.1} us  p99 {:>7.1} us",
        baseline.ops_per_sec,
        baseline.p50.as_secs_f64() * 1e6,
        baseline.p99.as_secs_f64() * 1e6,
    );

    let policies = [
        FsyncPolicy::Never,
        FsyncPolicy::EveryN(opts.every),
        FsyncPolicy::Always,
    ];
    let mut policy_reports = Vec::new();
    let mut recovery_reports = Vec::new();
    let mut everyn_vs_baseline = 0.0;

    for policy in policies {
        // A fresh directory per rep (recovering an existing log would
        // replay it); the last rep's directory feeds the recovery bench.
        let mut best: Option<(usize, u64, LatencySummary, f64)> = None;
        let mut dir: PathBuf = scratch.clone();
        for rep in 0..reps {
            dir = scratch.join(format!("{}-{rep}", policy.to_string().replace('=', "-")));
            let config = DurabilityConfig {
                dir: dir.clone(),
                fsync: policy,
                segment_bytes: opts.segment_bytes,
            };
            let (store, _) = SemanticsStore::recover(&config, 8).expect("fresh wal dir");
            let (lat, wall) = ingest_all(&store, &work);
            store.sync_wal().expect("final sync");
            let stats = store.wal_stats().expect("durable store has wal stats");
            let summary = lat.summary(std::time::Duration::from_secs_f64(wall));
            if best
                .as_ref()
                .map_or(true, |(_, _, b, _)| summary.p50 < b.p50)
            {
                best = Some((stats.segments, stats.bytes, summary, wall));
            }
        }
        let config = DurabilityConfig {
            dir: dir.clone(),
            fsync: policy,
            segment_bytes: opts.segment_bytes,
        };
        let (segments, bytes, summary, wall) = best.expect("at least one rep");
        // Median-based per-batch throughput ratio: wall-clock ops/sec on
        // sub-second runs swings ±30% with scheduler noise, while p50
        // latency is stable run to run — gate on the robust signal.
        let vs_baseline = if summary.p50.as_nanos() > 0 {
            baseline.p50.as_secs_f64() / summary.p50.as_secs_f64()
        } else {
            0.0
        };
        if matches!(policy, FsyncPolicy::EveryN(_)) {
            everyn_vs_baseline = vs_baseline;
        }
        eprintln!(
            "durability_load: fsync {:<12} {:>9.0} batches/s  p50 {:>6.1} us  p99 {:>7.1} us  ({:.0}% of baseline)",
            policy.to_string(),
            summary.ops_per_sec,
            summary.p50.as_secs_f64() * 1e6,
            summary.p99.as_secs_f64() * 1e6,
            vs_baseline * 100.0,
        );
        policy_reports.push(PolicyReport {
            policy: policy.to_string(),
            batches: opts.batches,
            semantics,
            ops_per_sec: summary.ops_per_sec,
            p50_us: summary.p50.as_secs_f64() * 1e6,
            p99_us: summary.p99.as_secs_f64() * 1e6,
            max_us: summary.max.as_secs_f64() * 1e6,
            mean_us: summary.mean.as_secs_f64() * 1e6,
            wall_ms: wall * 1e3,
            vs_baseline,
            wal_segments: segments,
            wal_bytes: bytes,
        });

        // Recovery time vs WAL length: replay the log we just wrote.
        let t0 = Instant::now();
        let (recovered, report) = SemanticsStore::recover(&config, 8).expect("recover");
        let recovery_wall = t0.elapsed().as_secs_f64();
        assert_eq!(
            recovered.semantics_count(),
            semantics,
            "recovery must reproduce the ingested state"
        );
        recovery_reports.push(RecoveryBench {
            from_policy: policy.to_string(),
            replayed_records: report.replayed_records,
            segments: report.segments,
            wall_ms: recovery_wall * 1e3,
            records_per_sec: if recovery_wall > 0.0 {
                report.replayed_records as f64 / recovery_wall
            } else {
                0.0
            },
        });
        eprintln!(
            "durability_load: recovery from {:<10} replayed {} records in {:.1} ms",
            policy.to_string(),
            report.replayed_records,
            recovery_wall * 1e3,
        );
    }

    let gate_threshold = 0.75;
    let gate_passed = everyn_vs_baseline >= gate_threshold;
    let report = BenchReport {
        bench: "durability_load".to_string(),
        quick: opts.quick,
        devices: opts.devices,
        batches: opts.batches,
        batch_size: opts.batch_size,
        baseline_ops_per_sec: baseline.ops_per_sec,
        baseline_p50_us: baseline.p50.as_secs_f64() * 1e6,
        baseline_p99_us: baseline.p99.as_secs_f64() * 1e6,
        policies: policy_reports,
        recovery: recovery_reports,
        everyn_vs_baseline,
        gate_threshold,
        gate_passed,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, &json).expect("write report");
    println!("report written to {}", opts.out);
    let _ = std::fs::remove_dir_all(&scratch);

    if !gate_passed {
        eprintln!(
            "durability_load: gate ratio {:.0}% is below the {:.0}% floor{}",
            everyn_vs_baseline * 100.0,
            gate_threshold * 100.0,
            if opts.quick {
                " (informational in --quick mode)"
            } else {
                ""
            },
        );
        if opts.gate && !opts.quick {
            eprintln!(
                "durability_load: GATE FAILED — every={} throughput is {:.0}% of the no-WAL \
                 baseline",
                opts.every,
                everyn_vs_baseline * 100.0,
            );
            std::process::exit(1);
        }
    }
}
