//! Query throughput under live ingest: concurrent readers vs a writer.
//!
//! Translates a multi-building campus (`trips-sim::generate_campus`),
//! ingests half of the devices, then fans out — via
//! `trips_engine::run_indexed` — one writer (ingesting the second half)
//! plus N reader threads hammering the `SemanticsStore` query mix
//! (popular regions, flows, dwell histograms, device summaries, filtered
//! selections). Per-query latencies are collected per reader with
//! `trips_obs::LatencyRecorder` and reduced to ops/sec + p50/p99.
//!
//! This is a custom `harness = false` binary (not criterion) because the
//! perf-smoke CI gate needs machine-readable output and an exit code:
//!
//! ```text
//! cargo bench -p trips-store --bench query_throughput -- \
//!     --quick --out BENCH_store.json --baseline crates/store/benches/baseline.json
//! ```
//!
//! * `--quick` — smaller dataset + fewer iterations (CI smoke mode)
//! * `--out PATH` — write the result JSON (default `BENCH_store.json`)
//! * `--baseline P` — compare against a committed baseline JSON; exit 1 if
//!   `ops_per_sec` falls more than `--max-regress` (default 0.20, i.e.
//!   >20% regression) below the baseline
//!
//! The committed baseline is a conservative floor (shared CI runners are an
//! order of magnitude slower and noisier than dev machines); re-derive it
//! from a CI run's `BENCH_store.json` artifact when the store's query paths
//! change deliberately.

use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use trips_annotate::MobilitySemantics;
use trips_core::{Translator, TranslatorConfig};
use trips_data::{DeviceId, Duration, Timestamp};
use trips_dsm::RegionId;
use trips_engine::run_indexed;
use trips_obs::LatencyRecorder;
use trips_sim::ScenarioConfig;
use trips_store::{SemanticsSelector, SemanticsStore};

struct Options {
    quick: bool,
    out: String,
    baseline: Option<String>,
    max_regress: f64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        out: "BENCH_store.json".to_string(),
        baseline: None,
        max_regress: 0.20,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = args.next().expect("--out needs a path"),
            "--baseline" => opts.baseline = Some(args.next().expect("--baseline needs a path")),
            "--max-regress" => {
                opts.max_regress = args
                    .next()
                    .expect("--max-regress needs a fraction")
                    .parse()
                    .expect("--max-regress must be a float")
            }
            // cargo itself appends `--bench` when running bench targets.
            "--bench" => {}
            other => {
                // A typo'd flag silently ignored would disable the perf
                // gate while CI stays green — refuse instead.
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: query_throughput [--quick] [--out PATH] [--baseline PATH] [--max-regress FRACTION]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Campus translation → per-device semantics, with region ids offset per
/// building (each building has its own DSM, so raw region ids collide
/// campus-wide; a shared store needs them namespaced).
fn build_workload(quick: bool) -> Vec<(DeviceId, Vec<MobilitySemantics>)> {
    let (buildings, floors, shops, devices) = if quick { (2, 1, 3, 8) } else { (3, 2, 4, 16) };
    let campus = trips_sim::scenario::generate_campus(
        buildings,
        floors,
        shops,
        &ScenarioConfig {
            devices,
            days: 1,
            seed: 0xBEC4,
            ..ScenarioConfig::default()
        },
    );
    let mut workload = Vec::new();
    for (b, building) in campus.buildings.iter().enumerate() {
        let ds = &building.dataset;
        let editor = trips_bench::editor_from_truth(ds, ds.traces.len());
        let translator =
            Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard()).unwrap();
        let result = translator.translate(&ds.sequences());
        let offset = b as u32 * 100_000;
        for d in &result.devices {
            let sems: Vec<MobilitySemantics> = d
                .semantics
                .iter()
                .map(|s| {
                    let mut s = s.clone();
                    s.region = RegionId(s.region.0 + offset);
                    s.region_name = format!("{}/{}", building.name, s.region_name);
                    s
                })
                .collect();
            workload.push((d.raw.device().clone(), sems));
        }
    }
    workload
}

enum Task {
    Writer(Vec<(DeviceId, Vec<MobilitySemantics>)>),
    Reader { iters: usize },
}

fn run_reader_iteration(store: &SemanticsStore, i: usize) {
    let all = SemanticsSelector::all();
    match i % 6 {
        0 => {
            black_box(store.popular_regions(&all));
        }
        1 => {
            black_box(store.top_flows(&all, 10));
        }
        2 => {
            black_box(store.dwell_histogram(&all, Duration::from_mins(5)));
        }
        3 => {
            black_box(store.device_summaries(&all));
        }
        4 => {
            let sel = SemanticsSelector::all().with_device_pattern("b0.*");
            black_box(store.popular_regions(&sel));
        }
        _ => {
            let sel = SemanticsSelector::all().between(
                Timestamp::from_dhms(0, 10, 0, 0),
                Timestamp::from_dhms(0, 16, 0, 0),
            );
            black_box(store.semantics(&sel));
        }
    }
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    quick: bool,
    readers: usize,
    queries: usize,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    mean_us: f64,
    wall_ms: f64,
    devices: usize,
    semantics: usize,
    shards: usize,
}

fn main() {
    let opts = parse_args();
    let (readers, iters) = if opts.quick { (4, 1500) } else { (8, 5000) };

    eprintln!(
        "query_throughput: building {} campus workload...",
        if opts.quick { "quick" } else { "full" }
    );
    let workload = build_workload(opts.quick);
    let store = SemanticsStore::new();

    // Phase A: half the devices are already resident before readers start.
    let half = workload.len() / 2;
    for (device, sems) in &workload[..half] {
        store.ingest(device, sems);
    }

    // Phase B: one writer ingests the rest while `readers` threads query.
    let mut tasks: Vec<Task> = vec![Task::Writer(workload[half..].to_vec())];
    tasks.extend((0..readers).map(|_| Task::Reader { iters }));
    let wall_start = Instant::now();
    let per_task: Vec<Option<LatencyRecorder>> =
        run_indexed(tasks.len(), &tasks, |_, task| match task {
            Task::Writer(batch) => {
                let t0 = Instant::now();
                for (device, sems) in batch {
                    store.ingest(device, sems);
                }
                eprintln!(
                    "query_throughput: writer ingested {} devices in {:?}",
                    batch.len(),
                    t0.elapsed()
                );
                None
            }
            Task::Reader { iters } => {
                let mut rec = LatencyRecorder::new();
                for i in 0..*iters {
                    let t0 = Instant::now();
                    run_reader_iteration(&store, i);
                    rec.record(t0.elapsed());
                }
                Some(rec)
            }
        });
    let wall = wall_start.elapsed();

    let mut merged = LatencyRecorder::new();
    for rec in per_task.into_iter().flatten() {
        merged.merge(rec);
    }
    let summary = merged.summary(wall);

    // Sanity: the store must hold the full campus after the run.
    assert_eq!(store.device_count(), workload.len(), "ingest incomplete");
    assert!(
        !store.popular_regions(&SemanticsSelector::all()).is_empty(),
        "store served no aggregates"
    );
    assert_eq!(summary.count, readers * iters, "reader iterations lost");

    let report = BenchReport {
        bench: "store_query_throughput".to_string(),
        quick: opts.quick,
        readers,
        queries: summary.count,
        ops_per_sec: summary.ops_per_sec,
        p50_us: summary.p50.as_secs_f64() * 1e6,
        p99_us: summary.p99.as_secs_f64() * 1e6,
        max_us: summary.max.as_secs_f64() * 1e6,
        mean_us: summary.mean.as_secs_f64() * 1e6,
        wall_ms: wall.as_secs_f64() * 1e3,
        devices: store.device_count(),
        semantics: store.semantics_count(),
        shards: store.shard_count(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, &json).expect("write report");
    println!(
        "store_query_throughput: {} queries across {} readers in {:.2?} -> {:.0} ops/sec, p50 {:.0} us, p99 {:.0} us ({} devices, {} semantics, {} shards)",
        summary.count,
        readers,
        wall,
        summary.ops_per_sec,
        report.p50_us,
        report.p99_us,
        report.devices,
        report.semantics,
        report.shards,
    );
    println!("report written to {}", opts.out);

    if let Some(baseline_path) = &opts.baseline {
        // Cargo runs bench binaries with CWD at the package root; accept
        // workspace-root-relative paths too by retrying against the
        // workspace root (the crate's grandparent directory).
        let mut path = std::path::PathBuf::from(baseline_path);
        if !path.exists() {
            let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("crate lives two levels under the workspace root");
            path = workspace.join(baseline_path);
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {}: {e}", path.display());
            std::process::exit(2);
        });
        let value: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        let baseline_ops = value
            .get("ops_per_sec")
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| {
                eprintln!("baseline {baseline_path} has no numeric ops_per_sec");
                std::process::exit(2);
            });
        let floor = baseline_ops * (1.0 - opts.max_regress);
        println!(
            "baseline: {baseline_ops:.0} ops/sec, floor at -{:.0}%: {floor:.0} ops/sec",
            opts.max_regress * 100.0
        );
        if summary.ops_per_sec < floor {
            eprintln!(
                "PERF REGRESSION: {:.0} ops/sec is below the floor {floor:.0} \
                 (baseline {baseline_ops:.0}, allowed regression {:.0}%)",
                summary.ops_per_sec,
                opts.max_regress * 100.0
            );
            std::process::exit(1);
        }
        println!("perf gate passed");
    }
}
