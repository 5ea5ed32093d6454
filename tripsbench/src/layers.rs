//! The traced layer sweep: the workload's own inputs replayed in-process
//! through each layer's public functions, one span around each call, in
//! the order the program runs them. Every workload's traced run makes the
//! same sweep, so every per-layer metric is measured on every workload;
//! README.md says which end-to-end metric each one should move where.

use crate::common::{median, micros, nproc, ratio, WorkDir};
use crate::inputs::Venue;
use crate::trace::Tracer;
use crate::Metric;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trips_annotate::{Annotator, EventEditor, MobilitySemantics};
use trips_clean::Cleaner;
use trips_complement::{Complementor, MobilityKnowledge};
use trips_core::stream::{StreamConfig, StreamingTranslator};
use trips_core::{Translator, TranslatorConfig};
use trips_data::{DeviceId, Duration};
use trips_dsm::DigitalSpaceModel;
use trips_server::{decode_request_frame_ref, RequestFrameRef};
use trips_store::{
    Alert, AlertSink, DurabilityConfig, FsyncPolicy, Query, QueryRequest, RuleEngine,
    SemanticsSelector, SemanticsStore,
};
use trips_wal::{Wal, WalConfig};

/// Ingest batch size of the codec replay (the serving workloads' batch).
pub const CODEC_BATCH: usize = 512;

/// Query kinds and selector classes timed against the store.
const QUERY_KINDS: [(&str, Query); 5] = [
    ("popular_regions", Query::PopularRegions),
    ("top_flows", Query::TopFlows { limit: 10 }),
    (
        "dwell_histogram",
        Query::DwellHistogram {
            bucket: Duration::from_mins(5),
        },
    ),
    ("device_summaries", Query::DeviceSummaries),
    ("semantics", Query::Semantics),
];

/// The per-layer metric names, in report order (the `store.query_us.*`
/// family is expanded from [`QUERY_KINDS`] × all/device/window).
pub fn metric_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "dsm.region_at_ns",
        "clean.ns_per_record",
        "clean.kept_share",
        "clean.dropped",
        "annotate.ns_per_record",
        "annotate.semantics_per_record",
        "complement.knowledge_build_s",
        "complement.ns_per_semantic",
        "complement.inferred_share",
        "engine.parallel_efficiency",
        "engine.serial_share",
        "stream.push_ns_per_record",
        "stream.buffered_records_peak",
        "stream.open_devices_peak",
        "codec.encode_ns_per_record",
        "codec.decode_ns_per_record",
        "codec.bytes_per_record",
        "store.ingest_ns_per_semantic",
        "store.shard_lock_contention",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for (kind, _) in QUERY_KINDS {
        for class in ["all", "device", "window"] {
            names.push(format!("store.query_us.{kind}.{class}"));
        }
    }
    names.extend(
        [
            "rules.publish_ns_per_semantic",
            "rules.evals",
            "rules.fires",
            "rules.fire_share",
            "tql.parse_us",
            "wal.append_ns_per_record",
            "wal.bytes_per_record",
            "wal.fsyncs",
            "recovery.replay_s",
            "recovery.records_per_s",
            "trace.coverage_share",
            "trace.overhead_share",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names
}

/// Counts alerts without keeping them.
struct CountSink(AtomicU64);

impl AlertSink for CountSink {
    fn deliver(&self, _alert: &Alert) -> bool {
        self.0.fetch_add(1, Ordering::Relaxed);
        true
    }
}

pub struct Sweep {
    pub metrics: Vec<Metric>,
    /// Named output checks (all must hold).
    pub checks: Vec<(&'static str, bool)>,
    pub tracer: Tracer,
}

/// Runs the sweep over `venue` with `rules` (TQL rule texts) registered,
/// `statements` (every TQL text the workload sends) compiled, and `pattern`
/// as the device selector of the query class `device`.
pub fn sweep(
    dsm: &DigitalSpaceModel,
    editor: &EventEditor,
    venue: &Venue,
    rules: &[String],
    statements: &[String],
    pattern: &str,
    work: &WorkDir,
) -> Sweep {
    let config = TranslatorConfig::standard();
    let (model, labels) = editor.train_default_model().expect("editor trains");
    let sequences = &venue.sequences;
    let feed = venue.feed();
    let records = feed.len() as f64;
    let mut checks = Vec::new();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric::new(name, value, unit));
    };

    // The untraced reference: the program's own serial translation.
    let reference =
        Translator::new(dsm, model.clone(), labels.clone(), config.clone()).expect("frozen DSM");
    let t0 = Instant::now();
    let expected = reference.translate(sequences);
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut t = Tracer::new();
    let wall = Instant::now();

    // DSM: point-in-region lookups over every raw fix.
    let mut inside = 0usize;
    t.span("dsm.region_at", || {
        for r in &feed {
            inside += usize::from(dsm.region_at(&r.location).is_some());
        }
    });
    let region_at_ns = t.total_ns()["dsm.region_at"] as f64 / records;
    put("dsm.region_at_ns", region_at_ns, "ns");
    checks.push(("dsm_lookups_hit", inside > 0));

    // Batch translation layer by layer, in `Translator::translate`'s order.
    let layered = Instant::now();
    let cleaner = Cleaner::new(dsm, config.cleaner.clone()).expect("frozen DSM");
    let annotator = Annotator::new(dsm, model.clone(), labels.clone(), config.annotator.clone());
    let mut busy_ns = vec![0f64; sequences.len()];
    let mut cleaned = Vec::with_capacity(sequences.len());
    let mut originals: Vec<Vec<MobilitySemantics>> = Vec::with_capacity(sequences.len());
    for (i, seq) in sequences.iter().enumerate() {
        let start = Instant::now();
        let c = t.span("clean", || cleaner.clean(seq));
        let sems = t.span("annotate", || annotator.annotate(&c.sequence));
        busy_ns[i] += start.elapsed().as_nanos() as f64;
        cleaned.push(c);
        originals.push(sems);
    }
    let knowledge = t.span("complement.knowledge", || {
        MobilityKnowledge::build(dsm, &originals, 0.5)
    });
    let complementor = Complementor::new(dsm, knowledge, config.complementor.clone());
    let mut complemented = Vec::with_capacity(sequences.len());
    for (i, original) in originals.iter().enumerate() {
        let start = Instant::now();
        complemented.push(t.span("complement", || complementor.complement(original)));
        busy_ns[i] += start.elapsed().as_nanos() as f64;
    }
    let layered_s = layered.elapsed().as_secs_f64();
    let same = expected.devices.len() == complemented.len()
        && expected.devices.iter().enumerate().all(|(i, d)| {
            d.semantics == complemented[i]
                && d.original_semantics == originals[i]
                && d.cleaned.report == cleaned[i].report
        });
    checks.push(("layered_equals_translate", same));

    let totals = t.total_ns();
    let input: usize = cleaned.iter().map(|c| c.report.input_records).sum();
    let valid: usize = cleaned.iter().map(|c| c.report.valid).sum();
    let dropped: usize = cleaned.iter().map(|c| c.report.dropped).sum();
    let cleaned_records: usize = cleaned.iter().map(|c| c.sequence.len()).sum();
    let annotated: usize = originals.iter().map(Vec::len).sum();
    let final_sems: usize = complemented.iter().map(Vec::len).sum();
    let inferred = complemented.iter().flatten().filter(|s| s.inferred).count();
    put(
        "clean.ns_per_record",
        totals["clean"] as f64 / input as f64,
        "ns",
    );
    put(
        "clean.kept_share",
        ratio(valid as f64, input as f64),
        "share",
    );
    put("clean.dropped", dropped as f64, "count");
    put(
        "annotate.ns_per_record",
        totals["annotate"] as f64 / cleaned_records as f64,
        "ns",
    );
    put(
        "annotate.semantics_per_record",
        ratio(annotated as f64, cleaned_records as f64),
        "ratio",
    );
    put(
        "complement.knowledge_build_s",
        totals["complement.knowledge"] as f64 / 1e9,
        "s",
    );
    put(
        "complement.ns_per_semantic",
        totals["complement"] as f64 / annotated as f64,
        "ns",
    );
    put(
        "complement.inferred_share",
        ratio(inferred as f64, final_sems as f64),
        "share",
    );

    // Engine fan-out: the same translation on `nproc` threads.
    let threads = nproc();
    let parallel = Translator::new(dsm, model, labels, TranslatorConfig::parallel(threads))
        .expect("frozen DSM");
    let result = t.span("engine.translate", || parallel.translate(sequences));
    let par_wall = result.report.total_wall().as_secs_f64();
    let busy: f64 = busy_ns.iter().sum::<f64>() / 1e9;
    put(
        "engine.parallel_efficiency",
        busy / (threads as f64 * par_wall),
        "ratio",
    );
    let barrier = result
        .report
        .stage("knowledge")
        .map_or(0.0, |s| s.wall.as_secs_f64());
    put("engine.serial_share", barrier / par_wall, "share");
    checks.push((
        "parallel_equals_serial",
        result
            .devices
            .iter()
            .zip(&expected.devices)
            .all(|(a, b)| a.semantics == b.semantics),
    ));

    // Codec: the feed as v2 ingest frames, encoded and decoded zero-copy.
    let requests: Vec<trips_server::RequestEnvelope> = feed
        .chunks(CODEC_BATCH)
        .enumerate()
        .map(|(i, c)| trips_server::RequestEnvelope {
            v: trips_server::PROTOCOL_V2,
            id: i as u64 + 1,
            req: trips_server::Request::Ingest {
                records: c.to_vec(),
            },
        })
        .collect();
    let frames: Vec<Vec<u8>> = t.span("codec.encode", || {
        requests
            .iter()
            .map(trips_server::encode_request_frame)
            .collect()
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let mut decoded_ok = true;
    t.span("codec.decode", || {
        for (frame, chunk) in frames.iter().zip(feed.chunks(CODEC_BATCH)) {
            decoded_ok &=
                match decode_request_frame_ref(frame) {
                    Ok(Some((RequestFrameRef::Ingest(view), used))) => {
                        used == frame.len()
                            && view.records.len() == chunk.len()
                            && view.records.iter().zip(chunk).all(|(v, r)| {
                                v.device == r.device.as_str() && v.ts == r.ts.as_millis()
                            })
                    }
                    _ => false,
                };
        }
    });
    checks.push(("codec_round_trip", decoded_ok));
    let totals = t.total_ns();
    put(
        "codec.encode_ns_per_record",
        totals["codec.encode"] as f64 / records,
        "ns",
    );
    put(
        "codec.decode_ns_per_record",
        totals["codec.decode"] as f64 / records,
        "ns",
    );
    put("codec.bytes_per_record", bytes as f64 / records, "bytes");
    drop(frames);
    drop(requests);

    // Streaming translation as served: no Complementor, default flush gap
    // and buffer cap, the feed in arrival order.
    let mut stream = StreamingTranslator::from_editor(dsm, editor, None, StreamConfig::default())
        .expect("editor trains");
    let mut batches: Vec<(DeviceId, Vec<MobilitySemantics>)> = Vec::new();
    let (mut buffered_peak, mut open_peak) = (0usize, 0usize);
    let mut owned = feed.clone().into_iter();
    loop {
        t.begin("stream.push");
        let mut n = 0;
        for record in owned.by_ref().take(CODEC_BATCH) {
            let out = stream.push(record);
            if let Some(first) = out.first() {
                batches.push((first.device.clone(), out));
            }
            n += 1;
        }
        t.end();
        if n == 0 {
            break;
        }
        buffered_peak = buffered_peak.max(stream.buffered_records());
        open_peak = open_peak.max(stream.open_devices());
    }
    let rest = t.span("stream.push", || stream.finish());
    batches.extend(rest.into_iter().filter(|(_, s)| !s.is_empty()));
    let semantics: usize = batches.iter().map(|(_, s)| s.len()).sum();
    put(
        "stream.push_ns_per_record",
        t.total_ns()["stream.push"] as f64 / records,
        "ns",
    );
    put(
        "stream.buffered_records_peak",
        buffered_peak as f64,
        "count",
    );
    put("stream.open_devices_peak", open_peak as f64, "count");
    checks.push(("stream_emits", semantics > 0));

    // Store ingest as served: durable, default group commit.
    let wal_dir = work.fresh("sweep-wal").expect("scratch dir");
    let durable = DurabilityConfig::new(&wal_dir);
    let (store, _) = SemanticsStore::recover(&durable, 0).expect("empty journal opens");
    t.span("store.ingest", || {
        for (device, batch) in &batches {
            store.ingest(device, batch);
        }
    });
    put(
        "store.ingest_ns_per_semantic",
        t.total_ns()["store.ingest"] as f64 / semantics as f64,
        "ns",
    );
    store.sync_wal().expect("wal syncs");
    let wal_stats = store.wal_stats().expect("durable store");
    let written = store.stats();
    let written_popular = store.popular_regions(&SemanticsSelector::all());
    drop(store);

    // Concurrent ingest for the shard-lock contention count: one writer
    // per core, batches dealt out in arrival order the way server workers
    // take jobs, so two writers can meet on one shard.
    let shared = SemanticsStore::new();
    t.span("store.ingest_concurrent", || {
        std::thread::scope(|s| {
            for w in 0..threads {
                let (shared, batches) = (&shared, &batches);
                s.spawn(move || {
                    for (device, batch) in batches.iter().skip(w).step_by(threads) {
                        shared.ingest(device, batch);
                    }
                });
            }
        });
    });
    put(
        "store.shard_lock_contention",
        shared.shard_lock_contention() as f64,
        "count",
    );
    drop(shared);

    // Standing rules on their own engine, fed the same batches.
    let specs: Vec<_> = rules
        .iter()
        .map(|src| match trips_query_lang::compile(src) {
            Ok(trips_query_lang::Compiled::Rule(spec)) => spec,
            other => panic!("rule {src:?} must compile to a rule: {other:?}"),
        })
        .collect();
    let engine = RuleEngine::new();
    engine.set_region_floors(dsm.regions().map(|r| (r.id, r.floor)));
    let sink = Arc::new(CountSink(AtomicU64::new(0)));
    for spec in specs {
        engine
            .register(spec, Some(sink.clone() as Arc<dyn AlertSink>))
            .expect("rule registers");
    }
    t.span("rules.publish", || {
        for (device, batch) in &batches {
            engine.publish(device, batch);
        }
    });
    let (evals, fires) = (engine.evals_total() as f64, engine.fires_total() as f64);
    put(
        "rules.publish_ns_per_semantic",
        t.total_ns()["rules.publish"] as f64 / semantics as f64,
        "ns",
    );
    put("rules.evals", evals, "count");
    put("rules.fires", fires, "count");
    put("rules.fire_share", ratio(fires, evals), "share");
    checks.push(("rules_fire", fires > 0.0));

    // TQL: every statement the workload sends, compiled repeatedly.
    const TQL_REPEATS: usize = 50;
    let mut compiled_ok = true;
    t.span("tql.compile", || {
        for _ in 0..TQL_REPEATS {
            for src in rules.iter().chain(statements) {
                compiled_ok &= trips_query_lang::compile(src).is_ok();
            }
        }
    });
    checks.push(("tql_compiles", compiled_ok));
    put(
        "tql.parse_us",
        t.total_ns()["tql.compile"] as f64
            / 1e3
            / (TQL_REPEATS * (rules.len() + statements.len())) as f64,
        "us",
    );

    // WAL: the journal's own payloads appended to a fresh log. Under the
    // default group commit the log itself never syncs inline (a flusher
    // does), so the append runs with `Never`.
    let payloads: Vec<Vec<u8>> = Wal::replay(&wal_dir)
        .expect("journal replays")
        .map(|e| e.expect("journal entry").payload)
        .collect();
    let append_dir = work.fresh("sweep-append").expect("scratch dir");
    let mut wal = Wal::open(
        &append_dir,
        WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        },
    )
    .expect("fresh wal opens");
    t.span("wal.append", || {
        for p in &payloads {
            wal.append(p).expect("wal appends");
        }
    });
    put(
        "wal.append_ns_per_record",
        t.total_ns()["wal.append"] as f64 / payloads.len() as f64,
        "ns",
    );
    put(
        "wal.bytes_per_record",
        wal.total_bytes() as f64 / payloads.len() as f64,
        "bytes",
    );
    put("wal.fsyncs", wal_stats.fsyncs as f64, "count");
    drop(wal);

    // Recovery of the journal the store wrote.
    let start = Instant::now();
    let (recovered, report) = t
        .span("recovery.replay", || SemanticsStore::recover(&durable, 0))
        .expect("recovers");
    let replay_s = start.elapsed().as_secs_f64();
    put("recovery.replay_s", replay_s, "s");
    put(
        "recovery.records_per_s",
        report.replayed_records as f64 / replay_s,
        "1/s",
    );
    checks.push((
        "recovered_equals_written",
        recovered.stats() == written
            && recovered.popular_regions(&SemanticsSelector::all()) == written_popular,
    ));

    // Queries: each kind × selector class, on the recovered store.
    let (from, to) = crate::inputs::window(0);
    for (kind, query) in QUERY_KINDS {
        for (class, selector) in [
            ("all", SemanticsSelector::all()),
            (
                "device",
                SemanticsSelector::all().with_device_pattern(pattern),
            ),
            ("window", SemanticsSelector::all().between(from, to)),
        ] {
            let request = QueryRequest::new(selector, query.clone());
            let mut samples = Vec::new();
            let began = Instant::now();
            t.begin("store.query");
            while samples.len() < 20
                || (samples.len() < 2000 && began.elapsed().as_secs_f64() < 0.1)
            {
                let q = Instant::now();
                std::hint::black_box(recovered.query(&request));
                samples.push(micros(q.elapsed()));
            }
            t.end();
            put(
                &format!("store.query_us.{kind}.{class}"),
                median(&samples),
                "us",
            );
        }
    }
    drop(recovered);

    // Attribution: layer self time over the sweep's wall; the remainder is
    // the sweep's own glue. Overhead: the traced layered translation
    // against the program's untraced `translate`.
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let attributed: u64 = t.self_ns().values().sum();
    put("trace.coverage_share", attributed as f64 / wall_ns, "share");
    put(
        "trace.overhead_share",
        (layered_s - untraced_s) / untraced_s,
        "share",
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&append_dir);

    Sweep {
        metrics: m,
        checks,
        tracer: t,
    }
}
