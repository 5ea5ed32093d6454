//! Concurrent ingest/query correctness: 8 writer threads publish while 8
//! reader threads query; the final aggregates must equal a serial ingest
//! of the same records — the engine's parallel-equals-serial pattern,
//! applied to the store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use trips_annotate::MobilitySemantics;
use trips_data::{DeviceId, Duration, Timestamp};
use trips_dsm::RegionId;
use trips_store::{
    CmpOp, CollectingSink, Condition, RegionSel, RuleEngine, RuleSpec, SemanticsSelector,
    SemanticsStore,
};

const WRITERS: usize = 8;
const READERS: usize = 8;
const DEVICES_PER_WRITER: usize = 8;
const SEMANTICS_PER_DEVICE: usize = 40;
const REGIONS: u32 = 6;

fn sem(device: &DeviceId, region: u32, event: &str, start_s: i64, end_s: i64) -> MobilitySemantics {
    MobilitySemantics {
        device: device.clone(),
        event: event.into(),
        region: RegionId(region),
        region_name: format!("Region-{region}").into(),
        start: Timestamp::from_millis(start_s * 1000),
        end: Timestamp::from_millis(end_s * 1000),
        inferred: false,
        display_point: None,
    }
}

/// Deterministic synthetic workload: every writer owns a disjoint device
/// set; each device's semantics mix stays and pass-bys over the regions.
fn workload() -> Vec<Vec<(DeviceId, Vec<MobilitySemantics>)>> {
    (0..WRITERS)
        .map(|w| {
            (0..DEVICES_PER_WRITER)
                .map(|d| {
                    let device = DeviceId::new(&format!("w{w}.dev.{d:02}"));
                    let sems = (0..SEMANTICS_PER_DEVICE)
                        .map(|i| {
                            let region = ((w + d * 3 + i * 7) as u32) % REGIONS;
                            let event = if (w + d + i) % 3 == 0 {
                                "pass-by"
                            } else {
                                "stay"
                            };
                            let start = (i * 120) as i64;
                            let dur = 30 + ((w * 13 + d * 7 + i) % 90) as i64;
                            sem(&device, region, event, start, start + dur)
                        })
                        .collect();
                    (device, sems)
                })
                .collect()
        })
        .collect()
}

fn assert_stores_equal(a: &SemanticsStore, b: &SemanticsStore) {
    let all = SemanticsSelector::all();
    assert_eq!(a.popular_regions(&all), b.popular_regions(&all));
    assert_eq!(a.top_flows(&all, 100), b.top_flows(&all, 100));
    assert_eq!(
        a.dwell_histogram(&all, Duration::from_mins(1)),
        b.dwell_histogram(&all, Duration::from_mins(1))
    );
    assert_eq!(a.device_summaries(&all), b.device_summaries(&all));
    assert_eq!(a.semantics(&all), b.semantics(&all));
    assert_eq!(a.device_count(), b.device_count());
    assert_eq!(a.semantics_count(), b.semantics_count());
}

#[test]
fn concurrent_ingest_with_readers_equals_serial_ingest() {
    let data = workload();

    // Serial reference: one thread, one shard, batch ingest.
    let serial = SemanticsStore::with_shards(1);
    for writer_batch in &data {
        for (device, sems) in writer_batch {
            serial.ingest(device, sems);
        }
    }

    // Concurrent run: 8 writers (each splitting every device's semantics
    // into three incremental batches) racing 8 readers.
    let concurrent = Arc::new(SemanticsStore::with_shards(16));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for writer_batch in &data {
            let store = Arc::clone(&concurrent);
            scope.spawn(move || {
                for (device, sems) in writer_batch {
                    let third = sems.len() / 3;
                    store.ingest(device, &sems[..third]);
                    store.ingest(device, &sems[third..2 * third]);
                    store.ingest(device, &sems[2 * third..]);
                }
            });
        }
        for r in 0..READERS {
            let store = Arc::clone(&concurrent);
            let done = &done;
            scope.spawn(move || {
                let all = SemanticsSelector::all();
                let mut iterations = 0usize;
                let mut last_count = 0usize;
                while !done.load(Ordering::Acquire) || iterations == 0 {
                    // Mid-ingest reads must be internally consistent even
                    // though they observe a moving store.
                    match r % 4 {
                        0 => {
                            for p in store.popular_regions(&all) {
                                assert!(p.unique_stayers <= WRITERS * DEVICES_PER_WRITER);
                                assert!(p.region.0 < REGIONS);
                            }
                        }
                        1 => {
                            let stats = store.stats();
                            assert!(stats.devices >= last_count, "device count regressed");
                            last_count = stats.devices;
                        }
                        2 => {
                            let sel = SemanticsSelector::all().with_device_pattern("w3.*");
                            for (d, _) in store.device_summaries(&sel) {
                                assert!(d.as_str().starts_with("w3."));
                            }
                        }
                        _ => {
                            let h = store.dwell_histogram(&all, Duration::from_mins(1));
                            assert!(h.iter().all(|(_, n)| *n > 0));
                        }
                    }
                    iterations += 1;
                }
                assert!(iterations > 0);
            });
        }
        // Writers are the first WRITERS spawned threads; there is no join
        // handle bookkeeping needed — scope joins everything. The done
        // flag only needs to flip after writers finish, so spawn a watcher
        // that polls the store for completeness.
        let expected = WRITERS * DEVICES_PER_WRITER * SEMANTICS_PER_DEVICE;
        let store = Arc::clone(&concurrent);
        let done = &done;
        scope.spawn(move || {
            while store.semantics_count() < expected {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    assert_eq!(
        concurrent.device_count(),
        WRITERS * DEVICES_PER_WRITER,
        "every writer's devices landed"
    );
    assert_stores_equal(&concurrent, &serial);

    // And the shard distribution actually spread the load: with 64 devices
    // over 16 shards, at least a handful of shards must be populated.
    let populated = concurrent
        .stats()
        .devices_per_shard
        .iter()
        .filter(|n| **n > 0)
        .count();
    assert!(
        populated >= 4,
        "suspicious shard skew: {:?}",
        concurrent.stats()
    );
}

#[test]
fn concurrent_snapshot_while_writing_is_consistent() {
    // persist() under concurrent ingest must produce *some* loadable
    // prefix-consistent snapshot (each device appears with a prefix of its
    // final semantics, since per-device batches are atomic per shard lock).
    let data = workload();
    let store = Arc::new(SemanticsStore::with_shards(8));
    let snap_path = std::env::temp_dir().join(format!(
        "trips-store-concurrent-snap-{}.json",
        std::process::id()
    ));
    std::thread::scope(|scope| {
        for writer_batch in &data {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for (device, sems) in writer_batch {
                    for chunk in sems.chunks(10) {
                        store.ingest(device, chunk);
                    }
                }
            });
        }
        let store = Arc::clone(&store);
        let path = snap_path.clone();
        scope.spawn(move || {
            store.persist(&path).expect("mid-ingest snapshot persists");
        });
    });
    let snapshot = SemanticsStore::load(&snap_path).expect("mid-ingest snapshot loads");
    let _ = std::fs::remove_file(&snap_path);
    let all = SemanticsSelector::all();
    let final_sems = store.semantics(&all);
    for s in snapshot.semantics(&all) {
        assert!(final_sems.contains(&s), "snapshot held unknown semantics");
    }
    assert!(snapshot.semantics_count() <= store.semantics_count());
}

/// Standing rules under concurrent publish: 4 threads on disjoint devices
/// against `Id`-selector occupancy and flow rules. Which rule a
/// transition evaluates depends only on that device's own movement, so
/// per-rule `evals` must equal a serial run; flow counts only rise, so
/// each flow rule has exactly one rising edge and its `fires` must match
/// too. A final probe checks the occupancy counters lost no update.
#[test]
fn concurrent_rule_publish_equals_serial_publish() {
    const THREADS: usize = 4;
    let data: Vec<_> = workload().into_iter().take(THREADS).collect();
    let engine = || {
        let engine = RuleEngine::new();
        for r in 0..REGIONS {
            let occupancy = Condition::Occupancy {
                region: RegionSel::Id(r),
                cmp: CmpOp::Ge,
                count: 3,
            };
            // Every step moves a device from region r to r + 1 (mod 6).
            let flow = |to: u32, count| Condition::Flow {
                from: RegionSel::Id(r),
                to: RegionSel::Id(to % REGIONS),
                cmp: CmpOp::Gt,
                count,
            };
            for condition in [
                occupancy,
                flow(r + 1, 40 + i64::from(r) * 20),
                flow(r + 2, 0),
            ] {
                engine.register(rule(condition), None).unwrap();
            }
        }
        engine
    };

    let serial = engine();
    for writer in &data {
        for (device, sems) in writer {
            for chunk in sems.chunks(7) {
                serial.publish(device, chunk);
            }
        }
    }
    let concurrent = engine();
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for writer in &data {
            let (engine, start) = (&concurrent, &start);
            scope.spawn(move || {
                start.wait();
                for (device, sems) in writer {
                    for chunk in sems.chunks(7) {
                        engine.publish(device, chunk);
                    }
                }
            });
        }
    });

    let (want, got) = (serial.traces(), concurrent.traces());
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!((w.id, w.evals), (g.id, g.evals), "evals of {}", w.source);
        if w.source.starts_with("flow") {
            assert_eq!(w.fires, g.fires, "fires of {}", w.source);
        }
    }
    let flow_fires: u64 = want
        .iter()
        .filter(|t| t.source.starts_with("flow"))
        .map(|t| t.fires)
        .sum();
    assert_eq!(
        flow_fires,
        u64::from(REGIONS),
        "each r → r + 1 flow crosses once"
    );

    // Final occupancy: a probe device visiting each region makes it one
    // more than the devices that ended there, which a fresh `=` rule per
    // region must see exactly.
    let mut last = vec![0i64; REGIONS as usize];
    for writer in &data {
        for (_, sems) in writer {
            last[sems.last().unwrap().region.0 as usize] += 1;
        }
    }
    let probe = DeviceId::new("probe");
    for engine in [&serial, &concurrent] {
        let sink = CollectingSink::new();
        for (r, n) in last.iter().enumerate() {
            let condition = Condition::Occupancy {
                region: RegionSel::Id(r as u32),
                cmp: CmpOp::Eq,
                count: n + 1,
            };
            engine
                .register(rule(condition), Some(sink.clone()))
                .unwrap();
        }
        for r in 0..REGIONS {
            engine.publish(&probe, &[sem(&probe, r, "stay", 10_000, 10_001)]);
        }
        let mut regions: Vec<u32> = sink.take().iter().filter_map(|a| a.region).collect();
        regions.sort_unstable();
        assert_eq!(regions, (0..REGIONS).collect::<Vec<_>>());
    }
}

fn rule(condition: Condition) -> RuleSpec {
    let source = match &condition {
        Condition::Flow { .. } => "flow",
        _ => "occupancy",
    };
    RuleSpec {
        name: String::new(),
        priority: 0,
        condition,
        hold_ms: None,
        message: None,
        source: source.to_string(),
    }
}
