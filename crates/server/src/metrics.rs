//! The server's operator numbers, read in one place.
//!
//! [`Shared::snapshot`] reads every counter once into a [`Snapshot`]: the
//! wire [`MetricsReport`] plus the few facts only the Prometheus text
//! carries. The `Metrics` response, the Prometheus text ([`render`], for
//! `MetricsProm` and `GET /metrics`) and the drain [`ServerReport`] are
//! all built from it, so no number is read twice or named twice.
//!
//! Adding a metric: fill it in `snapshot`, add one row to [`FAMILIES`]
//! (kept sorted by name) and one row to the catalogue in
//! `docs/OBSERVABILITY.md` (a test checks the two agree).

use crate::protocol::{EndpointMetrics, LoopShardMetrics, MetricsReport};
use crate::server::{ServerReport, Shared};
use std::sync::atomic::Ordering;
use std::time::Duration;
use trips_obs::{write_family, write_histogram, write_sample, HistogramSnapshot};
use trips_store::RecoveryReport;

/// One read of every server counter.
pub(crate) struct Snapshot<'a> {
    pub(crate) report: MetricsReport,
    /// `(endpoint, latency)` for `ingest`, `query` and `admin`, in the
    /// order of `report.endpoints`.
    pub(crate) latency: [(&'static str, HistogramSnapshot); 3],
    pub(crate) store_devices: usize,
    pub(crate) store_semantics: usize,
    pub(crate) slowlog_evicted: u64,
    /// Boot recovery, `None` without durability. The report reads 0 then;
    /// the Prometheus text leaves the `trips_recovery_*` gauges out.
    pub(crate) recovery: Option<&'a RecoveryReport>,
}

impl Shared<'_> {
    /// Reads every counter once: the one source of the `Metrics` report,
    /// the Prometheus text and the drain report.
    pub(crate) fn snapshot(&self) -> Snapshot<'_> {
        let uptime = self.started.elapsed();
        let latency = [
            ("ingest", &self.ingest_hist),
            ("query", &self.query_hist),
            ("admin", &self.admin_hist),
        ]
        .map(|(endpoint, hist)| (endpoint, hist.snapshot()));
        let loop_shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, state)| LoopShardMetrics {
                shard,
                connections: state.connections.load(Ordering::Relaxed),
                pending_completions: state.pending_pushes(),
                wakeups: state.wakeups.load(Ordering::Relaxed),
                bytes_read: state.bytes_read.load(Ordering::Relaxed),
                jobs: state.jobs.load(Ordering::Relaxed),
            })
            .collect();
        let rules = self.store.rules();
        let report = MetricsReport {
            uptime_ms: uptime.as_millis() as u64,
            connections_accepted: self.conns_accepted.load(Ordering::Relaxed),
            connections_rejected: self.conns_rejected.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            queue_capacity: self.admission.capacity(),
            peak_queue_depth: self.admission.peak_depth(),
            rss_kb: read_rss_kb(),
            // The one readiness backend; the field stays on the wire.
            event_backend: "poll".to_string(),
            loop_shards,
            // One session-buffer map per store shard.
            translator_shards: self.store.shard_count(),
            translator_lock_contention: self.translator_contention.load(Ordering::Relaxed),
            endpoints: latency
                .iter()
                .map(|(endpoint, snap)| endpoint_metrics(endpoint, snap, uptime))
                .collect(),
            wal: self.store.wal_stats(),
            recovery_us: self.recovery.as_ref().map_or(0, |r| r.elapsed_us),
            recovery_replayed_records: self.recovery.as_ref().map_or(0, |r| r.replayed_records),
            rules: rules.traces(),
            alerts_delivered: rules.alerts_delivered(),
            alerts_dropped: rules.alerts_dropped()
                + self.alerts_dropped_late.load(Ordering::Relaxed),
            slow_requests: self.slow_requests.load(Ordering::Relaxed),
            store_lock_contention: self.store.shard_lock_contention(),
            rule_evals: rules.evals_total(),
            rule_fires: rules.fires_total(),
            connections_reaped: self.conns_reaped.load(Ordering::Relaxed),
        };
        Snapshot {
            report,
            latency,
            store_devices: self.store.device_count(),
            store_semantics: self.store.semantics_count(),
            slowlog_evicted: self.slowlog.evicted(),
            recovery: self.recovery.as_ref(),
        }
    }
}

impl From<&Snapshot<'_>> for ServerReport {
    fn from(snap: &Snapshot<'_>) -> Self {
        let r = &snap.report;
        ServerReport {
            connections_accepted: r.connections_accepted,
            connections_rejected: r.connections_rejected,
            requests: r.requests,
            shed: r.shed,
            bad_requests: r.bad_requests,
            peak_queue_depth: r.peak_queue_depth,
            devices: snap.store_devices,
            semantics: snap.store_semantics,
        }
    }
}

/// Per-endpoint-family [`EndpointMetrics`] from a merged histogram
/// snapshot: exact count/mean/max, log-bucket-interpolated percentiles.
fn endpoint_metrics(endpoint: &str, snap: &HistogramSnapshot, uptime: Duration) -> EndpointMetrics {
    EndpointMetrics {
        endpoint: endpoint.to_string(),
        count: snap.count as usize,
        ops_per_sec: if uptime.is_zero() {
            0.0
        } else {
            snap.count as f64 / uptime.as_secs_f64()
        },
        p50_us: snap.quantile_us(0.50) as f64,
        p99_us: snap.quantile_us(0.99) as f64,
        max_us: snap.max_us as f64,
        mean_us: snap.mean_us() as f64,
    }
}

/// Resident set size in KiB from `/proc/self/statm` (Linux); `None`
/// elsewhere. Good enough for the connection-scaling gate's flat-memory
/// check; assumes 4 KiB pages like every tier-1 target.
fn read_rss_kb() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let rss_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(rss_pages * 4)
}

/// How a family reads its samples from a [`Snapshot`].
enum Read {
    /// One unlabeled sample; `None` leaves the family out of the scrape.
    One(fn(&Snapshot) -> Option<u64>),
    /// One sample per event-loop shard, labeled `shard`.
    PerShard(fn(&LoopShardMetrics) -> u64),
    /// The request-latency histograms, labeled `endpoint`.
    Latency,
}

use Read::{Latency, One, PerShard};

/// Every exported family as `(name, type, help, read)`, sorted by name
/// (the order of the scrape).
#[rustfmt::skip]
const FAMILIES: &[(&str, &str, &str, Read)] = &[
    ("trips_alerts_delivered_total", "counter", "Alerts delivered to subscribers",
        One(|s| Some(s.report.alerts_delivered))),
    ("trips_alerts_dropped_total", "counter", "Alerts dropped (sink refusal or write backpressure)",
        One(|s| Some(s.report.alerts_dropped))),
    ("trips_bad_requests_total", "counter", "Malformed requests answered BadRequest",
        One(|s| Some(s.report.bad_requests))),
    ("trips_connections_accepted_total", "counter", "Connections accepted",
        One(|s| Some(s.report.connections_accepted))),
    ("trips_connections_active", "gauge", "Currently open connections",
        One(|s| Some(s.report.active_connections as u64))),
    ("trips_connections_reaped_total", "counter", "Connections closed for exceeding the idle timeout",
        One(|s| Some(s.report.connections_reaped))),
    ("trips_connections_rejected_total", "counter", "Connections rejected over the cap",
        One(|s| Some(s.report.connections_rejected))),
    ("trips_loop_shard_bytes_read_total", "counter", "Socket bytes read per event-loop shard",
        PerShard(|m| m.bytes_read)),
    ("trips_loop_shard_connections", "gauge", "Connections owned by each event-loop shard",
        PerShard(|m| m.connections as u64)),
    ("trips_loop_shard_jobs_total", "counter", "Work requests admitted and run per event-loop shard",
        PerShard(|m| m.jobs)),
    ("trips_loop_shard_pending_completions", "gauge", "Alert pushes awaiting the event-loop shard",
        PerShard(|m| m.pending_completions as u64)),
    ("trips_loop_shard_wakeups_total", "counter", "Waker signals per event-loop shard",
        PerShard(|m| m.wakeups)),
    ("trips_queue_capacity", "gauge", "Cap on admitted, unfinished requests",
        One(|s| Some(s.report.queue_capacity as u64))),
    ("trips_queue_peak_depth", "gauge", "High-water mark of admitted, unfinished requests",
        One(|s| Some(s.report.peak_queue_depth as u64))),
    ("trips_recovery_replayed_records", "gauge", "WAL records replayed by boot recovery",
        One(|s| s.recovery.map(|r| r.replayed_records))),
    ("trips_recovery_us", "gauge", "Wall time of boot recovery (microseconds)",
        One(|s| s.recovery.map(|r| r.elapsed_us))),
    ("trips_request_latency_us", "histogram", "Request latency by endpoint family (microseconds)",
        Latency),
    ("trips_requests_shed_total", "counter", "Requests shed with Overloaded",
        One(|s| Some(s.report.shed))),
    ("trips_requests_total", "counter", "Requests received (all endpoints)",
        One(|s| Some(s.report.requests))),
    ("trips_rss_kb", "gauge", "Resident set size (KiB)",
        One(|s| s.report.rss_kb)),
    ("trips_rule_evals_total", "counter", "Standing-rule evaluations",
        One(|s| Some(s.report.rule_evals))),
    ("trips_rule_fires_total", "counter", "Standing-rule fires",
        One(|s| Some(s.report.rule_fires))),
    ("trips_slow_requests_total", "counter", "Spans promoted into the slow-log",
        One(|s| Some(s.report.slow_requests))),
    ("trips_slowlog_evicted_total", "counter", "Promoted spans evicted by the slow-log cap",
        One(|s| Some(s.slowlog_evicted))),
    ("trips_store_devices", "gauge", "Devices resident in the store",
        One(|s| Some(s.store_devices as u64))),
    ("trips_store_semantics", "gauge", "Location semantics resident in the store",
        One(|s| Some(s.store_semantics as u64))),
    ("trips_store_shard_lock_contention_total", "counter", "Contended store shard write-lock acquisitions",
        One(|s| Some(s.report.store_lock_contention))),
    ("trips_translator_lock_contention_total", "counter", "Contended translator-shard lock acquisitions",
        One(|s| Some(s.report.translator_lock_contention))),
    ("trips_translator_shards", "gauge", "Translator lock shards",
        One(|s| Some(s.report.translator_shards as u64))),
    ("trips_uptime_seconds", "gauge", "Seconds since serve started",
        One(|s| Some(s.report.uptime_ms / 1000))),
    ("trips_wal_bytes", "gauge", "Bytes across live WAL segments",
        One(|s| s.report.wal.as_ref().map(|w| w.bytes))),
    ("trips_wal_fsyncs_total", "counter", "WAL fdatasyncs issued",
        One(|s| s.report.wal.as_ref().map(|w| w.fsyncs))),
    ("trips_wal_records_since_checkpoint", "gauge", "WAL records appended since the last checkpoint",
        One(|s| s.report.wal.as_ref().map(|w| w.records_since_checkpoint))),
    ("trips_wal_rotations_total", "counter", "WAL segment rotations",
        One(|s| s.report.wal.as_ref().map(|w| w.rotations))),
    ("trips_wal_segments", "gauge", "Live WAL segment files",
        One(|s| s.report.wal.as_ref().map(|w| w.segments as u64))),
];

/// Renders a snapshot in the Prometheus text exposition format (0.0.4).
pub(crate) fn render(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(8192);
    for (name, kind, help, read) in FAMILIES {
        match read {
            One(value) => {
                if let Some(v) = value(snap) {
                    write_family(&mut out, name, help, kind);
                    write_sample(&mut out, name, "", v);
                }
            }
            PerShard(value) => {
                write_family(&mut out, name, help, kind);
                for m in &snap.report.loop_shards {
                    write_sample(&mut out, name, &format!("shard=\"{}\"", m.shard), value(m));
                }
            }
            Latency => {
                write_family(&mut out, name, help, kind);
                let mut latency: Vec<_> = snap.latency.iter().collect();
                latency.sort_by_key(|(endpoint, _)| *endpoint);
                for (endpoint, hist) in latency {
                    write_histogram(&mut out, name, &format!("endpoint=\"{endpoint}\""), hist);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use trips_obs::{validate_exposition, Histogram, HIST_BUCKETS};
    use trips_store::WalStats;

    #[test]
    fn endpoint_metrics_reduce_a_histogram_snapshot() {
        let hist = Histogram::new();
        for us in 1..=1000u64 {
            hist.observe_us(us);
        }
        let m = endpoint_metrics("ingest", &hist.snapshot(), Duration::from_secs(10));
        assert_eq!(m.endpoint, "ingest");
        assert_eq!(m.count, 1000);
        assert!((m.ops_per_sec - 100.0).abs() < 1e-9);
        assert_eq!(m.max_us, 1000.0, "max is exact");
        assert_eq!(m.mean_us, 500.0);
        // Log buckets: the p50 estimate stays inside the true median's
        // bucket (256, 512]; p99 never exceeds the exact max.
        assert!((257.0..=512.0).contains(&m.p50_us), "p50 {}", m.p50_us);
        assert!(m.p99_us <= m.max_us);

        let empty = endpoint_metrics("query", &Histogram::new().snapshot(), Duration::ZERO);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.ops_per_sec, 0.0);
    }

    /// A report whose every number is distinct, so a family reading the
    /// wrong field shows.
    fn report(wal: Option<WalStats>) -> MetricsReport {
        MetricsReport {
            uptime_ms: 7_900,
            connections_accepted: 11,
            connections_rejected: 12,
            active_connections: 13,
            requests: 14,
            shed: 15,
            bad_requests: 16,
            queue_capacity: 17,
            peak_queue_depth: 18,
            rss_kb: Some(19),
            event_backend: "poll".to_string(),
            loop_shards: (0..2)
                .map(|shard| LoopShardMetrics {
                    shard,
                    connections: 20 + shard,
                    pending_completions: 22 + shard,
                    wakeups: 24 + shard as u64,
                    bytes_read: 26 + shard as u64,
                    jobs: 28 + shard as u64,
                })
                .collect(),
            translator_shards: 30,
            translator_lock_contention: 31,
            endpoints: Vec::new(),
            wal,
            recovery_us: 32,
            recovery_replayed_records: 33,
            rules: Vec::new(),
            alerts_delivered: 34,
            alerts_dropped: 35,
            slow_requests: 36,
            store_lock_contention: 37,
            rule_evals: 38,
            rule_fires: 39,
            connections_reaped: 40,
        }
    }

    fn latency() -> [(&'static str, HistogramSnapshot); 3] {
        let hist = |samples: &[u64]| {
            let h = Histogram::new();
            samples.iter().for_each(|&us| h.observe_us(us));
            h.snapshot()
        };
        [
            ("ingest", hist(&[3, 100, 5_000])),
            ("query", hist(&[1, 2])),
            ("admin", hist(&[])),
        ]
    }

    #[test]
    fn render_reads_every_family_from_its_source() {
        let wal = WalStats {
            segments: 41,
            bytes: 42,
            records_since_checkpoint: 43,
            last_checkpoint_age_ms: None,
            fsyncs: 44,
            rotations: 45,
        };
        let recovery = RecoveryReport {
            snapshot_loaded: false,
            replayed_records: 46,
            torn_tail_truncated: false,
            segments: 1,
            checkpoint_seq: 0,
            elapsed_us: 47,
        };
        for (wal, recovery) in [(None, None), (Some(wal), Some(&recovery))] {
            let durable = wal.is_some();
            let snap = Snapshot {
                report: report(wal),
                latency: latency(),
                store_devices: 48,
                store_semantics: 49,
                slowlog_evicted: 50,
                recovery,
            };
            let text = render(&snap);
            let parsed = validate_exposition(&text).expect("valid exposition");

            let mut want: BTreeMap<&str, u64> = BTreeMap::from([
                ("trips_alerts_delivered_total", 34),
                ("trips_alerts_dropped_total", 35),
                ("trips_bad_requests_total", 16),
                ("trips_connections_accepted_total", 11),
                ("trips_connections_active", 13),
                ("trips_connections_reaped_total", 40),
                ("trips_connections_rejected_total", 12),
                ("trips_loop_shard_bytes_read_total{shard=\"0\"}", 26),
                ("trips_loop_shard_bytes_read_total{shard=\"1\"}", 27),
                ("trips_loop_shard_connections{shard=\"0\"}", 20),
                ("trips_loop_shard_connections{shard=\"1\"}", 21),
                ("trips_loop_shard_jobs_total{shard=\"0\"}", 28),
                ("trips_loop_shard_jobs_total{shard=\"1\"}", 29),
                ("trips_loop_shard_pending_completions{shard=\"0\"}", 22),
                ("trips_loop_shard_pending_completions{shard=\"1\"}", 23),
                ("trips_loop_shard_wakeups_total{shard=\"0\"}", 24),
                ("trips_loop_shard_wakeups_total{shard=\"1\"}", 25),
                ("trips_queue_capacity", 17),
                ("trips_queue_peak_depth", 18),
                ("trips_requests_shed_total", 15),
                ("trips_requests_total", 14),
                ("trips_rss_kb", 19),
                ("trips_rule_evals_total", 38),
                ("trips_rule_fires_total", 39),
                ("trips_slow_requests_total", 36),
                ("trips_slowlog_evicted_total", 50),
                ("trips_store_devices", 48),
                ("trips_store_semantics", 49),
                ("trips_store_shard_lock_contention_total", 37),
                ("trips_translator_lock_contention_total", 31),
                ("trips_translator_shards", 30),
                ("trips_uptime_seconds", 7),
            ]);
            if durable {
                want.extend([
                    ("trips_recovery_replayed_records", 46),
                    ("trips_recovery_us", 47),
                    ("trips_wal_bytes", 42),
                    ("trips_wal_fsyncs_total", 44),
                    ("trips_wal_records_since_checkpoint", 43),
                    ("trips_wal_rotations_total", 45),
                    ("trips_wal_segments", 41),
                ]);
            }
            let scalars: BTreeMap<&str, u64> = parsed
                .iter()
                .filter(|(series, _)| !series.starts_with("trips_request_latency_us"))
                .map(|(series, v)| (series.as_str(), *v as u64))
                .collect();
            assert_eq!(scalars, want, "durable: {durable}");

            // Families come sorted by name, each declared once.
            let types: Vec<&str> = text
                .lines()
                .filter_map(|l| l.strip_prefix("# TYPE "))
                .collect();
            assert!(types.windows(2).all(|w| w[0] < w[1]), "{types:?}");
            assert!(types.contains(&"trips_request_latency_us histogram"));

            for (endpoint, hist) in &snap.latency {
                let series = |suffix: &str, le: Option<&str>| {
                    let key = match le {
                        Some(le) => format!(
                            "trips_request_latency_us{suffix}{{endpoint=\"{endpoint}\",le=\"{le}\"}}"
                        ),
                        None => format!("trips_request_latency_us{suffix}{{endpoint=\"{endpoint}\"}}"),
                    };
                    parsed[&key]
                };
                assert_eq!(series("_count", None), hist.count as f64);
                assert_eq!(series("_sum", None), hist.sum_us as f64);
                // Cumulative buckets never decrease, and `+Inf` is the count.
                let mut last = 0.0;
                for i in 0..HIST_BUCKETS - 1 {
                    let v = series("_bucket", Some(&(1u64 << i).to_string()));
                    assert!(v >= last, "{endpoint}: bucket {i} decreased");
                    last = v;
                }
                assert!(series("_bucket", Some("+Inf")) >= last);
                assert_eq!(series("_bucket", Some("+Inf")), hist.count as f64);
            }
        }
    }
}
