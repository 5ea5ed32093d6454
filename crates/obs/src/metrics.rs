//! Log-bucketed latency histograms and a minimal Prometheus text
//! exposition writer.
//!
//! ## Recording
//!
//! A [`Histogram`] is an `Arc` of plain atomics, so recording on the hot
//! path is a few relaxed `fetch_add`s. Its buckets are **striped** across
//! [`STRIPES`] independent atomic arrays indexed by a per-thread id, so
//! concurrent threads rarely touch the same cache line; stripes are
//! merged into one [`HistogramSnapshot`] at scrape time.
//!
//! ## Exposition
//!
//! A caller reads its own counters once per scrape and writes them out
//! with [`write_family`], [`write_sample`] and [`write_histogram`] (text
//! format 0.0.4). [`validate_exposition`] is the parser the tests and CI
//! gates use.
//!
//! ## Buckets
//!
//! Histogram buckets are powers of two in microseconds: bucket `i` counts
//! observations `≤ 2^i µs` (the last bucket is `+Inf`). Log bucketing
//! bounds memory at [`HIST_BUCKETS`] words per stripe while keeping
//! relative quantile error under ~2× across nine orders of magnitude —
//! the right trade for latency distributions. Quantiles interpolate
//! linearly inside the winning bucket and clamp to the tracked maximum.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of histogram buckets (last bucket is `+Inf`).
pub const HIST_BUCKETS: usize = 28;
/// Stripe count — a small power of two: enough to spread a worker pool,
/// small enough that scrape-time merging stays trivial.
const STRIPES: usize = 8;

/// One stripe of histogram state. `#[repr(align(128))]` keeps two stripes
/// off the same cache-line pair under false sharing.
#[repr(align(128))]
struct Stripe {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

struct HistogramCore {
    stripes: Vec<Stripe>,
    max_us: AtomicU64,
}

/// A log-bucketed latency histogram (microsecond domain). Clone-cheap;
/// recording is 3 relaxed `fetch_add`s on a per-thread stripe plus one
/// `fetch_max`.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a microsecond value: smallest `i` with `v ≤ 2^i`
/// (0 and 1 both land in bucket 0), clamped into the `+Inf` bucket.
#[inline]
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        ((u64::BITS - (us - 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Upper bound (µs) of bucket `i`; `None` for the `+Inf` bucket.
#[inline]
fn bucket_le(i: usize) -> Option<u64> {
    (i < HIST_BUCKETS - 1).then(|| 1u64 << i)
}

thread_local! {
    static STRIPE_ID: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
    };
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
                max_us: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation in microseconds.
    #[inline]
    pub fn observe_us(&self, us: u64) {
        let stripe = &self.core.stripes[STRIPE_ID.with(|id| *id)];
        stripe.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        stripe.sum_us.fetch_add(us, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        self.core.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one observation as a [`Duration`].
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_us(d.as_micros() as u64);
    }

    /// Merges every stripe into one point-in-time view.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut sum_us = 0u64;
        let mut count = 0u64;
        for stripe in &self.core.stripes {
            for (acc, b) in buckets.iter_mut().zip(stripe.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
            sum_us = sum_us.saturating_add(stripe.sum_us.load(Ordering::Relaxed));
            count += stripe.count.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_us,
            count,
            max_us: self.core.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A merged, immutable view of a [`Histogram`] (see
/// [`Histogram::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-cumulative per-bucket counts (`buckets[i]` = observations in
    /// `(2^(i-1), 2^i]`, first bucket `[0, 1]`, last `+Inf`).
    pub buckets: [u64; HIST_BUCKETS],
    pub sum_us: u64,
    pub count: u64,
    /// Largest single observation — exact, so tail quantiles never report
    /// above reality.
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// Estimated quantile (`q` in `[0, 1]`) in microseconds: nearest-rank
    /// bucket walk with linear interpolation inside the winning bucket,
    /// clamped to the exact tracked maximum. Zero when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let prev_cum = cum;
            cum += n;
            if cum >= rank {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = bucket_le(i).unwrap_or(self.max_us).min(self.max_us.max(lo));
                let frac = (rank - prev_cum) as f64 / n as f64;
                let est = lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                return (est as u64).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Arithmetic mean in microseconds; zero when empty.
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

/// Appends a family's `# HELP` and `# TYPE` lines. Write a family's
/// samples right after it; families should come sorted by name.
pub fn write_family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Appends one sample line. `labels` is a rendered label set
/// (`key="value",…`) or empty.
pub fn write_sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Appends one histogram series: a cumulative `_bucket{…,le="…"}` line
/// per bucket (the last is `+Inf`), then `_sum` and `_count`.
pub fn write_histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    for (i, n) in snap.buckets.iter().enumerate() {
        cum += n;
        let _ = match bucket_le(i) {
            Some(le) => writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}"),
            None => writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}"),
        };
    }
    write_sample(out, &format!("{name}_sum"), labels, snap.sum_us);
    write_sample(out, &format!("{name}_count"), labels, snap.count);
}

/// Parses a Prometheus text exposition, returning `series → value` (the
/// series key includes its label set). Errors on malformed sample lines,
/// invalid metric names, or unparseable values — the checker behind the
/// scrape-under-load test and the CI smoke gate.
pub fn validate_exposition(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {}: unknown comment form: {line}", lineno + 1));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line}", lineno + 1))?;
        let name = match series.split_once('{') {
            Some((n, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {}: unterminated label set", lineno + 1));
                }
                n
            }
            None => series,
        };
        let valid_name = !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            });
        if !valid_name {
            return Err(format!("line {}: invalid metric name `{name}`", lineno + 1));
        }
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value `{value}`: {e}", lineno + 1))?;
        out.insert(series.to_string(), value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_smallest_power_of_two_cover() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_track_known_distribution() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.observe_us(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum_us, 500_500);
        assert_eq!(snap.max_us, 1000);
        let p50 = snap.quantile_us(0.50);
        // Log buckets: the true p50 (500) lives in bucket (256, 512];
        // interpolation keeps the estimate inside that bucket.
        assert!((257..=512).contains(&p50), "p50 estimate {p50}");
        assert_eq!(snap.quantile_us(1.0), 1000, "p100 clamps to exact max");
        assert!(snap.quantile_us(0.99) <= 1000);
        assert_eq!(snap.mean_us(), 500);
    }

    #[test]
    fn histogram_merges_across_threads() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        h.observe_us(10);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 400);
        assert_eq!(snap.sum_us, 4000);
    }

    #[test]
    fn render_is_valid_exposition_with_histogram_shape() {
        let h = Histogram::new();
        h.observe_us(3);
        h.observe_us(100);
        let mut text = String::new();
        write_family(
            &mut text,
            "trips_connections_active",
            "open connections",
            "gauge",
        );
        write_sample(&mut text, "trips_connections_active", "", 3);
        write_family(
            &mut text,
            "trips_latency_us",
            "request latency",
            "histogram",
        );
        write_histogram(
            &mut text,
            "trips_latency_us",
            "endpoint=\"query\"",
            &h.snapshot(),
        );
        write_family(
            &mut text,
            "trips_requests_total",
            "total requests",
            "counter",
        );
        write_sample(&mut text, "trips_requests_total", "endpoint=\"ingest\"", 5);
        let parsed = validate_exposition(&text).expect("valid exposition");
        assert_eq!(
            parsed.get("trips_requests_total{endpoint=\"ingest\"}"),
            Some(&5.0)
        );
        assert_eq!(parsed.get("trips_connections_active"), Some(&3.0));
        assert_eq!(
            parsed.get("trips_latency_us_count{endpoint=\"query\"}"),
            Some(&2.0)
        );
        assert_eq!(
            parsed.get("trips_latency_us_sum{endpoint=\"query\"}"),
            Some(&103.0)
        );
        assert_eq!(
            parsed.get("trips_latency_us_bucket{endpoint=\"query\",le=\"+Inf\"}"),
            Some(&2.0)
        );
        // Cumulative buckets never decrease.
        let mut last = 0.0;
        for i in 0..HIST_BUCKETS - 1 {
            let v = parsed[&format!(
                "trips_latency_us_bucket{{endpoint=\"query\",le=\"{}\"}}",
                1u64 << i
            )];
            assert!(v >= last, "bucket {i} decreased");
            last = v;
        }
        assert!(text.contains("# TYPE trips_latency_us histogram"));
        assert!(text.contains("# HELP trips_requests_total total requests"));

        // An unlabeled histogram carries only `le`.
        let mut bare = String::new();
        write_histogram(&mut bare, "trips_x_us", "", &h.snapshot());
        assert!(
            bare.starts_with("trips_x_us_bucket{le=\"1\"} 0\n"),
            "{bare}"
        );
        assert!(
            bare.ends_with("trips_x_us_sum 103\ntrips_x_us_count 2\n"),
            "{bare}"
        );
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_exposition("not a metric line at all{").is_err());
        assert!(validate_exposition("name_only_no_value").is_err());
        assert!(validate_exposition("9starts_with_digit 1").is_err());
        assert!(validate_exposition("ok_metric nanvalue_x").is_err());
    }
}
