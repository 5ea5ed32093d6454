//! TRIPS benchmark: three workloads, each checked for correct output.
//!
//! ```text
//! cargo run --release --manifest-path tripsbench/Cargo.toml -- \
//!     --workload mall-batch|campus-ingest|analyst-query \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! separate traced run that measures the per-layer metrics. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is the run's
//! self-describing report. See README.md for the workloads and metrics.

mod analyst;
mod campus;
mod common;
mod inputs;
mod layers;
mod mall;
mod trace;
mod wire;

use common::Json;
use std::collections::BTreeSet;

/// End-to-end metric names every workload reports with `--trace 0`.
pub const END_TO_END: [&str; 4] = ["setup_s", "records_per_s", "region_time_accuracy", "rss_mb"];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Names of the checks or operations that failed.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Self-describing extras for the report line.
    pub report: Vec<(String, Json)>,
}

impl Outcome {
    /// One output check: an attempted operation that fails unless `ok`.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.ops(name, 1, u64::from(!ok));
    }

    /// `attempted` operations of one kind, `failed` of them failed.
    pub fn ops(&mut self, name: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{name} ({failed}/{attempted})"));
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.report.push((key.to_string(), value));
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Seconds a run may take beyond `--seconds` (inputs, warm-up, checks).
const WATCHDOG_SLACK_S: f64 = 140.0;

const USAGE: &str = "usage: trips-perfbench --workload mall-batch|campus-ingest|analyst-query \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A wedged server must not hang the run: give up well before a
    // caller's time limit, without printing a result.
    let limit = std::time::Duration::from_secs_f64(args.seconds + WATCHDOG_SLACK_S);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("run exceeded {limit:?}; giving up");
        std::process::exit(3);
    });
    let ticks_before = common::cpu_ticks();
    let mut outcome = match args.workload.as_str() {
        "mall-batch" => mall::run(&args),
        "campus-ingest" => campus::run(&args),
        "analyst-query" => analyst::run(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // The metric set is fixed by mode; anything else is a harness bug.
    let expected: BTreeSet<String> = if args.trace {
        layers::metric_names().into_iter().collect()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let got: BTreeSet<String> = outcome.metrics.iter().map(|m| m.name.clone()).collect();
    if got != expected || got.len() != outcome.metrics.len() {
        eprintln!(
            "harness bug: metrics {:?} differ from the expected set {:?}",
            got.symmetric_difference(&expected).collect::<Vec<_>>(),
            expected.len()
        );
        std::process::exit(1);
    }
    let non_finite: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} is finite", m.name))
        .collect();
    for name in non_finite {
        outcome.check(&name, false);
    }

    // Share of the run's CPU time the hypervisor stole: the main source of
    // run-to-run spread on shared virtual machines.
    let steal_share = match (ticks_before, common::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let mut report = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("commit".to_string(), Json::Str(common::git_commit())),
        ("host".to_string(), common::host()),
        (
            "peak_rss_mb".to_string(),
            Json::Num(common::rss_mb("VmHWM")),
        ),
        ("steal_share".to_string(), Json::Num(steal_share)),
        (
            "failures".to_string(),
            Json::Arr(outcome.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    report.append(&mut outcome.report);
    println!("{}", Json::obj([("report", Json::Obj(report))]).render());

    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(outcome.failed == 0)),
            ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
}

/// Folds a layer sweep into the outcome of a traced run: its metrics, its
/// checks, each layer's self time (with the unattributed `other`) in the
/// report, and the spans written to `.tripsbench_out/`.
pub fn finish_trace(args: &Args, out: &mut Outcome, sweep: layers::Sweep) {
    for (name, ok) in &sweep.checks {
        out.check(name, *ok);
    }
    let self_ns = sweep.tracer.self_ns();
    let mut layers: Vec<(String, Json)> = self_ns
        .iter()
        .map(|(name, ns)| (name.to_string(), Json::Num(*ns as f64 / 1e6)))
        .collect();
    let coverage = sweep
        .metrics
        .iter()
        .find(|m| m.name == "trace.coverage_share")
        .map_or(0.0, |m| m.value);
    let attributed: u64 = self_ns.values().sum();
    let other_ms = attributed as f64 / 1e6 * (1.0 / coverage - 1.0);
    layers.push(("other".to_string(), Json::Num(other_ms)));
    out.note("layer_self_ms", Json::Obj(layers));
    out.metrics.extend(sweep.metrics);
    let path = std::path::Path::new(".tripsbench_out")
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    match sweep.tracer.write(&path) {
        Ok(()) => out.note("spans", Json::Str(path.display().to_string())),
        Err(e) => out.check(&format!("write spans: {e}"), false),
    }
}
