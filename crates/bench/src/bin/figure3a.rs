//! **Figure 3 (Cleaning layer)** — error detection and repair quality vs
//! injected error intensity.
//!
//! Sweeps the Wi-Fi error model from mild to severe and reports, for raw vs
//! cleaned data: position RMSE against ground truth, floor error rate, and
//! the repair-action mix (floor corrections / interpolations / drops).
//!
//! Run: `cargo run -p trips-bench --bin figure3a --release`

use trips_bench::{f1, f3, make_dataset, report_expectation, PositionError, Table};
use trips_clean::Cleaner;
use trips_data::{RawRecord, Timestamp};
use trips_geom::IndoorPoint;
use trips_sim::ErrorModel;

fn fidelity(records: &[RawRecord], truth: &[(Timestamp, IndoorPoint)]) -> PositionError {
    let mut error = PositionError::default();
    for r in records {
        error.add(truth, r.ts, r.location);
    }
    error
}

fn main() {
    println!("== Figure 3a: Cleaning layer vs error intensity ==\n");
    let mut t = Table::new(&[
        "err scale",
        "raw RMSE m",
        "clean RMSE m",
        "raw floor%",
        "clean floor%",
        "floor-fix",
        "interp",
        "drop",
    ]);
    // (scale, raw, cleaned) per scale, for the stated expectation.
    let mut rmse_by_scale: Vec<(f64, f64, f64)> = Vec::new();
    let mut floor_by_scale: Vec<(f64, f64, f64)> = Vec::new();

    for scale in [0.5, 1.0, 2.0, 3.0, 4.0] {
        let em = ErrorModel::default().scaled(scale);
        let ds = make_dataset(3, 4, 20, 1, 0xF16003, em);
        let cleaner = Cleaner::with_defaults(&ds.dsm).expect("frozen");

        let mut raw_rmse = 0.0;
        let mut clean_rmse = 0.0;
        let mut raw_floor = 0.0;
        let mut clean_floor = 0.0;
        let mut fixes = 0usize;
        let mut interps = 0usize;
        let mut drops = 0usize;
        let n = ds.traces.len() as f64;

        for trace in &ds.traces {
            let raw_fid = fidelity(trace.raw.records(), &trace.truth_samples);
            let out = cleaner.clean(&trace.raw);
            let clean_fid = fidelity(out.sequence.records(), &trace.truth_samples);
            raw_rmse += raw_fid.rmse().unwrap_or(0.0) / n;
            clean_rmse += clean_fid.rmse().unwrap_or(0.0) / n;
            raw_floor += raw_fid.floor_error().unwrap_or(0.0) / n;
            clean_floor += clean_fid.floor_error().unwrap_or(0.0) / n;
            fixes += out.report.floor_corrected;
            interps += out.report.interpolated;
            drops += out.report.dropped;
        }

        t.row(&[
            f1(scale),
            f3(raw_rmse),
            f3(clean_rmse),
            f3(raw_floor * 100.0),
            f3(clean_floor * 100.0),
            fixes.to_string(),
            interps.to_string(),
            drops.to_string(),
        ]);
        rmse_by_scale.push((scale, raw_rmse, clean_rmse));
        floor_by_scale.push((scale, raw_floor * 100.0, clean_floor * 100.0));
    }
    t.print();
    println!("\n(cleaned RMSE and floor%: lower is better)");
    for (metric, by_scale) in [("RMSE", &rmse_by_scale), ("floor%", &floor_by_scale)] {
        let met = by_scale.iter().all(|&(_, raw, clean)| clean < raw);
        let numbers: Vec<String> = by_scale
            .iter()
            .map(|&(scale, raw, clean)| format!("{}: {} vs {}", f1(scale), f3(clean), f3(raw)))
            .collect();
        report_expectation(
            &format!("cleaned {metric} < raw at every scale"),
            met,
            &format!("cleaned vs raw, {}", numbers.join("; ")),
        );
    }
}
