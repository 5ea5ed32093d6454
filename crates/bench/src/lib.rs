//! Shared harness for the TRIPS evaluation: dataset builders, ground-truth
//! training, assessment shortcuts, and an aligned table printer.
//!
//! Every table and figure of the paper maps to one printable reproduction
//! binary in `src/bin/`. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded results.

use trips_annotate::features::FeatureVector;
use trips_annotate::EventEditor;
use trips_core::assess::{self, AssessmentReport};
use trips_core::TranslationResult;
use trips_data::{RawRecord, Timestamp};
use trips_engine::PipelineReport;
use trips_geom::IndoorPoint;
use trips_sim::{ErrorModel, ScenarioConfig, SimulatedDataset};

/// Standard dataset builder used across experiments.
pub fn make_dataset(
    floors: u16,
    shops_per_row: usize,
    devices: usize,
    days: usize,
    seed: u64,
    error_model: ErrorModel,
) -> SimulatedDataset {
    trips_sim::scenario::generate(
        floors,
        shops_per_row,
        &ScenarioConfig {
            devices,
            days,
            seed,
            error_model,
            ..ScenarioConfig::default()
        },
    )
}

/// Builds an Event Editor trained from ground-truth designations (the demo
/// analyst's step 3), using at most `max_traces` devices.
pub fn editor_from_truth(ds: &SimulatedDataset, max_traces: usize) -> EventEditor {
    let mut editor = EventEditor::with_default_patterns();
    for trace in ds.traces.iter().take(max_traces) {
        for visit in &trace.truth_visits {
            let segment: Vec<RawRecord> = trace
                .raw
                .records()
                .iter()
                .filter(|r| r.ts >= visit.start && r.ts <= visit.end)
                .cloned()
                .collect();
            if segment.len() >= 2 {
                let _ = editor.designate_segment(visit.kind.name(), &segment);
            }
        }
    }
    editor
}

/// Labelled snippet features from ground truth (0 = stay, 1 = pass-by).
pub fn labelled_snippets(ds: &SimulatedDataset) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for trace in &ds.traces {
        for visit in &trace.truth_visits {
            let segment: Vec<RawRecord> = trace
                .raw
                .records()
                .iter()
                .filter(|r| r.ts >= visit.start && r.ts <= visit.end)
                .cloned()
                .collect();
            if segment.len() < 2 {
                continue;
            }
            xs.push(FeatureVector::extract(&segment).values().to_vec());
            ys.push(match visit.kind {
                trips_sim::VisitKind::Stay => 0,
                trips_sim::VisitKind::PassBy => 1,
            });
        }
    }
    (xs, ys)
}

/// Aggregated assessment of a translation result against the dataset's
/// ground truth.
pub fn assess_result(ds: &SimulatedDataset, result: &TranslationResult) -> AssessmentReport {
    let reports: Vec<AssessmentReport> = ds
        .traces
        .iter()
        .filter_map(|trace| {
            result
                .device(&trace.device)
                .map(|d| assess::assess(&d.semantics, &trace.truth_visits))
        })
        .collect();
    assess::aggregate(&reports)
}

/// Position error of records against a trace's ground truth, pooled over
/// the records added.
#[derive(Debug, Clone, Default)]
pub struct PositionError {
    squared_m2: f64,
    floor_misses: usize,
    records: usize,
}

impl PositionError {
    /// Adds the error of a record at `at` against the truth sample in force
    /// at `ts`; a record before the first truth sample cannot be scored
    /// and is skipped.
    pub fn add(&mut self, truth: &[(Timestamp, IndoorPoint)], ts: Timestamp, at: IndoorPoint) {
        let idx = truth.partition_point(|(t, _)| *t <= ts);
        if idx == 0 {
            return;
        }
        let tpos = truth[idx - 1].1;
        self.squared_m2 += tpos.xy.distance(at.xy).powi(2);
        self.floor_misses += usize::from(tpos.floor != at.floor);
        self.records += 1;
    }

    /// Records scored so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Root-mean-square planar error, metres; `None` before any record.
    pub fn rmse(&self) -> Option<f64> {
        (self.records > 0).then(|| (self.squared_m2 / self.records as f64).sqrt())
    }

    /// Share of records on the wrong floor; `None` before any record.
    pub fn floor_error(&self) -> Option<f64> {
        (self.records > 0).then(|| self.floor_misses as f64 / self.records as f64)
    }
}

/// Aligned plain-text table printer for the experiment binaries.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Renders an engine [`PipelineReport`] as an aligned table — the timing
/// side of every experiment binary that runs the Translator.
pub fn pipeline_table(report: &PipelineReport) -> Table {
    let mut t = Table::new(&["stage", "items", "wall ms"]);
    for s in &report.stages {
        t.row(&[
            s.name.clone(),
            s.items.to_string(),
            f1(s.wall.as_secs_f64() * 1000.0),
        ]);
    }
    t.row(&[
        "total".to_string(),
        String::new(),
        f1(report.total_wall().as_secs_f64() * 1000.0),
    ]);
    t
}

/// Formats a float with 3 decimals (table cells).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal (table cells).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Prints whether this run met an expectation a binary states, with the
/// numbers compared. A report only: a miss does not change the exit code.
pub fn report_expectation(expectation: &str, met: bool, compared: &str) {
    let verdict = if met { "met" } else { "NOT met" };
    println!("expectation: {expectation} -> {verdict} ({compared})");
}

/// Milliseconds elapsed by a closure.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["metric", "value"]);
        t.row(&["accuracy".to_string(), f3(0.912)]);
        t.row(&["x".to_string(), f1(10.0)]);
        let s = t.render();
        assert!(s.contains("accuracy"));
        assert!(s.contains("0.912"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[1].chars().filter(|&c| c == '-').count(),
            lines[1].len()
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn position_error_pools_records_and_skips_those_before_truth() {
        let truth = [(Timestamp::from_millis(1000), IndoorPoint::new(0.0, 0.0, 0))];
        let mut e = PositionError::default();
        assert_eq!((e.rmse(), e.floor_error()), (None, None));
        e.add(
            &truth,
            Timestamp::from_millis(0),
            IndoorPoint::new(9.0, 9.0, 1),
        );
        assert_eq!(e.records(), 0);
        e.add(
            &truth,
            Timestamp::from_millis(1000),
            IndoorPoint::new(3.0, 4.0, 0),
        );
        e.add(
            &truth,
            Timestamp::from_millis(2000),
            IndoorPoint::new(0.0, 0.0, 1),
        );
        assert_eq!(e.records(), 2);
        assert_eq!(e.rmse(), Some(12.5f64.sqrt()));
        assert_eq!(e.floor_error(), Some(0.5));
    }

    #[test]
    fn harness_helpers_work_end_to_end() {
        let ds = make_dataset(1, 2, 2, 1, 9, ErrorModel::default());
        let editor = editor_from_truth(&ds, 2);
        assert!(editor.example_count() > 0);
        let (xs, ys) = labelled_snippets(&ds);
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty());
        let (_, ms) = time_ms(|| 1 + 1);
        assert!(ms >= 0.0);
    }
}
