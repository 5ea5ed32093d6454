//! Deterministic end-to-end golden test: the full `Trips::run` pipeline on
//! a fixed-seed simulated mall, pinning both exact output counts and an
//! assessment-quality floor. A regression in any layer (selection,
//! cleaning, annotation, complementing, assessment) moves at least one of
//! these numbers.
//!
//! All randomness flows from the workspace's vendored `rand` via the fixed
//! scenario seed, so the expected values are stable across runs and
//! machines. If a deliberate algorithm change shifts them, re-derive the
//! constants by running with `--nocapture` and reading the printed actuals.

use trips::annotate::baseline::ThresholdClassifier;
use trips::annotate::model::evaluate;
use trips::core::assess;
use trips::prelude::*;

const GOLDEN_SEED: u64 = 0x601D;

fn dataset() -> SimulatedDataset {
    trips::sim::scenario::generate(
        2,
        4,
        &ScenarioConfig {
            devices: 8,
            days: 1,
            seed: GOLDEN_SEED,
            ..ScenarioConfig::default()
        },
    )
}

/// Ground-truth-trained editor over every trace, via the shared bench
/// harness so golden expectations and the evaluation binaries can't diverge.
fn editor_from_truth(ds: &SimulatedDataset) -> EventEditor {
    trips_bench::editor_from_truth(ds, ds.traces.len())
}

#[test]
fn golden_pipeline_counts_and_quality_floor() {
    let ds = dataset();
    let editor = editor_from_truth(&ds);
    let sequences = ds.sequences();
    let raw_records: usize = sequences.iter().map(|s| s.len()).sum();

    let mut system = Trips::new(Configurator::new(ds.dsm.clone()).with_event_editor(editor));
    let result = system.run(sequences).expect("pipeline runs");

    println!(
        "actuals: devices={} raw={} semantics={} inferred={}",
        result.devices.len(),
        raw_records,
        result.total_semantics(),
        result
            .devices
            .iter()
            .map(|d| d.inferred_count())
            .sum::<usize>(),
    );

    // --- Golden counts (layer-shape regressions) -------------------------
    assert_eq!(result.devices.len(), 8, "one translation per device");
    assert_eq!(raw_records, 828, "simulator output drifted");
    assert_eq!(result.total_semantics(), 88, "semantics count drifted");
    assert_eq!(
        result
            .devices
            .iter()
            .map(|d| d.inferred_count())
            .sum::<usize>(),
        1,
        "complementing drifted"
    );

    // Structural invariants that must hold regardless of the exact counts.
    assert!(result.total_records() > result.total_semantics());
    for d in &result.devices {
        for w in d.semantics.windows(2) {
            assert!(w[0].end <= w[1].start, "semantics sorted, non-overlapping");
        }
    }

    // --- Assessment floor (quality regressions) --------------------------
    let reports: Vec<_> = ds
        .traces
        .iter()
        .filter_map(|t| {
            result
                .device(t.raw.device())
                .map(|d| assess::assess(&d.semantics, &t.truth_visits))
        })
        .collect();
    assert_eq!(reports.len(), 8);
    let agg = assess::aggregate(&reports);
    println!(
        "assessment: region_time={:.3} coverage={:.3} event={:.3}",
        agg.region_time_accuracy, agg.coverage, agg.event_accuracy
    );
    assert!(agg.region_time_accuracy > 0.70, "region accuracy {agg:?}");
    assert!(agg.coverage > 0.80, "coverage {agg:?}");

    // The learned event model must beat the fixed-threshold heuristic from
    // `annotate::baseline` on this workload's labelled snippets.
    let (xs, ys) = trips_bench::labelled_snippets(&ds);
    let editor = editor_from_truth(&ds);
    let (model, _labels) = editor.train_default_model().expect("trainable");
    let learned = evaluate(&model, &xs, &ys, 2);
    let baseline = evaluate(&ThresholdClassifier::default(), &xs, &ys, 2);
    println!(
        "event accuracy: learned={:.3} baseline={:.3}",
        learned.accuracy, baseline.accuracy
    );
    assert!(
        learned.accuracy > baseline.accuracy,
        "learned ({:.3}) must beat the threshold baseline ({:.3})",
        learned.accuracy,
        baseline.accuracy
    );
    assert!(
        agg.event_accuracy >= baseline.accuracy - 0.05,
        "end-to-end event accuracy {:.3} fell below the baseline heuristic {:.3}",
        agg.event_accuracy,
        baseline.accuracy
    );
}

#[test]
fn golden_run_is_reproducible() {
    let run = || {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        let sequences = ds.sequences();
        let mut system = Trips::new(Configurator::new(ds.dsm.clone()).with_event_editor(editor));
        let result = system.run(sequences).expect("pipeline runs");
        result
            .devices
            .iter()
            .flat_map(|d| d.semantics.iter())
            .map(|s| (s.device.clone(), s.event, s.region, s.start, s.end))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed must reproduce identical semantics");
}
