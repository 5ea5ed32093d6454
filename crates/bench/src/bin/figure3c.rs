//! **Figure 3 (Complementing layer)** — gap recovery quality.
//!
//! Injects dropout bursts, then compares four complementing strategies:
//! no complementing, MAP inference with uniform prior, with distance-decay
//! prior, and with learned mobility knowledge (the full system). Reports
//! ground-truth coverage and region-time accuracy.
//!
//! Run: `cargo run -p trips-bench --bin figure3c --release`

use trips_annotate::MobilitySemantics;
use trips_bench::{editor_from_truth, f3, make_dataset, report_expectation, Table};
use trips_complement::{Complementor, ComplementorConfig, MobilityKnowledge};
use trips_core::assess;
use trips_core::{Translator, TranslatorConfig};
use trips_sim::{ErrorModel, SimulatedDataset};

fn assess_sequences(
    ds: &SimulatedDataset,
    per_device: &[(trips_data::DeviceId, Vec<MobilitySemantics>)],
) -> (f64, f64) {
    let mut reports = Vec::new();
    for (device, sems) in per_device {
        if let Some(trace) = ds.traces.iter().find(|t| &t.device == device) {
            reports.push(assess::assess(sems, &trace.truth_visits));
        }
    }
    let agg = assess::aggregate(&reports);
    (agg.coverage, agg.region_time_accuracy)
}

fn main() {
    println!("== Figure 3c: complementing strategies under dropout bursts ==\n");

    // Heavy burst dropouts: the Complementor's reason to exist.
    let em = ErrorModel {
        burst_drop_rate: 0.05,
        burst_len: 45,
        ..ErrorModel::default()
    };
    let ds = make_dataset(2, 4, 40, 1, 0xF16C01, em);
    let editor = editor_from_truth(&ds, 40);
    let translator = Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard())
        .expect("translator");
    let result = translator.translate(&ds.sequences());

    // The original (pre-complement) sequences feed each strategy.
    let originals: Vec<(trips_data::DeviceId, Vec<MobilitySemantics>)> = result
        .devices
        .iter()
        .map(|d| (d.raw.device().clone(), d.original_semantics.clone()))
        .collect();
    let all_original: Vec<Vec<MobilitySemantics>> =
        originals.iter().map(|(_, s)| s.clone()).collect();

    let strategies: Vec<(&str, Option<MobilityKnowledge>)> = vec![
        ("no complementing", None),
        ("uniform prior", Some(MobilityKnowledge::uniform(&ds.dsm))),
        (
            "distance-decay prior",
            Some(MobilityKnowledge::distance_decay(&ds.dsm)),
        ),
        (
            "learned knowledge",
            Some(MobilityKnowledge::build(&ds.dsm, &all_original, 0.5)),
        ),
    ];

    let mut t = Table::new(&["strategy", "coverage", "region acc", "inferred entries"]);
    // (strategy, coverage, region accuracy), for the stated expectations.
    let mut scores: Vec<(&str, f64, f64)> = Vec::new();
    for (name, knowledge) in strategies {
        let complemented: Vec<(trips_data::DeviceId, Vec<MobilitySemantics>)> = match &knowledge {
            None => originals.clone(),
            Some(k) => {
                let complementor =
                    Complementor::new(&ds.dsm, k.clone(), ComplementorConfig::default());
                originals
                    .iter()
                    .map(|(d, sems)| (d.clone(), complementor.complement(sems)))
                    .collect()
            }
        };
        let inferred: usize = complemented
            .iter()
            .map(|(_, sems)| sems.iter().filter(|s| s.inferred).count())
            .sum();
        let (coverage, accuracy) = assess_sequences(&ds, &complemented);
        t.row(&[
            name.to_string(),
            f3(coverage),
            f3(accuracy),
            inferred.to_string(),
        ]);
        scores.push((name, coverage, accuracy));
    }
    t.print();
    println!();

    let (baseline, priors) = scores.split_first().expect("four strategies");
    let numbers: Vec<String> = priors
        .iter()
        .map(|(name, coverage, _)| format!("{name} {}", f3(*coverage)))
        .collect();
    report_expectation(
        "every prior beats 'no complementing' on coverage",
        priors.iter().all(|p| p.1 > baseline.1),
        &format!("{} vs {}", numbers.join(", "), f3(baseline.1)),
    );
    let (learned, others) = scores.split_last().expect("four strategies");
    let best_other = others
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("three other strategies");
    report_expectation(
        "learned knowledge leads on accuracy",
        learned.2 > best_other.2,
        &format!(
            "{} {} vs best other {} {}",
            learned.0,
            f3(learned.2),
            best_other.0,
            f3(best_other.2)
        ),
    );
}
