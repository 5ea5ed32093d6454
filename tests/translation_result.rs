//! What a `TranslationResult` holds: the caller's raw records, shared and
//! not copied, and the Cleaner's audit without the cleaned records. Readers
//! of cleaned records (the Viewer timeline) re-derive them by cleaning the
//! raw records again; these tests pin that the re-derivation is exact.

use trips::clean::{CleaningAudit, RepairKind};
use trips::prelude::*;
use trips_bench::{editor_from_truth, make_dataset};

fn noisy_dataset(seed: u64) -> SimulatedDataset {
    make_dataset(2, 4, 6, 1, seed, ErrorModel::default().scaled(2.0))
}

#[test]
fn batch_result_shares_the_callers_records() {
    let ds = noisy_dataset(11);
    let input = ds.sequences();
    let editor = editor_from_truth(&ds, ds.traces.len());
    let translator =
        Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::parallel(2)).unwrap();
    let result = translator.translate(&input);
    assert_eq!(result.devices.len(), input.len());
    for (d, seq) in result.devices.iter().zip(&input) {
        assert!(!seq.is_empty());
        assert_eq!(d.raw.records().as_ptr(), seq.records().as_ptr());
        assert_eq!(&d.raw, seq);
    }
}

#[test]
fn pushing_to_a_clone_leaves_the_original_unchanged() {
    let ds = noisy_dataset(11);
    let original = ds.traces[0].raw.clone();
    let before = original.records().to_vec();
    let mut copy = original.clone();
    assert_eq!(copy.records().as_ptr(), original.records().as_ptr());

    // The first push copies the shared records; the second, out of time
    // order, lands in that copy.
    let last = before.last().unwrap().clone();
    let mut later = last.clone();
    later.ts = last.ts + Duration::from_secs(1);
    copy.push(later.clone());
    let mut earlier = before[0].clone();
    earlier.ts = before[0].ts + Duration(1);
    copy.push(earlier.clone());

    assert_eq!(original.records(), &before[..]);
    assert_ne!(copy.records().as_ptr(), original.records().as_ptr());
    assert_eq!(copy.len(), before.len() + 2);
    assert_eq!(copy.records()[1], earlier);
    assert_eq!(copy.records().last(), Some(&later));
}

#[test]
fn recleaning_the_raw_records_reproduces_the_audit_and_the_semantics() {
    let config = TranslatorConfig::standard();
    let (mut floor_corrected, mut interpolated, mut dropped) = (0, 0, 0);
    for seed in [1, 2, 3] {
        let ds = noisy_dataset(seed);
        let editor = editor_from_truth(&ds, ds.traces.len());
        let result = Translator::from_editor(&ds.dsm, &editor, config.clone())
            .unwrap()
            .translate(&ds.sequences());
        let (model, labels) = config.train(&editor).unwrap();
        let cleaner = Cleaner::new(&ds.dsm, config.cleaner.clone()).unwrap();
        let annotator = Annotator::new(&ds.dsm, model, labels, config.annotator.clone());
        for d in &result.devices {
            let again = cleaner.clean(&d.raw);
            assert_eq!(again.report, d.cleaned.report, "seed {seed}");
            assert_eq!(again.repairs, d.cleaned.repairs, "seed {seed}");
            assert_eq!(again.sequence.len(), d.cleaned.report.kept());
            let sems = annotator.annotate(&again.sequence);
            assert_eq!(sems, d.original_semantics, "seed {seed}");
            assert_eq!(format!("{sems:?}"), format!("{:?}", d.original_semantics));
            for r in &d.cleaned.repairs {
                match r {
                    RepairKind::FloorCorrected { .. } => floor_corrected += 1,
                    RepairKind::Interpolated => interpolated += 1,
                    RepairKind::Dropped => dropped += 1,
                    RepairKind::Valid => {}
                }
            }
        }
    }
    assert!(floor_corrected > 0, "no floor correction exercised");
    assert!(interpolated > 0, "no interpolation exercised");
    assert!(dropped > 0, "no drop exercised");
}

#[test]
fn timeline_holds_raw_recleaned_and_semantics_entries() {
    let ds = noisy_dataset(5);
    // A non-default Cleaner, changed again after the run: the timeline
    // must clean with the configuration the run used.
    let run_cleaner = CleanerConfig {
        max_speed: 1.5,
        ..CleanerConfig::default()
    };
    let editor = editor_from_truth(&ds, ds.traces.len());
    let mut system = Trips::new(Configurator::new(ds.dsm.clone()).with_event_editor(editor))
        .with_translator_config(TranslatorConfig {
            cleaner: run_cleaner.clone(),
            ..TranslatorConfig::standard()
        });
    system.run(ds.sequences()).expect("translate");
    system.translator_config.cleaner = CleanerConfig::default();

    let run = Cleaner::new(&ds.dsm, run_cleaner).unwrap();
    let default = Cleaner::with_defaults(&ds.dsm).unwrap();
    let mut configs_differ = false;
    for trace in &ds.traces {
        let d = system.result().unwrap().device(&trace.device).unwrap();
        let audit: &CleaningAudit = &d.cleaned;
        let timeline = system.timeline_for(&trace.device).expect("timeline");
        let of = |kind| {
            timeline
                .entries()
                .iter()
                .filter(|e| e.source == kind)
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(of(SourceKind::Raw).len(), d.raw.len());
        assert_eq!(of(SourceKind::Semantics).len(), d.semantics.len());
        assert_eq!(timeline.navigator_len(), d.semantics.len());

        let cleaned = of(SourceKind::Cleaned);
        assert_eq!(cleaned.len(), audit.report.kept());
        let rederived = run.clean(&d.raw);
        assert_eq!(rederived.report, audit.report);
        let expected: Vec<Entry> = rederived
            .sequence
            .records()
            .iter()
            .map(|r| Entry::from_record(r, SourceKind::Cleaned))
            .collect();
        assert_eq!(cleaned, expected);
        configs_differ |= default.clean(&d.raw).sequence != rederived.sequence;
    }
    assert!(configs_differ, "the two configurations clean alike here");
}

#[test]
fn sequence_json_is_pinned() {
    let d = DeviceId::new("3a.7f.99.14");
    let seq = PositioningSequence::from_records(
        d.clone(),
        vec![
            RawRecord::new(d.clone(), 1.5, -2.25, 0, Timestamp::from_millis(0)),
            RawRecord::new(d.clone(), 3.0, 4.0, 1, Timestamp::from_millis(7000)),
        ],
    );
    // JSON and `Debug` text recorded before the records moved behind an
    // `Arc`.
    let json = concat!(
        r#"{"device":"3a.7f.99.14","records":["#,
        r#"{"device":"3a.7f.99.14","location":{"xy":{"x":1.5,"y":-2.25},"floor":0},"ts":0},"#,
        r#"{"device":"3a.7f.99.14","location":{"xy":{"x":3,"y":4},"floor":1},"ts":7000}]}"#
    );
    assert_eq!(serde_json::to_string(&seq).unwrap(), json);
    let back: PositioningSequence = serde_json::from_str(json).unwrap();
    assert_eq!(back, seq);
    assert_eq!(format!("{back:?}"), format!("{seq:?}"));
    let one = PositioningSequence::from_records(d.clone(), seq.records()[..1].to_vec());
    assert_eq!(
        format!("{one:?}"),
        concat!(
            r#"PositioningSequence { device: DeviceId("3a.7f.99.14"), records: [RawRecord { "#,
            r#"device: DeviceId("3a.7f.99.14"), location: IndoorPoint { xy: Point { x: 1.5, "#,
            r#"y: -2.25 }, floor: 0 }, ts: Timestamp(0) }] }"#
        )
    );

    let empty = PositioningSequence::new(d);
    let json = r#"{"device":"3a.7f.99.14","records":[]}"#;
    assert_eq!(serde_json::to_string(&empty).unwrap(), json);
    assert_eq!(
        serde_json::from_str::<PositioningSequence>(json).unwrap(),
        empty
    );
    assert!(serde_json::from_str::<PositioningSequence>("[]").is_err());
}
