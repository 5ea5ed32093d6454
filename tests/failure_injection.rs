//! Failure-injection tests: the pipeline must degrade gracefully, never
//! panic, on corrupt or degenerate input.

use trips::prelude::*;

fn mall() -> DigitalSpaceModel {
    MallBuilder::new().floors(2).shops_per_row(3).build()
}

fn trained_editor() -> EventEditor {
    let mut e = EventEditor::with_default_patterns();
    for k in 0..6usize {
        let stay: Vec<RawRecord> = (0..(10 + k))
            .map(|i| {
                RawRecord::new(
                    DeviceId::new("t"),
                    5.0 + 0.1 * (i % 3) as f64,
                    4.0,
                    0,
                    Timestamp::from_millis(i as i64 * 7000),
                )
            })
            .collect();
        e.designate_segment("stay", &stay).unwrap();
        let walk: Vec<RawRecord> = (0..(5 + k))
            .map(|i| {
                RawRecord::new(
                    DeviceId::new("t"),
                    9.0 * i as f64,
                    11.0,
                    0,
                    Timestamp::from_millis(i as i64 * 7000),
                )
            })
            .collect();
        e.designate_segment("pass-by", &walk).unwrap();
    }
    e
}

fn translate(seqs: Vec<PositioningSequence>) -> TranslationResult {
    let dsm = mall();
    let translator =
        Translator::from_editor(&dsm, &trained_editor(), TranslatorConfig::standard()).unwrap();
    translator.translate(&seqs)
}

#[test]
fn nan_and_infinite_coordinates_are_rejected_at_ingestion() {
    let d = DeviceId::new("bad");
    let records = vec![
        RawRecord::new(d.clone(), f64::NAN, 1.0, 0, Timestamp::from_millis(0)),
        RawRecord::new(
            d.clone(),
            1.0,
            f64::INFINITY,
            0,
            Timestamp::from_millis(1000),
        ),
        RawRecord::new(d.clone(), 5.0, 5.0, 0, Timestamp::from_millis(2000)),
    ];
    let seq = PositioningSequence::from_records(d, records);
    assert_eq!(seq.len(), 1, "only the finite record survives");
    let result = translate(vec![seq]);
    assert_eq!(result.devices.len(), 1);
}

#[test]
fn empty_sequence_translates_to_nothing() {
    let result = translate(vec![PositioningSequence::new(DeviceId::new("empty"))]);
    assert_eq!(result.devices.len(), 1);
    assert!(result.devices[0].semantics.is_empty());
    assert_eq!(result.devices[0].conciseness_ratio(), 0.0);
}

#[test]
fn single_record_sequence() {
    let d = DeviceId::new("single");
    let seq = PositioningSequence::from_records(
        d.clone(),
        vec![RawRecord::new(d, 5.0, 5.0, 0, Timestamp::from_millis(0))],
    );
    let result = translate(vec![seq]);
    // One record: cleanable, but too sparse for dense snippets; must not
    // panic either way.
    assert_eq!(result.devices.len(), 1);
}

#[test]
fn all_records_outside_building() {
    let d = DeviceId::new("lost");
    let records: Vec<RawRecord> = (0..30)
        .map(|i| {
            RawRecord::new(
                d.clone(),
                -900.0,
                -900.0,
                0,
                Timestamp::from_millis(i * 7000),
            )
        })
        .collect();
    let seq = PositioningSequence::from_records(d, records);
    let result = translate(vec![seq]);
    assert!(
        result.devices[0].semantics.is_empty(),
        "no regions match, no semantics"
    );
}

#[test]
fn records_on_unknown_floor() {
    let d = DeviceId::new("phantom-floor");
    let records: Vec<RawRecord> = (0..30)
        .map(|i| RawRecord::new(d.clone(), 5.0, 5.0, 40, Timestamp::from_millis(i * 7000)))
        .collect();
    let seq = PositioningSequence::from_records(d, records);
    let result = translate(vec![seq]);
    assert_eq!(result.devices.len(), 1, "must not panic on unknown floors");
}

#[test]
fn duplicate_timestamps_are_resolved() {
    let d = DeviceId::new("dup");
    let mut records = Vec::new();
    for i in 0..20i64 {
        records.push(RawRecord::new(
            d.clone(),
            5.0,
            4.0,
            0,
            Timestamp::from_millis(i * 7000),
        ));
        // Duplicate every 4th timestamp with a conflicting position.
        if i % 4 == 0 {
            records.push(RawRecord::new(
                d.clone(),
                50.0,
                4.0,
                0,
                Timestamp::from_millis(i * 7000),
            ));
        }
    }
    let seq = PositioningSequence::from_records(d, records);
    let result = translate(vec![seq]);
    let cleaned = &result.devices[0].cleaned;
    assert!(cleaned.report.dropped > 0, "duplicates must be dropped");
    // Cleaned sequence has strictly increasing timestamps. The result keeps
    // no cleaned records; the same Cleaner re-derives them from the input.
    let recleaned = Cleaner::with_defaults(&mall())
        .unwrap()
        .clean(&result.devices[0].raw);
    for w in recleaned.sequence.records().windows(2) {
        assert!(w[0].ts < w[1].ts);
    }
}

#[test]
fn disconnected_floor_does_not_break_translation() {
    // Build a mall plus an isolated room on floor 9 (no staircase).
    let mut dsm = MallBuilder::new().shops_per_row(3).build();
    let island = dsm.next_entity_id();
    dsm.add_entity(trips::dsm::Entity::area(
        island,
        trips::dsm::EntityKind::Room,
        9,
        "Island",
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
    ))
    .unwrap();
    let rid = dsm.next_region_id();
    dsm.add_region(SemanticRegion::new(
        rid,
        "Island Region",
        SemanticTag::new("island", "shop"),
        9,
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
        island,
    ))
    .unwrap();
    dsm.freeze();

    // Device jumps from floor 0 to the island: unreachable → records on the
    // island get dropped or the jump handled without panic.
    let d = DeviceId::new("jumper");
    let mut records: Vec<RawRecord> = (0..10)
        .map(|i| RawRecord::new(d.clone(), 5.0, 4.0, 0, Timestamp::from_millis(i * 7000)))
        .collect();
    for i in 10..20 {
        records.push(RawRecord::new(
            d.clone(),
            5.0,
            5.0,
            9,
            Timestamp::from_millis(i * 7000),
        ));
    }
    let seq = PositioningSequence::from_records(d, records);
    let translator =
        Translator::from_editor(&dsm, &trained_editor(), TranslatorConfig::standard()).unwrap();
    let result = translator.translate(&[seq]);
    assert_eq!(result.devices.len(), 1);
}

#[test]
fn degenerate_polygons_rejected_by_loaders() {
    assert!(Polygon::try_new(vec![]).is_none());
    assert!(Polygon::try_new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_none());
    assert!(Polygon::try_new(vec![
        Point::new(0.0, 0.0),
        Point::new(f64::NAN, 1.0),
        Point::new(1.0, 1.0),
    ])
    .is_none());
}

#[test]
fn csv_with_garbage_rows_reports_line() {
    let csv = "dev1,1.0,2.0,0,100\ndev1,oops,2.0,0,200\n";
    let mut src = trips::data::io::CsvSource::from_string(csv);
    use trips::data::io::RecordSource;
    match src.read_all() {
        Err(trips::data::io::IoError::Parse(line, _)) => assert_eq!(line, 2),
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn massive_outlier_burst_cleaned_or_dropped() {
    let d = DeviceId::new("burst");
    let mut records = Vec::new();
    for i in 0..40i64 {
        let (x, y) = if (15..20).contains(&i) {
            (500.0 + i as f64, 500.0) // outlier burst
        } else {
            (10.0 + 0.5 * i as f64, 11.0)
        };
        records.push(RawRecord::new(
            d.clone(),
            x,
            y,
            0,
            Timestamp::from_millis(i * 7000),
        ));
    }
    let dsm = mall();
    let cleaner = Cleaner::with_defaults(&dsm).unwrap();
    let out = cleaner.clean(&PositioningSequence::from_records(d, records));
    // Every surviving record satisfies the speed constraint.
    let checker = trips::clean::SpeedChecker::new(&dsm, 3.0).unwrap();
    assert!(checker.scan(out.sequence.records()).is_empty());
    assert!(out.report.interpolated + out.report.dropped >= 5);
}
