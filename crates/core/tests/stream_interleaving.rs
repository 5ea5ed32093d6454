//! Streaming ≡ batch for quiet devices, whatever the arrival order.
//!
//! Up to four devices walk a small mall; none pauses for `flush_gap` and
//! none reaches `max_buffer`, so each device's whole trace is one session.
//! Their records are interleaved in a random order and pushed through a
//! [`StreamingTranslator`]; what it emits per device (during the pushes
//! and at `finish`) must equal the batch Translator's annotated
//! (pre-complementing) semantics for that device.

use proptest::prelude::*;
use std::collections::BTreeMap;
use trips_annotate::{EventEditor, MobilitySemantics};
use trips_core::stream::{StreamConfig, StreamingTranslator};
use trips_core::{Translator, TranslatorConfig};
use trips_data::{DeviceId, PositioningSequence, RawRecord, Timestamp};
use trips_dsm::builder::MallBuilder;

/// Records per device stay far below the default `max_buffer`.
const MAX_RECORDS: usize = 80;

fn trained_editor() -> EventEditor {
    let d = DeviceId::new("t");
    let mut e = EventEditor::with_default_patterns();
    for k in 0..6usize {
        let stay: Vec<RawRecord> = (0..10 + k)
            .map(|i| {
                let ts = Timestamp::from_millis(i as i64 * 7000);
                RawRecord::new(d.clone(), 5.0 + 0.1 * (i % 3) as f64, 4.0, 0, ts)
            })
            .collect();
        e.designate_segment("stay", &stay).unwrap();
        let walk: Vec<RawRecord> = (0..5 + k)
            .map(|i| {
                let ts = Timestamp::from_millis(i as i64 * 7000);
                RawRecord::new(d.clone(), 9.0 * i as f64, 4.0 + 7.0 * (k % 2) as f64, 0, ts)
            })
            .collect();
        e.designate_segment("pass-by", &walk).unwrap();
    }
    e
}

/// One device's steps: position deltas, a glitch selector (floor misreads
/// and outlier jumps for the Cleaner to repair) and 1–14 s between fixes.
fn arb_walk() -> impl Strategy<Value = Vec<(f64, f64, u8, i64)>> {
    proptest::collection::vec(
        (-3.0f64..3.0, -3.0f64..3.0, 0u8..40, 1i64..15),
        2..MAX_RECORDS,
    )
}

/// Turns steps into device `id`'s time-ordered records.
fn records(id: usize, steps: &[(f64, f64, u8, i64)]) -> Vec<RawRecord> {
    let device = DeviceId::new(&format!("dev-{id}"));
    let (mut x, mut y, mut floor, mut t) = (5.0 + 6.0 * id as f64, 11.0, 0i16, 0i64);
    steps
        .iter()
        .map(|&(dx, dy, glitch, dt)| {
            t += dt * 1000;
            x = (x + dx).clamp(0.0, 30.0);
            y = (y + dy).clamp(0.0, 22.0);
            match glitch {
                0 => floor = 1,
                1 => floor = 0,
                _ => {}
            }
            let jump = if glitch == 2 { 200.0 } else { 0.0 };
            RawRecord::new(
                device.clone(),
                x + jump,
                y,
                floor,
                Timestamp::from_millis(t),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_interleaving_of_quiet_devices_matches_batch(
        walks in proptest::collection::vec(arb_walk(), 1..5),
        picks in proptest::collection::vec(0usize..4, 4 * MAX_RECORDS),
    ) {
        let dsm = MallBuilder::new().floors(2).shops_per_row(3).build();
        let editor = trained_editor();
        let traces: Vec<Vec<RawRecord>> =
            walks.iter().enumerate().map(|(id, w)| records(id, w)).collect();

        let batch = Translator::from_editor(&dsm, &editor, TranslatorConfig::standard())
            .unwrap()
            .translate(
                &traces
                    .iter()
                    .map(|r| PositioningSequence::from_records(r[0].device.clone(), r.clone()))
                    .collect::<Vec<_>>(),
            );

        // Deal the records: each pick chooses among the devices that still
        // have records, so every interleaving is reachable and per-device
        // order is kept.
        let mut stream =
            StreamingTranslator::from_editor(&dsm, &editor, None, StreamConfig::default())
                .unwrap();
        let mut queues: Vec<std::vec::IntoIter<RawRecord>> =
            traces.into_iter().map(Vec::into_iter).collect();
        let mut streamed: BTreeMap<DeviceId, Vec<MobilitySemantics>> = BTreeMap::new();
        for pick in picks {
            queues.retain(|q| q.len() > 0);
            if queues.is_empty() {
                break;
            }
            let n = queues.len();
            let record = queues[pick % n].next().expect("non-empty queue");
            let device = record.device.clone();
            let out = stream.push(record);
            prop_assert!(out.is_empty(), "a quiet device closed a session early");
            streamed.entry(device).or_default().extend(out);
        }
        prop_assert!(queues.iter().all(|q| q.len() == 0), "every record dealt");
        for (device, sems) in stream.finish() {
            streamed.entry(device).or_default().extend(sems);
        }

        prop_assert_eq!(streamed.len(), batch.devices.len());
        for d in &batch.devices {
            prop_assert_eq!(&streamed[d.raw.device()], &d.original_semantics);
        }
    }
}
