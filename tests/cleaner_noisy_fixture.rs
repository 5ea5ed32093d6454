//! Byte-level pin of the Cleaner on noisy input. The fixture under
//! `tests/fixtures/` was recorded from the Cleaner before its geometry
//! queries became table reads, and must keep matching unedited: for three
//! seeds of doubled positioning noise, the `Debug` form of every device's
//! cleaning report, per-record repairs and cleaned records.
//!
//! The input is chosen to reach the Cleaner's slow paths, and the test
//! checks that it does: fixes outside every walkable area (a snapped
//! anchor), floor corrections, interpolations and drops.

use std::fmt::Write as _;
use std::path::Path;
use trips::clean::RepairKind;
use trips::dsm::PathQuery;
use trips::prelude::*;
use trips_bench::make_dataset;

const SEEDS: [u64; 3] = [1, 2, 3];
const FIXTURE: &str = "cleaner-noisy.debug.txt";

fn noisy_dataset(seed: u64) -> SimulatedDataset {
    make_dataset(2, 4, 3, 1, seed, ErrorModel::default().scaled(2.0))
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn noisy_cleaning_matches_recorded_fixture() {
    let mut out = String::new();
    let mut seen = [0usize; 4];
    let mut snapped = 0usize;
    for seed in SEEDS {
        let ds = noisy_dataset(seed);
        let cleaner = Cleaner::with_defaults(&ds.dsm).unwrap();
        let pq = PathQuery::new(&ds.dsm).unwrap();
        for seq in ds.sequences() {
            let cleaned = cleaner.clean(&seq);
            let _ = writeln!(out, "seed {seed} {:?}", seq.device());
            let _ = writeln!(out, "  {:?}", cleaned.report);
            for r in &cleaned.repairs {
                let _ = writeln!(out, "  {r:?}");
                seen[match r {
                    RepairKind::Valid => 0,
                    RepairKind::FloorCorrected { .. } => 1,
                    RepairKind::Interpolated => 2,
                    RepairKind::Dropped => 3,
                }] += 1;
            }
            for r in cleaned.sequence.records() {
                let _ = writeln!(out, "  {r:?}");
            }
            snapped += seq
                .records()
                .iter()
                .filter(|r| pq.anchor(&r.location).is_some_and(|a| a.snap > 0.0))
                .count();
        }
    }
    let [_, floor_corrected, interpolated, dropped] = seen;
    assert!(floor_corrected > 0, "no floor correction exercised");
    assert!(interpolated > 0, "no interpolation exercised");
    assert!(dropped > 0, "no drop exercised");
    assert!(snapped > 0, "no fix outside every walkable area");
    assert!(
        out == fixture(FIXTURE),
        "cleaner output drifted from tests/fixtures/{FIXTURE}"
    );
}
