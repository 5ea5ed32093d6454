//! Byte-level pin of the translator's output. The fixtures under
//! `tests/fixtures/` were recorded from the translator before semantics
//! carried interned names, and must keep matching unedited: the
//! `trips_core::export` JSON document and the `Debug` form of every
//! device's original and complemented semantics for one fixed seed.

use std::fmt::Write as _;
use std::path::Path;
use trips::prelude::*;

const SEED: u64 = 0x601D;

/// The golden test's dataset and ground-truth-trained editor, translated
/// serially.
fn translate() -> trips::core::translator::TranslationResult {
    let ds = trips::sim::scenario::generate(
        2,
        4,
        &ScenarioConfig {
            devices: 8,
            days: 1,
            seed: SEED,
            ..ScenarioConfig::default()
        },
    );
    let editor = trips_bench::editor_from_truth(&ds, ds.traces.len());
    let translator = trips::core::Translator::from_editor(
        &ds.dsm,
        &editor,
        trips::core::TranslatorConfig::standard(),
    )
    .expect("translator builds");
    translator.translate(&ds.sequences())
}

/// The `Debug` form of each device's semantics, original then final.
fn debug_form(result: &trips::core::translator::TranslationResult) -> String {
    let mut out = String::new();
    for d in &result.devices {
        for (stage, sems) in [("original", &d.original_semantics), ("final", &d.semantics)] {
            let _ = writeln!(out, "{:?} {stage}:", d.raw.device());
            for s in sems {
                let _ = writeln!(out, "  {s:?}");
            }
        }
    }
    out
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn export_json_matches_recorded_fixture() {
    let json = trips::core::export::to_json(&translate()).expect("exports");
    assert!(
        json == fixture("translation-601d.json"),
        "export JSON drifted from tests/fixtures/translation-601d.json"
    );
}

#[test]
fn semantics_debug_form_matches_recorded_fixture() {
    let debug = debug_form(&translate());
    assert!(
        debug == fixture("translation-601d.debug.txt"),
        "semantics Debug form drifted from tests/fixtures/translation-601d.debug.txt"
    );
}
