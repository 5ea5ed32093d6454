//! Translation result export.
//!
//! Two formats: the human-readable trace file of Figure 5(4) — one device
//! header followed by its semantics triplets, anonymized device ids — and a
//! machine-readable JSON document.

use crate::translator::TranslationResult;
use serde::Serialize;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Renders the result as the paper's text trace format:
///
/// ```text
/// 3a.*.14:
///   (stay, Adidas (0F-1), d0 13:02:05-d0 13:18:15)
///   (pass-by, Center Hall (0F), d0 13:18:16-d0 13:20:13) [inferred]
/// ```
pub fn to_text(result: &TranslationResult) -> String {
    let mut out = String::new();
    for d in &result.devices {
        let _ = writeln!(out, "{}:", d.raw.device().anonymized());
        for s in &d.semantics {
            let _ = writeln!(out, "  {s}");
        }
    }
    out
}

#[derive(Serialize)]
struct JsonSemantics<'a> {
    event: &'a str,
    region: &'a str,
    start_ms: i64,
    end_ms: i64,
    inferred: bool,
}

#[derive(Serialize)]
struct JsonDevice<'a> {
    device: String,
    raw_records: usize,
    cleaned_records: usize,
    semantics: Vec<JsonSemantics<'a>>,
}

/// Renders the result as a JSON document (anonymized device ids).
pub fn to_json(result: &TranslationResult) -> Result<String, serde_json::Error> {
    let doc: Vec<JsonDevice<'_>> = result
        .devices
        .iter()
        .map(|d| JsonDevice {
            device: d.raw.device().anonymized(),
            raw_records: d.raw.len(),
            cleaned_records: d.cleaned.report.kept(),
            semantics: d
                .semantics
                .iter()
                .map(|s| JsonSemantics {
                    event: &s.event,
                    region: &s.region_name,
                    start_ms: s.start.as_millis(),
                    end_ms: s.end.as_millis(),
                    inferred: s.inferred,
                })
                .collect(),
        })
        .collect();
    serde_json::to_string_pretty(&doc)
}

/// Writes the text trace to a file.
pub fn save_text(result: &TranslationResult, path: impl AsRef<Path>) -> std::io::Result<()> {
    fs::write(path, to_text(result))
}

/// Writes the JSON document to a file.
pub fn save_json(result: &TranslationResult, path: impl AsRef<Path>) -> std::io::Result<()> {
    let json = to_json(result).map_err(std::io::Error::other)?;
    fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::DeviceTranslation;
    use trips_annotate::MobilitySemantics;
    use trips_clean::{CleaningAudit, CleaningReport};
    use trips_data::{DeviceId, PositioningSequence, RawRecord, Timestamp};
    use trips_dsm::RegionId;

    fn sample() -> TranslationResult {
        let device = DeviceId::new("3a.7f.99.14");
        let raw = PositioningSequence::from_records(
            device.clone(),
            vec![RawRecord::new(device.clone(), 1.0, 1.0, 0, Timestamp(0))],
        );
        let sems = vec![
            MobilitySemantics {
                device: device.clone(),
                event: "stay".into(),
                region: RegionId(1),
                region_name: "Adidas".into(),
                start: Timestamp::from_dhms(0, 13, 2, 5),
                end: Timestamp::from_dhms(0, 13, 18, 15),
                inferred: false,
                display_point: None,
            },
            MobilitySemantics {
                device: device.clone(),
                event: "pass-by".into(),
                region: RegionId(2),
                region_name: "Center Hall".into(),
                start: Timestamp::from_dhms(0, 13, 18, 16),
                end: Timestamp::from_dhms(0, 13, 20, 13),
                inferred: true,
                display_point: None,
            },
        ];
        TranslationResult {
            report: Default::default(),
            devices: vec![DeviceTranslation {
                cleaned: CleaningAudit {
                    repairs: vec![trips_clean::RepairKind::Valid],
                    report: CleaningReport {
                        input_records: 1,
                        valid: 1,
                        ..CleaningReport::default()
                    },
                },
                raw,
                original_semantics: sems[..1].to_vec(),
                semantics: sems,
            }],
        }
    }

    #[test]
    fn text_format_matches_figure5() {
        let text = to_text(&sample());
        assert!(text.starts_with("3a.*.14:\n"), "anonymized header: {text}");
        assert!(text.contains("(stay, Adidas, d0 13:02:05-d0 13:18:15)"));
        assert!(text.contains("(pass-by, Center Hall, "));
        assert!(text.contains("[inferred]"));
    }

    #[test]
    fn json_structure() {
        let json = to_json(&sample()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[0]["device"], "3a.*.14");
        assert_eq!(v[0]["raw_records"], 1);
        assert_eq!(v[0]["semantics"][0]["event"], "stay");
        assert_eq!(v[0]["semantics"][1]["inferred"], true);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("trips-export-test");
        fs::create_dir_all(&dir).unwrap();
        let r = sample();
        let tpath = dir.join("trace.txt");
        let jpath = dir.join("trace.json");
        save_text(&r, &tpath).unwrap();
        save_json(&r, &jpath).unwrap();
        assert!(fs::read_to_string(&tpath).unwrap().contains("Adidas"));
        assert!(fs::read_to_string(&jpath).unwrap().contains("Adidas"));
        fs::remove_file(tpath).ok();
        fs::remove_file(jpath).ok();
    }

    #[test]
    fn empty_result() {
        let r = TranslationResult::default();
        assert!(to_text(&r).is_empty());
        assert_eq!(to_json(&r).unwrap(), "[]");
    }
}
