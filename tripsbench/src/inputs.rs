//! Seeded workload inputs. Everything here is the benchmark's own work
//! (simulation, the analyst's designations, batching and encoding of the
//! client's requests) and stays outside every timed region.

use trips_annotate::EventEditor;
use trips_data::{DeviceId, PositioningSequence, RawRecord, Timestamp};
use trips_server::{encode_request_frame, Request, RequestEnvelope, PROTOCOL_V2};
use trips_sim::{ErrorModel, ScenarioConfig, SimulatedDataset, TrueVisit};

/// Floors and shops per corridor row of every venue (the paper's demo mall
/// has 7 floors).
pub const FLOORS: u16 = 7;
pub const SHOPS_PER_ROW: usize = 6;

/// Event segments the analyst designates in the Event Editor. A fixed
/// count keeps the training part of set-up the same size on every seed.
const DESIGNATIONS: usize = 400;

/// One venue's inputs: its DSM as the JSON document the program loads,
/// the analyst's designations, and per-device raw sequences with ground
/// truth.
pub struct Venue {
    pub dsm_json: String,
    pub editor: EventEditor,
    pub sequences: Vec<PositioningSequence>,
    pub truth: Vec<(DeviceId, Vec<TrueVisit>)>,
}

impl Venue {
    pub fn record_count(&self) -> usize {
        self.sequences.iter().map(PositioningSequence::len).sum()
    }

    /// Every record, ordered by time then device: the arrival order of a
    /// venue-wide feed, so each device's records stay time-ordered.
    pub fn feed(&self) -> Vec<RawRecord> {
        let mut out: Vec<RawRecord> = self
            .sequences
            .iter()
            .flat_map(|s| s.records().iter().cloned())
            .collect();
        out.sort_by(|a, b| a.ts.cmp(&b.ts).then_with(|| a.device.cmp(&b.device)));
        out
    }
}

/// The analyst's Event Editor: the first [`DESIGNATIONS`] true visits
/// designated as events (the input to training, which is the program's
/// set-up).
fn designations(ds: &SimulatedDataset) -> EventEditor {
    let mut editor = EventEditor::with_default_patterns();
    for trace in &ds.traces {
        for visit in &trace.truth_visits {
            if editor.example_count() >= DESIGNATIONS {
                return editor;
            }
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

fn dsm_json(ds: &SimulatedDataset) -> String {
    trips_dsm::json::to_json(&ds.dsm).expect("simulated DSM serializes")
}

/// The paper's demo: one 7-floor mall over 7 days with the default Wi-Fi
/// error model.
pub fn mall(seed: u64, devices: usize) -> Venue {
    let ds = trips_sim::scenario::generate(
        FLOORS,
        SHOPS_PER_ROW,
        &ScenarioConfig {
            devices,
            days: 7,
            seed,
            error_model: ErrorModel::default(),
            ..ScenarioConfig::default()
        },
    );
    Venue {
        dsm_json: dsm_json(&ds),
        editor: designations(&ds),
        truth: ds
            .traces
            .iter()
            .map(|t| (t.device.clone(), t.truth_visits.clone()))
            .collect(),
        sequences: ds.sequences(),
    }
}

/// A campus of identical buildings (device ids `<prefix><b>.<mac>`) with a
/// noisier error model: every error rate of the default model scaled by
/// `noise`.
pub fn campus(
    seed: u64,
    buildings: usize,
    devices_per_building: usize,
    days: usize,
    noise: f64,
    prefix: &str,
) -> Venue {
    let campus = trips_sim::scenario::generate_campus(
        buildings,
        FLOORS,
        SHOPS_PER_ROW,
        &ScenarioConfig {
            devices: devices_per_building,
            days,
            seed,
            error_model: ErrorModel::default().scaled(noise),
            ..ScenarioConfig::default()
        },
    );
    let first = &campus.buildings[0].dataset;
    let mut sequences = Vec::new();
    let mut truth = Vec::new();
    for b in &campus.buildings {
        for t in &b.dataset.traces {
            let id = DeviceId::new(&format!("{prefix}{}", t.device.as_str()));
            let records = t
                .raw
                .records()
                .iter()
                .map(|r| RawRecord {
                    device: id.clone(),
                    ..r.clone()
                })
                .collect();
            sequences.push(PositioningSequence::from_records(id.clone(), records));
            truth.push((id, t.truth_visits.clone()));
        }
    }
    Venue {
        dsm_json: dsm_json(first),
        editor: designations(first),
        sequences,
        truth,
    }
}

/// A pre-encoded v2 request frame and the raw records it carries.
pub struct Frame {
    pub bytes: Vec<u8>,
    pub records: usize,
}

/// Correlation ids of pre-encoded frames start here, clear of the ids a
/// connection uses for its interactive calls.
pub const FRAME_ID_BASE: u64 = 1 << 32;

pub fn encode(id: u64, req: Request) -> Vec<u8> {
    encode_request_frame(&RequestEnvelope {
        v: PROTOCOL_V2,
        id,
        req,
    })
}

/// Ingest batches of `batch` records in feed order, ids from
/// [`FRAME_ID_BASE`], optionally closed by a session-wide `Flush`.
pub fn ingest_frames(records: &[RawRecord], batch: usize, flush: bool) -> Vec<Frame> {
    let mut frames: Vec<Frame> = records
        .chunks(batch)
        .enumerate()
        .map(|(i, chunk)| Frame {
            bytes: encode(
                FRAME_ID_BASE + i as u64,
                Request::Ingest {
                    records: chunk.to_vec(),
                },
            ),
            records: chunk.len(),
        })
        .collect();
    if flush {
        frames.push(Frame {
            bytes: encode(
                FRAME_ID_BASE + frames.len() as u64,
                Request::Flush { device: None },
            ),
            records: 0,
        });
    }
    frames
}

/// Device-id glob `k`: the 16 devices of one building whose index ends
/// in hex `h0`..`hf` (ids end in the device index, `.<idx:02x>`), so every
/// seed selects the same number of devices. `buildings` = 0 for a single
/// venue without building prefixes.
pub fn device_pattern(buildings: usize, k: usize) -> String {
    if buildings == 0 {
        format!("*.{:x}?", k % 6)
    } else {
        format!("b{}.*.{:x}?", k % buildings, (k / buildings) % 6)
    }
}

/// The standing rules subscribed before ingest: monitoring rules over all
/// four condition families with concrete regions and thresholds that
/// rarely trip, plus one live rule (`live_pattern`'s devices entering any
/// region) so alerts do flow.
pub fn rule_mix(live_pattern: &str) -> Vec<String> {
    let mut rules = vec![format!(
        r#"RULE "live" WHEN device "{live_pattern}" ENTERS region "*" ALERT "entered""#
    )];
    for i in 1..16usize {
        rules.push(match i % 4 {
            0 => format!(
                r#"RULE "enter-{i}" WHEN device "b{}.a*" ENTERS region {} ALERT "watched device""#,
                i % 4,
                i % 24
            ),
            1 => format!(
                r#"RULE "dwell-{i}" WHEN device "b{}.c*" DWELLS IN region {} >= {}m ALERT "long dwell""#,
                i % 4,
                (7 + i) % 24,
                10 + i % 50
            ),
            2 => format!(
                r#"RULE "occ-{i}" WHEN occupancy(region {}) > {} ALERT "crowded""#,
                i % 24,
                20 + i % 30
            ),
            _ => format!(
                r#"RULE "flow-{i}" WHEN flow(region {} -> region {}) > {} ALERT "hot corridor""#,
                i % 24,
                (i + 5) % 24,
                15 + i % 25
            ),
        });
    }
    rules
}

/// A two-hour window `[day d hh:00, hh+2:00)` inside opening hours.
pub fn window(k: usize) -> (Timestamp, Timestamp) {
    let day = (k % 3) as i64;
    let hour = 11 + (k % 5) as i64 * 2;
    (
        Timestamp::from_dhms(day, hour, 0, 0),
        Timestamp::from_dhms(day, hour + 2, 0, 0),
    )
}

/// A TQL `FIND` over one device pattern and window.
pub fn find_tql(pattern: &str, k: usize) -> String {
    let day = k % 3;
    let hour = 11 + (k % 5) * 2;
    format!(
        r#"FIND semantics WHERE device "{pattern}" AND BETWEEN {day}d{hour:02}:00:00 AND {day}d{:02}:00:00"#,
        hour + 2
    )
}
