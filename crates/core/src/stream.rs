//! Online (streaming) translation — an extension beyond the paper's batch
//! prototype.
//!
//! The paper's Data Selector already ingests "streams APIs" (§2), but its
//! Translator runs in batch. This module adds the natural next step: a
//! [`StreamingTranslator`] that consumes records incrementally and emits
//! finalized mobility semantics as soon as a device goes quiet (micro-batch
//! per session). Semantics for a quiet device are identical to what the
//! batch Translator would produce for that session's records.
//!
//! The work splits in two. A [`TranslatorCore`] — the Cleaner, the
//! Annotator, the optional Complementor and the session rule — is built
//! once and is `Sync`, so any number of threads can translate through it.
//! The per-device session buffers ([`DeviceBuffers`]) are plain data the
//! caller owns and locks as it likes: a [`StreamingTranslator`] is one core
//! plus one buffer map, and the server shares one core across many
//! independently locked maps.

use crate::translator::TranslatorConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use trips_annotate::{Annotator, EventEditor, EventModel, MobilitySemantics};
use trips_clean::Cleaner;
use trips_complement::{Complementor, MobilityKnowledge};
use trips_data::{DeviceId, Duration, PositioningSequence, RawRecord};
use trips_dsm::{DigitalSpaceModel, DsmError};
use trips_store::SemanticsStore;

/// Streaming configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// A device silent for at least this long has finished its session; the
    /// buffered records are translated and emitted.
    pub flush_gap: Duration,
    /// Safety valve: a buffer reaching this many records is translated even
    /// without a gap (bounds memory for always-on devices).
    pub max_buffer: usize,
    /// Base translator settings (cleaner/annotator/complementor configs).
    pub translator: TranslatorConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            flush_gap: Duration::from_mins(10),
            max_buffer: 10_000,
            translator: TranslatorConfig::standard(),
        }
    }
}

/// Open sessions: each device's buffered, not yet translated records.
pub type DeviceBuffers = BTreeMap<DeviceId, Vec<RawRecord>>;

/// The shared half of online translation: Clean → Annotate → Complement
/// plus the rule that decides when a buffered session is complete.
///
/// Knowledge for the Complementing layer must be pre-built (e.g. from a
/// historical batch run) — a stream has no "all other sequences" to learn
/// from on day one. Pass `None` to skip complementing.
pub struct TranslatorCore<'a> {
    cleaner: Cleaner<'a>,
    annotator: Annotator<'a>,
    complementor: Option<Complementor>,
    flush_gap: Duration,
    max_buffer: usize,
    /// Optional live store: every emitted batch is also published here,
    /// so concurrent readers can query mid-stream.
    store: Option<Arc<SemanticsStore>>,
}

impl<'a> TranslatorCore<'a> {
    /// Builds the core from a pre-trained event model.
    pub fn new(
        dsm: &'a DigitalSpaceModel,
        model: EventModel,
        labels: Vec<String>,
        knowledge: Option<MobilityKnowledge>,
        config: &StreamConfig,
    ) -> Result<Self, DsmError> {
        let t = &config.translator;
        Ok(TranslatorCore {
            cleaner: Cleaner::new(dsm, t.cleaner.clone())?,
            annotator: Annotator::new(dsm, model, labels, t.annotator.clone()),
            complementor: knowledge.map(|k| Complementor::new(dsm, k, t.complementor.clone())),
            flush_gap: config.flush_gap,
            max_buffer: config.max_buffer,
            store: None,
        })
    }

    /// Attaches a live [`SemanticsStore`]: every semantics batch the core
    /// emits is also ingested there (incrementally — aggregates include
    /// flows across session boundaries), so readers can query while the
    /// stream runs.
    pub fn with_store(mut self, store: Arc<SemanticsStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Appends one record to its device's buffer in `buffers`. Returns the
    /// semantics of the session this arrival closes (empty most of the
    /// time): a record at least `flush_gap` after the buffered ones, or
    /// arriving at a full buffer, first translates what was buffered.
    /// Malformed records are ignored.
    pub fn push(&self, buffers: &mut DeviceBuffers, record: RawRecord) -> Vec<MobilitySemantics> {
        if !record.is_well_formed() {
            return Vec::new();
        }
        let buffer = buffers.entry(record.device.clone()).or_default();
        let closes = buffer
            .last()
            .is_some_and(|last| record.ts - last.ts >= self.flush_gap)
            || buffer.len() >= self.max_buffer;
        let out = if closes {
            self.emit(&record.device, std::mem::take(buffer))
        } else {
            Vec::new()
        };
        buffer.push(record);
        out
    }

    /// Translates and removes one device's buffer without waiting for a
    /// gap. `None` when the device has nothing buffered.
    pub fn flush_device(
        &self,
        buffers: &mut DeviceBuffers,
        device: &DeviceId,
    ) -> Option<Vec<MobilitySemantics>> {
        let batch = buffers.remove(device)?;
        Some(self.emit(device, batch))
    }

    /// Translates and removes every buffer (end of stream), in device order.
    pub fn finish(
        &self,
        buffers: &mut DeviceBuffers,
    ) -> BTreeMap<DeviceId, Vec<MobilitySemantics>> {
        std::mem::take(buffers)
            .into_iter()
            .map(|(device, batch)| {
                let sems = self.emit(&device, batch);
                (device, sems)
            })
            .collect()
    }

    /// Translates one session and publishes it to the attached store.
    fn emit(&self, device: &DeviceId, batch: Vec<RawRecord>) -> Vec<MobilitySemantics> {
        if batch.is_empty() {
            return Vec::new();
        }
        let seq = PositioningSequence::from_records(device.clone(), batch);
        let cleaned = self.cleaner.clean(&seq);
        let sems = self.annotator.annotate(&cleaned.sequence);
        let sems = match &self.complementor {
            Some(c) => c.complement(&sems),
            None => sems,
        };
        if let Some(store) = &self.store {
            store.ingest(device, &sems);
        }
        sems
    }
}

/// The online translator: one [`TranslatorCore`] over one buffer map.
pub struct StreamingTranslator<'a> {
    core: TranslatorCore<'a>,
    buffers: DeviceBuffers,
    emitted: usize,
}

impl<'a> StreamingTranslator<'a> {
    /// Trains the model from an editor and creates a streaming translator.
    pub fn from_editor(
        dsm: &'a DigitalSpaceModel,
        editor: &EventEditor,
        knowledge: Option<MobilityKnowledge>,
        config: StreamConfig,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let (model, labels) = config.translator.train(editor)?;
        Ok(StreamingTranslator {
            core: TranslatorCore::new(dsm, model, labels, knowledge, &config)?,
            buffers: DeviceBuffers::new(),
            emitted: 0,
        })
    }

    /// Attaches a live [`SemanticsStore`] (see [`TranslatorCore::with_store`]).
    pub fn with_store(mut self, store: Arc<SemanticsStore>) -> Self {
        self.core = self.core.with_store(store);
        self
    }

    /// Total semantics emitted so far (diagnostics).
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Number of devices with buffered (un-emitted) records.
    pub fn open_devices(&self) -> usize {
        self.buffers.len()
    }

    /// Records currently buffered across devices.
    pub fn buffered_records(&self) -> usize {
        self.buffers.values().map(Vec::len).sum()
    }

    /// Feeds one record. Returns semantics finalized by this arrival (empty
    /// most of the time; a batch when the record closes a session).
    pub fn push(&mut self, record: RawRecord) -> Vec<MobilitySemantics> {
        let out = self.core.push(&mut self.buffers, record);
        self.emitted += out.len();
        out
    }

    /// Flushes one device's buffered records without waiting for a gap:
    /// translates them now, publishes to the attached store (if any) and
    /// returns the emitted semantics. A device with no buffer emits
    /// nothing. Serving layers use this when a client session ends — its
    /// devices' in-flight records must become queryable immediately.
    pub fn flush_device(&mut self, device: &DeviceId) -> Vec<MobilitySemantics> {
        let out = self
            .core
            .flush_device(&mut self.buffers, device)
            .unwrap_or_default();
        self.emitted += out.len();
        out
    }

    /// Flushes every device's buffer (end of stream). Returns semantics per
    /// device in device order.
    pub fn finish(&mut self) -> BTreeMap<DeviceId, Vec<MobilitySemantics>> {
        let out = self.core.finish(&mut self.buffers);
        self.emitted += out.values().map(Vec::len).sum::<usize>();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::Translator;
    use trips_sim::ScenarioConfig;

    fn setup() -> (trips_sim::SimulatedDataset, EventEditor) {
        let ds = trips_sim::scenario::generate(
            2,
            3,
            &ScenarioConfig {
                devices: 3,
                days: 1,
                seed: 0x57E4,
                ..ScenarioConfig::default()
            },
        );
        let mut editor = EventEditor::with_default_patterns();
        for trace in &ds.traces {
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
        (ds, editor)
    }

    #[test]
    fn streaming_matches_batch_for_single_session() {
        let (ds, editor) = setup();
        // Batch reference (without complementing, which streaming skips
        // when knowledge is None).
        let translator =
            Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard()).unwrap();
        let batch = translator.translate(&ds.sequences());

        let mut stream =
            StreamingTranslator::from_editor(&ds.dsm, &editor, None, StreamConfig::default())
                .unwrap();
        let mut streamed: BTreeMap<DeviceId, Vec<MobilitySemantics>> = BTreeMap::new();
        for r in ds.all_records() {
            let device = r.device.clone();
            for s in stream.push(r) {
                streamed.entry(device.clone()).or_default().push(s);
            }
        }
        for (device, sems) in stream.finish() {
            streamed.entry(device).or_default().extend(sems);
        }

        for d in &batch.devices {
            let got = &streamed[d.raw.device()];
            assert_eq!(
                got,
                &d.original_semantics,
                "streaming must equal batch annotation for {}",
                d.raw.device()
            );
        }
    }

    #[test]
    fn gap_triggers_emission() {
        let (ds, editor) = setup();
        let mut stream = StreamingTranslator::from_editor(
            &ds.dsm,
            &editor,
            None,
            StreamConfig {
                flush_gap: Duration::from_secs(60),
                ..StreamConfig::default()
            },
        )
        .unwrap();

        let d = DeviceId::new("gap-device");
        // Session 1: a two-minute in-shop dwell. Real "stay" traces wander
        // (browsing + positioning noise), so hop around inside a ~4 m patch
        // rather than reporting a frozen point no sensor would emit.
        for i in 0..20i64 {
            let dx = ((i * 7919) % 100) as f64 / 25.0 - 2.0;
            let dy = ((i * 104_729) % 100) as f64 / 25.0 - 2.0;
            let out = stream.push(RawRecord::new(
                d.clone(),
                5.0 + dx,
                4.0 + dy,
                0,
                trips_data::Timestamp::from_millis(i * 7000),
            ));
            assert!(out.is_empty(), "nothing finalized mid-session");
        }
        assert_eq!(stream.buffered_records(), 20);
        // A record 10 minutes later closes session 1.
        let out = stream.push(RawRecord::new(
            d.clone(),
            15.0,
            11.0,
            0,
            trips_data::Timestamp::from_millis(20 * 7000 + 600_000),
        ));
        assert!(!out.is_empty(), "gap must flush the session");
        assert!(out.iter().any(|s| s.event == "stay"));
        assert_eq!(stream.buffered_records(), 1, "new session started");
    }

    #[test]
    fn max_buffer_bounds_memory() {
        let (ds, editor) = setup();
        let mut stream = StreamingTranslator::from_editor(
            &ds.dsm,
            &editor,
            None,
            StreamConfig {
                max_buffer: 50,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let d = DeviceId::new("busy");
        let mut total = 0usize;
        for i in 0..500i64 {
            total += stream
                .push(RawRecord::new(
                    d.clone(),
                    5.0 + (i % 5) as f64 * 0.1,
                    4.0,
                    0,
                    trips_data::Timestamp::from_millis(i * 7000),
                ))
                .len();
        }
        assert!(stream.buffered_records() <= 50);
        assert!(total > 0, "periodic flushes emitted semantics");
    }

    #[test]
    fn finish_flushes_all_buffered_devices() {
        let (ds, editor) = setup();
        let mut stream =
            StreamingTranslator::from_editor(&ds.dsm, &editor, None, StreamConfig::default())
                .unwrap();
        // Three devices dwell in a shop; none hits a flush gap, so
        // everything is still buffered when the stream ends.
        let devices: Vec<DeviceId> = (0..3).map(|d| DeviceId::new(&format!("dev-{d}"))).collect();
        for (di, d) in devices.iter().enumerate() {
            for i in 0..20i64 {
                let dx = ((i * 7919) % 100) as f64 / 25.0 - 2.0;
                let dy = ((i * 104_729) % 100) as f64 / 25.0 - 2.0;
                let out = stream.push(RawRecord::new(
                    d.clone(),
                    5.0 + dx,
                    4.0 + dy,
                    0,
                    trips_data::Timestamp::from_millis((di as i64 * 13 + i) * 7000),
                ));
                assert!(out.is_empty(), "no gap: nothing may flush early");
            }
        }
        assert_eq!(stream.open_devices(), 3);
        assert_eq!(stream.emitted(), 0);

        let out = stream.finish();
        assert_eq!(out.len(), 3, "every buffered device must flush");
        for d in &devices {
            assert!(!out[d].is_empty(), "device {d} dwelled: semantics expected");
        }
        assert_eq!(stream.open_devices(), 0);
        assert_eq!(stream.buffered_records(), 0);
        assert_eq!(
            stream.emitted(),
            out.values().map(Vec::len).sum::<usize>(),
            "emitted counter covers the final flush"
        );
        assert!(stream.finish().is_empty(), "second finish is a no-op");
    }

    #[test]
    fn flush_device_emits_buffered_records_immediately() {
        use trips_store::SemanticsSelector;
        let (ds, editor) = setup();
        let store = Arc::new(trips_store::SemanticsStore::with_shards(4));
        let mut stream =
            StreamingTranslator::from_editor(&ds.dsm, &editor, None, StreamConfig::default())
                .unwrap()
                .with_store(store.clone());
        let d = DeviceId::new("flush-me");
        for i in 0..20i64 {
            let dx = ((i * 7919) % 100) as f64 / 25.0 - 2.0;
            let dy = ((i * 104_729) % 100) as f64 / 25.0 - 2.0;
            stream.push(RawRecord::new(
                d.clone(),
                5.0 + dx,
                4.0 + dy,
                0,
                trips_data::Timestamp::from_millis(i * 7000),
            ));
        }
        assert_eq!(stream.buffered_records(), 20);
        assert_eq!(store.semantics_count(), 0, "nothing queryable yet");

        let sems = stream.flush_device(&d);
        assert!(!sems.is_empty(), "a two-minute dwell must emit semantics");
        assert_eq!(stream.buffered_records(), 0);
        assert_eq!(stream.emitted(), sems.len());
        let sel = SemanticsSelector::all().with_device_pattern(d.as_str());
        assert_eq!(store.semantics(&sel), sems, "store sees the flush");

        // Unknown or already-flushed devices emit nothing.
        assert!(stream.flush_device(&d).is_empty());
        assert!(stream.flush_device(&DeviceId::new("ghost")).is_empty());
        // finish() afterwards has nothing left for this device.
        assert!(stream.finish().is_empty());
    }

    #[test]
    fn malformed_records_ignored() {
        let (ds, editor) = setup();
        let mut stream =
            StreamingTranslator::from_editor(&ds.dsm, &editor, None, StreamConfig::default())
                .unwrap();
        let out = stream.push(RawRecord::new(
            DeviceId::new("bad"),
            f64::NAN,
            0.0,
            0,
            trips_data::Timestamp::from_millis(0),
        ));
        assert!(out.is_empty());
        assert_eq!(stream.open_devices(), 0);
    }

    #[test]
    fn attached_store_receives_every_emission() {
        use trips_store::SemanticsSelector;
        let (ds, editor) = setup();
        let store = Arc::new(SemanticsStore::with_shards(8));
        let mut stream =
            StreamingTranslator::from_editor(&ds.dsm, &editor, None, StreamConfig::default())
                .unwrap()
                .with_store(store.clone());
        let mut streamed: BTreeMap<DeviceId, Vec<MobilitySemantics>> = BTreeMap::new();
        for r in ds.all_records() {
            let device = r.device.clone();
            for s in stream.push(r) {
                streamed.entry(device.clone()).or_default().push(s);
            }
        }
        for (device, sems) in stream.finish() {
            streamed.entry(device).or_default().extend(sems);
        }
        assert_eq!(store.semantics_count(), stream.emitted());
        // The store holds exactly what the stream emitted, per device.
        let total: usize = streamed.values().map(Vec::len).sum();
        assert_eq!(store.semantics_count(), total);
        for (device, sems) in &streamed {
            let sel = SemanticsSelector::all().with_device_pattern(device.as_str());
            assert_eq!(&store.semantics(&sel), sems, "device {device}");
        }
    }

    #[test]
    fn complementing_applies_with_knowledge() {
        let (ds, editor) = setup();
        let knowledge = MobilityKnowledge::uniform(&ds.dsm);
        let mut stream = StreamingTranslator::from_editor(
            &ds.dsm,
            &editor,
            Some(knowledge),
            StreamConfig::default(),
        )
        .unwrap();
        for r in ds.all_records() {
            stream.push(r);
        }
        let out = stream.finish();
        let any_inferred = out.values().flatten().any(|s| s.inferred);
        // Dropout gaps exist in the default error model; knowledge-backed
        // streaming may fill some. Either way translation must succeed.
        assert!(out.values().map(Vec::len).sum::<usize>() > 0);
        let _ = any_inferred;
    }
}
