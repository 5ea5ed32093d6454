//! Online (streaming) translation — an extension beyond the paper's batch
//! prototype.
//!
//! The paper's Data Selector already ingests "streams APIs" (§2), but its
//! Translator runs in batch. This module adds the natural next step: a
//! [`StreamingTranslator`] that consumes records incrementally and emits
//! finalized mobility semantics as soon as a device goes quiet (micro-batch
//! per session). Semantics for a quiet device are identical to what the
//! batch Translator would produce for that session's records.

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

/// The online translator.
///
/// Knowledge for the Complementing layer must be pre-built (e.g. from a
/// historical batch run) — a stream has no "all other sequences" to learn
/// from on day one. Pass `None` to skip complementing.
pub struct StreamingTranslator<'a> {
    dsm: &'a DigitalSpaceModel,
    cleaner: Cleaner<'a>,
    annotator: Annotator<'a>,
    complementor: Option<Complementor<'a>>,
    config: StreamConfig,
    buffers: BTreeMap<DeviceId, Vec<RawRecord>>,
    emitted: usize,
    /// Optional live store: every emitted batch is also published here,
    /// so concurrent readers can query mid-stream.
    store: Option<Arc<SemanticsStore>>,
}

impl<'a> StreamingTranslator<'a> {
    /// Creates a streaming translator with a pre-trained event model (so
    /// one training run can back many translators).
    pub fn new(
        dsm: &'a DigitalSpaceModel,
        model: EventModel,
        labels: Vec<String>,
        knowledge: Option<MobilityKnowledge>,
        config: StreamConfig,
    ) -> Result<Self, DsmError> {
        let cleaner = Cleaner::new(dsm, config.translator.cleaner.clone())?;
        let annotator = Annotator::new(dsm, model, labels, config.translator.annotator.clone());
        let complementor =
            knowledge.map(|k| Complementor::new(dsm, k, config.translator.complementor.clone()));
        Ok(StreamingTranslator {
            dsm,
            cleaner,
            annotator,
            complementor,
            config,
            buffers: BTreeMap::new(),
            emitted: 0,
            store: None,
        })
    }

    /// Trains the model from an editor and creates a streaming translator.
    pub fn from_editor(
        dsm: &'a DigitalSpaceModel,
        editor: &EventEditor,
        knowledge: Option<MobilityKnowledge>,
        config: StreamConfig,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let (model, labels) = config.translator.train(editor)?;
        Ok(StreamingTranslator::new(
            dsm, model, labels, knowledge, config,
        )?)
    }

    /// Attaches a live [`SemanticsStore`]: every semantics batch emitted by
    /// [`StreamingTranslator::push`] or [`StreamingTranslator::finish`] is
    /// also ingested there (incrementally — aggregates include flows across
    /// session boundaries), so readers can query while the stream runs.
    pub fn with_store(mut self, store: Arc<SemanticsStore>) -> Self {
        self.store = Some(store);
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
        if !record.is_well_formed() {
            return Vec::new();
        }
        let device = record.device.clone();
        let buffer = self.buffers.entry(device.clone()).or_default();

        let mut out = Vec::new();
        let gap_exceeded = buffer
            .last()
            .is_some_and(|last| record.ts - last.ts >= self.config.flush_gap);
        if gap_exceeded || buffer.len() >= self.config.max_buffer {
            let batch = std::mem::take(buffer);
            out = self.translate_batch(&device, batch);
        }
        self.buffers
            .get_mut(&device)
            .expect("entry exists")
            .push(record);
        if !out.is_empty() {
            if let Some(store) = &self.store {
                store.ingest(&device, &out);
            }
        }
        self.emitted += out.len();
        out
    }

    /// Flushes one device's buffered records without waiting for a gap:
    /// translates them now, publishes to the attached store (if any) and
    /// returns the emitted semantics. A device with no buffer emits
    /// nothing. Serving layers use this when a client session ends — its
    /// devices' in-flight records must become queryable immediately.
    pub fn flush_device(&mut self, device: &DeviceId) -> Vec<MobilitySemantics> {
        let Some(batch) = self.buffers.remove(device) else {
            return Vec::new();
        };
        let sems = self.translate_batch(device, batch);
        if !sems.is_empty() {
            if let Some(store) = &self.store {
                store.ingest(device, &sems);
            }
        }
        self.emitted += sems.len();
        sems
    }

    /// Flushes every device's buffer (end of stream). Returns semantics per
    /// device in device order. Devices fan out through the engine when the
    /// translator config asks for worker threads.
    pub fn finish(&mut self) -> BTreeMap<DeviceId, Vec<MobilitySemantics>> {
        // Buffers travel by move: `run_indexed` only hands workers `&T`, so
        // each batch rides in a mutex the worker takes from — no record copy.
        let entries: Vec<(DeviceId, parking_lot::Mutex<Vec<RawRecord>>)> =
            std::mem::take(&mut self.buffers)
                .into_iter()
                .map(|(device, batch)| (device, parking_lot::Mutex::new(batch)))
                .collect();
        let this: &Self = self;
        let translated = trips_engine::run_indexed(
            this.config.translator.threads,
            &entries,
            |_, (device, batch)| this.translate_batch(device, std::mem::take(&mut batch.lock())),
        );
        let mut out = BTreeMap::new();
        for ((device, _), sems) in entries.into_iter().zip(translated) {
            if let Some(store) = &self.store {
                store.ingest(&device, &sems);
            }
            self.emitted += sems.len();
            out.insert(device, sems);
        }
        out
    }

    fn translate_batch(&self, device: &DeviceId, batch: Vec<RawRecord>) -> Vec<MobilitySemantics> {
        if batch.is_empty() {
            return Vec::new();
        }
        let seq = PositioningSequence::from_records(device.clone(), batch);
        let cleaned = self.cleaner.clean(&seq);
        let sems = self.annotator.annotate(&cleaned.sequence);
        match &self.complementor {
            Some(c) => c.complement(&sems),
            None => sems,
        }
    }

    /// The DSM in use.
    pub fn dsm(&self) -> &DigitalSpaceModel {
        self.dsm
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
    fn finish_fanout_matches_serial() {
        let (ds, editor) = setup();
        let mut results = Vec::new();
        for threads in [0usize, 4] {
            let config = StreamConfig {
                translator: TranslatorConfig {
                    threads,
                    ..TranslatorConfig::standard()
                },
                ..StreamConfig::default()
            };
            let mut stream =
                StreamingTranslator::from_editor(&ds.dsm, &editor, None, config).unwrap();
            for r in ds.all_records() {
                stream.push(r);
            }
            results.push(stream.finish());
        }
        assert_eq!(results[0], results[1], "finish must be thread-invariant");
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
