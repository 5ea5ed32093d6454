//! The [`Trips`] facade: the five-step workflow of the paper's §4 behind one
//! object.
//!
//! 1. set up the indoor positioning data (Data Selector);
//! 2. import or create the DSM (Space Modeler);
//! 3. define event patterns and collect training data (Event Editor);
//! 4. submit the translation task (Translator);
//! 5. browse the translation result (Viewer).

use crate::analytics;
use crate::config::Configurator;
use crate::translator::{TranslationResult, Translator, TranslatorConfig};
use std::sync::Arc;
use trips_clean::{Cleaner, CleanerConfig};
use trips_data::{DeviceId, PositioningSequence};
use trips_store::SemanticsStore;
use trips_viewer::{Entry, SourceKind, Timeline};

/// The assembled TRIPS system.
pub struct Trips {
    pub configurator: Configurator,
    pub translator_config: TranslatorConfig,
    result: Option<TranslationResult>,
    /// The Cleaner configuration `result` was translated with, so the
    /// Viewer re-derives exactly its cleaned records.
    cleaned_with: CleanerConfig,
    /// Live semantics store: every `run` republishes into it, and
    /// [`Trips::semantics_store`] hands out concurrent read handles.
    store: Arc<SemanticsStore>,
}

impl Trips {
    /// Builds the system around a configuration (steps 1–3 done).
    pub fn new(configurator: Configurator) -> Self {
        Trips {
            configurator,
            translator_config: TranslatorConfig::standard(),
            result: None,
            cleaned_with: CleanerConfig::default(),
            store: Arc::new(SemanticsStore::new()),
        }
    }

    /// Overrides the translator configuration.
    pub fn with_translator_config(mut self, config: TranslatorConfig) -> Self {
        self.translator_config = config;
        self
    }

    /// Step 4: select and translate. Stores and returns the result, and
    /// publishes the semantics into a **fresh** live store swapped in
    /// whole, so a re-run is atomic from a reader's perspective:
    /// store handles taken before this call keep serving the previous
    /// run's complete data (a consistent snapshot, never a torn mix of
    /// two runs); take a new [`Trips::semantics_store`] to see this run.
    pub fn run(
        &mut self,
        sequences: Vec<PositioningSequence>,
    ) -> Result<&TranslationResult, Box<dyn std::error::Error>> {
        let selected = self.configurator.select(sequences);
        let translator = Translator::from_editor(
            &self.configurator.dsm,
            &self.configurator.event_editor,
            self.translator_config.clone(),
        )?;
        let result = translator.translate(&selected);
        let store = Arc::new(SemanticsStore::new());
        analytics::ingest_result(&store, &result);
        self.store = store;
        self.result = Some(result);
        self.cleaned_with = self.translator_config.cleaner.clone();
        Ok(self.result.as_ref().expect("just stored"))
    }

    /// The last translation result, if `run` has been called.
    pub fn result(&self) -> Option<&TranslationResult> {
        self.result.as_ref()
    }

    /// The live semantics store the last `run` published into (step 5
    /// for analytics consumers; shareable across threads). Each `run`
    /// swaps in a fresh store, so handles obtained here pin that run's
    /// snapshot — re-take after a new `run`.
    pub fn semantics_store(&self) -> Arc<SemanticsStore> {
        self.store.clone()
    }

    /// Per-stage wall-clock timings of the last translation run — the
    /// engine's [`trips_engine::PipelineReport`] collected by step 4.
    pub fn pipeline_report(&self) -> Option<&trips_engine::PipelineReport> {
        self.result.as_ref().map(|r| &r.report)
    }

    /// Step 5: build the Viewer timeline for one translated device,
    /// combining raw records, cleaned records and semantics entries. The
    /// result keeps no cleaned records, so this cleans the device's raw
    /// records again with the configuration the run used (the Cleaner is
    /// deterministic: same records, bit for bit).
    pub fn timeline_for(&self, device: &DeviceId) -> Option<Timeline> {
        let result = self.result.as_ref()?;
        let d = result.device(device)?;
        let cleaned = Cleaner::new(&self.configurator.dsm, self.cleaned_with.clone())
            .ok()?
            .clean(&d.raw);
        let mut entries: Vec<Entry> =
            Vec::with_capacity(d.raw.len() + cleaned.sequence.len() + d.semantics.len());
        for r in d.raw.records() {
            entries.push(Entry::from_record(r, SourceKind::Raw));
        }
        for r in cleaned.sequence.records() {
            entries.push(Entry::from_record(r, SourceKind::Cleaned));
        }
        for s in &d.semantics {
            entries.push(Entry::from_semantics(s, &self.configurator.dsm));
        }
        Some(Timeline::new(entries))
    }

    /// Step 5 (map view): render one device's data on one floor as SVG.
    pub fn render_svg(&self, device: &DeviceId, floor: trips_geom::FloorId) -> Option<String> {
        let timeline = self.timeline_for(device)?;
        let view =
            trips_viewer::MapView::fit_to_floor(&self.configurator.dsm, floor, 1000.0, 700.0);
        let renderer = trips_viewer::SvgRenderer::new(view);
        Some(renderer.render(
            &self.configurator.dsm,
            timeline.entries(),
            &trips_viewer::VisibilityControl::all_visible(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_sim::ScenarioConfig;

    fn system_with_data() -> (Trips, Vec<PositioningSequence>, DeviceId) {
        let ds = trips_sim::scenario::generate(
            2,
            3,
            &ScenarioConfig {
                devices: 3,
                days: 1,
                seed: 77,
                ..ScenarioConfig::default()
            },
        );
        let mut editor = trips_annotate::EventEditor::with_default_patterns();
        for trace in &ds.traces {
            for visit in &trace.truth_visits {
                let segment: Vec<trips_data::RawRecord> = trace
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
        let device = ds.traces[0].device.clone();
        let seqs = ds.sequences();
        let config = Configurator::new(ds.dsm).with_event_editor(editor);
        (Trips::new(config), seqs, device)
    }

    #[test]
    fn five_step_workflow() {
        let (mut trips, seqs, device) = system_with_data();
        assert!(trips.result().is_none());
        let result = trips.run(seqs).unwrap();
        assert_eq!(result.devices.len(), 3);
        assert!(result.total_semantics() > 0);

        // Step 5: viewer artifacts.
        let timeline = trips.timeline_for(&device).unwrap();
        assert!(timeline.navigator_len() > 0, "semantics entries present");
        assert!(timeline.len() > timeline.navigator_len(), "raw+cleaned too");

        let svg = trips.render_svg(&device, 0).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("entry-"), "data overlays rendered");
    }

    #[test]
    fn timeline_for_unknown_device() {
        let (mut trips, seqs, _) = system_with_data();
        trips.run(seqs).unwrap();
        assert!(trips.timeline_for(&DeviceId::new("ghost")).is_none());
    }

    #[test]
    fn timeline_before_run_is_none() {
        let (trips, _, device) = system_with_data();
        assert!(trips.timeline_for(&device).is_none());
    }

    #[test]
    fn run_publishes_into_semantics_store() {
        use trips_store::SemanticsSelector;
        let (mut trips, seqs, _) = system_with_data();
        assert!(
            trips.semantics_store().stats().devices == 0,
            "empty pre-run"
        );
        trips.run(seqs.clone()).unwrap();
        let store = trips.semantics_store();
        let result = trips.result().unwrap();
        assert_eq!(store.stats().devices, result.devices.len());
        assert_eq!(store.stats().semantics, result.total_semantics());
        // Store queries agree with the batch analytics wrappers.
        assert_eq!(
            store.popular_regions(&SemanticsSelector::all()),
            crate::analytics::popular_regions(result)
        );
        assert_eq!(
            store.top_flows(&SemanticsSelector::all(), 10),
            crate::analytics::top_flows(result, 10)
        );
        // Re-running swaps in a fresh store: old handles pin the previous
        // run's snapshot, new handles see the new run (no accumulation).
        let prev_total = result.total_semantics();
        let stale = trips.semantics_store();
        trips.run(seqs).unwrap();
        assert!(
            !Arc::ptr_eq(&stale, &trips.semantics_store()),
            "re-run must swap the store"
        );
        assert_eq!(
            stale.stats().semantics,
            prev_total,
            "old handle still serves the prior run's complete data"
        );
        assert_eq!(
            trips.semantics_store().stats().semantics,
            trips.result().unwrap().total_semantics()
        );
    }
}
