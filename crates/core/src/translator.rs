//! The Translator: Cleaning → Annotation → Complementing over each selected
//! positioning sequence (paper §2/§3), "without manual interventions".

use trips_annotate::{Annotator, AnnotatorConfig, EventEditor, EventModel, MobilitySemantics};
use trips_clean::{CleanedSequence, Cleaner, CleanerConfig};
use trips_complement::{Complementor, ComplementorConfig, MobilityKnowledge};
use trips_data::PositioningSequence;
use trips_dsm::{DigitalSpaceModel, DsmError};
use trips_engine::{Pipeline, PipelineReport};

/// Which classifier the Annotator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelChoice {
    /// CART decision tree (default).
    #[default]
    DecisionTree,
    /// Bagged random forest with this many trees.
    RandomForest(usize),
    /// k-nearest neighbours.
    Knn(usize),
}

/// Translator configuration.
#[derive(Debug, Clone)]
pub struct TranslatorConfig {
    pub cleaner: CleanerConfig,
    pub annotator: AnnotatorConfig,
    pub complementor: ComplementorConfig,
    pub model: ModelChoice,
    /// Worker threads for the parallel backend (0 or 1 = serial).
    pub threads: usize,
    /// RNG seed for [`ModelChoice::RandomForest`] bagging. The default
    /// (`0xBEEF`) is pinned by the golden tests; change it to retrain with
    /// different bootstrap samples.
    pub forest_seed: u64,
}

impl Default for TranslatorConfig {
    fn default() -> Self {
        TranslatorConfig {
            cleaner: CleanerConfig::default(),
            annotator: AnnotatorConfig::default(),
            complementor: ComplementorConfig::default(),
            model: ModelChoice::default(),
            threads: 0,
            forest_seed: 0xBEEF,
        }
    }
}

impl TranslatorConfig {
    /// Standard configuration (merge gap enabled, serial execution).
    pub fn standard() -> Self {
        TranslatorConfig {
            annotator: AnnotatorConfig::standard(),
            ..TranslatorConfig::default()
        }
    }

    /// Standard configuration with `n` worker threads.
    pub fn parallel(n: usize) -> Self {
        TranslatorConfig {
            threads: n,
            ..Self::standard()
        }
    }

    /// Trains the configured event model from an editor (deterministic:
    /// the same editor and config always yield the same model).
    pub fn train(
        &self,
        editor: &EventEditor,
    ) -> Result<(EventModel, Vec<String>), Box<dyn std::error::Error>> {
        Ok(match self.model {
            ModelChoice::DecisionTree => editor.train_default_model()?,
            ModelChoice::RandomForest(n) => editor.train_forest(n, self.forest_seed)?,
            ModelChoice::Knn(k) => editor.train_knn(k)?,
        })
    }
}

/// Everything the Translator produced for one device.
#[derive(Debug, Clone)]
pub struct DeviceTranslation {
    pub raw: PositioningSequence,
    pub cleaned: CleanedSequence,
    /// The Annotator's output before complementing ("original mobility
    /// semantics sequence").
    pub original_semantics: Vec<MobilitySemantics>,
    /// The complete sequence after the Complementing layer.
    pub semantics: Vec<MobilitySemantics>,
}

impl DeviceTranslation {
    /// Conciseness: raw records per output semantics entry (Table 1's point
    /// that semantics "use a more condensed form").
    pub fn conciseness_ratio(&self) -> f64 {
        if self.semantics.is_empty() {
            return 0.0;
        }
        self.raw.len() as f64 / self.semantics.len() as f64
    }

    /// Number of inferred (complemented) entries.
    pub fn inferred_count(&self) -> usize {
        self.semantics.iter().filter(|s| s.inferred).count()
    }
}

/// The result of one translation task over many devices.
#[derive(Debug, Clone, Default)]
pub struct TranslationResult {
    pub devices: Vec<DeviceTranslation>,
    /// Per-stage wall-clock timings of the pipeline run that produced this
    /// result (clean+annotate / knowledge / complement).
    pub report: PipelineReport,
}

impl TranslationResult {
    /// Total raw records translated.
    pub fn total_records(&self) -> usize {
        self.devices.iter().map(|d| d.raw.len()).sum()
    }

    /// Total output semantics entries.
    pub fn total_semantics(&self) -> usize {
        self.devices.iter().map(|d| d.semantics.len()).sum()
    }

    /// The translation of a specific device, if present.
    pub fn device(&self, id: &trips_data::DeviceId) -> Option<&DeviceTranslation> {
        self.devices.iter().find(|d| d.raw.device() == id)
    }
}

/// The Translator.
pub struct Translator<'a> {
    dsm: &'a DigitalSpaceModel,
    model: EventModel,
    labels: Vec<String>,
    config: TranslatorConfig,
}

impl<'a> Translator<'a> {
    /// Creates a translator with a pre-trained event model.
    pub fn new(
        dsm: &'a DigitalSpaceModel,
        model: EventModel,
        labels: Vec<String>,
        config: TranslatorConfig,
    ) -> Result<Self, DsmError> {
        dsm.topology()?; // must be frozen
        assert!(!labels.is_empty(), "label vocabulary must not be empty");
        Ok(Translator {
            dsm,
            model,
            labels,
            config,
        })
    }

    /// Trains the model from an event editor and builds the translator
    /// (the paper's step (3) → step (4) hand-off).
    pub fn from_editor(
        dsm: &'a DigitalSpaceModel,
        editor: &EventEditor,
        config: TranslatorConfig,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let (model, labels) = config.train(editor)?;
        Ok(Translator::new(dsm, model, labels, config)?)
    }

    /// Translates the selected sequences into mobility semantics.
    ///
    /// Pipeline (all fan-out through [`trips_engine`], so parallel output is
    /// bit-identical to serial):
    ///
    /// 1. `clean+annotate` — clean and annotate every sequence;
    /// 2. `knowledge` — build the mobility knowledge over *all* original
    ///    semantics (the Complementor "refer\[s\] to other generated
    ///    mobility semantics sequences"), a serial barrier;
    /// 3. `complement` — complement each sequence.
    ///
    /// Per-stage wall-clock timings land in [`TranslationResult::report`].
    pub fn translate(&self, sequences: &[PositioningSequence]) -> TranslationResult {
        let mut pipeline = Pipeline::new(self.config.threads);

        // Built once and shared by every worker (they used to be rebuilt
        // from cloned configs for each device).
        let cleaner = Cleaner::new(self.dsm, self.config.cleaner.clone()).expect("frozen DSM");
        let annotator = Annotator::new(
            self.dsm,
            self.model.clone(),
            self.labels.clone(),
            self.config.annotator.clone(),
        );

        let per_device: Vec<(PositioningSequence, CleanedSequence, Vec<MobilitySemantics>)> =
            pipeline.map("clean+annotate", sequences, |_, seq| {
                let cleaned = cleaner.clean(seq);
                let sems = annotator.annotate(&cleaned.sequence);
                (seq.clone(), cleaned, sems)
            });

        let originals: Vec<&Vec<MobilitySemantics>> =
            per_device.iter().map(|(_, _, sems)| sems).collect();
        let complementor = pipeline.stage("knowledge", || {
            let knowledge = MobilityKnowledge::build(self.dsm, &originals, 0.5);
            Complementor::new(self.dsm, knowledge, self.config.complementor.clone())
        });
        let complemented: Vec<Vec<MobilitySemantics>> =
            pipeline.map("complement", &originals, |_, original| {
                complementor.complement(original)
            });

        let devices = per_device
            .into_iter()
            .zip(complemented)
            .map(|((raw, cleaned, original), semantics)| DeviceTranslation {
                raw,
                cleaned,
                original_semantics: original,
                semantics,
            })
            .collect();
        TranslationResult {
            devices,
            report: pipeline.finish(),
        }
    }

    /// The label vocabulary in use.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_sim::{ScenarioConfig, SimulatedDataset};

    fn dataset() -> SimulatedDataset {
        trips_sim::scenario::generate(
            2,
            3,
            &ScenarioConfig {
                devices: 4,
                days: 1,
                seed: 2024,
                ..ScenarioConfig::default()
            },
        )
    }

    /// Editor trained from the simulated ground truth: designate segments of
    /// true visits with their true kinds.
    fn editor_from_truth(ds: &SimulatedDataset) -> trips_annotate::EventEditor {
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
                if segment.len() < 2 {
                    continue;
                }
                let pattern = visit.kind.name();
                let _ = editor.designate_segment(pattern, &segment);
            }
        }
        editor
    }

    #[test]
    fn end_to_end_translation_produces_semantics() {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        let translator =
            Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard()).unwrap();
        let result = translator.translate(&ds.sequences());
        assert_eq!(result.devices.len(), 4);
        assert!(result.total_semantics() > 0);
        assert!(
            result.total_records() > result.total_semantics(),
            "condensed"
        );
        for d in &result.devices {
            // Semantics chronological and well-formed.
            for w in d.semantics.windows(2) {
                assert!(w[0].start <= w[1].start);
            }
            for s in &d.semantics {
                assert!(s.start <= s.end);
                assert!(!s.region_name.is_empty());
            }
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        let serial =
            Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard()).unwrap();
        let parallel =
            Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::parallel(4)).unwrap();
        let seqs = ds.sequences();
        let a = serial.translate(&seqs);
        let b = parallel.translate(&seqs);
        assert_eq!(a.devices.len(), b.devices.len());
        for (da, db) in a.devices.iter().zip(&b.devices) {
            assert_eq!(da.raw.device(), db.raw.device());
            assert_eq!(da.semantics, db.semantics, "parallel must be bit-identical");
            assert_eq!(da.cleaned.report, db.cleaned.report);
        }
    }

    #[test]
    fn complementing_adds_only_inferred_entries() {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        let translator =
            Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard()).unwrap();
        let result = translator.translate(&ds.sequences());
        for d in &result.devices {
            let observed: Vec<_> = d.semantics.iter().filter(|s| !s.inferred).collect();
            assert_eq!(
                observed.len(),
                d.original_semantics.len(),
                "complementing must not drop observed semantics"
            );
            assert_eq!(d.semantics.len() - observed.len(), d.inferred_count());
        }
    }

    #[test]
    fn pipeline_report_has_stage_timings() {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        let t = Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard()).unwrap();
        let r = t.translate(&ds.sequences());
        let names: Vec<&str> = r.report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["clean+annotate", "knowledge", "complement"]);
        assert_eq!(r.report.stage("clean+annotate").unwrap().items, 4);
        assert_eq!(r.report.stage("complement").unwrap().items, 4);
        assert!(r.report.total_wall() > std::time::Duration::ZERO);
    }

    #[test]
    fn forest_seed_is_configurable() {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        assert_eq!(TranslatorConfig::default().forest_seed, 0xBEEF);
        assert_eq!(TranslatorConfig::standard().forest_seed, 0xBEEF);
        for seed in [0xBEEF, 7, 0xDEAD_BEEF] {
            let cfg = TranslatorConfig {
                model: ModelChoice::RandomForest(5),
                forest_seed: seed,
                ..TranslatorConfig::standard()
            };
            let t = Translator::from_editor(&ds.dsm, &editor, cfg).unwrap();
            let r = t.translate(&ds.sequences()[..1]);
            assert_eq!(r.devices.len(), 1, "seed {seed:#x} must train and run");
        }
    }

    #[test]
    fn model_choices_all_run() {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        for model in [
            ModelChoice::DecisionTree,
            ModelChoice::RandomForest(5),
            ModelChoice::Knn(3),
        ] {
            let cfg = TranslatorConfig {
                model,
                ..TranslatorConfig::standard()
            };
            let t = Translator::from_editor(&ds.dsm, &editor, cfg).unwrap();
            let r = t.translate(&ds.sequences()[..1]);
            assert_eq!(r.devices.len(), 1);
        }
    }

    #[test]
    fn empty_input_empty_output() {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        let t = Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard()).unwrap();
        let r = t.translate(&[]);
        assert!(r.devices.is_empty());
        assert_eq!(r.total_records(), 0);
    }

    #[test]
    fn device_lookup() {
        let ds = dataset();
        let editor = editor_from_truth(&ds);
        let t = Translator::from_editor(&ds.dsm, &editor, TranslatorConfig::standard()).unwrap();
        let r = t.translate(&ds.sequences());
        let id = ds.traces[0].device.clone();
        assert!(r.device(&id).is_some());
        assert!(r.device(&trips_data::DeviceId::new("ghost")).is_none());
    }
}
