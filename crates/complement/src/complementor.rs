//! The Mobility Semantics Complementor (paper §2, Translator module 3):
//! "handles the discontinuity of the original mobility semantics sequence…
//! It infers the missing mobility semantics of the sequence by referring to
//! other generated mobility semantics sequences and the spatial information
//! captured by the DSM."

use crate::infer::Lattice;
use crate::knowledge::MobilityKnowledge;
use std::sync::OnceLock;
use trips_annotate::{MobilitySemantics, RegionNames};
use trips_data::{Duration, Name, Timestamp};
use trips_dsm::{DigitalSpaceModel, RegionId};

/// Complementor configuration.
#[derive(Debug, Clone)]
pub struct ComplementorConfig {
    /// Gaps shorter than this are considered continuous (walking through a
    /// door takes a few seconds — nothing is missing).
    pub min_gap: Duration,
    /// Gaps longer than this are not filled: the device most likely left
    /// the building (overnight between sessions).
    pub max_gap: Duration,
    /// Maximum transitions the inferred path may take.
    pub max_hops: usize,
    /// Inferred intervals at least this long are labelled `stay`, shorter
    /// ones `pass-by` (matches the simulator's ground-truth threshold).
    pub stay_threshold: Duration,
}

impl Default for ComplementorConfig {
    fn default() -> Self {
        ComplementorConfig {
            min_gap: Duration::from_secs(60),
            max_gap: Duration::from_mins(60),
            max_hops: 4,
            stay_threshold: Duration::from_secs(90),
        }
    }
}

/// The Complementor: fills gaps in annotated semantics sequences.
///
/// MAP inference runs over one Viterbi lattice per source region, built on
/// the first gap that leaves the region and shared by every later one (and
/// every thread): the lattice depends only on the knowledge and `max_hops`,
/// both fixed for the complementor's lifetime.
///
/// The two inferred labels and the DSM's region names are interned once,
/// at construction.
pub struct Complementor {
    knowledge: MobilityKnowledge,
    config: ComplementorConfig,
    region_names: RegionNames,
    stay: Name,
    pass_by: Name,
    /// Lattice per source region, indexed like `knowledge.regions()`.
    lattices: Vec<OnceLock<Lattice>>,
}

impl Complementor {
    /// Creates a complementor around pre-built knowledge.
    pub fn new(
        dsm: &DigitalSpaceModel,
        knowledge: MobilityKnowledge,
        config: ComplementorConfig,
    ) -> Self {
        let lattices = knowledge
            .regions()
            .iter()
            .map(|_| OnceLock::new())
            .collect();
        Complementor {
            knowledge,
            config,
            region_names: RegionNames::new(dsm),
            stay: Name::new("stay"),
            pass_by: Name::new("pass-by"),
            lattices,
        }
    }

    /// Builds knowledge from the given sequences and wraps it (the standard
    /// Translator flow: knowledge construction → inference).
    pub fn from_sequences(
        dsm: &DigitalSpaceModel,
        sequences: &[Vec<MobilitySemantics>],
        config: ComplementorConfig,
    ) -> Self {
        Self::new(dsm, MobilityKnowledge::build(dsm, sequences, 0.5), config)
    }

    /// The knowledge in use.
    pub fn knowledge(&self) -> &MobilityKnowledge {
        &self.knowledge
    }

    /// Complements one semantics sequence: each qualifying gap is filled
    /// with inferred semantics. Returns the complete, time-sorted sequence.
    pub fn complement(&self, sems: &[MobilitySemantics]) -> Vec<MobilitySemantics> {
        let mut out: Vec<MobilitySemantics> = Vec::with_capacity(sems.len());
        for (i, s) in sems.iter().enumerate() {
            if i > 0 {
                let prev = &sems[i - 1];
                let gap = s.start - prev.end;
                if gap >= self.config.min_gap && gap <= self.config.max_gap {
                    out.extend(self.fill_gap(prev, s));
                }
            }
            out.push(s.clone());
        }
        out
    }

    /// Number of inferred entries `complement` would add (diagnostics).
    pub fn count_gaps(&self, sems: &[MobilitySemantics]) -> usize {
        sems.windows(2)
            .filter(|w| {
                let gap = w[1].start - w[0].end;
                gap >= self.config.min_gap && gap <= self.config.max_gap
            })
            .count()
    }

    fn fill_gap(
        &self,
        prev: &MobilitySemantics,
        next: &MobilitySemantics,
    ) -> Vec<MobilitySemantics> {
        // Same region on both sides: the device most likely never left.
        if prev.region == next.region {
            return vec![self.inferred_sem(prev, prev.region, prev.end, next.start)];
        }

        let Some(path) = self.map_path(prev.region, next.region) else {
            return Vec::new(); // direct transition is the best explanation
        };
        if path.is_empty() {
            return Vec::new();
        }

        // Distribute the gap time over the intermediate regions weighted by
        // their mean observed dwell.
        let gap_ms = (next.start - prev.end).as_millis();
        let weights: Vec<f64> = path
            .iter()
            .map(|&r| self.knowledge.mean_dwell(r).as_millis().max(1) as f64)
            .collect();
        let total: f64 = weights.iter().sum();

        let mut out = Vec::with_capacity(path.len());
        let mut cursor = prev.end;
        for (i, (&region, w)) in path.iter().zip(&weights).enumerate() {
            let share = if i + 1 == path.len() {
                // Last interval absorbs rounding.
                next.start - cursor
            } else {
                Duration((gap_ms as f64 * w / total) as i64)
            };
            let end = cursor + share;
            out.push(self.inferred_sem(prev, region, cursor, end));
            cursor = end;
        }
        out
    }

    /// [`map_path`](crate::infer::map_path) with this complementor's
    /// knowledge and `max_hops`, answered from the source's cached lattice.
    fn map_path(&self, a: RegionId, b: RegionId) -> Option<Vec<RegionId>> {
        let ia = self.knowledge.index_of(a)?;
        let ib = self.knowledge.index_of(b)?;
        self.lattices[ia]
            .get_or_init(|| Lattice::new(&self.knowledge, ia, self.config.max_hops))
            .path(&self.knowledge, ib)
    }

    fn inferred_sem(
        &self,
        template: &MobilitySemantics,
        region: RegionId,
        start: Timestamp,
        end: Timestamp,
    ) -> MobilitySemantics {
        let region_name = self
            .region_names
            .get(region)
            .unwrap_or_else(|| Name::from(region.to_string()));
        let event = if end - start >= self.config.stay_threshold {
            self.stay
        } else {
            self.pass_by
        };
        MobilitySemantics {
            device: template.device.clone(),
            event,
            region,
            region_name,
            start,
            end,
            inferred: true,
            display_point: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::DeviceId;
    use trips_dsm::builder::MallBuilder;

    fn mall() -> DigitalSpaceModel {
        MallBuilder::new()
            .shops_per_row(3)
            .with_cashiers(false)
            .build()
    }

    fn sem(region: RegionId, name: &str, start_s: i64, end_s: i64) -> MobilitySemantics {
        MobilitySemantics {
            device: DeviceId::new("d"),
            event: "stay".into(),
            region,
            region_name: name.into(),
            start: Timestamp::from_millis(start_s * 1000),
            end: Timestamp::from_millis(end_s * 1000),
            inferred: false,
            display_point: None,
        }
    }

    fn shops(dsm: &DigitalSpaceModel) -> Vec<RegionId> {
        dsm.regions()
            .filter(|r| r.tag.category == "shop")
            .map(|r| r.id)
            .collect()
    }

    fn hall(dsm: &DigitalSpaceModel) -> RegionId {
        dsm.regions()
            .find(|r| r.name.starts_with("Center Hall"))
            .unwrap()
            .id
    }

    #[test]
    fn fills_shop_to_shop_gap_with_hall() {
        let dsm = mall();
        let c = Complementor::new(
            &dsm,
            MobilityKnowledge::uniform(&dsm),
            ComplementorConfig::default(),
        );
        let s = shops(&dsm);
        let input = vec![sem(s[0], "Shop0", 0, 100), sem(s[1], "Shop1", 400, 500)];
        let out = c.complement(&input);
        assert_eq!(out.len(), 3, "{out:#?}");
        assert!(out[1].inferred);
        assert_eq!(out[1].region, hall(&dsm));
        // The fill covers the gap exactly.
        assert_eq!(out[1].start, input[0].end);
        assert_eq!(out[1].end, input[1].start);
        // 300 s ≥ stay threshold → labelled stay.
        assert_eq!(out[1].event, "stay");
    }

    #[test]
    fn overnight_gap_not_filled() {
        let dsm = mall();
        let c = Complementor::new(
            &dsm,
            MobilityKnowledge::uniform(&dsm),
            ComplementorConfig::default(),
        );
        let s = shops(&dsm);
        // 20-hour gap: the shopper went home, not into the hallway.
        let input = vec![
            sem(s[0], "Shop0", 0, 100),
            sem(s[1], "Shop1", 72_000, 72_100),
        ];
        let out = c.complement(&input);
        assert_eq!(out.len(), 2, "no overnight inference: {out:#?}");
        assert_eq!(c.count_gaps(&input), 0);
    }

    #[test]
    fn short_gap_not_filled() {
        let dsm = mall();
        let c = Complementor::new(
            &dsm,
            MobilityKnowledge::uniform(&dsm),
            ComplementorConfig::default(),
        );
        let s = shops(&dsm);
        let input = vec![sem(s[0], "Shop0", 0, 100), sem(s[1], "Shop1", 130, 200)];
        assert_eq!(c.complement(&input).len(), 2, "30 s gap is continuity");
        assert_eq!(c.count_gaps(&input), 0);
    }

    #[test]
    fn adjacent_regions_direct_transition_not_filled() {
        let dsm = mall();
        let c = Complementor::new(
            &dsm,
            MobilityKnowledge::uniform(&dsm),
            ComplementorConfig::default(),
        );
        let s = shops(&dsm);
        let h = hall(&dsm);
        // Shop → hall: adjacent; a gap doesn't imply intermediates.
        let input = vec![sem(s[0], "Shop0", 0, 100), sem(h, "Hall", 400, 500)];
        let out = c.complement(&input);
        assert_eq!(out.len(), 2, "direct transition wins: {out:#?}");
    }

    #[test]
    fn same_region_gap_bridged_in_place() {
        let dsm = mall();
        let c = Complementor::new(
            &dsm,
            MobilityKnowledge::uniform(&dsm),
            ComplementorConfig::default(),
        );
        let s = shops(&dsm);
        let input = vec![sem(s[0], "Shop0", 0, 100), sem(s[0], "Shop0", 500, 600)];
        let out = c.complement(&input);
        assert_eq!(out.len(), 3);
        assert!(out[1].inferred);
        assert_eq!(out[1].region, s[0], "stayed in place");
        assert_eq!(out[1].event, "stay", "400 s fill");
    }

    #[test]
    fn short_inferred_interval_is_pass_by() {
        let dsm = mall();
        let c = Complementor::new(
            &dsm,
            MobilityKnowledge::uniform(&dsm),
            ComplementorConfig {
                min_gap: Duration::from_secs(30),
                ..ComplementorConfig::default()
            },
        );
        let s = shops(&dsm);
        let input = vec![sem(s[0], "Shop0", 0, 100), sem(s[1], "Shop1", 140, 200)];
        let out = c.complement(&input);
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].event, "pass-by", "40 s fill: {out:#?}");
    }

    #[test]
    fn output_is_time_sorted_and_non_overlapping() {
        let dsm = mall();
        let c = Complementor::new(
            &dsm,
            MobilityKnowledge::uniform(&dsm),
            ComplementorConfig::default(),
        );
        let s = shops(&dsm);
        let input = vec![
            sem(s[0], "Shop0", 0, 100),
            sem(s[1], "Shop1", 500, 600),
            sem(s[2], "Shop2", 1000, 1100),
        ];
        let out = c.complement(&input);
        assert!(out.len() >= 5);
        for w in out.windows(2) {
            assert!(w[0].start <= w[1].start, "sorted");
            assert!(w[0].end <= w[1].start, "non-overlapping");
        }
    }

    #[test]
    fn empty_and_single_input() {
        let dsm = mall();
        let c = Complementor::new(
            &dsm,
            MobilityKnowledge::uniform(&dsm),
            ComplementorConfig::default(),
        );
        assert!(c.complement(&[]).is_empty());
        let s = shops(&dsm);
        let single = vec![sem(s[0], "Shop0", 0, 100)];
        assert_eq!(c.complement(&single).len(), 1);
    }

    #[test]
    fn from_sequences_builds_usable_knowledge() {
        let dsm = mall();
        let s = shops(&dsm);
        let h = hall(&dsm);
        let history: Vec<Vec<MobilitySemantics>> = (0..5)
            .map(|i| {
                vec![
                    sem(s[0], "Shop0", i * 1000, i * 1000 + 100),
                    sem(h, "Hall", i * 1000 + 110, i * 1000 + 150),
                    sem(s[1], "Shop1", i * 1000 + 160, i * 1000 + 300),
                ]
            })
            .collect();
        let c = Complementor::from_sequences(&dsm, &history, ComplementorConfig::default());
        assert_eq!(c.knowledge().observed_transitions, 10);
        let gap_seq = vec![sem(s[0], "Shop0", 0, 100), sem(s[1], "Shop1", 400, 500)];
        let out = c.complement(&gap_seq);
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].region, h);
    }
}
