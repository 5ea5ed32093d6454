//! Prior mobility knowledge: region transition probabilities and dwell
//! statistics aggregated from annotated semantics sequences.

use trips_annotate::MobilitySemantics;
use trips_data::Duration;
use trips_dsm::{DigitalSpaceModel, PathQuery, RegionId, RegionIndex};

/// First-order Markov knowledge over semantic regions.
///
/// `P(next = b | current = a)` is estimated from observed consecutive
/// semantics pairs, Laplace-smoothed over the DSM's region adjacency so that
/// every *topologically possible* transition keeps non-zero mass even when
/// unobserved.
#[derive(Debug, Clone)]
pub struct MobilityKnowledge {
    /// The DSM's regions in id order, each with its matrix row/column: a
    /// slot per id, so a lookup is one array read.
    index: RegionIndex,
    /// Row-stochastic transition matrix aligned with `index`.
    probs: Vec<Vec<f64>>,
    /// The positive entries of each `probs` row as `(column, ln p)`, in
    /// column order: the sparse rows MAP inference walks.
    log_rows: Vec<Vec<(usize, f64)>>,
    /// Mean dwell milliseconds per region (fallback when unobserved).
    mean_dwell_ms: Vec<f64>,
    /// Number of observed transitions that produced `probs`.
    pub observed_transitions: usize,
}

/// Default dwell assumed for regions never observed (60 s).
const DEFAULT_DWELL_MS: f64 = 60_000.0;

impl MobilityKnowledge {
    /// Builds knowledge from annotated sequences.
    ///
    /// Accepts any slice of semantics sequences — owned (`&[Vec<_>]`) or
    /// borrowed (`&[&Vec<_>]`), so callers holding the data elsewhere don't
    /// have to copy it here.
    ///
    /// `smoothing` is the Laplace pseudo-count spread over adjacent region
    /// pairs (0.5 is a good default; 0 disables smoothing).
    pub fn build<S: AsRef<[MobilitySemantics]>>(
        dsm: &DigitalSpaceModel,
        sequences: &[S],
        smoothing: f64,
    ) -> Self {
        let mut k = Self::skeleton(dsm);
        let n = k.index.len();

        let mut counts = vec![vec![0.0f64; n]; n];
        let mut dwell_sum = vec![0.0f64; n];
        let mut dwell_n = vec![0usize; n];
        let mut observed = 0usize;

        for seq in sequences {
            let seq = seq.as_ref();
            for s in seq {
                if let Some(i) = k.index.get(s.region) {
                    dwell_sum[i] += s.duration().as_millis() as f64;
                    dwell_n[i] += 1;
                }
            }
            for w in seq.windows(2) {
                let (Some(a), Some(b)) = (k.index.get(w[0].region), k.index.get(w[1].region))
                else {
                    continue;
                };
                if a != b {
                    counts[a][b] += 1.0;
                    observed += 1;
                }
            }
        }

        k.observed_transitions = observed;
        k.finish(dsm, counts, smoothing);
        for i in 0..n {
            if dwell_n[i] > 0 {
                k.mean_dwell_ms[i] = dwell_sum[i] / dwell_n[i] as f64;
            }
        }
        k
    }

    /// A3 ablation: uniform prior over adjacent region pairs, no data.
    pub fn uniform(dsm: &DigitalSpaceModel) -> Self {
        let mut k = Self::skeleton(dsm);
        let n = k.index.len();
        k.finish(dsm, vec![vec![0.0; n]; n], 1.0);
        k
    }

    /// A3 ablation: distance-decay prior — transition probability to an
    /// adjacent region decays with the walking distance between anchors.
    pub fn distance_decay(dsm: &DigitalSpaceModel) -> Self {
        let mut k = Self::skeleton(dsm);
        let n = k.index.len();
        let pq = PathQuery::new(dsm).expect("frozen DSM");
        let mut counts = vec![vec![0.0f64; n]; n];
        let topo = dsm.topology().expect("frozen DSM");
        for (i, &a) in k.index.ids().iter().enumerate() {
            let ra = dsm.region(a).expect("region");
            let pa = trips_geom::IndoorPoint {
                xy: ra.anchor(),
                floor: ra.floor,
            };
            for &b in topo.neighbours(a) {
                let Some(j) = k.index.get(b) else { continue };
                let rb = dsm.region(b).expect("region");
                let pb = trips_geom::IndoorPoint {
                    xy: rb.anchor(),
                    floor: rb.floor,
                };
                let d = pq.distance(&pa, &pb).unwrap_or(f64::INFINITY);
                counts[i][j] = 1.0 / (1.0 + d);
            }
        }
        k.finish(dsm, counts, 0.0);
        k
    }

    fn skeleton(dsm: &DigitalSpaceModel) -> Self {
        let index = dsm.region_index().clone();
        let n = index.len();
        MobilityKnowledge {
            index,
            probs: vec![Vec::new(); n],
            log_rows: vec![Vec::new(); n],
            mean_dwell_ms: vec![DEFAULT_DWELL_MS; n],
            observed_transitions: 0,
        }
    }

    /// Normalises counts (+ smoothing over adjacency) into `probs` and
    /// `log_rows`.
    fn finish(&mut self, dsm: &DigitalSpaceModel, counts: Vec<Vec<f64>>, smoothing: f64) {
        let topo = dsm.topology().expect("frozen DSM");
        debug_assert_eq!(counts.len(), self.index.len());
        for (i, mut row) in counts.into_iter().enumerate() {
            if smoothing > 0.0 {
                for &b in topo.neighbours(self.index.ids()[i]) {
                    if let Some(j) = self.index.get(b) {
                        row[j] += smoothing;
                    }
                }
            }
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                for v in &mut row {
                    *v /= total;
                }
            }
            self.log_rows[i] = row
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p > 0.0)
                .map(|(j, &p)| (j, p.ln()))
                .collect();
            self.probs[i] = row;
        }
    }

    /// All regions in matrix order.
    pub fn regions(&self) -> &[RegionId] {
        self.index.ids()
    }

    /// `P(next = b | current = a)`; 0 for unknown regions.
    pub fn transition_prob(&self, a: RegionId, b: RegionId) -> f64 {
        match (self.index.get(a), self.index.get(b)) {
            (Some(i), Some(j)) => self.probs[i][j],
            _ => 0.0,
        }
    }

    /// Mean observed dwell in a region (default 60 s when unobserved).
    pub fn mean_dwell(&self, r: RegionId) -> Duration {
        match self.index.get(r) {
            Some(i) => Duration(self.mean_dwell_ms[i] as i64),
            None => Duration(DEFAULT_DWELL_MS as i64),
        }
    }

    /// Internal index of a region.
    pub(crate) fn index_of(&self, r: RegionId) -> Option<usize> {
        self.index.get(r)
    }

    /// Row of the transition matrix.
    #[cfg(test)]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.probs[i]
    }

    /// Sparse log-probability row `i`: `(column, ln p)` for every `p > 0`,
    /// in column order (internal use by inference).
    pub(crate) fn log_row(&self, i: usize) -> &[(usize, f64)] {
        &self.log_rows[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::{DeviceId, Timestamp};
    use trips_dsm::builder::MallBuilder;

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

    fn mall() -> DigitalSpaceModel {
        MallBuilder::new()
            .shops_per_row(3)
            .with_cashiers(false)
            .build()
    }

    #[test]
    fn rows_are_stochastic() {
        let dsm = mall();
        let k = MobilityKnowledge::uniform(&dsm);
        for (i, _) in k.regions().iter().enumerate() {
            let sum: f64 = k.row(i).iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9 || sum == 0.0,
                "row {i} sums to {sum}"
            );
        }
    }

    #[test]
    fn observed_transitions_dominate() {
        let dsm = mall();
        let regions: Vec<RegionId> = dsm.regions().map(|r| r.id).collect();
        let (a, b, c) = (regions[0], regions[1], regions[2]);
        // Many a→b transitions, none a→c.
        let seqs: Vec<Vec<MobilitySemantics>> = (0..10)
            .map(|i| {
                vec![
                    sem(a, "A", i * 100, i * 100 + 10),
                    sem(b, "B", i * 100 + 20, i * 100 + 30),
                ]
            })
            .collect();
        let k = MobilityKnowledge::build(&dsm, &seqs, 0.5);
        assert_eq!(k.observed_transitions, 10);
        assert!(
            k.transition_prob(a, b) > k.transition_prob(a, c),
            "observed {} vs unobserved {}",
            k.transition_prob(a, b),
            k.transition_prob(a, c)
        );
    }

    #[test]
    fn smoothing_keeps_adjacent_transitions_alive() {
        let dsm = mall();
        let hall = dsm
            .regions()
            .find(|r| r.name.starts_with("Center Hall"))
            .unwrap()
            .id;
        let shop = dsm.regions().find(|r| r.tag.category == "shop").unwrap().id;
        // No data at all, smoothing only.
        let k = MobilityKnowledge::build::<Vec<MobilitySemantics>>(&dsm, &[], 0.5);
        assert!(
            k.transition_prob(hall, shop) > 0.0,
            "adjacent pair smoothed"
        );
    }

    #[test]
    fn no_smoothing_means_zero_without_data() {
        let dsm = mall();
        let hall = dsm
            .regions()
            .find(|r| r.name.starts_with("Center Hall"))
            .unwrap()
            .id;
        let shop = dsm.regions().find(|r| r.tag.category == "shop").unwrap().id;
        let k = MobilityKnowledge::build::<Vec<MobilitySemantics>>(&dsm, &[], 0.0);
        assert_eq!(k.transition_prob(hall, shop), 0.0);
    }

    #[test]
    fn dwell_statistics() {
        let dsm = mall();
        let r = dsm.regions().next().unwrap().id;
        let seqs = vec![vec![sem(r, "X", 0, 120)], vec![sem(r, "X", 0, 240)]];
        let k = MobilityKnowledge::build(&dsm, &seqs, 0.5);
        assert_eq!(k.mean_dwell(r), Duration::from_secs(180));
        // Unobserved region falls back to the 60 s default.
        let other = dsm.regions().nth(3).unwrap().id;
        assert_eq!(k.mean_dwell(other), Duration::from_secs(60));
        // Unknown region id likewise.
        assert_eq!(k.mean_dwell(RegionId(9999)), Duration::from_secs(60));
    }

    #[test]
    fn unknown_regions_probability_zero() {
        let dsm = mall();
        let k = MobilityKnowledge::uniform(&dsm);
        let r = dsm.regions().next().unwrap().id;
        assert_eq!(k.transition_prob(r, RegionId(9999)), 0.0);
        assert_eq!(k.transition_prob(RegionId(9999), r), 0.0);
    }

    #[test]
    fn distance_decay_prefers_near_neighbours() {
        let dsm = mall();
        let k = MobilityKnowledge::distance_decay(&dsm);
        let hall = dsm
            .regions()
            .find(|r| r.name.starts_with("Center Hall"))
            .unwrap();
        let topo = dsm.topology().unwrap();
        let neigh = topo.neighbours(hall.id);
        assert!(neigh.len() >= 2);
        // All adjacent probabilities positive; rows stochastic.
        for &b in neigh {
            assert!(k.transition_prob(hall.id, b) > 0.0);
        }
        let i = k.index_of(hall.id).unwrap();
        let sum: f64 = k.row(i).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn self_transitions_never_counted() {
        let dsm = mall();
        let r = dsm.regions().next().unwrap().id;
        let seqs = vec![vec![sem(r, "X", 0, 10), sem(r, "X", 20, 30)]];
        let k = MobilityKnowledge::build(&dsm, &seqs, 0.0);
        assert_eq!(k.observed_transitions, 0);
        assert_eq!(k.transition_prob(r, r), 0.0);
    }
}
