//! Maximum-a-posteriori path inference over the region graph.
//!
//! Given two observed semantics endpoints `a` (left of the gap) and `b`
//! (right of the gap), find the region path `a → r₁ → … → rₘ → b` that
//! maximises the product of transition probabilities under the mobility
//! knowledge — a Viterbi pass over bounded path lengths.
//!
//! The Viterbi layers depend only on the source `a` and the hop budget, not
//! on `b`, so they are held in a lattice that answers every target by
//! backtracking. The [`Complementor`](crate::Complementor) keeps one lattice
//! per source region for the lifetime of its knowledge.

use crate::knowledge::MobilityKnowledge;
use trips_dsm::RegionId;

/// Back-pointer of a lattice cell no path reaches.
const NO_PARENT: u32 = u32::MAX;

/// The Viterbi lattice from one source region: for each hop count
/// `k = 1..=max_hops` and each region `v`, the best log-probability of
/// reaching `v` from the source in exactly `k` hops, and the region it is
/// reached from on that best path.
#[derive(Debug)]
pub(crate) struct Lattice {
    n: usize,
    hops: usize,
    /// `score[(k - 1) * n + v]`; log-probabilities avoid underflow on long
    /// paths.
    score: Vec<f64>,
    /// `parent[(k - 1) * n + v]`, [`NO_PARENT`] where `score` is `-∞`.
    parent: Vec<u32>,
}

impl Lattice {
    /// Runs the Viterbi recursion from region index `source` over the
    /// knowledge's sparse log-probability rows, `max_hops` layers deep.
    ///
    /// Predecessors are scanned in index order and successors in column
    /// order, and a candidate replaces the incumbent only when strictly
    /// better, so ties keep the lowest-index predecessor.
    pub(crate) fn new(knowledge: &MobilityKnowledge, source: usize, max_hops: usize) -> Self {
        let n = knowledge.regions().len();
        let mut score = vec![f64::NEG_INFINITY; max_hops * n];
        let mut parent = vec![NO_PARENT; max_hops * n];
        for k in 0..max_hops {
            let (done, rest) = score.split_at_mut(k * n);
            let layer = &mut rest[..n];
            let parents = &mut parent[k * n..(k + 1) * n];
            let mut relax = |u: usize, prev: f64| {
                for &(v, lp) in knowledge.log_row(u) {
                    let cand = prev + lp;
                    if cand > layer[v] {
                        layer[v] = cand;
                        parents[v] = u as u32;
                    }
                }
            };
            if k == 0 {
                relax(source, 0.0);
            } else {
                for (u, &prev) in done[(k - 1) * n..].iter().enumerate() {
                    if prev != f64::NEG_INFINITY {
                        relax(u, prev);
                    }
                }
            }
        }
        Lattice {
            n,
            hops: max_hops,
            score,
            parent,
        }
    }

    /// The most likely intermediate regions from the source to region index
    /// `target` (both exclusive); see [`map_path`] for when this is `None`
    /// (always, below two hops).
    pub(crate) fn path(
        &self,
        knowledge: &MobilityKnowledge,
        target: usize,
    ) -> Option<Vec<RegionId>> {
        let n = self.n;
        let at = |k: usize| self.score[k * n + target];
        if self.hops < 2 {
            return None;
        }

        // The direct a→b probability (1 hop) is the null hypothesis: infer
        // intermediates only when some k ≥ 2 path beats it.
        let direct = at(0);

        let mut best: Option<(usize, f64)> = None; // (k, log-prob) with k >= 2
        for k_idx in 1..self.hops {
            let lp = at(k_idx);
            if lp == f64::NEG_INFINITY {
                continue;
            }
            if best.map_or(true, |(_, b_lp)| lp > b_lp + 1e-12) {
                best = Some((k_idx, lp));
            }
        }
        let (k_idx, lp) = best?;
        if direct != f64::NEG_INFINITY && direct >= lp {
            return None; // walking straight through is at least as likely
        }

        // Backtrack: the path has k_idx + 1 hops, i.e. k_idx intermediate
        // regions, the back-pointers of (0-based) layers k_idx down to 1.
        let regions = knowledge.regions();
        let mut path = vec![RegionId(0); k_idx];
        let mut cur = target;
        for k in (1..=k_idx).rev() {
            let p = self.parent[k * n + cur];
            if p == NO_PARENT {
                return None;
            }
            cur = p as usize;
            path[k - 1] = regions[cur];
        }
        Some(path)
    }
}

/// The most likely intermediate region path between `a` and `b` (both
/// exclusive), allowing at most `max_hops` transitions overall.
///
/// Returns `None` when no positive-probability path of length ≥ 2 exists —
/// including the case where `a → b` directly is the most likely explanation
/// (no intermediate regions to infer).
///
/// Ties on probability break toward fewer hops: the gap should be filled by
/// the *simplest* likely explanation.
///
/// This runs a fresh Viterbi pass from `a`; the
/// [`Complementor`](crate::Complementor) answers the same question from its
/// per-source cache.
pub fn map_path(
    knowledge: &MobilityKnowledge,
    a: RegionId,
    b: RegionId,
    max_hops: usize,
) -> Option<Vec<RegionId>> {
    let ia = knowledge.index_of(a)?;
    let ib = knowledge.index_of(b)?;
    Lattice::new(knowledge, ia, max_hops).path(knowledge, ib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_annotate::MobilitySemantics;
    use trips_data::{DeviceId, Timestamp};
    use trips_dsm::builder::MallBuilder;
    use trips_dsm::DigitalSpaceModel;

    fn mall() -> DigitalSpaceModel {
        MallBuilder::new()
            .shops_per_row(3)
            .with_cashiers(false)
            .build()
    }

    fn sem(region: RegionId, start_s: i64, end_s: i64) -> MobilitySemantics {
        MobilitySemantics {
            device: DeviceId::new("d"),
            event: "stay".into(),
            region,
            region_name: "".into(),
            start: Timestamp::from_millis(start_s * 1000),
            end: Timestamp::from_millis(end_s * 1000),
            inferred: false,
            display_point: None,
        }
    }

    /// In the mall, two shops are never adjacent: the only route between
    /// them runs through the hall. MAP inference must recover the hall.
    #[test]
    fn shop_to_shop_infers_hall() {
        let dsm = mall();
        let k = MobilityKnowledge::uniform(&dsm);
        let shops: Vec<RegionId> = dsm
            .regions()
            .filter(|r| r.tag.category == "shop")
            .map(|r| r.id)
            .collect();
        let hall = dsm
            .regions()
            .find(|r| r.name.starts_with("Center Hall"))
            .unwrap()
            .id;
        let path = map_path(&k, shops[0], shops[1], 4).expect("path exists");
        assert_eq!(path, vec![hall]);
    }

    #[test]
    fn adjacent_regions_need_no_inference() {
        let dsm = mall();
        let k = MobilityKnowledge::uniform(&dsm);
        let hall = dsm
            .regions()
            .find(|r| r.name.starts_with("Center Hall"))
            .unwrap()
            .id;
        let shop = dsm.regions().find(|r| r.tag.category == "shop").unwrap().id;
        // hall → shop is direct and maximally likely: nothing to infer.
        assert_eq!(map_path(&k, hall, shop, 4), None);
    }

    #[test]
    fn data_biases_the_chosen_path() {
        let dsm = mall();
        let regions: Vec<RegionId> = dsm
            .regions()
            .filter(|r| r.tag.category == "shop")
            .map(|r| r.id)
            .collect();
        let hall = dsm
            .regions()
            .find(|r| r.name.starts_with("Center Hall"))
            .unwrap()
            .id;
        let (s0, s1, s2) = (regions[0], regions[1], regions[2]);
        // Observed habit: s0 → s2 → s1 ... but s0→s2 requires the hall in
        // between (not adjacent). Construct instead: s0 → hall → s2 → hall →
        // s1 as separate observed transitions so that from s0 the hall is
        // overwhelmingly likely, and from the hall, s2 beats s1.
        let mut seqs = Vec::new();
        for i in 0..50i64 {
            seqs.push(vec![
                sem(s0, i * 1000, i * 1000 + 10),
                sem(hall, i * 1000 + 20, i * 1000 + 30),
                sem(s2, i * 1000 + 40, i * 1000 + 50),
            ]);
        }
        let k = MobilityKnowledge::build(&dsm, &seqs, 0.1);
        // Gap s0 → s1: best 2-hop path is s0 → hall → s1 (only route), so
        // hall is inferred regardless; but check 3-hop isn't preferred.
        let path = map_path(&k, s0, s1, 5).expect("path");
        assert!(path.contains(&hall), "path {path:?} must include the hall");
    }

    #[test]
    fn unknown_regions_yield_none() {
        let dsm = mall();
        let k = MobilityKnowledge::uniform(&dsm);
        let r = dsm.regions().next().unwrap().id;
        assert_eq!(map_path(&k, RegionId(999), r, 4), None);
        assert_eq!(map_path(&k, r, RegionId(999), 4), None);
    }

    #[test]
    fn hop_budget_respected() {
        let dsm = mall();
        let k = MobilityKnowledge::uniform(&dsm);
        let shops: Vec<RegionId> = dsm
            .regions()
            .filter(|r| r.tag.category == "shop")
            .map(|r| r.id)
            .collect();
        // Shop→shop needs 2 hops; max_hops 1 can't express it.
        assert_eq!(map_path(&k, shops[0], shops[1], 1), None);
        assert!(map_path(&k, shops[0], shops[1], 2).is_some());
    }

    #[test]
    fn same_region_endpoints() {
        let dsm = mall();
        let k = MobilityKnowledge::uniform(&dsm);
        let shop = dsm.regions().find(|r| r.tag.category == "shop").unwrap().id;
        // Leaving and returning: the 2-hop path shop → hall → shop exists.
        let path = map_path(&k, shop, shop, 4).expect("round trip");
        assert_eq!(path.len(), 1, "one intermediate (the hall): {path:?}");
    }
}
