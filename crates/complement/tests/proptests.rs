//! Property-based tests for the Complementing layer: knowledge matrices are
//! stochastic, complementing preserves observed semantics and never creates
//! overlaps, and the cached sparse MAP inference agrees with a dense
//! Viterbi pass.

use proptest::prelude::*;
use trips_annotate::MobilitySemantics;
use trips_complement::{infer, Complementor, ComplementorConfig, MobilityKnowledge};
use trips_data::{DeviceId, Duration, Timestamp};
use trips_dsm::builder::MallBuilder;
use trips_dsm::{DigitalSpaceModel, RegionId};

fn mall() -> DigitalSpaceModel {
    MallBuilder::new().floors(2).shops_per_row(3).build()
}

/// Arbitrary non-overlapping semantics sequences over the mall's regions.
fn arb_semantics(dsm: &DigitalSpaceModel) -> impl Strategy<Value = Vec<MobilitySemantics>> {
    let regions: Vec<(RegionId, String)> = dsm.regions().map(|r| (r.id, r.name.clone())).collect();
    prop::collection::vec((0usize..regions.len(), 10i64..600, 0i64..900), 0..15).prop_map(
        move |items| {
            let mut out = Vec::new();
            let mut cursor = 0i64;
            for (ri, dur, gap) in items {
                let (region, name) = regions[ri].clone();
                let start = cursor + gap;
                let end = start + dur;
                cursor = end;
                out.push(MobilitySemantics {
                    device: DeviceId::new("p"),
                    event: if dur >= 90 { "stay" } else { "pass-by" }.into(),
                    region,
                    region_name: name.into(),
                    start: Timestamp::from_millis(start * 1000),
                    end: Timestamp::from_millis(end * 1000),
                    inferred: false,
                    display_point: None,
                });
            }
            out
        },
    )
}

/// The knowledge variants the Translator and the A3 ablations build:
/// `build` without and with smoothing, `uniform`, `distance_decay`.
fn knowledge_of(
    dsm: &DigitalSpaceModel,
    kind: usize,
    seqs: &[Vec<MobilitySemantics>],
) -> MobilityKnowledge {
    match kind {
        0 => MobilityKnowledge::build(dsm, seqs, 0.0),
        1 => MobilityKnowledge::build(dsm, seqs, 0.5),
        2 => MobilityKnowledge::uniform(dsm),
        _ => MobilityKnowledge::distance_decay(dsm),
    }
}

/// Reference MAP inference: a dense Viterbi pass that takes `ln p` of every
/// positive entry of every full row, on every layer, for every query.
fn dense_map_path(
    k: &MobilityKnowledge,
    a: RegionId,
    b: RegionId,
    max_hops: usize,
) -> Option<Vec<RegionId>> {
    let regions = k.regions();
    let ia = regions.iter().position(|&r| r == a)?;
    let ib = regions.iter().position(|&r| r == b)?;
    let n = regions.len();
    if max_hops < 2 {
        return None;
    }
    let neg_inf = f64::NEG_INFINITY;
    let mut prev_layer = vec![neg_inf; n];
    prev_layer[ia] = 0.0;
    let mut back: Vec<Vec<Option<usize>>> = Vec::new();
    let mut layers: Vec<Vec<f64>> = Vec::new();
    for _ in 0..max_hops {
        let mut layer = vec![neg_inf; n];
        let mut back_k = vec![None; n];
        for (u, &prev) in prev_layer.iter().enumerate() {
            if prev == neg_inf {
                continue;
            }
            for v in 0..n {
                let p = k.transition_prob(regions[u], regions[v]);
                if p <= 0.0 {
                    continue;
                }
                let cand = prev + p.ln();
                if cand > layer[v] {
                    layer[v] = cand;
                    back_k[v] = Some(u);
                }
            }
        }
        layers.push(layer.clone());
        back.push(back_k);
        prev_layer = layer;
    }
    let direct = layers[0][ib];
    let mut best: Option<(usize, f64)> = None;
    for (k_idx, layer) in layers.iter().enumerate().skip(1) {
        let lp = layer[ib];
        if lp == neg_inf {
            continue;
        }
        if best.map_or(true, |(_, b_lp)| lp > b_lp + 1e-12) {
            best = Some((k_idx, lp));
        }
    }
    let (k_idx, lp) = best?;
    if direct != neg_inf && direct >= lp {
        return None;
    }
    let mut path_idx = vec![ib];
    let mut cur = ib;
    for k in (0..=k_idx).rev() {
        let p = back[k][cur]?;
        path_idx.push(p);
        cur = p;
    }
    path_idx.reverse();
    Some(
        path_idx[1..path_idx.len() - 1]
            .iter()
            .map(|&i| regions[i])
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_map_path_equals_dense_viterbi(
        seqs in prop::collection::vec(arb_semantics(&mall()), 0..6),
        kind in 0usize..4,
        pairs in prop::collection::vec((0usize..64, 0usize..64, 0usize..6), 1..24),
    ) {
        let dsm = mall();
        let k = knowledge_of(&dsm, kind, &seqs);
        let regions = k.regions();
        // One index past the last region stands for an unknown id.
        let pick = |i: usize| regions.get(i % (regions.len() + 1)).copied().unwrap_or(RegionId(9999));
        for (a, b, hops) in pairs {
            let (a, b) = (pick(a), pick(b));
            prop_assert_eq!(
                infer::map_path(&k, a, b, hops),
                dense_map_path(&k, a, b, hops),
                "{} -> {} within {} hops", a, b, hops
            );
        }
    }

    #[test]
    fn complement_uses_dense_viterbi_paths(
        history in prop::collection::vec(arb_semantics(&mall()), 0..6),
        gappy in prop::collection::vec(arb_semantics(&mall()), 1..6),
        kind in 0usize..4,
        max_hops in 0usize..6,
    ) {
        let dsm = mall();
        let config = ComplementorConfig { max_hops, ..ComplementorConfig::default() };
        let (min_gap, max_gap) = (config.min_gap, config.max_gap);
        let k = knowledge_of(&dsm, kind, &history);
        let warm = Complementor::new(&dsm, k.clone(), config.clone());
        for sems in &gappy {
            let out = warm.complement(sems);
            // Each qualifying gap holds exactly the dense MAP path (or the
            // region itself when both ends agree).
            let mut expected = Vec::new();
            for (i, s) in sems.iter().enumerate() {
                if i > 0 {
                    let prev = &sems[i - 1];
                    let gap = s.start - prev.end;
                    if gap >= min_gap && gap <= max_gap {
                        let fill = if prev.region == s.region {
                            vec![prev.region]
                        } else {
                            dense_map_path(&k, prev.region, s.region, max_hops).unwrap_or_default()
                        };
                        expected.extend(fill.into_iter().map(|r| (r, true)));
                    }
                }
                expected.push((s.region, false));
            }
            let got: Vec<(RegionId, bool)> = out.iter().map(|s| (s.region, s.inferred)).collect();
            prop_assert_eq!(got, expected);
        }
        // A cold cache fills in a different order; the output is the same.
        let cold = Complementor::new(&dsm, k, config);
        for sems in gappy.iter().rev() {
            prop_assert_eq!(cold.complement(sems), warm.complement(sems));
        }
    }

    #[test]
    fn knowledge_rows_are_stochastic_or_zero(seqs in prop::collection::vec(arb_semantics(&mall()), 0..6),
                                             smoothing in 0.0f64..2.0) {
        let dsm = mall();
        let k = MobilityKnowledge::build(&dsm, &seqs, smoothing);
        for &a in k.regions() {
            let total: f64 = k.regions().iter().map(|&b| k.transition_prob(a, b)).sum();
            prop_assert!(
                (total - 1.0).abs() < 1e-9 || total.abs() < 1e-12,
                "row for {a} sums to {total}"
            );
        }
    }

    #[test]
    fn complement_preserves_observed(sems in arb_semantics(&mall())) {
        let dsm = mall();
        let c = Complementor::new(&dsm, MobilityKnowledge::uniform(&dsm), ComplementorConfig::default());
        let out = c.complement(&sems);
        let observed: Vec<&MobilitySemantics> = out.iter().filter(|s| !s.inferred).collect();
        prop_assert_eq!(observed.len(), sems.len());
        for (a, b) in observed.iter().zip(&sems) {
            prop_assert_eq!(*a, b, "observed entry mutated");
        }
    }

    #[test]
    fn complement_output_sorted_non_overlapping(sems in arb_semantics(&mall())) {
        let dsm = mall();
        let c = Complementor::new(&dsm, MobilityKnowledge::uniform(&dsm), ComplementorConfig::default());
        let out = c.complement(&sems);
        for w in out.windows(2) {
            prop_assert!(w[0].start <= w[1].start);
            prop_assert!(w[0].end <= w[1].start + Duration(1),
                "overlap: {} vs {}", w[0].end, w[1].start);
        }
        for s in &out {
            prop_assert!(s.start <= s.end);
        }
    }

    #[test]
    fn inferred_entries_fill_only_qualifying_gaps(sems in arb_semantics(&mall())) {
        let dsm = mall();
        let config = ComplementorConfig::default();
        let (min_gap, max_gap) = (config.min_gap, config.max_gap);
        let c = Complementor::new(&dsm, MobilityKnowledge::uniform(&dsm), config);
        let out = c.complement(&sems);
        // Every inferred entry lies inside some original qualifying gap.
        for inf in out.iter().filter(|s| s.inferred) {
            let inside_gap = sems.windows(2).any(|w| {
                let gap = w[1].start - w[0].end;
                gap >= min_gap
                    && gap <= max_gap
                    && inf.start >= w[0].end
                    && inf.end <= w[1].start
            });
            prop_assert!(inside_gap, "inferred entry outside any gap: {inf}");
        }
    }

    #[test]
    fn count_gaps_matches_windows(sems in arb_semantics(&mall())) {
        let dsm = mall();
        let config = ComplementorConfig::default();
        let (min_gap, max_gap) = (config.min_gap, config.max_gap);
        let c = Complementor::new(&dsm, MobilityKnowledge::uniform(&dsm), config);
        let expected = sems
            .windows(2)
            .filter(|w| {
                let gap = w[1].start - w[0].end;
                gap >= min_gap && gap <= max_gap
            })
            .count();
        prop_assert_eq!(c.count_gaps(&sems), expected);
    }
}
