//! Spatial matching: attach semantic regions to record runs (paper §3:
//! "The spatial annotation is made by matching the semantic regions in the
//! DSM created by the Space Modeler").

use trips_data::RawRecord;
use trips_dsm::{DigitalSpaceModel, RegionId};

/// The dominant region of a record slice: the region containing the largest
/// number of records (majority vote; ties break to the earlier-covering
/// region). Records outside all regions don't vote. `None` when no record
/// falls into any region.
pub fn dominant_region(dsm: &DigitalSpaceModel, records: &[RawRecord]) -> Option<RegionId> {
    let mut counts: std::collections::BTreeMap<RegionId, (usize, usize)> =
        std::collections::BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if let Some(region) = dsm.region_id_at(&r.location) {
            let e = counts.entry(region).or_insert((0, i));
            e.0 += 1;
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
        .map(|(id, _)| id)
}

/// A maximal run of consecutive records inside one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRun {
    pub region: RegionId,
    /// Index range `[first, last]` into the record slice.
    pub first: usize,
    pub last: usize,
}

/// Splits a record slice into maximal per-region runs, skipping records that
/// match no region. Transit snippets become one run per region traversed —
/// each then yields its own `pass-by` semantics.
pub fn region_runs(dsm: &DigitalSpaceModel, records: &[RawRecord]) -> Vec<RegionRun> {
    let mut runs: Vec<RegionRun> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let here = dsm.region_id_at(&r.location);
        match (runs.last_mut(), here) {
            (Some(run), Some(id)) if run.region == id && run.last + 1 == i => {
                run.last = i;
            }
            (_, Some(id)) => runs.push(RegionRun {
                region: id,
                first: i,
                last: i,
            }),
            (_, None) => {}
        }
    }
    // Merge runs of the same region separated only by unmatched records.
    let mut merged: Vec<RegionRun> = Vec::new();
    for run in runs {
        match merged.last_mut() {
            Some(prev) if prev.region == run.region => prev.last = run.last,
            _ => merged.push(run),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_data::{DeviceId, Timestamp};
    use trips_dsm::builder::MallBuilder;

    fn rec(x: f64, y: f64, secs: i64) -> RawRecord {
        RawRecord::new(
            DeviceId::new("d"),
            x,
            y,
            0,
            Timestamp::from_millis(secs * 1000),
        )
    }

    fn mall() -> DigitalSpaceModel {
        MallBuilder::new()
            .shops_per_row(4)
            .with_cashiers(false)
            .build()
    }

    #[test]
    fn dominant_region_majority() {
        let dsm = mall();
        // 3 records in the first south shop (x<10, y<8), 1 in the hallway.
        let records = vec![
            rec(5.0, 4.0, 0),
            rec(5.2, 4.1, 7),
            rec(5.1, 3.9, 14),
            rec(5.0, 11.0, 21),
        ];
        let dom = dominant_region(&dsm, &records).unwrap();
        let name = &dsm.region(dom).unwrap().name;
        assert!(!name.starts_with("Center Hall"), "shop must win: {name}");
    }

    #[test]
    fn dominant_region_none_when_outside() {
        let dsm = mall();
        let records = vec![rec(-50.0, -50.0, 0), rec(-51.0, -50.0, 7)];
        assert!(dominant_region(&dsm, &records).is_none());
        assert!(dominant_region(&dsm, &[]).is_none());
    }

    #[test]
    fn region_runs_walk_through_hall() {
        let dsm = mall();
        // Shop (5,4) → hallway (5,11 → 25,11) → another shop (25,4).
        let records = vec![
            rec(5.0, 4.0, 0),
            rec(5.0, 11.0, 7),
            rec(15.0, 11.0, 14),
            rec(25.0, 11.0, 21),
            rec(25.0, 4.0, 28),
        ];
        let runs = region_runs(&dsm, &records);
        assert_eq!(runs.len(), 3, "shop, hall, shop: {runs:?}");
        assert_eq!(runs[0].first, 0);
        assert_eq!(runs[0].last, 0);
        assert_eq!(runs[1].first, 1);
        assert_eq!(runs[1].last, 3);
        assert_eq!(runs[2].first, 4);
        let hall = dsm.region(runs[1].region).unwrap();
        assert!(hall.name.starts_with("Center Hall"));
    }

    #[test]
    fn region_runs_merge_across_unmatched() {
        let dsm = mall();
        // Two hallway records with an out-of-building blip between them.
        let records = vec![
            rec(15.0, 11.0, 0),
            rec(-100.0, -100.0, 7),
            rec(16.0, 11.0, 14),
        ];
        let runs = region_runs(&dsm, &records);
        assert_eq!(runs.len(), 1, "same region re-entered: merge");
        assert_eq!(runs[0].first, 0);
        assert_eq!(runs[0].last, 2);
    }

    #[test]
    fn region_runs_empty_input() {
        let dsm = mall();
        assert!(region_runs(&dsm, &[]).is_empty());
    }
}
