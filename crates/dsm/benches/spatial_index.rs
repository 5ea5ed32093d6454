//! Grid index vs linear scan on the DSM query hot path.
//!
//! `nearest_region` is the Translator's per-record workhorse; this bench
//! compares the frozen (grid-indexed) model against the same unfrozen model
//! (linear scan) at 10 / 100 / 1000 entities. The indexed path must win
//! from ~100 entities up — the acceptance bar for the index refactor.
//!
//! A plain `harness = false` binary: it checks that both paths agree on
//! every probe, then times each path over a fixed number of rounds and
//! prints ns per query.
//!
//! Run: `cargo bench -p trips-dsm --bench spatial_index`

use std::hint::black_box;
use std::time::Instant;
use trips_dsm::{DigitalSpaceModel, Entity, EntityKind, SemanticRegion, SemanticTag};
use trips_geom::{IndoorPoint, Point, Polygon};

/// Timed passes over the probes (64 queries each) per (entities, path).
const ROUNDS: usize = 300;

/// `n` shops (entity + region each) laid out on a √n × √n grid, 12 m pitch.
fn model_with(n: usize, frozen: bool) -> DigitalSpaceModel {
    let mut dsm = DigitalSpaceModel::new("bench");
    let cols = (n as f64).sqrt().ceil() as usize;
    for i in 0..n {
        let (cx, cy) = ((i % cols) as f64 * 12.0, (i / cols) as f64 * 12.0);
        let poly = Polygon::rectangle(Point::new(cx, cy), Point::new(cx + 10.0, cy + 8.0));
        let e = dsm.next_entity_id();
        dsm.add_entity(Entity::area(
            e,
            EntityKind::Room,
            0,
            &format!("shop-{i}"),
            poly.clone(),
        ))
        .unwrap();
        let r = dsm.next_region_id();
        dsm.add_region(SemanticRegion::new(
            r,
            &format!("Shop {i}"),
            SemanticTag::new("shop", "shop"),
            0,
            poly,
            e,
        ))
        .unwrap();
    }
    if frozen {
        dsm.freeze();
    }
    dsm
}

/// Deterministic pseudo-random probe points over (and slightly beyond) the
/// layout extent.
fn probes(n: usize) -> Vec<IndoorPoint> {
    let extent = (n as f64).sqrt().ceil() * 12.0;
    (0..64u64)
        .map(|i| {
            let h = i
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (h >> 11) as f64 / (1u64 << 53) as f64;
            let y = (h.rotate_left(17) >> 11) as f64 / (1u64 << 53) as f64;
            IndoorPoint::new(
                x * extent * 1.2 - extent * 0.1,
                y * extent * 1.2 - extent * 0.1,
                0,
            )
        })
        .collect()
}

/// Mean nanoseconds per `nearest_region` call over `ROUNDS` passes, after
/// `ROUNDS / 10` untimed ones; the id sum keeps the queries observable.
fn ns_per_query(dsm: &DigitalSpaceModel, queries: &[IndoorPoint]) -> f64 {
    let pass = || {
        queries
            .iter()
            .filter_map(|p| dsm.nearest_region(black_box(p)))
            .map(|(r, _)| r.id.0 as u64)
            .sum::<u64>()
    };
    for _ in 0..ROUNDS / 10 {
        black_box(pass());
    }
    let start = Instant::now();
    for _ in 0..ROUNDS {
        black_box(pass());
    }
    start.elapsed().as_nanos() as f64 / (ROUNDS * queries.len()) as f64
}

fn main() {
    println!("spatial_index nearest_region ({ROUNDS} rounds x 64 probes)");
    println!(
        "{:>8} {:>20} {:>20}",
        "entities", "linear ns/query", "indexed ns/query"
    );
    for &n in &[10usize, 100, 1000] {
        let linear = model_with(n, false);
        let indexed = model_with(n, true);
        let queries = probes(n);
        // Sanity: both paths agree before we time them.
        for p in &queries {
            let a = linear.nearest_region(p).map(|(r, d)| (r.id, d));
            let b = indexed.nearest_region(p).map(|(r, d)| (r.id, d));
            assert_eq!(a, b, "index must be result-identical at {p:?}");
        }
        let lin = ns_per_query(&linear, &queries);
        let idx = ns_per_query(&indexed, &queries);
        println!("{n:>8} {lin:>20.0} {idx:>20.0}");
    }
}
