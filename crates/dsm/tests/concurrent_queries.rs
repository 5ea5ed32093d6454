//! The point raster and the node tables of a frozen model are built lazily,
//! by whichever query first needs a cell or a table. Threads that race to
//! build them must each get the answers a single thread gets.

use std::sync::Barrier;
use trips_dsm::builder::MallBuilder;
use trips_dsm::{DigitalSpaceModel, PathQuery};
use trips_geom::IndoorPoint;

/// Points over and around a 3-floor mall on a lattice that is not aligned
/// to the raster or the walls: inside shops, on the hallway, near doors,
/// outside the building.
fn probes() -> Vec<IndoorPoint> {
    let mut points = Vec::new();
    for floor in 0..3 {
        for ix in 0..23 {
            for iy in 0..9 {
                let (x, y) = (-4.0 + f64::from(ix) * 3.7, -3.0 + f64::from(iy) * 3.3);
                points.push(IndoorPoint::new(x, y, floor));
            }
        }
    }
    points
}

type Answers = Vec<(Option<u32>, Option<u32>, Option<(Vec<IndoorPoint>, u64)>)>;

/// Every point's `locate` and `region_at` ids, and its path to the point
/// `stride` places further on.
fn answers(dsm: &DigitalSpaceModel, points: &[IndoorPoint], stride: usize) -> Answers {
    let q = PathQuery::new(dsm).unwrap();
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let to = &points[(i + stride) % points.len()];
            (
                dsm.locate(p).map(|e| e.id.0),
                dsm.region_at(p).map(|r| r.id.0),
                q.path(p, to).map(|w| (w.points, w.distance.to_bits())),
            )
        })
        .collect()
}

#[test]
fn threads_building_the_lazy_tables_get_the_serial_answers() {
    let points = probes();
    let strides = [1, 17, 97, 311];
    let mut serial = MallBuilder::new().floors(3).shops_per_row(4).build();
    serial.freeze();
    let expected: Vec<Answers> = strides
        .iter()
        .map(|&s| answers(&serial, &points, s))
        .collect();

    for _ in 0..4 {
        // A freshly frozen model: no raster cell or table is built yet.
        let mut shared = MallBuilder::new().floors(3).shops_per_row(4).build();
        shared.freeze();
        let start = Barrier::new(strides.len());
        let got: Vec<Answers> = std::thread::scope(|scope| {
            let handles: Vec<_> = strides
                .iter()
                .map(|&s| {
                    let (dsm, points, start) = (&shared, &points, &start);
                    scope.spawn(move || {
                        // All threads start on the unbuilt model together.
                        start.wait();
                        answers(dsm, points, s)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got, expected);
    }
}
