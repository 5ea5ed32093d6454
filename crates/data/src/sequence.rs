//! Per-device positioning sequences.

use crate::record::{DeviceId, RawRecord};
use crate::timestamp::{Duration, Timestamp};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use trips_geom::{BoundingBox, FloorId};

/// A time-ordered sequence of positioning records for one device —
/// the unit the Translator processes ("takes each individual positioning
/// sequence as input", paper §3).
///
/// The records sit behind an [`Arc`]: a clone shares them (a refcount
/// increment, not a copy), and [`push`](Self::push) on a shared sequence
/// copies them first, so no clone ever sees another's writes. This is how a
/// translation result carries its raw input without copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct PositioningSequence {
    device: DeviceId,
    records: Arc<Vec<RawRecord>>,
}

// By hand because the vendored serde has no `Arc<T>` impl; the JSON shape is
// the derived one: `{"device": .., "records": [..]}`.
impl Serialize for PositioningSequence {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("device".to_string(), self.device.to_value()),
            ("records".to_string(), self.records.to_value()),
        ])
    }
}

impl Deserialize for PositioningSequence {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for `PositioningSequence`"))?;
        Ok(PositioningSequence {
            device: serde::de_field(obj, "device")?,
            records: Arc::new(serde::de_field(obj, "records")?),
        })
    }
}

/// Summary statistics of a sequence (drive the selector's frequency rule and
/// the Viewer's tooltips).
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceStats {
    pub record_count: usize,
    pub start: Timestamp,
    pub end: Timestamp,
    pub duration: Duration,
    /// Mean records per minute.
    pub frequency_per_min: f64,
    /// Floors visited, ascending.
    pub floors: Vec<FloorId>,
    /// Planar bounding box over all records.
    pub bbox: BoundingBox,
    /// Largest inter-record time gap.
    pub max_gap: Duration,
}

impl PositioningSequence {
    /// Creates an empty sequence for `device`.
    pub fn new(device: DeviceId) -> Self {
        PositioningSequence {
            device,
            records: Arc::default(),
        }
    }

    /// Creates a sequence from records, sorting by timestamp and dropping
    /// records whose device does not match or whose coordinates are not
    /// finite.
    pub fn from_records(device: DeviceId, mut records: Vec<RawRecord>) -> Self {
        records.retain(|r| r.device == device && r.is_well_formed());
        records.sort_by_key(|r| r.ts);
        PositioningSequence {
            device,
            records: Arc::new(records),
        }
    }

    /// Creates a sequence from records already in the form
    /// [`from_records`](Self::from_records) leaves them in: all of
    /// `device`, well-formed and in time order. Nothing is filtered or
    /// sorted; debug builds check the form.
    pub fn from_ordered_records(device: DeviceId, records: Vec<RawRecord>) -> Self {
        debug_assert!(
            records
                .iter()
                .all(|r| r.device == device && r.is_well_formed()),
            "records of another device or not well-formed"
        );
        debug_assert!(
            records.windows(2).all(|w| w[0].ts <= w[1].ts),
            "records out of time order"
        );
        PositioningSequence {
            device,
            records: Arc::new(records),
        }
    }

    /// The device this sequence belongs to.
    pub fn device(&self) -> &DeviceId {
        &self.device
    }

    /// Appends a record, keeping time order (inserts out-of-order arrivals
    /// at the right position — stream sources deliver near-ordered data).
    /// Copies the records first if a clone shares them.
    pub fn push(&mut self, record: RawRecord) {
        debug_assert_eq!(record.device, self.device, "record for a different device");
        if !record.is_well_formed() {
            return;
        }
        let records = Arc::make_mut(&mut self.records);
        match records.last() {
            Some(last) if last.ts > record.ts => {
                let idx = records.partition_point(|r| r.ts <= record.ts);
                records.insert(idx, record);
            }
            _ => records.push(record),
        }
    }

    /// The records in time order.
    pub fn records(&self) -> &[RawRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the sequence has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// First record timestamp, if any.
    pub fn start(&self) -> Option<Timestamp> {
        self.records.first().map(|r| r.ts)
    }

    /// Last record timestamp, if any.
    pub fn end(&self) -> Option<Timestamp> {
        self.records.last().map(|r| r.ts)
    }

    /// Total covered duration (zero for < 2 records).
    pub fn duration(&self) -> Duration {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e - s,
            _ => Duration::ZERO,
        }
    }

    /// Summary statistics; `None` for an empty sequence.
    pub fn stats(&self) -> Option<SequenceStats> {
        let first = self.records.first()?;
        let last = self.records.last()?;
        let duration = last.ts - first.ts;
        let mins = duration.as_secs_f64() / 60.0;
        let mut floors: Vec<FloorId> = self.records.iter().map(|r| r.location.floor).collect();
        floors.sort_unstable();
        floors.dedup();
        let bbox = BoundingBox::from_points(self.records.iter().map(|r| r.location.xy));
        let max_gap = self
            .records
            .windows(2)
            .map(|w| w[1].ts - w[0].ts)
            .max()
            .unwrap_or(Duration::ZERO);
        Some(SequenceStats {
            record_count: self.records.len(),
            start: first.ts,
            end: last.ts,
            duration,
            frequency_per_min: if mins > 0.0 {
                self.records.len() as f64 / mins
            } else {
                self.records.len() as f64
            },
            floors,
            bbox,
            max_gap,
        })
    }

    /// Splits the sequence wherever consecutive records are more than
    /// `max_gap` apart — session segmentation for multi-day devices.
    pub fn split_on_gaps(&self, max_gap: Duration) -> Vec<PositioningSequence> {
        if self.records.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut current = Vec::new();
        for r in self.records.iter() {
            if let Some(last) = current.last() {
                let last: &RawRecord = last;
                if r.ts - last.ts > max_gap {
                    out.push(PositioningSequence {
                        device: self.device.clone(),
                        records: Arc::new(std::mem::take(&mut current)),
                    });
                }
            }
            current.push(r.clone());
        }
        if !current.is_empty() {
            out.push(PositioningSequence {
                device: self.device.clone(),
                records: Arc::new(current),
            });
        }
        out
    }

    /// The sub-sequence within `[from, to]` (closed interval).
    pub fn slice_time(&self, from: Timestamp, to: Timestamp) -> PositioningSequence {
        PositioningSequence {
            device: self.device.clone(),
            records: Arc::new(
                self.records
                    .iter()
                    .filter(|r| r.ts >= from && r.ts <= to)
                    .cloned()
                    .collect(),
            ),
        }
    }
}

/// Groups a flat record stream into per-device sequences (time-sorted).
pub fn group_by_device(records: Vec<RawRecord>) -> Vec<PositioningSequence> {
    let mut map: BTreeMap<DeviceId, Vec<RawRecord>> = BTreeMap::new();
    for r in records {
        map.entry(r.device.clone()).or_default().push(r);
    }
    map.into_iter()
        .map(|(device, recs)| PositioningSequence::from_records(device, recs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceId {
        DeviceId::new("3a.7f.99.14")
    }

    fn rec(x: f64, y: f64, floor: FloorId, secs: i64) -> RawRecord {
        RawRecord::new(dev(), x, y, floor, Timestamp::from_millis(secs * 1000))
    }

    #[test]
    fn from_records_sorts_and_filters() {
        let mut records = vec![rec(0.0, 0.0, 0, 10), rec(1.0, 0.0, 0, 5)];
        records.push(RawRecord::new(dev(), f64::NAN, 0.0, 0, Timestamp(0)));
        records.push(RawRecord::new(
            DeviceId::new("other"),
            1.0,
            1.0,
            0,
            Timestamp(0),
        ));
        let seq = PositioningSequence::from_records(dev(), records);
        assert_eq!(seq.len(), 2);
        assert!(seq.records()[0].ts < seq.records()[1].ts);
    }

    #[test]
    fn from_ordered_records_keeps_records_as_given() {
        let records = vec![
            rec(0.0, 0.0, 0, 5),
            rec(1.0, 0.0, 0, 5),
            rec(2.0, 0.0, 1, 9),
        ];
        let seq = PositioningSequence::from_ordered_records(dev(), records.clone());
        assert_eq!(seq.records(), &records[..]);
        assert_eq!(seq, PositioningSequence::from_records(dev(), records));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of time order")]
    fn from_ordered_records_checks_order_in_debug_builds() {
        let _ = PositioningSequence::from_ordered_records(
            dev(),
            vec![rec(0.0, 0.0, 0, 10), rec(1.0, 0.0, 0, 5)],
        );
    }

    #[test]
    fn push_keeps_order() {
        let mut seq = PositioningSequence::new(dev());
        seq.push(rec(0.0, 0.0, 0, 10));
        seq.push(rec(1.0, 0.0, 0, 30));
        seq.push(rec(2.0, 0.0, 0, 20)); // out of order
        let ts: Vec<i64> = seq.records().iter().map(|r| r.ts.as_millis()).collect();
        assert_eq!(ts, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn push_drops_malformed() {
        let mut seq = PositioningSequence::new(dev());
        seq.push(RawRecord::new(dev(), f64::INFINITY, 0.0, 0, Timestamp(0)));
        assert!(seq.is_empty());
    }

    #[test]
    fn stats_summary() {
        let seq = PositioningSequence::from_records(
            dev(),
            vec![
                rec(0.0, 0.0, 0, 0),
                rec(10.0, 5.0, 0, 60),
                rec(20.0, 10.0, 1, 120),
            ],
        );
        let s = seq.stats().unwrap();
        assert_eq!(s.record_count, 3);
        assert_eq!(s.duration, Duration::from_secs(120));
        assert_eq!(s.floors, vec![0, 1]);
        assert!((s.frequency_per_min - 1.5).abs() < 1e-12);
        assert_eq!(s.max_gap, Duration::from_secs(60));
        assert!(s.bbox.contains(trips_geom::Point::new(20.0, 10.0)));
        assert!(PositioningSequence::new(dev()).stats().is_none());
    }

    #[test]
    fn gap_splitting() {
        let seq = PositioningSequence::from_records(
            dev(),
            vec![
                rec(0.0, 0.0, 0, 0),
                rec(1.0, 0.0, 0, 10),
                rec(2.0, 0.0, 0, 1000), // 990 s gap
                rec(3.0, 0.0, 0, 1010),
            ],
        );
        let parts = seq.split_on_gaps(Duration::from_secs(60));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 2);
        // No split when gaps are small.
        assert_eq!(seq.split_on_gaps(Duration::from_secs(10_000)).len(), 1);
        // Empty sequence yields nothing.
        assert!(PositioningSequence::new(dev())
            .split_on_gaps(Duration::from_secs(1))
            .is_empty());
    }

    #[test]
    fn time_slice() {
        let seq = PositioningSequence::from_records(
            dev(),
            (0..10).map(|i| rec(i as f64, 0.0, 0, i * 10)).collect(),
        );
        let sub = seq.slice_time(
            Timestamp::from_millis(20_000),
            Timestamp::from_millis(50_000),
        );
        assert_eq!(sub.len(), 4); // t = 20, 30, 40, 50
    }

    #[test]
    fn group_by_device_partitions() {
        let a = DeviceId::new("a");
        let b = DeviceId::new("b");
        let records = vec![
            RawRecord::new(a.clone(), 0.0, 0.0, 0, Timestamp(2)),
            RawRecord::new(b.clone(), 0.0, 0.0, 0, Timestamp(0)),
            RawRecord::new(a.clone(), 1.0, 0.0, 0, Timestamp(1)),
        ];
        let seqs = group_by_device(records);
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].device(), &a);
        assert_eq!(seqs[0].len(), 2);
        assert!(seqs[0].records()[0].ts < seqs[0].records()[1].ts);
        assert_eq!(seqs[1].device(), &b);
    }
}
