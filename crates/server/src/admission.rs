//! Bounded admission — the server's overload valve.
//!
//! Loop shards run the requests they admit on their own threads, so
//! admission is one server-wide count of admitted, unfinished requests.
//! [`Admission::try_admit`] **fails immediately** when the count is at
//! capacity instead of blocking or growing, and the caller turns that
//! into a typed `Overloaded` response (load shedding).
//! [`Admission::peak_depth`] records the high-water mark so tests and
//! metrics can prove the bound held.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A server-wide cap on admitted, unfinished requests. The counters
/// publish no other data, so every access is `Relaxed`.
pub struct Admission {
    admitted: AtomicUsize,
    peak: AtomicUsize,
    capacity: usize,
}

impl Admission {
    /// Admits at most `capacity` requests at once; `capacity` 0 sheds
    /// every request (useful for forcing overload in tests).
    pub fn new(capacity: usize) -> Self {
        Admission {
            admitted: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            capacity,
        }
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Takes one slot unless all `capacity` are held (shed). Every `true`
    /// must be paired with one [`Admission::finish`].
    pub fn try_admit(&self) -> bool {
        let taken = self
            .admitted
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.capacity).then_some(n + 1)
            });
        match taken {
            Ok(before) => {
                self.peak.fetch_max(before + 1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Releases the slot of one finished request.
    pub fn finish(&self) {
        self.admitted.fetch_sub(1, Ordering::Relaxed);
    }

    /// High-water mark of the admitted count since construction. Bounded
    /// work in one number: this can never exceed [`Admission::capacity`].
    pub fn peak_depth(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_admission_sheds_until_a_slot_frees() {
        let a = Admission::new(2);
        assert!(a.try_admit());
        assert!(a.try_admit());
        assert!(!a.try_admit());
        assert!(!a.try_admit(), "shed requests take no slot");
        assert_eq!(a.peak_depth(), 2);
        a.finish();
        assert!(a.try_admit(), "a finished request frees its slot");
        assert!(!a.try_admit());
        assert_eq!(a.peak_depth(), 2, "peak never exceeded capacity");
    }

    #[test]
    fn concurrent_admitters_never_exceed_capacity() {
        let a = Admission::new(3);
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2000 {
                        if a.try_admit() {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            a.finish();
                        }
                    }
                });
            }
        });
        assert!(a.peak_depth() <= 3, "work stayed bounded");
        assert!(admitted.load(Ordering::Relaxed) > 0);
        for _ in 0..3 {
            assert!(a.try_admit(), "every admitted request released its slot");
        }
    }

    #[test]
    fn zero_capacity_always_sheds() {
        let a = Admission::new(0);
        assert!(!a.try_admit());
        assert_eq!(a.peak_depth(), 0);
    }
}
