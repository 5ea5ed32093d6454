//! Ordered fan-out execution over scoped threads.
//!
//! Each call spawns `min(threads, items)` scoped threads (there is no
//! standing pool); one atomic counter hands them item indices (work
//! stealing: fast items don't block slow ones), and every result is
//! written back into the slot of its *input* index. Parallel output is
//! therefore bit-identical to serial output for any pure per-item function —
//! the guarantee the Translator's `parallel_equals_serial` test pins down.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item and returns the results in input order.
///
/// `threads <= 1` or fewer than two items short-circuits to a plain serial
/// map (no threads spawned, no locking). Otherwise at most
/// `min(threads, items.len())` scoped workers pull indices from a shared
/// atomic counter until the input is exhausted.
///
/// The closure receives `(index, &item)` so callers can use positional
/// context without threading it through the item type.
pub fn run_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let n_workers = threads.min(items.len());
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let slot_refs = parking_lot::Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(i, &items[i]);
                slot_refs.lock()[i] = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let serial = run_indexed(1, &items, |i, x| i as u64 * 1000 + x * x);
        for threads in [2, 3, 8, 200] {
            let parallel = run_indexed(threads, &items, |i, x| i as u64 * 1000 + x * x);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = run_indexed(4, &[] as &[u32], |_, x| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_stays_serial() {
        let out = run_indexed(8, &[41], |i, x| (i, x + 1));
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn index_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let out = run_indexed(2, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }
}
