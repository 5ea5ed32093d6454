//! Bounded MPMC admission queue — the server's overload valve.
//!
//! Producers (connection sessions) use [`BoundedQueue::try_push`], which
//! **fails immediately** when the queue is at capacity instead of blocking
//! or growing: the caller turns that into a typed `Overloaded` response
//! (load shedding). Consumers (the worker pool) block on
//! [`BoundedQueue::pop`] until an item arrives or the queue is closed and
//! drained — so a graceful shutdown finishes every admitted request but
//! admits nothing new. Memory is bounded by construction: the deque never
//! holds more than `capacity` items, and [`BoundedQueue::peak_depth`]
//! records the high-water mark so tests and metrics can prove it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// At capacity — shed the request.
    Full,
    /// Closed — the server is draining.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    peak: usize,
}

/// A fixed-capacity multi-producer / multi-consumer queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items at once. There
    /// is no rendezvous path: `capacity` 0 means **every** push sheds,
    /// whether or not a consumer is blocked in [`BoundedQueue::pop`]
    /// (useful for forcing overload in tests).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                peak: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits `item` unless the queue is full (shed) or closed (draining).
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        inner.peak = inner.peak.max(inner.items.len());
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// closed **and** drained (returning `None` — the consumer's signal to
    /// exit). Items admitted before `close` are always delivered.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Non-blocking pop: returns an item if one is queued right now,
    /// `None` otherwise (empty **or** closed — callers that need to
    /// distinguish should use [`BoundedQueue::pop`]).
    pub fn try_pop(&self) -> Option<T> {
        self.inner.lock().expect("queue lock").items.pop_front()
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// consumers drain the remaining items then receive `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Current depth (racy — diagnostics only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty (racy — diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the depth since construction. Bounded memory in
    /// one number: this can never exceed [`BoundedQueue::capacity`].
    pub fn peak_depth(&self) -> usize {
        self.inner.lock().expect("queue lock").peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.peak_depth(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_sheds_without_growing() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.try_push(4), Err(PushError::Full));
        assert_eq!(q.len(), 2, "shed pushes must not enqueue");
        assert_eq!(q.peak_depth(), 2);
        // Popping frees a slot again.
        assert_eq!(q.pop(), Some(1));
        q.try_push(5).unwrap();
        assert_eq!(q.peak_depth(), 2, "peak never exceeded capacity");
    }

    #[test]
    fn close_drains_admitted_items_then_signals_exit() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None, "drained + closed -> exit signal");
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = BoundedQueue::<u32>::new(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3).map(|_| s.spawn(|| q.pop())).collect();
            std::thread::sleep(std::time::Duration::from_millis(50));
            q.close();
            for h in handles {
                assert_eq!(h.join().unwrap(), None);
            }
        });
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = BoundedQueue::<usize>::new(16);
        let consumed = AtomicUsize::new(0);
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while q.pop().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::scope(|prod| {
                for t in 0..4usize {
                    let admitted = &admitted;
                    let q = &q;
                    prod.spawn(move || {
                        for i in 0..500 {
                            if q.try_push(t * 1000 + i).is_ok() {
                                admitted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            // Producers joined; consumers drain the remainder, then exit.
            q.close();
        });
        assert!(q.peak_depth() <= 16, "memory stayed bounded");
        assert_eq!(
            consumed.load(Ordering::Relaxed),
            admitted.load(Ordering::Relaxed),
            "every admitted item is delivered exactly once"
        );
        assert!(consumed.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_pop(), None, "empty queue -> None immediately");
        q.try_push(7).unwrap();
        assert_eq!(q.try_pop(), Some(7));
        q.close();
        assert_eq!(q.try_pop(), None, "closed + drained -> None");
    }

    #[test]
    fn zero_capacity_always_sheds() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.try_push(1), Err(PushError::Full));
        assert_eq!(q.peak_depth(), 0);
    }
}
