//! The global observability switch and the cross-crate stage
//! accumulators.
//!
//! A loop shard executing one request calls down through crates that
//! know nothing about spans: `SemanticsStore::ingest` takes a shard lock
//! and applies the batch, `RuleEngine::publish` evaluates standing rules.
//! Threading a span context through those signatures would couple every
//! layer to the server; instead the instrumented callees add their
//! elapsed nanoseconds to **thread-local cells** here, and the server
//! reads-and-resets them around the call ([`take`]). The attribution is
//! exact because the whole call chain runs on the shard's thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether the observability layer is on. Instrumented hot paths check
/// this before reading clocks; handles still exist (and render zeros)
/// when off, so scrape endpoints keep working.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the observability layer on or off process-wide (on by default;
/// `server_load --obs-overhead` toggles it for its A/B). Cheap to call at
/// any time.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One relaxed load — the guard instrumented hot paths take before
/// reading clocks or recording spans.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Same-thread stage nanoseconds accumulated below the server layer for
/// the request currently executing (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Inside `SemanticsStore` mutators: shard-locked apply + WAL append
    /// (lock wait excluded — it is reported separately).
    pub store_ns: u64,
    /// Waiting for the store shard write lock.
    pub store_lock_wait_ns: u64,
    /// Inside `RuleEngine::publish` (evaluation + sink delivery).
    pub rules_ns: u64,
    /// Waiting for a translator-shard lock (server layer; accumulated
    /// here so a batch spanning several shards sums its waits).
    pub translator_lock_ns: u64,
}

thread_local! {
    static STORE_NS: Cell<u64> = const { Cell::new(0) };
    static STORE_LOCK_WAIT_NS: Cell<u64> = const { Cell::new(0) };
    static RULES_NS: Cell<u64> = const { Cell::new(0) };
    static TRANSLATOR_LOCK_NS: Cell<u64> = const { Cell::new(0) };
}

/// Adds store-apply time (shard-locked section) for the current thread's
/// in-flight request.
#[inline]
pub fn add_store_ns(ns: u64) {
    STORE_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Adds store shard-lock wait time for the current thread's in-flight
/// request.
#[inline]
pub fn add_store_lock_wait_ns(ns: u64) {
    STORE_LOCK_WAIT_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Adds rule-evaluation time for the current thread's in-flight request.
#[inline]
pub fn add_rules_ns(ns: u64) {
    RULES_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Adds translator-shard lock wait time for the current thread's
/// in-flight request.
#[inline]
pub fn add_translator_lock_ns(ns: u64) {
    TRANSLATOR_LOCK_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Reads and resets this thread's accumulators. The server worker calls
/// this after executing a request; anything accumulated since the last
/// `take` belongs to that request.
pub fn take() -> StageNanos {
    StageNanos {
        store_ns: STORE_NS.with(|c| c.replace(0)),
        store_lock_wait_ns: STORE_LOCK_WAIT_NS.with(|c| c.replace(0)),
        rules_ns: RULES_NS.with(|c| c.replace(0)),
        translator_lock_ns: TRANSLATOR_LOCK_NS.with(|c| c.replace(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulators_are_per_thread_and_reset_on_take() {
        let _ = take();
        add_store_ns(10);
        add_store_ns(5);
        add_rules_ns(7);
        add_store_lock_wait_ns(3);
        add_translator_lock_ns(2);
        let t = std::thread::spawn(|| {
            add_store_ns(1000);
            take()
        })
        .join()
        .unwrap();
        assert_eq!(t.store_ns, 1000, "other thread sees only its own adds");
        let here = take();
        assert_eq!(
            here,
            StageNanos {
                store_ns: 15,
                store_lock_wait_ns: 3,
                rules_ns: 7,
                translator_lock_ns: 2
            }
        );
        assert_eq!(take(), StageNanos::default(), "take resets");
    }

    #[test]
    fn enabled_toggles() {
        assert!(enabled(), "on by default");
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
