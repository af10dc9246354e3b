//! The metrics registry: named operation counters.
//!
//! Instrumented crates hold `static` [`Counter`]s (`const`-constructible)
//! and register them once by name — typically behind a `std::sync::Once`
//! at a construction site, never on the hot path. Increments are one
//! relaxed atomic load (the collector gate) plus, when enabled, one
//! atomic add: no allocation after registration.
//!
//! Counters record operation counts only: time is a [`crate::Span`]'s,
//! traffic is `pem-net`'s per-label `NetStats`, and message flights are
//! [`crate::MsgEvent`]s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::enabled;

/// A named monotonic counter (name lives in the registry).
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable as a `static` initializer).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` — a no-op while the collector is off.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one — a no-op while the collector is off.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// Registered counters (name → static).
static COUNTERS: Mutex<Vec<(&'static str, &'static Counter)>> = Mutex::new(Vec::new());

/// Registers `counter` under `name`. Idempotent per name: re-registering
/// an already-known name is a no-op, so callers can gate registration
/// with a `Once` per construction site without coordinating globally.
pub fn register_counter(name: &'static str, counter: &'static Counter) {
    let mut counters = COUNTERS.lock().expect("telemetry counters");
    if counters.iter().all(|(n, _)| *n != name) {
        counters.push((name, counter));
    }
}

/// Current value of every registered counter, sorted by name.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = COUNTERS
        .lock()
        .expect("telemetry counters")
        .iter()
        .map(|(n, c)| (*n, c.get()))
        .collect();
    out.sort_unstable_by_key(|(n, _)| *n);
    out
}

/// Zeroes every registered counter (registrations are kept).
pub fn reset_metrics() {
    for (_, c) in COUNTERS.lock().expect("telemetry counters").iter() {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install;

    static TEST_COUNTER: Counter = Counter::new();

    #[test]
    fn counters_register_once_and_accumulate() {
        install();
        register_counter("test/registry-counter", &TEST_COUNTER);
        register_counter("test/registry-counter", &TEST_COUNTER);
        let before = TEST_COUNTER.get();
        TEST_COUNTER.add(3);
        TEST_COUNTER.incr();
        assert_eq!(TEST_COUNTER.get(), before + 4);
        let names: Vec<&str> = counter_snapshot().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names
                .iter()
                .filter(|n| **n == "test/registry-counter")
                .count(),
            1
        );
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot is name-sorted");
    }
}
