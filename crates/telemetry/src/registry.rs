//! The metrics registry: named counters, histograms and per-label
//! traffic mirrors.
//!
//! Instrumented crates hold `static` [`Counter`]s / `LogHistogram`s
//! (both `const`-constructible) and register them once by name —
//! typically behind a `std::sync::Once` at a construction site, never
//! on the hot path. Increments are one relaxed atomic load (the
//! collector gate) plus, when enabled, one atomic add: no allocation
//! after registration.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::enabled;
use crate::hist::{HistogramSnapshot, LogHistogram};

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

/// Registered histograms (name → static).
static HISTOGRAMS: Mutex<Vec<(&'static str, &'static LogHistogram)>> = Mutex::new(Vec::new());

/// Per-label traffic counters mirrored from the network fabrics.
static TRAFFIC: Mutex<BTreeMap<String, LabelTraffic>> = Mutex::new(BTreeMap::new());

/// Traffic totals for one wire label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelTraffic {
    /// Messages carried.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

/// Registers `counter` under `name`. Idempotent per name: re-registering
/// an already-known name is a no-op, so callers can gate registration
/// with a `Once` per construction site without coordinating globally.
pub fn register_counter(name: &'static str, counter: &'static Counter) {
    let mut counters = COUNTERS.lock().expect("telemetry counters");
    if counters.iter().all(|(n, _)| *n != name) {
        counters.push((name, counter));
    }
}

/// Registers `histogram` under `name` (idempotent per name).
pub fn register_histogram(name: &'static str, histogram: &'static LogHistogram) {
    let mut hists = HISTOGRAMS.lock().expect("telemetry histograms");
    if hists.iter().all(|(n, _)| *n != name) {
        hists.push((name, histogram));
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

/// Snapshot of every registered histogram, sorted by name.
pub fn histogram_snapshot() -> Vec<(&'static str, HistogramSnapshot)> {
    let mut out: Vec<(&'static str, HistogramSnapshot)> = HISTOGRAMS
        .lock()
        .expect("telemetry histograms")
        .iter()
        .map(|(n, h)| (*n, h.snapshot()))
        .collect();
    out.sort_unstable_by_key(|(n, _)| *n);
    out
}

/// Mirrors one delivered message into the per-label traffic table — a
/// no-op while the collector is off. Called by `pem-net`'s stats
/// recorder on every send, so every fabric instance feeds the same table.
pub fn record_traffic(label: &str, bytes: u64) {
    if !enabled() {
        return;
    }
    let mut traffic = TRAFFIC.lock().expect("telemetry traffic");
    // One allocation per *new* label; labels are a small fixed protocol
    // vocabulary, so steady state never allocates.
    let e = traffic.entry(label.to_string()).or_default();
    e.messages += 1;
    e.bytes += bytes;
}

/// The per-label traffic table, sorted by label.
pub fn traffic_snapshot() -> Vec<(String, LabelTraffic)> {
    TRAFFIC
        .lock()
        .expect("telemetry traffic")
        .iter()
        .map(|(l, t)| (l.clone(), *t))
        .collect()
}

/// Zeroes every registered counter and histogram and clears the traffic
/// table (registrations are kept).
pub fn reset_metrics() {
    for (_, c) in COUNTERS.lock().expect("telemetry counters").iter() {
        c.reset();
    }
    for (_, h) in HISTOGRAMS.lock().expect("telemetry histograms").iter() {
        h.reset();
    }
    TRAFFIC.lock().expect("telemetry traffic").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install;

    static TEST_COUNTER: Counter = Counter::new();
    static TEST_HIST: LogHistogram = LogHistogram::new();

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

    #[test]
    fn histograms_register_and_snapshot() {
        install();
        register_histogram("test/registry-hist", &TEST_HIST);
        TEST_HIST.record(40);
        TEST_HIST.record(41);
        let snap = histogram_snapshot();
        let (_, h) = snap
            .iter()
            .find(|(n, _)| *n == "test/registry-hist")
            .expect("registered");
        assert!(h.count() >= 2);
    }

    #[test]
    fn traffic_mirrors_labels() {
        install();
        record_traffic("test/traffic-label", 100);
        record_traffic("test/traffic-label", 50);
        let snap = traffic_snapshot();
        let (_, t) = snap
            .iter()
            .find(|(l, _)| l == "test/traffic-label")
            .expect("label present");
        assert!(t.messages >= 2);
        assert!(t.bytes >= 150);
    }
}
