//! The layer budget: where a traced grid window's wall time went.
//!
//! Built from the spans `pem::telemetry` already records plus one span
//! the benchmark puts around each `GridOrchestrator::run_window` call
//! ([`GRID_WINDOW`]). Per grid window the *blocking lane* is the main
//! thread plus the busiest worker thread; every microsecond of it goes
//! to exactly one row, so the rows sum to the window's wall time.

use std::collections::BTreeMap;

use pem::telemetry::Event;

/// The benchmark's own span around one `run_window` call.
pub const GRID_WINDOW: &str = "grid/window";

/// Self time per span name among `events` of ONE thread.
///
/// A span's self time is its duration minus what its children cover.
/// The fabric engine interleaves coalition tasks on one thread, so its
/// spans overlap without nesting; the general rule used here — each
/// instant belongs to the most recently started span still open — is the
/// classic self time when spans nest, and stays exact for the spans that
/// start and end inside one poll (the comparison, pricing, distribution:
/// all the expensive ones).
pub fn self_times(events: &[&Event]) -> BTreeMap<&'static str, u64> {
    // (time, is_start, index); ends sort before starts at equal times.
    let mut edges: Vec<(u64, bool, usize)> = Vec::with_capacity(events.len() * 2);
    // Zero-length spans cover no time (and their end would sort before
    // their start).
    for (i, e) in events.iter().enumerate().filter(|(_, e)| e.dur_us > 0) {
        edges.push((e.ts_us, true, i));
        edges.push((e.ts_us + e.dur_us, false, i));
    }
    edges.sort_unstable();
    let mut open: Vec<usize> = Vec::new();
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut last = 0u64;
    for (t, is_start, i) in edges {
        // `open` is ordered by start time, so its last entry is the
        // most recently started span.
        if let Some(&top) = open.last() {
            *out.entry(events[top].name).or_default() += t - last;
        }
        last = t;
        if is_start {
            open.push(i);
        } else if let Some(pos) = open.iter().rposition(|&o| o == i) {
            open.remove(pos);
        }
    }
    out
}

/// The budget of a traced pass, in microseconds summed over its grid
/// windows (divide by `windows` for per-window rows).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Budget {
    pub windows: u64,
    /// Wall time of the `grid/window` spans.
    pub wall_us: u64,
    /// Blocking-lane self time per budget row.
    pub rows: BTreeMap<&'static str, u64>,
    /// Self time on *every* lane: the comparison, and all protocol spans.
    pub compare_all_lanes_us: u64,
    pub busy_all_lanes_us: u64,
}

/// The budget row a span's self time is booked under; `None` for spans
/// the budget does not know (they stay in the remainder). A phase's
/// driver span (`window/price`) goes with its phase: the pricing machine
/// encrypts at construction, before its first `price/*` span opens.
pub fn row_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "window" => "driver",
        "eval/compare" => "eval_compare",
        "window/eval" | "eval" | "eval/demand-agg" | "eval/supply-agg" => "eval_agg",
        "window/pool-refill" | "pool/refill" => "pool_refill",
        "window/price" => "price",
        "window/dist" => "dist",
        s if s.starts_with("price/") || s.starts_with("vprice/") => "price",
        s if s.starts_with("dist/") => "dist",
        s if s.starts_with("couple/") => "coupling",
        _ => return None,
    })
}

impl Budget {
    pub fn from_events(events: &[Event]) -> Budget {
        let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
        for e in events {
            by_tid.entry(e.tid).or_default().push(e);
        }
        let mut budget = Budget::default();
        let Some(main_tid) = events.iter().find(|e| e.name == GRID_WINDOW).map(|e| e.tid) else {
            return budget;
        };
        let main = &by_tid[&main_tid];
        for g in main.iter().filter(|e| e.name == GRID_WINDOW) {
            let inside = |e: &&Event| e.ts_us >= g.ts_us && e.ts_us <= g.ts_us + g.dur_us;
            budget.windows += 1;
            budget.wall_us += g.dur_us;
            let main_lane: Vec<&Event> = main.iter().copied().filter(inside).collect();
            let mut lanes = vec![self_times(&main_lane)];
            // Worker threads are scoped to one `run_window` call, so a
            // worker belongs to the window its first span starts in.
            let workers: Vec<_> = by_tid
                .iter()
                .filter(|(tid, evs)| **tid != main_tid && evs.first().is_some_and(inside))
                .map(|(_, evs)| self_times(evs))
                .collect();
            for lane in lanes.iter().chain(&workers) {
                for (name, us) in lane {
                    if row_of(name).is_some_and(|r| r != "coupling") {
                        budget.busy_all_lanes_us += us;
                    }
                    if *name == "eval/compare" {
                        budget.compare_all_lanes_us += us;
                    }
                }
            }
            lanes.extend(workers.into_iter().max_by_key(|w| w.values().sum::<u64>()));
            for (name, us) in lanes.iter().flatten() {
                if let Some(row) = row_of(name) {
                    *budget.rows.entry(row).or_default() += us;
                }
            }
        }
        budget
    }

    /// Blocking-lane time no known span covers: dispatch, joins, the
    /// ledger, report folding — and whatever nobody has named yet.
    pub fn remainder_us(&self) -> u64 {
        self.wall_us.saturating_sub(self.rows.values().sum())
    }

    /// Mean milliseconds per grid window of `row`.
    pub fn row_ms(&self, row: &str) -> f64 {
        self.per_window_ms(self.rows.get(row).copied().unwrap_or(0))
    }

    pub fn per_window_ms(&self, us: u64) -> f64 {
        us as f64 / 1e3 / self.windows.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, ts_us: u64, dur_us: u64) -> Event {
        Event {
            name,
            cat: "test",
            tid,
            ts_us,
            dur_us,
            vts_us: None,
            vdur_us: None,
        }
    }

    #[test]
    fn nested_spans_give_classic_self_time() {
        let events = [
            ev("window", 1, 0, 100),
            ev("window/eval", 1, 10, 60),
            ev("eval/compare", 1, 20, 40),
            ev("window/dist", 1, 80, 15),
            ev("price/broadcast", 1, 50, 0),
        ];
        let refs: Vec<&Event> = events.iter().collect();
        let t = self_times(&refs);
        assert_eq!(t["window"], 25);
        assert_eq!(t["window/eval"], 20);
        assert_eq!(t["eval/compare"], 40);
        assert_eq!(t["window/dist"], 15);
        assert!(!t.contains_key("price/broadcast"), "zero-length span");
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn interleaved_spans_keep_inline_leaves_exact() {
        // Two fabric tasks interleaved on one thread: their `window`
        // spans overlap, each compare runs inside one poll.
        let events = [
            ev("window", 1, 0, 90),
            ev("window", 1, 5, 95),
            ev("eval/compare", 1, 10, 30),
            ev("eval/compare", 1, 50, 30),
        ];
        let refs: Vec<&Event> = events.iter().collect();
        let t = self_times(&refs);
        assert_eq!(t["eval/compare"], 60);
        assert_eq!(t["window"], 40);
    }

    #[test]
    fn rows_and_remainder_sum_to_the_wall() {
        let events = [
            // Window 1: main thread waits on two workers, then couples.
            ev(GRID_WINDOW, 0, 1_000, 1_000),
            ev("window", 7, 1_010, 800),
            ev("eval/compare", 7, 1_020, 700),
            ev("window", 8, 1_010, 500),
            ev("eval/compare", 8, 1_020, 450),
            ev("couple/round", 0, 1_850, 100),
            // Window 2: the fabric way, everything on the main thread.
            ev(GRID_WINDOW, 0, 3_000, 400),
            ev("window", 0, 3_010, 300),
            ev("eval/compare", 0, 3_050, 200),
            ev("unknown/span", 0, 3_320, 50),
        ];
        let b = Budget::from_events(&events);
        assert_eq!(b.windows, 2);
        assert_eq!(b.wall_us, 1_400);
        // Busiest worker (tid 7) only, plus both main-thread lanes.
        assert_eq!(b.rows["eval_compare"], 700 + 200);
        assert_eq!(b.rows["driver"], 100 + 100);
        assert_eq!(b.rows["coupling"], 100);
        assert_eq!(b.remainder_us(), 1_400 - 1_200);
        assert_eq!(b.compare_all_lanes_us, 700 + 450 + 200);
        assert_eq!(b.busy_all_lanes_us, 800 + 500 + 300);
        assert!((b.row_ms("eval_compare") - 0.45).abs() < 1e-12);
        assert_eq!(b.row_ms("price"), 0.0);
    }

    #[test]
    fn no_grid_window_no_budget() {
        assert_eq!(
            Budget::from_events(&[ev("window", 1, 0, 10)]),
            Budget::default()
        );
    }
}
