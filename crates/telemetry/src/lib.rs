//! # pem-telemetry — tracing and metrics for the PEM stack
//!
//! One observability surface for the whole workspace:
//!
//! * **Spans** ([`Span`]) — guard-based, zero-allocation on the hot
//!   path, compiled down to one relaxed atomic load when no collector
//!   is installed. A span records wall-clock elapsed time and,
//!   optionally, the transport's **critical-path virtual clock**
//!   (`Transport::now_us`, passed in as a plain `u64` so this crate
//!   stays at the bottom of the dependency stack): a trace shows
//!   *simulated* protocol time next to *real* compute time.
//! * **Message journal** ([`MsgEvent`], [`record_msg`]) — one record
//!   per send on the transport's virtual clock: sender, recipient,
//!   label, bytes, departure and arrival.
//! * **Metrics registry** ([`Counter`]) — named operation counters.
//!   Instrumented crates hold `static` instances (`const`-constructed,
//!   so no allocation ever happens on the increment path) and register
//!   them once by name; snapshots are pulled by exporters.
//! * **Exporters** — a Chrome trace-event JSON writer
//!   ([`write_chrome_trace`], loadable in `chrome://tracing` or
//!   Perfetto; its per-label `net/<label>` traffic counters are folded
//!   from the message journal) and a flat per-phase [`ProfileSummary`]
//!   table folded into grid reports.
//! * **[`json`]** — the one JSON value type every artifact in the
//!   workspace is rendered and parsed through: grid reports, the Chrome
//!   trace, bench runs and `grid_doctor`'s verdict.
//!
//! Each observation has one recorder: spans record time, message
//! records record flights, counters record operation counts. Traffic
//! totals per label are `pem-net`'s `NetStats`, not a table here.
//!
//! ## Observation only
//!
//! Telemetry never participates in a protocol: spans and counters read
//! clocks and bump atomics, nothing more. With the collector off, every
//! entry point is a no-op and instrumented code behaves — bit for bit —
//! as if this crate did not exist; with it on, only the *collected*
//! data changes, never a protocol output.
//!
//! ## Usage
//!
//! ```
//! use pem_telemetry as telemetry;
//!
//! telemetry::install();
//! {
//!     // A span covering a protocol phase, with the fabric's virtual
//!     // clock sampled at both ends (here: a fabric-less 0..=42µs).
//!     let span = telemetry::Span::enter_at("eval", "protocol", 0);
//!     // ... the phase runs ...
//!     span.finish_at(42);
//! }
//! let events = telemetry::drain();
//! assert_eq!(events[0].name, "eval");
//! assert_eq!(events[0].vdur_us, Some(42));
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod causal;
mod chrome;
pub mod json;
mod profile;
mod registry;
mod span;

pub use causal::{CriticalPathReport, PathHop};
pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use profile::{ProfileRow, ProfileSummary};
pub use registry::{counter_snapshot, register_counter, reset_metrics, Counter};
pub use span::Span;

/// One completed span, as pushed by a [`Span`] guard on drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name (a phase or sub-phase, e.g. `"eval/demand-agg"`).
    pub name: &'static str,
    /// Category (e.g. `"protocol"`, `"driver"`, `"coupling"`).
    pub cat: &'static str,
    /// Collector-assigned thread id (stable per OS thread).
    pub tid: u64,
    /// Wall-clock start, µs since the collector epoch.
    pub ts_us: u64,
    /// Wall-clock duration, µs.
    pub dur_us: u64,
    /// Virtual-clock start (`Transport::now_us` at entry), if sampled.
    pub vts_us: Option<u64>,
    /// Virtual-clock duration, if sampled at both ends.
    pub vdur_us: Option<u64>,
}

/// One message delivery, as recorded by a transport through
/// [`record_msg`]. Timestamps are on the transport's **virtual
/// critical-path clock** (`Transport::now_us` semantics): `depart_us`
/// is the sender's local virtual time at send, `arrival_us` the
/// modelled delivery time after propagation and ingress serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgEvent {
    /// Transport-instance id (`Transport::fabric_id` in `pem-net`):
    /// scopes events when several fabrics record concurrently into the
    /// one process-global buffer. `0` means unattributed.
    pub fabric: u64,
    /// Sending party index (fabric-local).
    pub from: usize,
    /// Receiving party index (fabric-local).
    pub to: usize,
    /// Protocol message label (e.g. `"eval/supply-agg"`).
    pub label: &'static str,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Sender's virtual clock at send, µs.
    pub depart_us: u64,
    /// Modelled virtual delivery time, µs.
    pub arrival_us: u64,
    /// Global record sequence number: strictly increasing in buffer
    /// order across all fabrics (assigned under the buffer lock).
    pub seq: u64,
}

/// Collector master switch. All hot-path gating is a single relaxed
/// load of this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Completed spans, in completion order.
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Recorded message deliveries, in record order.
static MSGS: Mutex<Vec<MsgEvent>> = Mutex::new(Vec::new());

/// Next message sequence number. Only read/written while holding the
/// [`MSGS`] lock, so `seq` order always matches buffer order.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Wall-clock epoch: fixed the first time the collector is installed.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Next collector thread id.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's collector id (assigned on first use).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Installs the global collector: spans and message records start
/// recording, counters start counting. Idempotent; returns `true` if
/// the collector was newly installed.
pub fn install() -> bool {
    let _ = EPOCH.get_or_init(Instant::now);
    !ENABLED.swap(true, Ordering::SeqCst)
}

/// Disables the collector and discards all buffered events and message
/// records. Counters keep their accumulated values (use
/// [`reset_metrics`] to zero them).
///
/// Watermarks taken before `uninstall` (via [`event_count`] /
/// [`msg_count`]) go stale: the buffers restart from zero, so a stale
/// watermark handed to [`events_since`] / [`msgs_since`] simply yields
/// an empty slice until the buffer grows past it again.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    EVENTS.lock().expect("telemetry events").clear();
    MSGS.lock().expect("telemetry msgs").clear();
}

/// Whether the collector is installed.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes every buffered event, leaving the buffer empty.
pub fn drain() -> Vec<Event> {
    std::mem::take(&mut *EVENTS.lock().expect("telemetry events"))
}

/// Number of events buffered so far — a watermark for scoping a later
/// [`events_since`] to one unit of work (e.g. a grid window).
pub fn event_count() -> usize {
    EVENTS.lock().expect("telemetry events").len()
}

/// Clones the events buffered at or after `watermark` (an earlier
/// [`event_count`] reading) without draining them.
///
/// ## Watermark semantics
///
/// A watermark is a plain buffer length, so it is only meaningful
/// against the buffer it was taken from:
///
/// * **Concurrent recording** is fine — events pushed between the
///   [`event_count`] call and this one are included (the buffer is
///   append-only between drains).
/// * **[`drain`] invalidates watermarks**: it empties the buffer, so a
///   pre-drain watermark now points past the end and this returns an
///   empty vector (never a panic, never someone else's events) until
///   the buffer grows past the stale mark again. Scope holders must
///   read their slice before anything drains — in the grid driver,
///   windows only ever *read* (`events_since`), and the one `drain`
///   happens after the day completes.
/// * **[`uninstall`] clears the buffer** the same way; see its docs.
pub fn events_since(watermark: usize) -> Vec<Event> {
    let events = EVENTS.lock().expect("telemetry events");
    events.get(watermark..).unwrap_or_default().to_vec()
}

/// Records one message delivery on the virtual clock. Called by
/// `pem-net`'s send pipeline on every send (before fault processing, so
/// a dropped message is still recorded); a no-op (one relaxed atomic
/// load) when no collector is installed.
#[inline]
pub fn record_msg(
    fabric: u64,
    from: usize,
    to: usize,
    label: &'static str,
    bytes: u64,
    depart_us: u64,
    arrival_us: u64,
) {
    if !enabled() {
        return;
    }
    let mut msgs = MSGS.lock().expect("telemetry msgs");
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    msgs.push(MsgEvent {
        fabric,
        from,
        to,
        label,
        bytes,
        depart_us,
        arrival_us,
        seq,
    });
}

/// Takes every buffered message record, leaving the buffer empty.
pub fn drain_msgs() -> Vec<MsgEvent> {
    std::mem::take(&mut *MSGS.lock().expect("telemetry msgs"))
}

/// Number of message records buffered so far — a watermark for
/// [`msgs_since`], with the same semantics as [`event_count`] /
/// [`events_since`].
pub fn msg_count() -> usize {
    MSGS.lock().expect("telemetry msgs").len()
}

/// Clones the message records buffered at or after `watermark` (an
/// earlier [`msg_count`] reading) without draining them. Stale
/// watermarks (after [`drain_msgs`] or [`uninstall`]) yield an empty
/// vector; see [`events_since`] for the full watermark contract.
pub fn msgs_since(watermark: usize) -> Vec<MsgEvent> {
    let msgs = MSGS.lock().expect("telemetry msgs");
    msgs.get(watermark..).unwrap_or_default().to_vec()
}

/// Microseconds since the collector epoch.
fn epoch_us(at: Instant) -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    at.saturating_duration_since(*epoch).as_micros() as u64
}

/// Pushes a completed span event (called from [`Span`]'s drop).
fn push_event(event: Event) {
    EVENTS.lock().expect("telemetry events").push(event);
}

/// This thread's collector id.
fn current_tid() -> u64 {
    TID.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Collector state is process-global and unit tests share one
    // process, so every test here installs (never uninstalls), tags its
    // spans with a unique name, and asserts over `events_since(0)`
    // rather than draining.

    fn my_events(name: &str) -> Vec<Event> {
        events_since(0)
            .into_iter()
            .filter(|e| e.name == name)
            .collect()
    }

    #[test]
    fn span_records_wall_and_virtual_clock() {
        install();
        {
            let span = Span::enter_at("test/both-clocks", "test", 100);
            std::thread::sleep(std::time::Duration::from_millis(2));
            span.finish_at(350);
        }
        let events = my_events("test/both-clocks");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.cat, "test");
        assert!(e.dur_us >= 1_000, "slept 2ms, recorded {}µs", e.dur_us);
        assert_eq!(e.vts_us, Some(100));
        assert_eq!(e.vdur_us, Some(250));
    }

    #[test]
    fn span_without_virtual_clock() {
        install();
        Span::enter("test/wall-only", "test").finish();
        let events = my_events("test/wall-only");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].vts_us, None);
        assert_eq!(events[0].vdur_us, None);
    }

    #[test]
    fn early_drop_keeps_wall_clock_only_duration() {
        install();
        {
            // An error path: the guard drops before `finish_at`.
            let _span = Span::enter_at("test/early-drop", "test", 7);
        }
        let events = my_events("test/early-drop");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].vts_us, Some(7));
        assert_eq!(events[0].vdur_us, None, "virtual end never sampled");
    }

    #[test]
    fn watermark_scopes_events() {
        install();
        Span::enter("test/watermark-a", "test").finish();
        let mark = event_count();
        Span::enter("test/watermark-b", "test").finish();
        let since = events_since(mark);
        assert!(since.iter().any(|e| e.name == "test/watermark-b"));
        assert!(since.iter().all(|e| e.name != "test/watermark-a"));
        // A stale (too-large) watermark is harmless.
        assert!(events_since(usize::MAX).is_empty());
    }

    #[test]
    fn spans_record_their_thread() {
        install();
        let handle = std::thread::spawn(|| {
            Span::enter("test/other-thread", "test").finish();
            current_tid()
        });
        let other = handle.join().expect("thread");
        Span::enter("test/this-thread", "test").finish();
        let a = my_events("test/other-thread");
        let b = my_events("test/this-thread");
        assert_eq!(a[0].tid, other);
        assert_ne!(a[0].tid, b[0].tid);
    }
}
