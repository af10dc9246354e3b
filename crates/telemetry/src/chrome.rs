//! Chrome trace-event JSON export (`chrome://tracing` / Perfetto).
//!
//! Spans become `"ph": "X"` (complete) events on their recording
//! thread's track; registered counters and per-label traffic (folded
//! from the message records, one `net/<label>` sample per label) are
//! appended as `"ph": "C"` (counter) samples so the trace carries the
//! whole observability surface in one file. Virtual-clock readings
//! ride along in `args` (`vts_us` / `vdur_us`): wall time lays the
//! track out, simulated protocol time is one click away.
//!
//! Recorded message deliveries get their own **virtual-time process**
//! per fabric (`pid = 100 + fabric`, one track per party): each message
//! is an `"X"` slice from `depart_us` to `arrival_us` on the sender's
//! track, paired with `"s"`/`"f"` **flow events** keyed by the record
//! sequence number — `chrome://tracing` draws the arrow from the
//! sender's track to the recipient's.
//!
//! A trace holds 10⁵+ events, so they are rendered one per line as they
//! are produced rather than gathered into one [`Json`] tree; every line
//! is still a [`Json`] value, so escaping and numbers follow
//! [`crate::json`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::json_object;
use crate::registry::counter_snapshot;
use crate::{Event, MsgEvent};

/// Renders `events` and `msgs` (plus the current counter snapshot and
/// the per-label traffic of `msgs`) as a Chrome trace-event JSON
/// document.
pub fn chrome_trace_json(events: &[Event], msgs: &[MsgEvent]) -> String {
    // The envelope renders through `Json` too; `traceEvents` sorts last,
    // so the rendering ends in `[]}` and the events go between those
    // brackets, one per line.
    let envelope = json_object! { "displayTimeUnit": "ms", "traceEvents": Json::Arr(Vec::new()) };
    let envelope = envelope.to_string();
    let (head, tail) = envelope.split_at(envelope.len() - "]}".len());
    let mut out = String::from(head);
    let mut separator = "\n";
    let mut push = |event: Json| {
        out.push_str(separator);
        separator = ",\n";
        write!(out, "{event}").expect("writing to a String cannot fail");
    };
    let mut last_ts = 0u64;
    for e in events {
        last_ts = last_ts.max(e.ts_us + e.dur_us);
        let args = [("vts_us", e.vts_us), ("vdur_us", e.vdur_us)];
        let args = args
            .into_iter()
            .filter_map(|(key, v)| Some((key, Json::from(v?))));
        push(json_object! {
            "name": e.name, "cat": e.cat, "ph": "X", "ts": e.ts_us, "dur": e.dur_us,
            "pid": 1u64, "tid": e.tid, "args": Json::obj(args),
        });
    }
    // label → (messages, bytes), label-sorted like `NetStats::per_label`.
    let mut traffic: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for m in msgs {
        // Virtual-time process per fabric, one track per party: the
        // message occupies the sender's track for its flight...
        let pid = 100 + m.fabric;
        let t = traffic.entry(m.label).or_default();
        t.0 += 1;
        t.1 += m.bytes;
        push(json_object! {
            "name": m.label, "cat": "msg", "ph": "X", "ts": m.depart_us,
            "dur": m.arrival_us - m.depart_us, "pid": pid, "tid": m.from,
            "args": json_object! { "bytes": m.bytes, "to": m.to, "seq": m.seq },
        });
        // ...and an s→f flow pair (keyed by the record seq) draws the
        // arrow from the sender's track to the recipient's.
        push(json_object! {
            "name": m.label, "cat": "msg", "ph": "s", "id": m.seq, "ts": m.depart_us,
            "pid": pid, "tid": m.from,
        });
        push(json_object! {
            "name": m.label, "cat": "msg", "ph": "f", "bp": "e", "id": m.seq,
            "ts": m.arrival_us, "pid": pid, "tid": m.to,
        });
    }
    let counter = |name: String, args: Json| {
        json_object! { "name": name, "ph": "C", "ts": last_ts, "pid": 1u64, "args": args }
    };
    for (name, value) in counter_snapshot() {
        push(counter(name.to_string(), json_object! { "value": value }));
    }
    for (label, (messages, bytes)) in traffic {
        let args = json_object! { "messages": messages, "bytes": bytes };
        push(counter(format!("net/{label}"), args));
    }
    out.push('\n');
    out.push_str(tail);
    out.push('\n');
    out
}

/// Writes [`chrome_trace_json`] to `path`.
///
/// # Errors
///
/// File creation or write failures.
pub fn write_chrome_trace<P: AsRef<Path>>(
    path: P,
    events: &[Event],
    msgs: &[MsgEvent],
) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(events, msgs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_events(json: &str) -> Vec<Json> {
        let doc = Json::parse(json).expect("the exporter writes valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        doc.get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array")
            .to_vec()
    }

    fn field(event: &Json, key: &str) -> Option<f64> {
        event.get(key).and_then(Json::as_f64)
    }

    #[test]
    fn renders_complete_events_with_virtual_clock_args() {
        let events = [Event {
            name: "eval",
            cat: "protocol",
            tid: 3,
            ts_us: 10,
            dur_us: 25,
            vts_us: Some(0),
            vdur_us: Some(120),
        }];
        let json = chrome_trace_json(&events, &[]);
        // One event per line between the envelope's brackets.
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines[0], "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        assert!(lines[1].starts_with("{\"args\":{\"vdur_us\":120,\"vts_us\":0}"));
        assert_eq!(*lines.last().expect("closing line"), "]}");
        let span = &trace_events(&json)[0];
        assert_eq!(span.get("name").and_then(Json::as_str), Some("eval"));
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            (field(span, "ts"), field(span, "dur")),
            (Some(10.0), Some(25.0))
        );
        assert_eq!(field(span, "tid"), Some(3.0));
    }

    #[test]
    fn hostile_names_roundtrip_through_the_trace() {
        let events = [Event {
            name: "a\"b\\c\n",
            cat: "{\"x\":1}",
            tid: 0,
            ts_us: 0,
            dur_us: 1,
            vts_us: None,
            vdur_us: None,
        }];
        let json = chrome_trace_json(&events, &[]);
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\\n\""));
        let span = &trace_events(&json)[0];
        assert_eq!(span.get("name").and_then(Json::as_str), Some("a\"b\\c\n"));
        assert_eq!(span.get("cat").and_then(Json::as_str), Some("{\"x\":1}"));
        assert_eq!(
            span.get("args"),
            Some(&Json::obj(Vec::<(String, Json)>::new()))
        );
    }

    #[test]
    fn messages_emit_slices_and_flow_pairs() {
        let msgs = [crate::MsgEvent {
            fabric: 2,
            from: 0,
            to: 3,
            label: "price/agg",
            bytes: 64,
            depart_us: 100,
            arrival_us: 208,
            seq: 7,
        }];
        let events = trace_events(&chrome_trace_json(&[], &msgs));
        let phase = |ph: &str| {
            events
                .iter()
                .find(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .unwrap_or_else(|| panic!("no {ph:?} event"))
        };
        // The flight slice lives on the fabric's virtual-time process.
        let slice = phase("X");
        assert_eq!(slice.get("cat").and_then(Json::as_str), Some("msg"));
        let at = |e: &Json| ["ts", "dur", "pid", "tid"].map(|k| field(e, k).unwrap_or(-1.0));
        assert_eq!(at(slice), [100.0, 108.0, 102.0, 0.0]);
        assert_eq!(slice.get("args").and_then(|a| field(a, "seq")), Some(7.0));
        // One s→f flow pair keyed by the record seq.
        let (s, f) = (phase("s"), phase("f"));
        assert_eq!((field(s, "id"), field(f, "id")), (Some(7.0), Some(7.0)));
        assert_eq!(at(s), [100.0, -1.0, 102.0, 0.0]);
        assert_eq!(at(f), [208.0, -1.0, 102.0, 3.0]);
        assert_eq!(f.get("bp").and_then(Json::as_str), Some("e"));
    }
}
