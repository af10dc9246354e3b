//! The Chrome trace exporter must emit *valid JSON* even for hostile
//! span/message labels — proven by parsing its output back with the
//! strict parser in `pem_telemetry::json` and checking the event shapes
//! (X slices, s→f flow pairs) survive the roundtrip.

use pem_bench::json::Json;
use pem_telemetry::{chrome_trace_json, Event, MsgEvent};

/// Labels are `&'static str`, so the hostile cases are literals:
/// quotes, backslashes, raw control characters and non-ASCII.
const HOSTILE: [&str; 4] = [
    "quote\"backslash\\",
    "control\nchars\ttoo\u{1}",
    "unicode µs → 𝄞",
    "{\"looks\":\"like json\"}",
];

fn events() -> Vec<Event> {
    HOSTILE
        .iter()
        .enumerate()
        .map(|(i, label)| Event {
            name: label,
            cat: HOSTILE[(i + 1) % HOSTILE.len()],
            tid: i as u64,
            ts_us: 10 * i as u64,
            dur_us: 5,
            vts_us: Some(i as u64),
            vdur_us: None,
        })
        .collect()
}

/// One message per hostile label, plus a second on the first label so
/// the per-label traffic counters have something to sum.
fn msgs() -> Vec<MsgEvent> {
    HOSTILE
        .iter()
        .chain(&HOSTILE[..1])
        .enumerate()
        .map(|(i, label)| MsgEvent {
            fabric: 3,
            from: i % HOSTILE.len(),
            to: (i + 1) % HOSTILE.len(),
            label,
            bytes: 100 + i as u64,
            depart_us: 50 * i as u64,
            arrival_us: 50 * i as u64 + 42,
            seq: 1000 + i as u64,
        })
        .collect()
}

fn trace_events(doc: &Json) -> &[Json] {
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
}

#[test]
fn hostile_labels_roundtrip_through_the_parser() {
    let json = chrome_trace_json(&events(), &msgs());
    let doc = Json::parse(&json).expect("exporter output must be valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let evs = trace_events(&doc);
    // Every hostile label comes back verbatim after unescaping.
    for label in HOSTILE {
        assert!(
            evs.iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(label)),
            "label {label:?} lost in the roundtrip"
        );
    }
    // Span slices keep their wall-clock layout and virtual args.
    let span = evs
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some(HOSTILE[1])
                && e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("pid").and_then(Json::as_f64) == Some(1.0)
        })
        .expect("span slice present");
    assert_eq!(span.get("ts").and_then(Json::as_f64), Some(10.0));
    assert_eq!(
        span.get("args")
            .and_then(|a| a.get("vts_us"))
            .and_then(Json::as_f64),
        Some(1.0)
    );
}

#[test]
fn flow_pairs_share_an_id_and_bracket_the_flight() {
    let msgs = msgs();
    let json = chrome_trace_json(&[], &msgs);
    let doc = Json::parse(&json).expect("valid JSON");
    let evs = trace_events(&doc);
    for m in &msgs {
        let of_phase = |ph: &str| {
            evs.iter()
                .find(|e| {
                    e.get("ph").and_then(Json::as_str) == Some(ph)
                        && e.get("id").and_then(Json::as_f64) == Some(m.seq as f64)
                })
                .unwrap_or_else(|| panic!("missing {ph:?} event for seq {}", m.seq))
        };
        // The X slice sits on the sender's track of the fabric process.
        let slice = evs
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("args")
                        .and_then(|a| a.get("seq"))
                        .and_then(Json::as_f64)
                        == Some(m.seq as f64)
            })
            .expect("flight slice present");
        assert_eq!(
            slice.get("pid").and_then(Json::as_f64),
            Some(f64::from(100 + m.fabric as u32))
        );
        assert_eq!(slice.get("tid").and_then(Json::as_f64), Some(m.from as f64));
        assert_eq!(
            slice.get("dur").and_then(Json::as_f64),
            Some((m.arrival_us - m.depart_us) as f64)
        );
        // s at depart on the sender, f at arrival on the recipient.
        let s = of_phase("s");
        let f = of_phase("f");
        assert_eq!(s.get("ts").and_then(Json::as_f64), Some(m.depart_us as f64));
        assert_eq!(s.get("tid").and_then(Json::as_f64), Some(m.from as f64));
        assert_eq!(
            f.get("ts").and_then(Json::as_f64),
            Some(m.arrival_us as f64)
        );
        assert_eq!(f.get("tid").and_then(Json::as_f64), Some(m.to as f64));
        assert_eq!(f.get("bp").and_then(Json::as_str), Some("e"));
    }
    // One `net/<label>` counter sample per distinct label, summing that
    // label's messages and bytes over the records handed in.
    let traffic: Vec<&Json> = evs
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("C")
                && e.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("net/"))
        })
        .collect();
    assert_eq!(traffic.len(), HOSTILE.len());
    for label in HOSTILE {
        let name = format!("net/{label}");
        let sample = traffic
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name.as_str()))
            .unwrap_or_else(|| panic!("no traffic counter for {label:?}"));
        let of_label = msgs.iter().filter(|m| m.label == label);
        let arg = |key: &str| {
            sample
                .get("args")
                .and_then(|a| a.get(key))
                .and_then(Json::as_f64)
        };
        assert_eq!(arg("messages"), Some(of_label.clone().count() as f64));
        assert_eq!(
            arg("bytes"),
            Some(of_label.map(|m| m.bytes).sum::<u64>() as f64)
        );
    }
}
