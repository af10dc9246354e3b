//! Operation-count pin: every ciphertext a party receives is validated
//! exactly once, and nothing else is.
//!
//! `PublicKey::validate_ciphertext` counts on `crypto/validations`. In a
//! trading window the received ciphertexts are the fold frames of
//! Protocols 2–4 (one message per member, `K` ciphertexts each) plus
//! Protocol 4's total broadcast and ratio requests, so the count follows
//! from the window's per-label message counts and, in closed form, from
//! its coalition sizes:
//!
//! * Protocol 2: `m − 1` per ring (everyone but the collector), two rings;
//! * Protocol 3: 2 per seller (the `(k, d)` pair folded toward `H_b`),
//!   in a general market only — an extreme market takes the band's price;
//! * Protocol 4: the total fold (`r − 1` hops of the ratio side's ring),
//!   the total broadcast (`r − 1`) and the ratio requests (`r`).
//!
//! One `#[test]`: the collector and its counters are process global.

use pem_core::{Pem, PemConfig, PemWindowOutcome};
use pem_market::{AgentWindow, MarketKind};
use pem_telemetry as telemetry;

fn validations() -> u64 {
    telemetry::counter_snapshot()
        .iter()
        .find(|(n, _)| *n == "crypto/validations")
        .map(|(_, v)| *v)
        .expect("crypto/validations is registered")
}

/// Agents with the given net surpluses (sellers generate, buyers load).
fn window_data(surpluses: &[f64]) -> Vec<AgentWindow> {
    surpluses
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            if s >= 0.0 {
                AgentWindow::new(i, s, 0.0, 0.0, 0.9, 25.0)
            } else {
                AgentWindow::new(i, 0.0, -s, 0.0, 0.9, 25.0)
            }
        })
        .collect()
}

/// Runs one window and returns it with the validations it counted.
fn counted_window(surpluses: &[f64]) -> (PemWindowOutcome, u64) {
    let data = window_data(surpluses);
    let mut pem = Pem::new(PemConfig::fast_test(), data.len()).expect("setup");
    let before = validations();
    let out = pem.run_window(&data).expect("window");
    (out, validations() - before)
}

/// Received ciphertexts by label: `K` per fold frame, one per
/// broadcast or request.
fn received_ciphertexts(out: &PemWindowOutcome) -> u64 {
    let messages = |label: &str| out.net.per_label.get(label).map_or(0, |s| s.messages);
    messages("eval/demand-agg")
        + messages("eval/supply-agg")
        + 2 * messages("price/agg")
        + messages("dist/total-agg")
        + messages("dist/total-bcast")
        + messages("dist/ratio-req")
}

#[test]
fn every_received_ciphertext_is_validated_once() {
    assert!(telemetry::install());
    // Warm the counter's registration outside the measured windows.
    let _ = counted_window(&[1.0, -2.0]);

    // General: E_s = 3 < E_b = 7; two sellers price, the two buyers
    // are the ratio side.
    let (general, count) = counted_window(&[2.0, 1.0, -4.0, -3.0]);
    assert_eq!(general.kind, MarketKind::General);
    assert_eq!(received_ciphertexts(&general), closed_form(4, 2, 2));
    assert_eq!(count, closed_form(4, 2, 2), "general window");

    // Extreme: E_s = 9 ≥ E_b = 3; the price is the band's, so Protocol 3
    // never runs, and the three sellers are the ratio side.
    let (extreme, count) = counted_window(&[5.0, 3.0, 1.0, -1.0, -2.0]);
    assert_eq!(extreme.kind, MarketKind::Extreme);
    assert_eq!(received_ciphertexts(&extreme), closed_form(5, 0, 3));
    assert_eq!(count, closed_form(5, 0, 3), "extreme window");
    telemetry::uninstall();
}

/// Validations in a window of `m` agents where `pricing_sellers` run
/// Protocol 3 and `r` agents make up Protocol 4's ratio side.
fn closed_form(m: u64, pricing_sellers: u64, r: u64) -> u64 {
    let protocol2 = 2 * (m - 1);
    let protocol3 = 2 * pricing_sellers;
    let protocol4 = (r - 1) + (r - 1) + r;
    protocol2 + protocol3 + protocol4
}
