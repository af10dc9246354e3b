//! Operation-count pin: the `crypto/modpow` ladders of one
//! `PemConfig::paper(512)` window per regime.
//!
//! Every plaintext a protocol decrypts is bounded, and at 512-bit keys
//! the 256-bit p-leg holds each bound with 64 guard bits to spare, so
//! every decryption is one half-width ladder on that leg:
//!
//! * Protocol 2: the two masked totals (below `2^128`), one ladder each;
//! * Protocol 3, general market only: `Σk` (below `2^128`) and `Σd` (a
//!   signed 127-bit value), one ladder each;
//! * Protocol 4: the `r` ratios of the ratio side, packed
//!   `slots_per_pack(98)` to a decryption — one slot per pack on a
//!   256-bit leg, so `r` ladders.
//!
//! The only other ladders in a window are Protocol 4's `r` ratio
//! requests, `Enc(E)^{round(K/|sn|)}`, one exponentiation each. Key
//! generation runs in `Pem::new`, outside the counted window, and the
//! comparison's OT runs on edwards25519, which runs no ladder.
//!
//! One `#[test]`: the collector and its counters are process global.

use pem_core::{Pem, PemConfig, PemWindowOutcome};
use pem_market::{AgentWindow, MarketKind};
use pem_telemetry as telemetry;

fn ladders() -> u64 {
    telemetry::counter_snapshot()
        .iter()
        .find(|(n, _)| *n == "crypto/modpow")
        .map(|(_, v)| *v)
        .expect("crypto/modpow is registered")
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

/// Runs one `paper(512)` window and returns it with the ladders it
/// counted.
fn counted_window(surpluses: &[f64]) -> (PemWindowOutcome, u64) {
    let data = window_data(surpluses);
    let mut pem = Pem::new(PemConfig::paper(512), data.len()).expect("setup");
    let before = ladders();
    let out = pem.run_window(&data).expect("window");
    (out, ladders() - before)
}

#[test]
fn a_paper_512_window_runs_one_ladder_per_bounded_decryption() {
    assert!(telemetry::install());

    // General: E_s = 6 < E_b = 12; the three sellers price, the five
    // buyers are the ratio side.
    let (general, count) = counted_window(&[3.0, 2.0, 1.0, -4.0, -3.0, -2.0, -2.0, -1.0]);
    assert_eq!(general.kind, MarketKind::General);
    assert_eq!(count, closed_form(true, 5), "general window");
    assert_eq!(count, 14);

    // Extreme: E_s = 12 ≥ E_b = 6; the price is the band's, so Protocol
    // 3 never runs, and the five sellers are the ratio side.
    let (extreme, count) = counted_window(&[4.0, 3.0, 2.0, 2.0, 1.0, -3.0, -2.0, -1.0]);
    assert_eq!(extreme.kind, MarketKind::Extreme);
    assert_eq!(count, closed_form(false, 5), "extreme window");
    assert_eq!(count, 12);
    telemetry::uninstall();
}

/// Ladders in a `paper(512)` window whose Protocol 4 ratio side has
/// `r` members; `priced` is whether Protocol 3 runs (a general market).
fn closed_form(priced: bool, r: u64) -> u64 {
    let protocol2 = 2;
    let protocol3 = if priced { 2 } else { 0 };
    let protocol4 = r + r;
    protocol2 + protocol3 + protocol4
}
