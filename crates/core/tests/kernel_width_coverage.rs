//! Regression guard: every modular multiplication of a trading window
//! runs on a monomorphised Montgomery kernel.
//!
//! `pem_bignum::Montgomery` specialises its kernel for the limb counts
//! the protocols produce and counts calls at any other width in
//! `bignum/dyn_width_ops`. A key size or OT group that falls off that
//! list still computes the right answer — 1.2–1.7× slower — so this
//! pins the counter at zero for set-up plus a window at the test
//! profile and at the paper's 1024-bit profile.
//!
//! ONE `#[test]`: the telemetry collector and its counters are process
//! global.

use pem_core::{Pem, PemConfig};
use pem_market::AgentWindow;
use pem_telemetry as telemetry;

fn dyn_width_ops() -> u64 {
    telemetry::counter_snapshot()
        .iter()
        .find(|(n, _)| *n == "bignum/dyn_width_ops")
        .map(|(_, v)| *v)
        .expect("bignum/dyn_width_ops is registered")
}

#[test]
fn trading_windows_stay_on_the_specialised_widths() {
    assert!(telemetry::install());
    let data = vec![
        AgentWindow::new(0, 3.0, 0.5, 0.0, 0.9, 25.0),
        AgentWindow::new(1, 2.0, 0.5, 0.0, 0.9, 30.0),
        AgentWindow::new(2, 0.0, 4.0, 0.0, 0.9, 22.0),
        AgentWindow::new(3, 0.0, 5.0, 0.0, 0.9, 28.0),
    ];
    for (name, cfg) in [
        ("fast_test", PemConfig::fast_test()),
        ("paper(1024)", PemConfig::paper(1024)),
    ] {
        let mut pem = Pem::new(cfg, data.len()).expect("setup");
        let outcome = pem.run_window(&data).expect("window");
        assert!(outcome.price > 0.0, "{name}: the window traded");
        assert_eq!(
            dyn_width_ops(),
            0,
            "{name}: a modulus fell off the kernel's specialised widths"
        );
    }
    telemetry::uninstall();
}
