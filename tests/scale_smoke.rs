//! Scale smoke test: a mid-sized population through the full MPC stack.
//!
//! Not a benchmark — this guards against accidental O(n³) regressions and
//! overflow at population sizes above what the unit tests use.

use pem::core::quantize::{compare_width, quantize};
use pem::core::{Pem, PemConfig};
use pem::data::{TraceConfig, TraceGenerator};
use pem::market::{MarketEngine, MarketKind};

#[test]
fn fifty_agents_full_window() {
    let trace = TraceGenerator::new(TraceConfig {
        homes: 50,
        windows: 3,
        window_minutes: 240, // large windows → large kWh magnitudes
        start_minute: 420,
        ..TraceConfig::default()
    })
    .generate();

    let cfg = PemConfig::fast_test();
    let engine = MarketEngine::new(cfg.band);
    let mut pem = Pem::new(cfg, 50).expect("setup");

    for w in 0..trace.window_count() {
        let agents = trace.window_agents(w);
        let secure = pem.run_window(&agents).expect("window");
        let clear = engine.run_window(&agents);
        assert_eq!(secure.kind, clear.kind, "window {w}");
        assert!((secure.price - clear.price).abs() < 1e-6, "window {w}");
        assert_eq!(secure.trades.len(), clear.trades.len(), "window {w}");
        if secure.kind != MarketKind::NoMarket {
            // O(n) rings + O(n²) settlement: sanity-bound the message
            // count so a quadratic blowup in the rings would fail loudly.
            let n = 50u64;
            let max_messages = 8 * n + 4 * n * n;
            assert!(
                secure.net.total_messages <= max_messages,
                "window {w}: {} messages",
                secure.net.total_messages
            );
        }
    }
}

#[test]
fn four_hour_windows_keep_headroom() {
    // 240-minute windows produce ~20 kWh magnitudes; the quantizer and
    // the 50-agent comparison width must still have slack under the
    // 64-bit ceiling.
    let cfg = PemConfig::fast_test();
    cfg.validate(50).expect("headroom holds");
    assert_eq!(compare_width(50), 39);
    // 20 kWh quantizes to 2·10^7 ≈ 2^25, well under the 32-bit per-value
    // bound the validation assumes.
    let v = quantize(20.0, "test").expect("fits");
    assert!(v < (1 << 32));
}
