//! A neighbourhood's trading day: 50 smart homes, 7:00–19:00.
//!
//! ```text
//! cargo run --release --example smart_home_day
//! ```
//!
//! Generates a synthetic day (the UMass Smart* substitute), sweeps all
//! windows through the market engine to report the day's economics, and
//! runs a morning/noon/evening window through the full cryptographic
//! stack to show the protocols agree with the plaintext engine.

use pem::core::{Pem, PemConfig};
use pem::data::{coalition_series, TraceConfig, TraceGenerator};
use pem::market::{MarketEngine, PriceBand};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceGenerator::new(TraceConfig {
        homes: 50,
        windows: 144, // 5-minute windows, 7:00–19:00
        window_minutes: 5,
        seed: 42,
        ..TraceConfig::default()
    })
    .generate();

    println!(
        "=== A day of distributed energy trading: {} homes ===\n",
        trace.home_count()
    );

    // --- Market-layer sweep over the whole day. ------------------------
    let band = PriceBand::paper_defaults();
    let engine = MarketEngine::new(band);
    let mut cost_with = 0.0;
    let mut cost_without = 0.0;
    let mut grid_with = 0.0;
    let mut grid_without = 0.0;
    let mut traded = 0.0;
    let mut regimes = [0usize; 3];
    for w in 0..trace.window_count() {
        let o = engine.run_window(&trace.window_agents(w));
        cost_with += o.buyer_coalition_cost;
        cost_without += o.baseline.buyer_cost;
        grid_with += o.grid_interaction;
        grid_without += o.baseline.grid_interaction;
        traded += o.trades.iter().map(|t| t.energy).sum::<f64>();
        regimes[o.kind as usize] += 1;
    }
    let series = coalition_series(&trace);
    println!(
        "window regimes     : {} general / {} extreme / {} no-market",
        regimes[0], regimes[1], regimes[2]
    );
    println!(
        "peak seller group  : {} homes",
        series.sellers.iter().max().unwrap_or(&0)
    );
    println!("energy traded P2P  : {traded:.1} kWh");
    println!(
        "buyer spend        : ${:.2} with PEM vs ${:.2} grid-only  ({:.1}% saved)",
        cost_with / 100.0,
        cost_without / 100.0,
        (1.0 - cost_with / cost_without) * 100.0
    );
    println!(
        "grid interaction   : {grid_with:.1} kWh with PEM vs {grid_without:.1} kWh without ({:.1}% less)",
        (1.0 - grid_with / grid_without) * 100.0
    );

    // --- Cryptographic verification on representative windows. ---------
    println!("\nrunning the full MPC stack on three representative windows:");
    let mut pem = Pem::new(PemConfig::fast_test(), trace.home_count())?;
    for (name, w) in [
        ("morning", 6),
        ("noon", trace.window_count() / 2),
        ("evening", trace.window_count() - 6),
    ] {
        let agents = trace.window_agents(w);
        let secure = pem.run_window(&agents)?;
        let clear = engine.run_window(&agents);
        assert_eq!(secure.kind, clear.kind);
        assert!((secure.price - clear.price).abs() < 1e-6);
        println!(
            "  {name:<8} window {w:>3}: {:?} at {:.2} ¢/kWh, {} trades, {} protocol messages — matches plaintext ✓",
            secure.kind,
            secure.price,
            secure.trades.len(),
            secure.net.total_messages,
        );
    }
    Ok(())
}
