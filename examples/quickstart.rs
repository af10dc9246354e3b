//! Quickstart: one trading window among six agents, end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Shows the complete PEM flow — coalition formation, private market
//! evaluation, private pricing, private distribution — and prints exactly
//! what information left each agent's device (the Lemma 2–4 surface).

use pem::core::{Pem, PemConfig};
use pem::market::{AgentWindow, MarketEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six smart homes in one trading window. Energies in kWh; the last
    // two parameters are the battery loss ε and the preference k.
    let agents = vec![
        AgentWindow::new(0, 6.0, 1.0, 0.5, 0.92, 35.0), // seller (+4.5)
        AgentWindow::new(1, 3.0, 0.8, 0.0, 0.90, 28.0), // seller (+2.2)
        AgentWindow::new(2, 1.0, 1.0, 0.0, 0.88, 22.0), // off market (0.0)
        AgentWindow::new(3, 0.0, 2.5, 0.0, 0.91, 25.0), // buyer (−2.5)
        AgentWindow::new(4, 0.5, 4.0, 0.0, 0.89, 30.0), // buyer (−3.5)
        AgentWindow::new(5, 0.0, 3.0, 0.5, 0.93, 26.0), // buyer (−3.5)
    ];

    println!("=== Private Energy Market: one trading window ===\n");
    for a in &agents {
        println!(
            "  {}: g={:.1} l={:.1} b={:+.1}  →  sn={:+.2} kWh",
            a.id,
            a.generation,
            a.load,
            a.battery,
            a.net_energy()
        );
    }

    // Run the privacy-preserving protocols.
    let mut pem = Pem::new(PemConfig::fast_test(), agents.len())?;
    let outcome = pem.run_window(&agents)?;

    println!("\nmarket regime : {:?}", outcome.kind);
    println!("trading price : {:.2} cents/kWh", outcome.price);
    println!(
        "coalitions    : {} sellers, {} buyers",
        outcome.seller_count, outcome.buyer_count
    );

    println!("\npairwise trades (e_ij routed, m_ji paid):");
    for t in &outcome.trades {
        println!(
            "  {} → {} : {:.4} kWh for {:.2} cents",
            t.seller, t.buyer, t.energy, t.payment
        );
    }

    println!("\nwhat actually left the devices (sanctioned disclosure):");
    if let (Some(rb), Some(rs)) = (
        outcome.revealed.masked_demand,
        outcome.revealed.masked_supply,
    ) {
        println!("  H_r1 saw masked demand R_b = {rb} (nonce-blinded)");
        println!("  H_r2 saw masked supply R_s = {rs} (nonce-blinded)");
    }
    if let Some(k) = outcome.revealed.seller_preference_sum {
        println!("  H_b  saw Σk of the seller coalition = {k:.1}");
    }
    println!(
        "  H_s  saw the demand ratios = {:?}",
        outcome
            .revealed
            .allocation_ratios
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
    );

    println!("\nper-phase cost:");
    let m = &outcome.metrics;
    for (name, phase, prefix) in [
        ("market evaluation", m.market_evaluation, "eval/"),
        ("pricing", m.pricing, "price/"),
        ("distribution", m.distribution, "dist/"),
    ] {
        // A phase's traffic is every label under its prefix.
        let traffic = outcome.net.label_totals(prefix);
        println!(
            "  {name:<17} : {:>8.2?}  {:>6} B  {:>3} msgs",
            phase.elapsed, traffic.bytes, traffic.messages
        );
    }

    // Cross-check against the plaintext reference engine.
    let reference = MarketEngine::new(pem.config().band).run_window(&agents);
    assert!((outcome.price - reference.price).abs() < 1e-6);
    println!("\n✓ identical to the plaintext Stackelberg engine (up to fixed-point)");
    Ok(())
}
