//! Integration: the privacy-preserving PEM protocols compute exactly the
//! quantities of the plaintext market engine, across realistic generated
//! windows.

use pem_core::{Pem, PemConfig};
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::MarketEngine;

fn assert_outcomes_match(
    pem: &pem_core::PemWindowOutcome,
    plain: &pem_market::WindowOutcome,
    window: usize,
) {
    assert_eq!(pem.kind, plain.kind, "window {window}: market kind");
    assert!(
        (pem.price - plain.price).abs() < 1e-6,
        "window {window}: price {} vs {}",
        pem.price,
        plain.price
    );
    assert_eq!(
        pem.trades.len(),
        plain.trades.len(),
        "window {window}: trade count"
    );
    for (a, b) in pem.trades.iter().zip(plain.trades.iter()) {
        assert_eq!(a.seller, b.seller, "window {window}");
        assert_eq!(a.buyer, b.buyer, "window {window}");
        assert!(
            (a.energy - b.energy).abs() < 1e-5,
            "window {window}: energy {} vs {}",
            a.energy,
            b.energy
        );
        assert!(
            (a.payment - b.payment).abs() < 1e-3,
            "window {window}: payment {} vs {}",
            a.payment,
            b.payment
        );
    }
}

#[test]
fn pem_equals_plaintext_across_a_generated_day() {
    let trace = TraceGenerator::new(TraceConfig {
        homes: 12,
        windows: 48, // every 15th minute of the day, effectively
        window_minutes: 15,
        ..TraceConfig::default()
    })
    .generate();

    let cfg = PemConfig::fast_test();
    let engine = MarketEngine::new(cfg.band);
    let mut pem = Pem::new(cfg, trace.home_count()).expect("setup");

    let mut kinds_seen = std::collections::HashSet::new();
    for w in 0..trace.window_count() {
        let agents = trace.window_agents(w);
        let pem_out = pem.run_window(&agents).expect("pem window");
        let plain_out = engine.run_window(&agents);
        assert_outcomes_match(&pem_out, &plain_out, w);
        kinds_seen.insert(format!("{:?}", pem_out.kind));
    }
    // A full day must exercise at least two market regimes (morning
    // no-market/general plus midday extreme in a solar-rich population).
    assert!(
        kinds_seen.len() >= 2,
        "trace too bland, regimes: {kinds_seen:?}"
    );
}

#[test]
fn pem_handles_role_churn() {
    // Agents that flip between roles across windows (Section II-A: an
    // agent may be buyer in one window and seller in another).
    let cfg = PemConfig::fast_test();
    let mut pem = Pem::new(cfg, 4).expect("setup");
    use pem_market::AgentWindow;
    for w in 0..6 {
        let flip = w % 2 == 0;
        let pop: Vec<AgentWindow> = (0..4)
            .map(|i| {
                let surplus = if (i % 2 == 0) == flip {
                    1.0 + i as f64
                } else {
                    -2.0
                };
                if surplus > 0.0 {
                    AgentWindow::new(i, surplus, 0.0, 0.0, 0.9, 25.0)
                } else {
                    AgentWindow::new(i, 0.0, -surplus, 0.0, 0.9, 25.0)
                }
            })
            .collect();
        let out = pem.run_window(&pop).expect("window");
        assert_eq!(out.seller_count, 2, "window {w}");
        assert_eq!(out.buyer_count, 2, "window {w}");
        for t in &out.trades {
            let seller = pop.iter().find(|a| a.id == t.seller).expect("exists");
            assert!(seller.net_energy() > 0.0, "window {w}: seller role");
        }
    }
}

#[test]
fn bandwidth_scales_with_key_size() {
    // Table I's key finding: traffic scales with the Paillier key size
    // (ciphertexts are 2·key_bits). Compare 128- vs 256-bit toy keys.
    use pem_market::AgentWindow;
    let pop: Vec<AgentWindow> = vec![
        AgentWindow::new(0, 2.0, 0.5, 0.0, 0.9, 25.0),
        AgentWindow::new(1, 1.5, 0.5, 0.0, 0.9, 30.0),
        AgentWindow::new(2, 0.0, 3.0, 0.0, 0.9, 20.0),
        AgentWindow::new(3, 0.0, 4.0, 0.0, 0.9, 22.0),
    ];
    let bytes_at = |key_bits: usize| -> u64 {
        let mut cfg = PemConfig::fast_test();
        cfg.key_bits = key_bits;
        let mut pem = Pem::new(cfg, 4).expect("setup");
        let out = pem.run_window(&pop).expect("window");
        // Pricing and distribution traffic is Paillier ciphertexts (plus
        // small fixed-size settlement floats); market evaluation is
        // dominated by the key-size-independent garbled circuit, so it is
        // excluded here.
        out.net.label_totals("price/").bytes + out.net.label_totals("dist/").bytes
    };
    let small = bytes_at(128);
    let big = bytes_at(256);
    assert!(
        big as f64 > small as f64 * 1.3,
        "doubling the key size must grow ciphertext traffic: {small} -> {big}"
    );
}

#[test]
fn runtime_metrics_are_monotone_in_population() {
    use pem_market::AgentWindow;
    let make_pop = |n: usize| -> Vec<AgentWindow> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    AgentWindow::new(i, 1.0 + i as f64 * 0.1, 0.2, 0.0, 0.9, 25.0)
                } else {
                    AgentWindow::new(i, 0.0, 2.0 + i as f64 * 0.1, 0.0, 0.9, 25.0)
                }
            })
            .collect()
    };
    let msgs_at = |n: usize| -> u64 {
        let mut pem = Pem::new(PemConfig::fast_test(), n).expect("setup");
        let out = pem.run_window(&make_pop(n)).expect("window");
        out.net.total_messages
    };
    let m6 = msgs_at(6);
    let m12 = msgs_at(12);
    // O(n) rings + O(n²) settlement: message count must grow superlinearly.
    assert!(m12 > m6 * 2, "messages {m6} -> {m12}");
}

/// Ten members on one side and two on the other, each with its own net
/// energy: `ten_sell` makes the ten the sellers of an extreme market
/// (supply 25.5 kWh over demand 3.5), otherwise the buyers of a general
/// one (demand 25.5 over supply 3.5). The ratio side is the ten either
/// way: Protocol 4 allocates by the buyers' demand shares in a general
/// market and by the sellers' supply shares in an extreme one.
fn ten_against_two(ten_sell: bool) -> Vec<pem_market::AgentWindow> {
    use pem_market::AgentWindow;
    let side = |id: usize, energy: f64, sells: bool| {
        if sells {
            AgentWindow::new(id, energy, 0.0, 0.0, 0.9, 20.0 + id as f64)
        } else {
            AgentWindow::new(id, 0.0, energy, 0.0, 0.9, 20.0 + id as f64)
        }
    };
    let mut agents: Vec<_> = (0..10)
        .map(|i| side(i, 0.75 + 0.25 * i as f64, ten_sell))
        .collect();
    agents.extend([side(10, 1.5, !ten_sell), side(11, 2.0, !ten_sell)]);
    agents
}

/// Protocol 4 at a paper key: the decryptor's ten ratios span several
/// multi-slot p-leg packs (`slots` 98-bit slots each), and the window —
/// market kind, price, every trade — is the plaintext market's, in both
/// regimes on one key set. The windows also run Protocol 2's comparison
/// on the curve at twelve members' width.
fn multi_slot_packs_match_the_plaintext_market(key_bits: usize, slots: usize) {
    use pem_market::MarketKind;
    let cfg = PemConfig::paper(key_bits);
    let engine = MarketEngine::new(cfg.band);
    let mut pem = Pem::new(cfg, 12).expect("setup");
    for i in 0..12 {
        let sk = pem.keys().keypair(i).private();
        assert_eq!(sk.slots_per_pack(98), slots, "{key_bits}-bit key {i}");
    }
    let regimes = [(false, MarketKind::General), (true, MarketKind::Extreme)];
    for (w, (ten_sell, expected)) in regimes.into_iter().enumerate() {
        let agents = ten_against_two(ten_sell);
        let pem_out = pem.run_window(&agents).expect("pem window");
        assert_eq!(pem_out.kind, expected, "{key_bits} bits");
        let ratios = &pem_out.revealed.allocation_ratios;
        assert!(
            ratios.len() == 10 && ratios.len() > slots,
            "{key_bits} bits: {ratios:?}"
        );
        assert_outcomes_match(&pem_out, &engine.run_window(&agents), w);
    }
}

#[test]
fn four_slot_packs_match_the_plaintext_market_at_paper_1024() {
    multi_slot_packs_match_the_plaintext_market(1024, 4);
}

#[test]
fn nine_slot_packs_match_the_plaintext_market_at_paper_2048() {
    multi_slot_packs_match_the_plaintext_market(2048, 9);
}
