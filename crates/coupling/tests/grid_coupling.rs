//! End-to-end coupling acceptance: the `examples/grid_day.rs`
//! 1,000-agent day with cross-shard coupling enabled must *strictly*
//! reduce price dispersion, settle its transfers on the chain, and —
//! witnessed by wire accounting — never move a single per-agent value
//! across a coalition boundary.

use pem_core::PemConfig;
use pem_coupling::CouplingConfig;
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::{AgentWindow, PriceBand};
use pem_sched::{Engine, GridConfig, GridOrchestrator, PartitionStrategy, RetryPolicy};

/// The `grid_day` example's trace: 1,000 homes, a 24h day of 15-minute
/// windows, one-in-three solar penetration, seed 2020.
fn grid_day_trace(homes: usize) -> pem_data::Trace {
    TraceGenerator::new(TraceConfig {
        homes,
        windows: 96,
        window_minutes: 15,
        seed: 2020,
        solar_fraction: 0.35,
        ..TraceConfig::default()
    })
    .generate()
}

/// The example's widened band (equilibria land inside it, so genuine
/// cross-coalition dispersion exists for the coupling round to close).
fn wide_band() -> PriceBand {
    PriceBand {
        grid_retail: 120.0,
        grid_feed_in: 20.0,
        floor: 30.0,
        ceiling: 110.0,
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

#[test]
fn thousand_home_day_reduces_dispersion_without_leaking_bids() {
    let trace = grid_day_trace(1000);
    // The morning shoulder (~9:00): feeder neighborhoods sit on both
    // sides of the market.
    let day: Vec<Vec<AgentWindow>> = vec![trace.window_agents(8), trace.window_agents(10)];

    let mut pem = PemConfig::fast_test().with_randomizer_pool(8);
    pem.band = wide_band();
    let coupling = CouplingConfig::fast_test();
    let key_bits = coupling.key_bits;
    let mut grid = GridOrchestrator::new(GridConfig {
        pem,
        coalition_size: 31,
        workers: workers(),
        engine: Engine::Threads,
        strategy: PartitionStrategy::Feeder { feeders: 8 },
        coupling: Some(coupling),
        retry: RetryPolicy::default(),
    })
    .expect("grid");

    let report = grid.run_day(&day).expect("day");
    assert!(report.ledger_valid);
    assert!(report.transferred_kwh > 0.0);
    assert!(report.coupling_welfare_cents > 0.0);

    let shards = grid.plan().expect("plan").shard_count();
    for w in &report.windows {
        let cs = w.coupling.as_ref().expect("coupling ran");
        assert_eq!(cs.shards, shards);
        assert!(
            cs.engaged,
            "window {}: shoulder windows must couple",
            w.window
        );

        // --- What coupling is for: dispersion strictly drops. ----------
        assert!(
            cs.pre_dispersion > 0.0,
            "window {}: no dispersion to close",
            w.window
        );
        assert!(
            cs.post_dispersion < cs.pre_dispersion,
            "window {}: dispersion {} -> {} did not drop",
            w.window,
            cs.pre_dispersion,
            cs.post_dispersion
        );
        assert!(cs.corridor_price >= wide_band().floor);
        assert!(cs.corridor_price <= wide_band().ceiling);
        assert!(cs.transferred_kwh > 0.0);
        assert!((cs.transferred_kwh - cs.surplus_kwh.min(cs.deficit_kwh)).abs() < 1e-3);

        // --- Wire accounting: no bid plaintext crosses a shard boundary.
        // The coupling fabric's parties are the S shard representatives
        // plus the coordinator — the 1,000 agents are not even on it.
        assert_eq!(cs.net.sent_bytes.len(), shards + 1);
        // Exactly one fixed-shape up-message and one claim per shard,
        // regardless of coalition membership or bids.
        assert_eq!(cs.net.label_totals("couple/up").messages, shards as u64);
        assert_eq!(cs.net.label_totals("couple/claim").messages, shards as u64);
        // Every coupling message is namespaced; nothing else rides the
        // coupling fabric.
        assert!(cs.net.per_label.keys().all(|l| l.starts_with("couple/")));
        assert_eq!(
            cs.net.label_totals("couple/").messages,
            cs.net.total_messages
        );
        // Payload ceiling: an up-message is four Paillier ciphertexts
        // under the grid key (≤ 2·key_bits bits each, length-prefixed) —
        // far too small to carry any coalition's bid vector, and sized
        // by the key alone.
        let ct_bytes = 2 * key_bits / 8 + 2;
        assert!(
            cs.net.label_totals("couple/up").bytes <= (shards * 4 * ct_bytes) as u64,
            "up-messages exceed the ciphertext envelope"
        );
        assert!(cs.net.label_totals("couple/claim").bytes <= (shards * ct_bytes) as u64);
        // Bounded round: up + corridor + claim + at most one schedule
        // notification per shard.
        assert!(cs.net.total_messages <= 4 * shards as u64);
    }

    // Transfers settled as coupling blocks at the corridor price.
    assert_eq!(grid.ledger().coupling_blocks(), report.windows.len());
    assert!((grid.ledger().total_transfer_energy() - report.transferred_kwh).abs() < 1e-6);
}

/// Synthetic population: even agents sell, odd agents buy, with
/// magnitudes that grow in the index so coalitions end up imbalanced.
fn synthetic(n: usize) -> Vec<AgentWindow> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                AgentWindow::new(
                    i,
                    2.0 + (i % 7) as f64 * 0.4,
                    0.5,
                    0.0,
                    0.9,
                    22.0 + i as f64,
                )
            } else {
                AgentWindow::new(i, 0.0, 1.0 + (i % 5) as f64 * 0.5, 0.0, 0.9, 25.0)
            }
        })
        .collect()
}

fn coupled_grid(coalition_size: usize) -> GridConfig {
    GridConfig {
        pem: PemConfig::fast_test().with_randomizer_pool(6),
        coalition_size,
        workers: 2,
        engine: Engine::Threads,
        strategy: PartitionStrategy::RoundRobin,
        coupling: Some(CouplingConfig::fast_test()),
        retry: RetryPolicy::default(),
    }
}

#[test]
fn coupling_traffic_is_independent_of_coalition_contents() {
    // Two grids with the same shard count but double the population (and
    // entirely different bids): the encrypted-position traffic must be
    // identical in message count — the coupling round cannot "see"
    // coalition contents, only coalition count.
    let run = |population: usize, coalition: usize| {
        let pop = synthetic(population);
        let mut grid = GridOrchestrator::new(coupled_grid(coalition)).expect("grid");
        let report = grid.run_window(&pop).expect("window");
        report.coupling.expect("coupling ran")
    };
    let small = run(60, 10);
    let big = run(120, 20);
    assert_eq!(small.shards, 6);
    assert_eq!(big.shards, 6);
    for cs in [&small, &big] {
        assert_eq!(cs.net.label_totals("couple/up").messages, 6);
        assert_eq!(cs.net.label_totals("couple/claim").messages, 6);
        assert!(cs.net.per_label.keys().all(|l| l.starts_with("couple/")));
    }
    // Doubling every coalition's membership moves not a single extra
    // byte of position traffic beyond ciphertext-length jitter (the
    // codec trims leading zeros of each group element).
    let a = small.net.label_totals("couple/up").bytes as i64;
    let b = big.net.label_totals("couple/up").bytes as i64;
    assert!(
        (a - b).abs() <= 6 * 4,
        "up traffic scaled with population: {a} vs {b}"
    );
}

#[test]
fn coupling_adds_nothing_to_the_agent_fabric() {
    // The per-agent protocol fabric (where bids *do* travel, inside each
    // coalition) is byte-identical with coupling on and off: the round
    // reads only coalition aggregates, it never touches agent traffic.
    let pop = synthetic(60);
    let mut coupled = GridOrchestrator::new(coupled_grid(10)).expect("grid");
    let mut plain_cfg = coupled_grid(10);
    plain_cfg.coupling = None;
    let mut plain = GridOrchestrator::new(plain_cfg).expect("grid");
    let a = coupled.run_window(&pop).expect("coupled");
    let b = plain.run_window(&pop).expect("plain");
    assert_eq!(a.net, b.net, "agent-level traffic must be untouched");
    assert!(a.coupling.is_some());
    assert!(b.coupling.is_none());
}
