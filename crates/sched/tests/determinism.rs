//! Scheduler determinism: the same population and seed must yield an
//! identical `GridReport` — prices, trades, traffic, settlement hashes —
//! at 1, 4 and 8 workers.
//!
//! This is the contract every later scaling layer (async fabrics,
//! distributed workers) must preserve: *where* a coalition runs can
//! never change *what* it computes.

use pem_core::PemConfig;
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::AgentWindow;
use pem_sched::{Engine, GridConfig, GridOrchestrator, GridReport, PartitionStrategy, RetryPolicy};

fn grid_config(workers: usize, strategy: PartitionStrategy) -> GridConfig {
    GridConfig {
        pem: PemConfig::fast_test(),
        coalition_size: 10,
        workers,
        engine: Engine::Threads,
        strategy,
        coupling: None,
        retry: RetryPolicy::default(),
    }
}

/// A realistic mixed population from the trace generator (midday window:
/// solar homes sell, the rest buy).
fn day(windows: usize, homes: usize) -> Vec<Vec<AgentWindow>> {
    let trace = TraceGenerator::new(TraceConfig {
        homes,
        windows: 96,
        seed: 40,
        ..TraceConfig::default()
    })
    .generate();
    // Windows around midday so both coalitions are populated.
    (0..windows).map(|w| trace.window_agents(44 + w)).collect()
}

fn run(
    workers: usize,
    strategy: PartitionStrategy,
    day_data: &[Vec<AgentWindow>],
) -> Vec<GridReport> {
    let mut grid = GridOrchestrator::new(grid_config(workers, strategy)).expect("grid");
    day_data
        .iter()
        .map(|pop| grid.run_window(pop).expect("window"))
        .collect()
}

fn assert_reports_identical(a: &GridReport, b: &GridReport, what: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprint");
    // Fingerprint covers it, but assert the pieces directly for
    // diagnosable failures.
    assert_eq!(a.regime_counts, b.regime_counts, "{what}: regimes");
    assert_eq!(a.net, b.net, "{what}: traffic");
    assert_eq!(
        a.settlement.tip_hash, b.settlement.tip_hash,
        "{what}: settlement tip"
    );
    assert_eq!(a.prices, b.prices, "{what}: price stats");
    for (sa, sb) in a.shard_outcomes.iter().zip(b.shard_outcomes.iter()) {
        assert_eq!(sa.members, sb.members, "{what}: membership");
        assert_eq!(
            sa.outcome.price.to_bits(),
            sb.outcome.price.to_bits(),
            "{what}: shard {} price",
            sa.shard
        );
        assert_eq!(sa.outcome.trades, sb.outcome.trades, "{what}: trades");
    }
}

#[test]
fn identical_reports_at_1_4_8_workers() {
    let data = day(2, 40);
    let base = run(1, PartitionStrategy::SurplusBalanced, &data);
    for workers in [4, 8] {
        let other = run(workers, PartitionStrategy::SurplusBalanced, &data);
        assert_eq!(base.len(), other.len());
        for (a, b) in base.iter().zip(other.iter()) {
            assert_reports_identical(a, b, &format!("{workers} workers, window {}", a.window));
        }
    }
}

#[test]
fn determinism_holds_for_every_strategy() {
    let data = day(1, 30);
    for strategy in [
        PartitionStrategy::RoundRobin,
        PartitionStrategy::Feeder { feeders: 3 },
        PartitionStrategy::SurplusBalanced,
    ] {
        let a = run(1, strategy, &data);
        let b = run(4, strategy, &data);
        assert_reports_identical(&a[0], &b[0], &format!("{strategy:?}"));
    }
}

#[test]
fn different_seeds_change_the_fingerprint() {
    let data = day(1, 30);
    let a = run(2, PartitionStrategy::SurplusBalanced, &data);
    let mut cfg = grid_config(2, PartitionStrategy::SurplusBalanced);
    cfg.pem.seed ^= 0xDEAD_BEEF;
    let mut grid = GridOrchestrator::new(cfg).expect("grid");
    let b = grid.run_window(&data[0]).expect("window");
    assert_ne!(
        a[0].fingerprint(),
        b.fingerprint(),
        "different seeds must not collide"
    );
}
