//! One key per home: a grid day makes each home's Paillier key pair
//! once, at its first window, and a re-partition moves homes between
//! coalitions without making a key or rebuilding a key's `h_s` table.
//!
//! Everything lives in ONE `#[test]` because the telemetry collector and
//! its counters are process global: parallel tests would race on them.

use pem_core::PemConfig;
use pem_coupling::{CouplingConfig, RepartitionConfig};
use pem_market::{AgentWindow, MarketKind};
use pem_sched::{Engine, GridConfig, GridOrchestrator, PartitionStrategy, RetryPolicy};
use pem_telemetry as telemetry;

fn counter(name: &str) -> u64 {
    telemetry::counter_snapshot()
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn a_repartitioning_day_makes_one_key_per_home() {
    assert!(telemetry::install());
    // Eight sellers, then eight buyers: feeder chunks of eight make two
    // one-sided coalitions, so the third window re-partitions them.
    let homes: Vec<AgentWindow> = (0..16)
        .map(|i| {
            if i < 8 {
                AgentWindow::new(i, 3.0, 0.5, 0.0, 0.9, 25.0)
            } else {
                AgentWindow::new(i, 0.0, 2.5, 0.0, 0.9, 25.0)
            }
        })
        .collect();
    let mut grid = GridOrchestrator::new(GridConfig {
        pem: PemConfig::paper(512).with_randomizer_pool(4),
        coalition_size: 8,
        workers: 2,
        engine: Engine::Threads,
        strategy: PartitionStrategy::Feeder { feeders: 2 },
        coupling: Some(
            CouplingConfig::fast_test().with_repartition(RepartitionConfig::fast_test()),
        ),
        retry: RetryPolicy::default(),
    })
    .expect("grid");
    // The coordinator's grid key (and its table) is the orchestrator's
    // setup; from here on every key and table is the day's.
    telemetry::reset_metrics();

    let mut comparisons = 0;
    let mut moduli = Vec::new();
    for window in 0..4 {
        let report = grid.run_window(&homes).expect("window");
        let repartitioned = report.coupling.as_ref().expect("coupled").repartitioned;
        assert_eq!(repartitioned, window == 2, "window {window}");
        // Every market that trades runs one comparison, and a
        // comparison builds exactly one table: the OT sender's `A`.
        comparisons += report
            .shard_outcomes
            .iter()
            .filter(|s| s.outcome.kind != MarketKind::NoMarket)
            .count() as u64;
        let keys = grid.keys().expect("keys made");
        let now: Vec<Vec<u8>> = (0..keys.len())
            .map(|agent| keys.public(agent).n().to_bytes_be())
            .collect();
        if window > 0 {
            assert_eq!(now, moduli, "window {window}: every home keeps its key");
        }
        moduli = now;
        assert_eq!(
            counter("crypto/keygens"),
            homes.len() as u64,
            "window {window}: one key per home, made once"
        );
    }
    assert!(comparisons > 0, "the re-partitioned coalitions trade");
    // The pool's first batch built every home's `h_s` table; the
    // re-partition rebuilt two coalitions' pools over the same keys and
    // built none. The OT groups' generator tables are process-wide and
    // may be built once, by the first comparison in the process.
    let tables = counter("bignum/fixed_base_builds") - comparisons;
    assert!(
        (homes.len() as u64..=homes.len() as u64 + 1).contains(&tables),
        "{tables} key and group tables for {} homes",
        homes.len()
    );
    telemetry::uninstall();
}
