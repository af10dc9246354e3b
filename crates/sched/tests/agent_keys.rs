//! One key per home: a grid day makes each home's Paillier key pair
//! once, at its first window, and a re-partition moves homes between
//! coalitions without making a key or rebuilding a key's `h_s` table.
//!
//! Everything lives in ONE `#[test]` because the telemetry collector and
//! its counters are process global: parallel tests would race on them.

use pem_core::PemConfig;
use pem_coupling::{CouplingConfig, RepartitionConfig};
use pem_crypto::drbg::HashDrbg;
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
        pem: PemConfig::paper(512),
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
    // The coordinator's grid key is the orchestrator's setup; from here
    // on every key and table is the day's (the grid key's `h_s` table
    // among them: the first coupling round encrypts under it).
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
    // A key's `h_s` table is built by the first encryption under it, at
    // most once per home: the re-partition rebuilt two coalitions over
    // the same keys and built none again. The comparisons run on the
    // curve, whose tables are counted apart: each comparison's `A` table
    // (every coalition of eight compares at `compare_width(8)` = 47
    // bits, 24 OTs, a batch above `A_TABLE_MIN_BATCH`) and the
    // basepoint's, built by the first comparison in the process. The day
    // built exactly 10 integer tables: the grid key's, built by window
    // 0's coupling round, and the `h_s` tables of the 9 homes whose keys
    // a role put to use (`H_r1` and `H_r2` collect Protocol 2's folds,
    // `H_b` Protocol 3's, the decryptor Protocol 4's). The roles are
    // picks of each window's draws, so the count is this day's; one
    // table rebuilt by the re-partition would make it 11.
    assert_eq!(
        counter("crypto/ec_table_builds"),
        comparisons + 1,
        "one `A` table per comparison and the basepoint's"
    );
    let tables = counter("bignum/fixed_base_builds");
    assert_eq!(tables, 10, "key tables for {} homes", homes.len());
    // The other homes' tables were never built: one randomizer under
    // every home's key builds exactly those.
    let keys = grid.keys().expect("keys made");
    let before = counter("bignum/fixed_base_builds");
    let mut rng = HashDrbg::new(b"agent-keys");
    for home in 0..homes.len() {
        let _ = keys.public(home).randomizer(&mut rng);
    }
    assert_eq!(
        counter("bignum/fixed_base_builds") - before,
        homes.len() as u64 - (tables - 1),
        "tables built for the homes no role used"
    );
    telemetry::uninstall();
}
