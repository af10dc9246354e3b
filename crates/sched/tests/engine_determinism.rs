//! Engine determinism: the fabric executor must produce bit-identical
//! `GridReport`s to the thread pool — same seed, same populations, same
//! fingerprints — at every admission batch size. The executor's batch
//! bound is a memory ceiling, never an output knob.

use pem_core::PemConfig;
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::AgentWindow;
use pem_sched::{Engine, GridConfig, GridOrchestrator, GridReport, PartitionStrategy, RetryPolicy};

fn grid_config(engine: Engine) -> GridConfig {
    GridConfig {
        pem: PemConfig::fast_test(),
        coalition_size: 10,
        workers: 4,
        engine,
        strategy: PartitionStrategy::SurplusBalanced,
        coupling: None,
        retry: RetryPolicy::default(),
    }
}

fn day(windows: usize, homes: usize) -> Vec<Vec<AgentWindow>> {
    let trace = TraceGenerator::new(TraceConfig {
        homes,
        windows: 96,
        seed: 40,
        ..TraceConfig::default()
    })
    .generate();
    (0..windows).map(|w| trace.window_agents(44 + w)).collect()
}

fn run(engine: Engine, day_data: &[Vec<AgentWindow>]) -> Vec<GridReport> {
    let mut grid = GridOrchestrator::new(grid_config(engine)).expect("grid");
    day_data
        .iter()
        .map(|pop| grid.run_window(pop).expect("window"))
        .collect()
}

fn assert_reports_identical(a: &GridReport, b: &GridReport, what: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprint");
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
        assert_eq!(sa.outcome.revealed, sb.outcome.revealed, "{what}: leakage");
    }
}

#[test]
fn fabric_engine_matches_threads_at_batch_1_8_64() {
    let data = day(2, 40);
    let base = run(Engine::Threads, &data);
    for batch in [1usize, 8, 64] {
        let fabric = run(Engine::Fabric { batch }, &data);
        assert_eq!(base.len(), fabric.len());
        for (a, b) in base.iter().zip(fabric.iter()) {
            assert_reports_identical(a, b, &format!("fabric batch {batch}, window {}", a.window));
        }
    }
}

#[test]
fn fabric_engine_is_self_deterministic() {
    // Same seed, two fresh grids on the fabric engine: identical bits.
    let data = day(1, 30);
    let a = run(Engine::Fabric { batch: 0 }, &data);
    let b = run(Engine::Fabric { batch: 0 }, &data);
    assert_reports_identical(&a[0], &b[0], "fabric repeat");
}

#[test]
fn engine_flags_parse_and_print() {
    for (s, engine) in [
        ("threads", Engine::Threads),
        ("fabric", Engine::Fabric { batch: 0 }),
        ("fabric:16", Engine::Fabric { batch: 16 }),
    ] {
        assert_eq!(s.parse::<Engine>().expect("parse"), engine);
        assert_eq!(engine.to_string(), s);
    }
    assert!("green-threads".parse::<Engine>().is_err());
    assert!("fabric:lots".parse::<Engine>().is_err());
}
