//! Degraded-mode determinism: a grid running under a fault plan is
//! still a deterministic machine. Same seed + same chaos plan must
//! yield the identical degraded fingerprint, quarantine set and
//! settlement tip at any worker count and on either engine; transient
//! faults recover within the retry budget with bit-reproducible
//! retries; healthy coalitions stay bit-identical to the fault-free
//! run; quarantine carries over across windows until a clean
//! re-admission probe lifts it; and a failed attempt's draws are never
//! drawn again.

use pem_core::PemConfig;
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::AgentWindow;
use pem_net::FaultKind;
use pem_sched::{
    ChaosSpec, CoalitionStatus, Engine, GridConfig, GridOrchestrator, GridReport,
    PartitionStrategy, RetryPolicy,
};

fn grid_config(engine: Engine, workers: usize) -> GridConfig {
    GridConfig {
        pem: PemConfig::fast_test(),
        coalition_size: 10,
        workers,
        engine,
        strategy: PartitionStrategy::SurplusBalanced,
        coupling: None,
        retry: RetryPolicy { max_attempts: 1 },
    }
}

fn day(windows: usize) -> Vec<Vec<AgentWindow>> {
    let trace = TraceGenerator::new(TraceConfig {
        homes: 40,
        windows: 96,
        seed: 40,
        ..TraceConfig::default()
    })
    .generate();
    (0..windows).map(|w| trace.window_agents(44 + w)).collect()
}

/// The committed two-fault plan: coalition 0's demand aggregation
/// drops on every attempt (quarantined), coalition 1's supply
/// aggregation drops once per window on the first attempt only
/// (recovers via one deterministic retry).
fn chaos() -> Vec<ChaosSpec> {
    vec![
        ChaosSpec {
            shard: 0,
            label: "eval/demand-agg",
            nth: 0,
            kind: FaultKind::Drop,
            persistent: true,
            window: None,
        },
        ChaosSpec {
            shard: 1,
            label: "eval/supply-agg",
            nth: 0,
            kind: FaultKind::Drop,
            persistent: false,
            window: None,
        },
    ]
}

fn run_chaos_day(
    engine: Engine,
    workers: usize,
    specs: Vec<ChaosSpec>,
    data: &[Vec<AgentWindow>],
) -> (Vec<GridReport>, Vec<usize>) {
    let mut grid = GridOrchestrator::new(grid_config(engine, workers))
        .expect("grid")
        .with_chaos(specs);
    let reports = data
        .iter()
        .map(|pop| grid.run_window(pop).expect("degraded window completes"))
        .collect();
    (reports, grid.quarantined())
}

fn assert_degraded_identical(a: &GridReport, b: &GridReport, what: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprint");
    assert_eq!(a.statuses, b.statuses, "{what}: statuses");
    assert_eq!(
        a.settlement.tip_hash, b.settlement.tip_hash,
        "{what}: settlement tip"
    );
    assert_eq!(a.net, b.net, "{what}: traffic");
}

#[test]
fn degraded_runs_are_bit_reproducible_at_any_worker_count() {
    let data = day(2);
    let (base, base_q) = run_chaos_day(Engine::Threads, 1, chaos(), &data);
    // The committed plan bites exactly as designed, every window.
    for (w, report) in base.iter().enumerate() {
        assert!(
            matches!(report.statuses[0], CoalitionStatus::Quarantined { .. }),
            "window {w}: persistent drop quarantines coalition 0"
        );
        assert_eq!(
            report.statuses[1],
            CoalitionStatus::Recovered { attempts: 1 },
            "window {w}: transient drop recovers in one retry"
        );
        for (shard, status) in report.statuses.iter().enumerate().skip(2) {
            assert_eq!(
                *status,
                CoalitionStatus::Cleared,
                "window {w}: healthy coalition {shard} untouched"
            );
        }
        // The quarantined coalition is excluded from the window's
        // outcomes and settlement.
        assert!(report.shard_outcomes.iter().all(|so| so.shard != 0));
    }
    assert_eq!(base_q, vec![0], "only coalition 0 is out at close");
    for workers in [4usize, 8] {
        let (run, q) = run_chaos_day(Engine::Threads, workers, chaos(), &data);
        assert_eq!(q, base_q, "{workers} workers: quarantine set");
        for (a, b) in base.iter().zip(run.iter()) {
            assert_degraded_identical(a, b, &format!("{workers} workers, window {}", a.window));
        }
    }
}

#[test]
fn engines_agree_on_degraded_outcomes() {
    // Every attempt runs on the lane's executor and fails where the
    // fault plan alone says, so the fabric engine must reproduce the
    // thread engine's degraded grid bit for bit — including which
    // coalitions it quarantined and why.
    let data = day(2);
    let (threads, tq) = run_chaos_day(Engine::Threads, 4, chaos(), &data);
    for batch in [1usize, 8] {
        let (fabric, fq) = run_chaos_day(Engine::Fabric { batch }, 4, chaos(), &data);
        assert_eq!(fq, tq, "fabric batch {batch}: quarantine set");
        for (a, b) in threads.iter().zip(fabric.iter()) {
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "fabric batch {batch}, window {}: fingerprint",
                a.window
            );
            assert_eq!(
                a.settlement.tip_hash, b.settlement.tip_hash,
                "fabric batch {batch}, window {}: settlement tip",
                a.window
            );
            assert_eq!(
                a.statuses, b.statuses,
                "fabric batch {batch}, window {}: statuses",
                a.window
            );
        }
    }
}

#[test]
fn malformed_frames_quarantine_on_the_first_attempt() {
    // Both faults are transient, so any retry would run clean. A dropped
    // message retries and recovers; a truncated ciphertext is a decode
    // failure — fatal — so its coalition is quarantined without one.
    let specs = vec![
        chaos()[1],
        ChaosSpec {
            shard: 2,
            label: "eval/supply-agg",
            nth: 0,
            kind: FaultKind::Truncate,
            persistent: false,
            window: None,
        },
    ];
    let data = day(1);
    for engine in [Engine::Threads, Engine::Fabric { batch: 8 }] {
        let (reports, q) = run_chaos_day(engine, 2, specs.clone(), &data);
        let statuses = &reports[0].statuses;
        assert_eq!(
            statuses[1],
            CoalitionStatus::Recovered { attempts: 1 },
            "{engine:?}: transient drop recovers in one retry"
        );
        assert!(
            matches!(&statuses[2], CoalitionStatus::Quarantined { error } if error.contains("decode")),
            "{engine:?}: a truncated frame is fatal: {:?}",
            statuses[2]
        );
        assert_eq!(
            q,
            vec![2],
            "{engine:?}: only the malformed coalition is out"
        );
    }
}

#[test]
fn healthy_coalitions_match_the_fault_free_run() {
    let data = day(1);
    let mut clean_grid = GridOrchestrator::new(grid_config(Engine::Threads, 4)).expect("grid");
    let clean = clean_grid.run_window(&data[0]).expect("clean window");
    let (chaos_run, _) = run_chaos_day(Engine::Threads, 4, chaos(), &data);
    let degraded = &chaos_run[0];

    let clean_fp: Vec<(usize, [u8; 32])> = clean
        .shard_outcomes
        .iter()
        .map(|so| (so.shard, so.fingerprint()))
        .collect();
    for so in &degraded.shard_outcomes {
        let (_, expected) = clean_fp
            .iter()
            .find(|(s, _)| *s == so.shard)
            .expect("same shard plan");
        if so.shard == 1 {
            // The recovered coalition's retry continued its streams past
            // the failed attempt: same market outcome, fresh crypto bits.
            assert_eq!(
                so.outcome.trades, clean.shard_outcomes[1].outcome.trades,
                "recovery preserves the market outcome"
            );
        } else {
            assert_eq!(
                so.fingerprint(),
                *expected,
                "healthy coalition {} must be bit-identical to the fault-free run",
                so.shard
            );
        }
    }
    // Degradation is visible at the report level: the day fingerprint
    // diverges from the clean run (the degraded section folds in).
    assert_ne!(clean.fingerprint(), degraded.fingerprint());
}

#[test]
fn quarantine_carries_over_until_a_probe_readmits() {
    // The drop is scoped to window 0 only: the coalition is
    // quarantined there, sits out until its single-attempt re-admission
    // probe runs clean in window 1, and is fully cleared by window 2.
    let specs = vec![ChaosSpec {
        shard: 0,
        label: "eval/demand-agg",
        nth: 0,
        kind: FaultKind::Drop,
        persistent: true,
        window: Some(0),
    }];
    let data = day(3);
    let (reports, q) = run_chaos_day(Engine::Threads, 4, specs, &data);
    assert!(matches!(
        reports[0].statuses[0],
        CoalitionStatus::Quarantined { .. }
    ));
    assert!(reports[0].shard_outcomes.iter().all(|so| so.shard != 0));
    assert_eq!(
        reports[1].statuses[0],
        CoalitionStatus::Recovered { attempts: 1 },
        "the probe window re-admits the coalition"
    );
    assert!(reports[1].shard_outcomes.iter().any(|so| so.shard == 0));
    assert_eq!(
        reports[2].statuses[0],
        CoalitionStatus::Cleared,
        "back to normal service after re-admission"
    );
    assert!(q.is_empty(), "nothing quarantined at close");
}

#[test]
fn a_failed_window_never_replays_its_draws() {
    // Window 0 only: coalition 1 drops a supply message once and
    // recovers; coalition 2 drops there on every attempt, is
    // quarantined, then probed in window 1. Both failed attempts put
    // masked totals on the wire, so window 1 must continue past those
    // draws — its masks must differ from a fresh grid's first window
    // over the same data.
    let specs = vec![
        ChaosSpec {
            shard: 1,
            label: "eval/supply-agg",
            nth: 0,
            kind: FaultKind::Drop,
            persistent: false,
            window: Some(0),
        },
        ChaosSpec {
            shard: 2,
            label: "eval/supply-agg",
            nth: 0,
            kind: FaultKind::Drop,
            persistent: true,
            window: Some(0),
        },
    ];
    let data = day(2);
    for engine in [Engine::Threads, Engine::Fabric { batch: 8 }] {
        let cfg = GridConfig {
            pem: PemConfig::fast_test(),
            strategy: PartitionStrategy::RoundRobin,
            ..grid_config(engine, 2)
        };
        let mut grid = GridOrchestrator::new(cfg.clone())
            .expect("grid")
            .with_chaos(specs.clone());
        let reports: Vec<GridReport> = data
            .iter()
            .map(|pop| grid.run_window(pop).expect("degraded window completes"))
            .collect();
        assert_eq!(
            reports[0].statuses[1],
            CoalitionStatus::Recovered { attempts: 1 }
        );
        assert!(matches!(
            reports[0].statuses[2],
            CoalitionStatus::Quarantined { .. }
        ));
        assert_eq!(
            reports[1].statuses[2],
            CoalitionStatus::Recovered { attempts: 1 },
            "the probe re-admits coalition 2"
        );
        let fresh = GridOrchestrator::new(cfg)
            .expect("grid")
            .run_window(&data[1])
            .expect("fresh window");
        for shard in [1usize, 2] {
            let masked = |report: &GridReport| {
                report
                    .shard_outcomes
                    .iter()
                    .find(|so| so.shard == shard)
                    .expect("coalition settled")
                    .outcome
                    .revealed
                    .masked_demand
            };
            assert_ne!(
                masked(&reports[1]),
                masked(&fresh),
                "{engine}: coalition {shard} redrew its failed attempt's nonces"
            );
        }
    }
}
