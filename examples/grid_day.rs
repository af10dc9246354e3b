//! A grid-scale trading day: 1,000 smart homes partitioned into 30-odd
//! coalitions, each running the full PEM protocol stack in parallel on a
//! fixed worker pool, with every trade settled onto one hash-chained
//! ledger.
//!
//! ```text
//! cargo run --release --example grid_day
//! cargo run --release --example grid_day -- --homes 1000 --windows 4 \
//!     --coalition 31 --workers 8 --strategy surplus
//! # Cross-shard market coupling + dispersion-driven re-partitioning:
//! cargo run --release --example grid_day -- --couple --repartition
//! # Latency-aware fabrics (coalition windows *and* the coupling round
//! # run on the model; the coupling line reports its critical path):
//! cargo run --release --example grid_day -- --couple --latency lan
//! # Every fold of Protocols 2–4 on a binary tree instead of the ring
//! # (same markets and messages, a shorter critical path):
//! cargo run --release --example grid_day -- --latency lan --topology tree
//! # All coalitions as poll-able tasks on one deterministic executor
//! # thread (bit-identical reports; fabric:<batch> bounds residency):
//! cargo run --release --example grid_day -- --engine fabric
//! # Observability: Chrome trace (chrome://tracing / Perfetto) and a
//! # machine-readable full-day report.
//! cargo run --release --example grid_day -- --trace day.trace.json --json day.json
//! # Chaos smoke: a committed per-coalition fault plan (persistent drop
//! # on shard 0, transient drop on shard 1) with one retry per window —
//! # the day completes degraded, shard 0 quarantined, shard 1 recovered,
//! # every healthy coalition bit-identical to the fault-free run.
//! cargo run --release --example grid_day -- --chaos --retries 1 --json chaos.json
//! ```

use std::time::Instant;

use pem::core::{PemConfig, Topology};
use pem::coupling::{CouplingConfig, RepartitionConfig};
use pem::data::{TraceConfig, TraceGenerator};
use pem::net::{FaultKind, LatencyModel};
use pem::sched::{
    ChaosSpec, CoalitionStatus, Engine, GridConfig, GridOrchestrator, PartitionStrategy,
    RetryPolicy,
};

/// `--flag value` lookup over `std::env::args` (no external deps).
fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `true` if `--flag` is present (valueless).
fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() {
    let homes: usize = arg("--homes", 1000);
    let windows: usize = arg("--windows", 4).max(1);
    let coalition: usize = arg("--coalition", 31);
    let workers: usize = arg(
        "--workers",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    );
    let strategy = match arg("--strategy", "surplus".to_string()).as_str() {
        "round-robin" => PartitionStrategy::RoundRobin,
        "feeder" => PartitionStrategy::Feeder { feeders: 8 },
        _ => PartitionStrategy::SurplusBalanced,
    };
    let engine: Engine = match arg("--engine", "threads".to_string()).parse() {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("bad --engine: {e}");
            std::process::exit(2);
        }
    };
    let latency_name = arg("--latency", "zero".to_string());
    let latency = match latency_name.as_str() {
        "zero" => LatencyModel::zero(),
        "lan" => LatencyModel::lan(),
        "wan" => LatencyModel::wan(),
        other => {
            eprintln!("unknown --latency '{other}' (expected zero|lan|wan)");
            std::process::exit(2);
        }
    };
    let topology: Topology = match arg("--topology", "ring".to_string()).parse() {
        Ok(topology) => topology,
        Err(e) => {
            eprintln!("bad --topology: {e}");
            std::process::exit(2);
        }
    };
    let trace_path = arg("--trace", String::new());
    let json_path = arg("--json", String::new());
    if !trace_path.is_empty() || !json_path.is_empty() {
        // Spans, counters and message records start recording (the
        // trace folds its per-label traffic from the records); market
        // outputs are bit-identical either way.
        pem::telemetry::install();
    }
    let retries: u32 = arg("--retries", 1);
    let chaos = flag("--chaos");
    let couple = flag("--couple") || flag("--repartition");
    let coupling = couple.then(|| {
        let cfg = CouplingConfig::fast_test().with_latency(latency);
        if flag("--repartition") {
            cfg.with_repartition(RepartitionConfig::fast_test())
        } else {
            cfg
        }
    });

    println!("== PEM grid day ==");
    println!(
        "homes {homes} | windows {windows} | coalition ≤{coalition} | workers {workers} | engine {engine} | coupling {} | latency {latency_name} | topology {topology} | chaos {} | retries {retries}",
        if couple { "on" } else { "off" },
        if chaos { "on" } else { "off" },
    );

    // A full 24h of 15-minute windows at one-in-three solar penetration:
    // solar homes sell through the day, the rest buy, and the morning /
    // late-afternoon shoulders leave feeder neighborhoods on *both*
    // sides of the market — the regime cross-shard coupling arbitrages.
    let trace = TraceGenerator::new(TraceConfig {
        homes,
        windows: 96,
        window_minutes: 15,
        seed: 2020,
        solar_fraction: 0.35,
        ..TraceConfig::default()
    })
    .generate();
    // Start at ~9:00 (the morning shoulder) and wrap around the
    // 96-window day so any --windows value works.
    let day: Vec<_> = (0..windows)
        .map(|w| trace.window_agents((8 + w * 2) % trace.window_count()))
        .collect();

    // The paper's narrow [90, 110] band pins every morning equilibrium
    // to the floor; widen the retail/feed-in spread so Stackelberg
    // prices land *inside* the band and genuine cross-coalition price
    // dispersion appears (what the coupling round arbitrages).
    let mut pem = PemConfig::fast_test()
        .with_latency(latency)
        .with_topology(topology);
    pem.band = pem::market::PriceBand {
        grid_retail: 120.0,
        grid_feed_in: 20.0,
        floor: 30.0,
        ceiling: 110.0,
    };
    let mut grid = GridOrchestrator::new(GridConfig {
        pem,
        coalition_size: coalition,
        workers,
        engine,
        strategy,
        coupling,
        retry: RetryPolicy {
            max_attempts: retries,
        },
    })
    .expect("grid configuration");
    if chaos {
        // The committed chaos-smoke fault plan: shard 0's demand
        // aggregation drops on every attempt (quarantined all day),
        // shard 1's supply aggregation drops once per window on the
        // first attempt only (recovers via one deterministic retry).
        grid = grid.with_chaos(vec![
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
        ]);
    }

    // Front-load coalition formation + keygen (parallel on the workers).
    let setup = Instant::now();
    grid.form_shards(&day[0]).expect("shard formation");
    let plan = grid.plan().expect("plan fixed");
    println!(
        "formed {} coalitions (largest {}) in {:.1}s",
        plan.shard_count(),
        plan.largest(),
        setup.elapsed().as_secs_f64()
    );

    let start = Instant::now();
    let report = grid.run_day(&day).expect("grid day");
    let elapsed = start.elapsed().as_secs_f64();

    println!("\nwindow  shards g/e/n  cleared kWh  price μ±σ [min,max]   p99 lat   blocks");
    for w in &report.windows {
        let p = &w.prices;
        println!(
            "{:>6}  {:>2}/{:>2}/{:>2}  {:>11.2}  {:>6.2}±{:<5.2} [{:>6.2},{:>6.2}]  {:>6}µs  {:>6}",
            w.window,
            w.regime_counts[0],
            w.regime_counts[1],
            w.regime_counts[2],
            w.cleared_kwh,
            p.mean,
            p.stddev,
            p.min,
            p.max,
            w.latency.total.p99_us,
            w.settlement.blocks_appended,
        );
        if let Some(cs) = &w.coupling {
            if cs.engaged {
                println!(
                    "        └ coupled: corridor {:>6.2} ¢/kWh | σ {:.2}→{:.2} | {:>6.2} kWh over {} transfers | +{:.1} ¢ welfare | crit path {}µs{}",
                    cs.corridor_price,
                    cs.pre_dispersion,
                    cs.post_dispersion,
                    cs.transferred_kwh,
                    cs.transfer_count,
                    cs.welfare_gain_cents,
                    cs.critical_path_us,
                    if cs.repartitioned { " | re-partitioned" } else { "" },
                );
            } else {
                println!(
                    "        └ coupling idle: surplus {:.2} kWh vs deficit {:.2} kWh | crit path {}µs{}",
                    cs.surplus_kwh,
                    cs.deficit_kwh,
                    cs.critical_path_us,
                    if cs.repartitioned {
                        " | re-partitioned"
                    } else {
                        ""
                    },
                );
            }
        }
        if let Some(c) = &w.causal {
            let phases: Vec<String> = c
                .phase_us
                .iter()
                .map(|(name, us)| format!("{name} {us}µs"))
                .collect();
            println!(
                "        └ critical path: {}µs over {} hops ({})",
                c.total_us,
                c.hops.len(),
                phases.join(", "),
            );
        }
        let mut recovered: Vec<String> = Vec::new();
        let mut quarantined: Vec<String> = Vec::new();
        for (shard, status) in w.statuses.iter().enumerate() {
            match status {
                CoalitionStatus::Cleared => {}
                CoalitionStatus::Recovered { attempts } => {
                    recovered.push(format!(
                        "{shard} ({attempts} retr{})",
                        if *attempts == 1 { "y" } else { "ies" }
                    ));
                }
                CoalitionStatus::Quarantined { error } => {
                    quarantined.push(format!("{shard} [{error}]"));
                }
            }
        }
        if !recovered.is_empty() || !quarantined.is_empty() {
            println!(
                "        └ degraded: recovered [{}] | quarantined [{}]",
                recovered.join(", "),
                quarantined.join(", "),
            );
        }
    }

    let agents_windows = (homes * windows) as f64;
    println!("\n== day totals ==");
    println!("cleared energy     {:>12.2} kWh", report.cleared_kwh);
    println!("settled payments   {:>12.2} ¢", report.payments_cents);
    println!(
        "protocol traffic   {:>12} bytes in {} messages",
        report.total_bytes, report.total_messages
    );
    println!(
        "bytes/agent/window {:>12.1}",
        report.total_bytes as f64 / agents_windows
    );
    println!(
        "throughput         {:>12.1} agent-windows/s",
        agents_windows / elapsed
    );
    if couple {
        println!(
            "coupling           {:>12.2} kWh transferred, +{:.1} ¢ welfare, {} transfer blocks",
            report.transferred_kwh,
            report.coupling_welfare_cents,
            grid.ledger().coupling_blocks()
        );
    }
    println!(
        "settlement chain   {:>12} blocks, valid: {}",
        grid.ledger().blocks().len(),
        report.ledger_valid
    );
    let degraded: usize = report
        .windows
        .iter()
        .flat_map(|w| &w.statuses)
        .filter(|s| !matches!(s, CoalitionStatus::Cleared))
        .count();
    if degraded > 0 {
        let q = grid.quarantined();
        println!(
            "fault tolerance    {:>12} degraded coalition-windows; quarantined at close: {:?}",
            degraded, q
        );
    }
    let tip = grid.ledger().tip().hash;
    let hex: String = tip.iter().map(|b| format!("{b:02x}")).collect();
    println!("chain tip          {hex}");
    println!("wall clock         {elapsed:>12.1} s");

    if !json_path.is_empty() {
        std::fs::write(&json_path, report.to_json().to_string()).expect("write --json report");
        println!("json report        {json_path}");
    }
    if !trace_path.is_empty() {
        let events = pem::telemetry::drain();
        let msgs = pem::telemetry::drain_msgs();
        pem::telemetry::write_chrome_trace(&trace_path, &events, &msgs)
            .expect("write --trace file");
        println!(
            "chrome trace       {trace_path} ({} span events, {} message flows; \
             load in chrome://tracing)",
            events.len(),
            msgs.len()
        );
    }
}
