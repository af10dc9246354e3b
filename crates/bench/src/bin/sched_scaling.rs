//! Scheduler scaling sweep: population × coalition size × worker count ×
//! aggregation topology, emitting one JSON object per configuration
//! (agents/sec, bytes/agent, latency percentiles) — the perf trajectory
//! of the sharded grid.
//!
//! ```text
//! cargo run --release -p pem-bench --bin sched_scaling -- \
//!     --populations 120,240 --coalitions 10,20 --workers 1,2,4 \
//!     --windows 2 --topologies ring,star,tree --key-bits 128
//! ```
//!
//! `--topologies ring,star,tree[:fanin]` sweeps Protocol 3's aggregation
//! shape (the paper's O(n) sequential ring, the depth-1 star fan-in, or
//! the O(log n)-depth f-ary tree) so the window-latency win of the
//! hot-path work shows up end to end;
//! `--key-bits` scales the Paillier keys toward the paper's sizes.
//!
//! Output is a JSON array (one element per swept configuration) followed
//! by a human-readable summary table on stderr-free stdout.

use std::time::Instant;

use pem_bench::Args;
use pem_core::{PemConfig, Topology};
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::AgentWindow;
use pem_sched::{
    Engine, GridConfig, GridOrchestrator, LatencyPercentiles, PartitionStrategy, RetryPolicy,
};

struct Row {
    population: usize,
    coalition: usize,
    workers: usize,
    topology: Topology,
    key_bits: usize,
    shards: usize,
    windows: usize,
    setup_s: f64,
    run_s: f64,
    agents_per_s: f64,
    bytes_per_agent: f64,
    cleared_kwh: f64,
    /// Last window's total-phase latency, rendered with the canonical
    /// [`LatencyPercentiles::to_json`] keys (`p50_us`/`p90_us`/
    /// `p99_us`/`max_us`) shared with `GridReport::to_json`.
    latency_total: LatencyPercentiles,
    pool_hit_rate: f64,
}

fn day(population: usize, windows: usize) -> Vec<Vec<AgentWindow>> {
    let trace = TraceGenerator::new(TraceConfig {
        homes: population,
        windows: 96,
        seed: 2020,
        ..TraceConfig::default()
    })
    .generate();
    (0..windows)
        .map(|w| trace.window_agents((40 + w * 2) % trace.window_count()))
        .collect()
}

fn sweep(
    population: usize,
    coalition: usize,
    workers: usize,
    windows: usize,
    pool: usize,
    topology: Topology,
    key_bits: usize,
) -> Row {
    let data = day(population, windows);
    let mut pem = PemConfig::fast_test()
        .with_randomizer_pool(pool)
        .with_topology(topology);
    pem.key_bits = key_bits;
    let mut grid = GridOrchestrator::new(GridConfig {
        pem,
        coalition_size: coalition,
        workers,
        engine: Engine::Threads,
        strategy: PartitionStrategy::SurplusBalanced,
        coupling: None,
        retry: RetryPolicy::default(),
    })
    .expect("grid configuration");

    let setup = Instant::now();
    grid.form_shards(&data[0]).expect("shard formation");
    let setup_s = setup.elapsed().as_secs_f64();
    let shards = grid.plan().expect("plan").shard_count();

    let start = Instant::now();
    let report = grid.run_day(&data).expect("grid day");
    let run_s = start.elapsed().as_secs_f64();

    let agent_windows = (population * windows) as f64;
    let last = report.windows.last().expect("windows ran");
    Row {
        population,
        coalition,
        workers,
        topology,
        key_bits,
        shards,
        windows,
        setup_s,
        run_s,
        agents_per_s: agent_windows / run_s,
        bytes_per_agent: report.total_bytes as f64 / agent_windows,
        cleared_kwh: report.cleared_kwh,
        latency_total: last.latency.total,
        pool_hit_rate: report.pool.map_or(0.0, |p| p.hit_rate()),
    }
}

fn json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"population\": {}, \"coalition_size\": {}, \"workers\": {}, ",
                "\"topology\": \"{}\", \"key_bits\": {}, ",
                "\"shards\": {}, \"windows\": {}, \"setup_s\": {:.3}, \"run_s\": {:.3}, ",
                "\"agents_per_s\": {:.1}, \"bytes_per_agent\": {:.1}, ",
                "\"cleared_kwh\": {:.3}, \"latency_total\": {}, ",
                "\"pool_hit_rate\": {:.4}}}{}"
            ),
            r.population,
            r.coalition,
            r.workers,
            r.topology,
            r.key_bits,
            r.shards,
            r.windows,
            r.setup_s,
            r.run_s,
            r.agents_per_s,
            r.bytes_per_agent,
            r.cleared_kwh,
            r.latency_total.to_json(),
            r.pool_hit_rate,
            if i + 1 < rows.len() { ",\n" } else { "\n" }
        ));
    }
    out.push(']');
    out
}

fn main() {
    let args = Args::from_env();
    let populations = args.get_usize_list("populations", &[120, 240]);
    let coalitions = args.get_usize_list("coalitions", &[10, 20]);
    let workers = args.get_usize_list("workers", &[1, 2, 4]);
    let windows = args.get_usize("windows", 2);
    let pool = args.get_usize("pool", 48);
    let key_bits = args.get_usize("key-bits", 128);
    let topologies: Vec<Topology> = args
        .get_str("topologies", "ring")
        .split(',')
        .map(|t| t.parse().expect("topology"))
        .collect();

    let mut rows = Vec::new();
    for &population in &populations {
        for &coalition in &coalitions {
            for &w in &workers {
                for &t in &topologies {
                    rows.push(sweep(population, coalition, w, windows, pool, t, key_bits));
                }
            }
        }
    }

    println!("{}", json(&rows));
    println!();
    println!("population coalition workers topology shards  agents/s  bytes/agent  p99(µs)");
    for r in &rows {
        println!(
            "{:>10} {:>9} {:>7} {:>8} {:>6} {:>9.1} {:>12.1} {:>8}",
            r.population,
            r.coalition,
            r.workers,
            r.topology,
            r.shards,
            r.agents_per_s,
            r.bytes_per_agent,
            r.latency_total.p99_us
        );
    }
}
