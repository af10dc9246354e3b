//! **Fig. 5** — Computational performance of the PEM protocols.
//!
//! * `--figure a` — Fig. 5(a): average runtime per trading window as the
//!   number of processed windows grows, for several population sizes at
//!   one key size. Paper shape: flat (≈ constant per-window cost), higher
//!   for larger `n`.
//! * `--figure b` — Fig. 5(b): total runtime vs. number of windows for
//!   several key sizes at one population size. Paper shape: linear in the
//!   window count; the curves for different key sizes separate.
//! * `--figure c` — Fig. 5(c): total runtime for a full day vs. population
//!   size, per key size. Paper shape: growing in `n` for every key size.
//!
//! Defaults are scaled down so the sweep finishes in minutes on a laptop:
//! toy key sizes (128/192/256), the 192-bit OT test group, small
//! populations, and `--sample` windows measured out of the full day (the
//! per-window cost is what the figure reports, so sampling preserves the
//! shape). Run with `--paper` for the paper's exact grid — 512/1024/2048-
//! bit keys, the edwards25519 OT group, 100–300 homes, all 720 windows; this
//! takes many hours of CPU.
//!
//! ```text
//! cargo run -p pem-bench --release --bin fig5_runtime -- --figure a
//! cargo run -p pem-bench --release --bin fig5_runtime -- --figure b --agents 24 --sample 12
//! cargo run -p pem-bench --release --bin fig5_runtime -- --figure c --paper   # hours!
//! ```

use std::time::Duration;

use pem_bench::{fmt_f, print_csv, sample_windows, Args};
use pem_core::{OtProfile, Pem, PemConfig};
use pem_data::{Trace, TraceConfig, TraceGenerator};

struct Profile {
    key_sizes: Vec<usize>,
    agent_sizes: Vec<usize>,
    sample: usize,
    ot: OtProfile,
}

fn profile(args: &Args) -> Profile {
    if args.get_flag("paper") {
        Profile {
            key_sizes: args.get_usize_list("keys", &[512, 1024, 2048]),
            agent_sizes: args.get_usize_list("agents", &[100, 200, 300]),
            sample: args.get_usize("sample", 720),
            ot: OtProfile::Ed25519,
        }
    } else {
        Profile {
            key_sizes: args.get_usize_list("keys", &[128, 192, 256]),
            agent_sizes: args.get_usize_list("agents", &[10, 20, 30]),
            sample: args.get_usize("sample", 16),
            ot: OtProfile::Test192,
        }
    }
}

fn make_trace(homes: usize, seed: u64) -> Trace {
    TraceGenerator::new(TraceConfig {
        homes,
        windows: 720,
        seed,
        ..TraceConfig::default()
    })
    .generate()
}

fn config(key_bits: usize, ot: OtProfile, seed: u64) -> PemConfig {
    let mut cfg = PemConfig::paper(key_bits);
    cfg.ot_profile = ot;
    cfg.seed = seed;
    cfg
}

/// Measures the sampled windows; returns per-window compute durations.
///
/// Samples are drawn from the windows where both coalitions are
/// non-empty: one-sided windows skip all three protocols (zero crypto
/// cost), so including them under sparse sampling would just dilute the
/// per-window average the figure reports.
fn run_samples(trace: &Trace, cfg: PemConfig, sample: usize) -> Vec<Duration> {
    let mut pem = Pem::new(cfg, trace.home_count()).expect("pem setup");
    let market_windows: Vec<usize> = (0..trace.window_count())
        .filter(|&w| {
            let c = pem_market::Coalitions::form(&trace.window_agents(w));
            !c.sellers.is_empty() && !c.buyers.is_empty()
        })
        .collect();
    assert!(
        !market_windows.is_empty(),
        "trace has no two-sided windows; increase the population"
    );
    sample_windows(market_windows.len(), sample)
        .into_iter()
        .map(|i| {
            let out = pem
                .run_window(&trace.window_agents(market_windows[i]))
                .expect("window");
            out.metrics.total_elapsed()
        })
        .collect()
}

fn figure_a(p: &Profile, seed: u64) {
    let key = *p.key_sizes.last().expect("non-empty");
    eprintln!(
        "# fig5a: avg runtime per window, key={key} bits, n={:?}",
        p.agent_sizes
    );
    let mut columns = Vec::new();
    for &n in &p.agent_sizes {
        let trace = make_trace(n, seed);
        columns.push(run_samples(&trace, config(key, p.ot, seed), p.sample));
    }
    let mut rows = Vec::new();
    let count = columns[0].len();
    let mut running: Vec<f64> = vec![0.0; columns.len()];
    for i in 0..count {
        let mut row = vec![((i + 1) * 720 / count).to_string()];
        for (c, col) in columns.iter().enumerate() {
            running[c] += col[i].as_secs_f64();
            row.push(format!("{:.6}", running[c] / (i + 1) as f64));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("windows_processed".to_string())
        .chain(p.agent_sizes.iter().map(|n| format!("avg_runtime_s_n{n}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("## fig5a key_bits={key}");
    print_csv(&header_refs, &rows);
}

fn figure_b(p: &Profile, seed: u64) {
    let n = p.agent_sizes[p.agent_sizes.len() / 2];
    eprintln!(
        "# fig5b: total runtime vs windows, n={n}, keys={:?}",
        p.key_sizes
    );
    let trace = make_trace(n, seed);
    let mut columns = Vec::new();
    for &key in &p.key_sizes {
        columns.push(run_samples(&trace, config(key, p.ot, seed), p.sample));
    }
    let count = columns[0].len();
    let mut running: Vec<f64> = vec![0.0; columns.len()];
    let mut rows = Vec::new();
    let scale = 720.0 / count as f64; // extrapolate sampled → full day
    for i in 0..count {
        let mut row = vec![(((i + 1) as f64 * scale) as usize).to_string()];
        for (c, col) in columns.iter().enumerate() {
            running[c] += col[i].as_secs_f64();
            row.push(fmt_f(running[c] * scale));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("windows".to_string())
        .chain(
            p.key_sizes
                .iter()
                .map(|k| format!("total_runtime_s_key{k}")),
        )
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("## fig5b agents={n}");
    print_csv(&header_refs, &rows);
}

fn figure_c(p: &Profile, seed: u64) {
    eprintln!(
        "# fig5c: full-day runtime vs agents, keys={:?}",
        p.key_sizes
    );
    let mut rows = Vec::new();
    for &n in &p.agent_sizes {
        let trace = make_trace(n, seed);
        let mut row = vec![n.to_string()];
        for &key in &p.key_sizes {
            let samples = run_samples(&trace, config(key, p.ot, seed), p.sample);
            let avg: f64 =
                samples.iter().map(Duration::as_secs_f64).sum::<f64>() / samples.len() as f64;
            row.push(fmt_f(avg * 720.0)); // projected full-day total
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("agents".to_string())
        .chain(p.key_sizes.iter().map(|k| format!("runtime_720w_s_key{k}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("## fig5c");
    print_csv(&header_refs, &rows);
}

fn main() {
    let args = Args::from_env();
    let seed = args.get_u64("seed", 2020);
    let p = profile(&args);
    let figure = args.get_str("figure", "all");
    match figure.as_str() {
        "a" => figure_a(&p, seed),
        "b" => figure_b(&p, seed),
        "c" => figure_c(&p, seed),
        _ => {
            figure_a(&p, seed);
            figure_b(&p, seed);
            figure_c(&p, seed);
        }
    }
}
