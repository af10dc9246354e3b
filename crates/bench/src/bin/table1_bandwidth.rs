//! **Table I** — Average bandwidth (MB) over `m` trading windows.
//!
//! Reproduces the paper's table: for each Paillier key size, the average
//! per-window traffic of the whole population (MB), reported at
//! `m ∈ {300, 360, …, 720}` processed windows. The paper's values are
//! roughly constant in `m` (the per-window traffic does not depend on the
//! day length) and grow with the key size (ciphertexts are `2·key_bits`);
//! both properties are what this binary demonstrates.
//!
//! Defaults are scaled down (smaller population, toy key sizes, sampled
//! windows); `--paper` switches to 200 homes and 512/1024/2048-bit keys.
//!
//! ```text
//! cargo run -p pem-bench --release --bin table1_bandwidth -- [--homes 24] [--sample 10] [--paper]
//! ```

use pem_bench::{print_csv, sample_windows, Args};
use pem_core::{OtProfile, Pem, PemConfig};
use pem_data::{TraceConfig, TraceGenerator};

fn main() {
    let args = Args::from_env();
    let paper = args.get_flag("paper");
    let homes = args.get_usize("homes", if paper { 200 } else { 24 });
    let keys = args.get_usize_list(
        "keys",
        if paper {
            &[512, 1024, 2048]
        } else {
            &[128, 192, 256]
        },
    );
    let sample = args.get_usize("sample", if paper { 48 } else { 10 });
    let seed = args.get_u64("seed", 2020);
    let m_points: Vec<usize> = args.get_usize_list("m", &[300, 360, 420, 480, 540, 600, 660, 720]);
    eprintln!("# table1_bandwidth: homes={homes} keys={keys:?} sample={sample} seed={seed}");

    let trace = TraceGenerator::new(TraceConfig {
        homes,
        windows: 720,
        seed,
        ..TraceConfig::default()
    })
    .generate();

    // Measure the mean per-window traffic for each key size over an even
    // sample of the day (market composition varies across the day, so the
    // sample covers morning/noon/evening regimes).
    let mut per_window_mb = Vec::new();
    for &key in &keys {
        let mut cfg = PemConfig::paper(key);
        cfg.ot_profile = if paper {
            OtProfile::Ed25519
        } else {
            OtProfile::Test192
        };
        cfg.seed = seed;
        let mut pem = Pem::new(cfg, homes).expect("pem setup");
        let windows = sample_windows(720, sample);
        let mut total_bytes = 0u64;
        for &w in &windows {
            let out = pem.run_window(&trace.window_agents(w)).expect("window");
            total_bytes += out.net.total_bytes;
        }
        per_window_mb.push(total_bytes as f64 / windows.len() as f64 / 1e6);
    }

    // Table I reports the average over the first m windows; since the
    // per-window traffic is stationary, every m column shows the same
    // mean (the paper's rows are flat in m for the same reason).
    let mut rows = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        let mut row = vec![format!("{key}-bit")];
        for _m in &m_points {
            row.push(format!("{:.6}", per_window_mb[i]));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("key \\ m".to_string())
        .chain(m_points.iter().map(|m| m.to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("## table1 average per-window bandwidth (MB), {homes} homes");
    print_csv(&header_refs, &rows);

    for (i, &key) in keys.iter().enumerate() {
        eprintln!("# shape: {key}-bit → {:.6} MB/window", per_window_mb[i]);
    }
    if keys.len() >= 2 {
        eprintln!(
            "# shape: traffic ratio largest/smallest key = {:.2}x",
            per_window_mb[keys.len() - 1] / per_window_mb[0]
        );
    }
}
