//! `grid_doctor` — regression sentinel over the committed bench
//! trajectories and a `grid_day --json` day report.
//!
//! ```text
//! grid_doctor [--crypto BENCH_crypto.json] [--topology BENCH_topology.json]
//!             [--grid-day grid_day.json] [--chaos chaos_day.json]
//!             [--baseline RUN] [--current RUN]
//!             [--threshold 0.25] [--out verdict.json]
//! ```
//!
//! `--chaos` takes a `grid_day --chaos --json` report and gates the
//! fault-tolerance invariants against the fault-free `--grid-day`
//! report (which is required alongside it: it is the clean baseline the
//! healthy coalitions' fingerprints are compared to).
//!
//! Exit status: `0` when every check passes, `1` when a regression is
//! flagged, `2` on a usage or load error. The verdict (and the artifact
//! written via `--out`) lists every check with its baseline, current
//! value and relative change; see `pem_bench::doctor` for what each
//! family of checks asserts.

use std::process::ExitCode;

use pem_bench::doctor::{
    chaos_checks, crypto_checks, grid_day_checks, topology_checks, Check, Verdict,
};
use pem_bench::json::Json;
use pem_bench::Args;

fn load(path: &str, what: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {what} file {path:?}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{what} file {path:?} is not valid JSON: {e}"))
}

fn run() -> Result<Verdict, String> {
    let args = Args::from_env();
    let crypto_path = args.get_str("crypto", "BENCH_crypto.json");
    let topology_path = args.get_str("topology", "BENCH_topology.json");
    let grid_day_path = args.get_str("grid-day", "");
    let chaos_path = args.get_str("chaos", "");
    let baseline = args.get_str("baseline", "");
    let current = args.get_str("current", "");
    let threshold = args.get_f64("threshold", 0.25);
    let out_path = args.get_str("out", "");
    if !(0.0..10.0).contains(&threshold) {
        return Err(format!("--threshold {threshold} out of range [0, 10)"));
    }

    let mut checks: Vec<Check> = Vec::new();
    let mut sections = 0usize;

    if std::path::Path::new(&crypto_path).exists() {
        let doc = load(&crypto_path, "crypto trajectory")?;
        let (base, cur, mut c) = crypto_checks(
            &doc,
            (!baseline.is_empty()).then_some(baseline.as_str()),
            (!current.is_empty()).then_some(current.as_str()),
            threshold,
        )?;
        println!(
            "crypto: {} metrics, baseline run {base:?} vs current run {cur:?}",
            c.len()
        );
        checks.append(&mut c);
        sections += 1;
    } else {
        eprintln!("grid_doctor: skipping crypto checks ({crypto_path:?} not found)");
    }

    if std::path::Path::new(&topology_path).exists() {
        let doc = load(&topology_path, "topology ablation")?;
        let mut c = topology_checks(&doc)?;
        println!("topology: {} invariants", c.len());
        checks.append(&mut c);
        sections += 1;
    } else {
        eprintln!("grid_doctor: skipping topology checks ({topology_path:?} not found)");
    }

    if !grid_day_path.is_empty() {
        let doc = load(&grid_day_path, "grid_day report")?;
        let mut c = grid_day_checks(&doc)?;
        println!("grid_day: {} sanity checks", c.len());
        checks.append(&mut c);
        sections += 1;

        if !chaos_path.is_empty() {
            let chaos = load(&chaos_path, "chaos day report")?;
            let mut c = chaos_checks(&doc, &chaos)?;
            println!("chaos: {} fault-tolerance invariants", c.len());
            checks.append(&mut c);
            sections += 1;
        }
    } else if !chaos_path.is_empty() {
        return Err(
            "--chaos needs --grid-day alongside it (the fault-free baseline the degraded \
             run is compared to)"
                .into(),
        );
    }

    if sections == 0 {
        return Err(
            "nothing to check: no input file found (see --crypto / --topology / --grid-day)".into(),
        );
    }

    let verdict = Verdict { checks, threshold };
    println!(
        "\n{:<40} {:>14} {:>14} {:>9}  status",
        "check", "baseline", "current", "change"
    );
    for c in &verdict.checks {
        println!(
            "{:<40} {:>14.3} {:>14.3} {:>+8.1}%  {}",
            c.name,
            c.baseline,
            c.current,
            c.change_pct,
            if c.regressed { "REGRESSED" } else { "ok" }
        );
    }

    if !out_path.is_empty() {
        std::fs::write(&out_path, format!("{}\n", verdict.to_json()))
            .map_err(|e| format!("cannot write verdict to {out_path:?}: {e}"))?;
        println!("\nverdict written to {out_path}");
    }
    Ok(verdict)
}

fn main() -> ExitCode {
    match run() {
        Ok(verdict) => {
            let regressions = verdict.regressions();
            if regressions.is_empty() {
                println!(
                    "\ngrid_doctor: all {} checks passed (threshold {:.0}%)",
                    verdict.checks.len(),
                    verdict.threshold * 100.0
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "\ngrid_doctor: {} of {} checks REGRESSED past {:.0}%:",
                    regressions.len(),
                    verdict.checks.len(),
                    verdict.threshold * 100.0
                );
                for c in regressions {
                    eprintln!(
                        "  {} ({} -> {}, {:+.1}%)",
                        c.name, c.baseline, c.current, c.change_pct
                    );
                }
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("grid_doctor: {e}");
            ExitCode::from(2)
        }
    }
}
