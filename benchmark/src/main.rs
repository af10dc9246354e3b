//! The repo's benchmark of record. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! benchmark compare <a.jsonl> <b.jsonl> [--bounds BENCHMARK.json]
//! benchmark list
//! ```

mod budget;
mod calibrate;
mod compare;
mod output;
mod probes;
mod run;
mod stats;
mod workload;

use std::io::Write;
use std::process::ExitCode;

use pem_bench::Args;

use workload::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, for runs by hand.
const DEFAULT_SECONDS: f64 = 15.0;

fn fail(message: &str) -> ExitCode {
    eprintln!("benchmark: {message}");
    ExitCode::from(2)
}

fn compare_files(argv: &[String]) -> ExitCode {
    let args = Args::from_tokens(argv.iter().cloned());
    let files: Vec<&String> = argv
        .iter()
        .skip(1)
        .take_while(|a| !a.starts_with("--"))
        .collect();
    let [a, b] = files[..] else {
        return fail("usage: benchmark compare <a.jsonl> <b.jsonl> [--bounds BENCHMARK.json]");
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = read(&args.get_str("bounds", "BENCHMARK.json"))
        .and_then(|t| compare::bounds_from_benchmark_json(&t))
        .and_then(|bounds| {
            let a = compare::parse_runs(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
            let b = compare::parse_runs(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
            Ok((bounds, a, b))
        });
    match loaded {
        Ok((bounds, a, b)) if compare::compare(&bounds, &a, &b) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => fail(&e),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare_files(&argv),
        Some("list") => {
            for w in WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = Args::from_tokens(argv);
    let name = args.get_str("workload", "");
    let Some(workload) = Workload::by_name(&name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return fail(&format!(
            "--workload must be one of {}; got {name:?}",
            names.join(", ")
        ));
    };
    let seconds = args.get_f64("seconds", DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return fail("--seconds must be in (0, 60]");
    }
    let opts = run::Options {
        workload,
        seed: args.get_u64("seed", 2020),
        seconds,
        trace: args.get_u64("trace", 0) != 0,
    };
    let result = run::run(&opts);
    let out = args.get_str("out", "");
    if !out.is_empty() {
        let record = result.to_record(workload.name, opts.seed, opts.trace);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            return fail(&format!("--out {out}: {e}"));
        }
    }
    result.print();
    if result.correct && result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
