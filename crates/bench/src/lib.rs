//! Shared harness utilities for the bench binaries.
//!
//! The `repro` binary regenerates the paper's evaluation section (§VII)
//! and prints each artifact as CSV (machine-readable) with a trailing
//! human-readable summary of the *shape* the paper reports; [`repro`] is
//! the experiment index.
//!
//! The JSON artifacts (`crypto_kernels` and `telemetry_overhead` runs,
//! `ablation_topology` rows, `grid_doctor`'s verdict) are built and
//! rendered with [`json::Json`] — [`pem_telemetry::json`], re-exported
//! here — which is also the parser `grid_doctor` reads them back with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::str::FromStr;

pub mod doctor;
pub mod repro;
pub use pem_telemetry::json;

use json::Json;

/// A minimal `--flag value` / `--flag` parser (no external deps).
///
/// # Example
///
/// ```
/// use pem_bench::Args;
/// let args = Args::from_tokens(["--homes", "50", "--paper"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_usize("homes", 300), 50);
/// assert!(args.get_flag("paper"));
/// assert_eq!(args.get_usize("windows", 720), 720);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses from the process arguments (skipping `argv[0]`).
    pub fn from_env() -> Args {
        Args::from_tokens(std::env::args().skip(1))
    }

    /// Parses from an iterator of tokens.
    pub fn from_tokens<I: IntoIterator<Item = String>>(iter: I) -> Args {
        let mut out = Args::default();
        let tokens: Vec<String> = iter.into_iter().collect();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(name) = t.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    out.values.insert(name.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    out.flags.push(name.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        out
    }

    /// Value of `--name` as usize, or `default`. An unparsable value is
    /// a usage error, as for every numeric getter: it names the flag on
    /// stderr and exits with status 2.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.parsed(name, default, "a non-negative integer")
    }

    /// Value of `--name` as u64, or `default`.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.parsed(name, default, "a non-negative integer")
    }

    /// Value of `--name` as f64, or `default`.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.parsed(name, default, "a number")
    }

    /// Value of `--name` as string, or `default`.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.values
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Comma-separated list of usizes, or `default`.
    pub fn get_usize_list(&self, name: &str, default: &[usize]) -> Vec<usize> {
        let what = "a comma-separated list of non-negative integers";
        match self.values.get(name) {
            None => default.to_vec(),
            Some(v) => (v.split(','))
                .map(|x| x.trim().parse().map_err(|_| usage(name, v, what)))
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| exit_usage(&e)),
        }
    }

    /// [`Args::parsed`] without the exit: the usage message on an
    /// unparsable value.
    fn try_parsed<T: FromStr>(&self, name: &str, default: T, what: &str) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| usage(name, v, what)),
        }
    }

    /// Value of `--name` parsed as `T`, or `default` when it is absent;
    /// an unparsable value exits with status 2, naming the flag.
    fn parsed<T: FromStr>(&self, name: &str, default: T, what: &str) -> T {
        self.try_parsed(name, default, what)
            .unwrap_or_else(|e| exit_usage(&e))
    }

    /// `true` if `--name` was passed without a value.
    pub fn get_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// The usage message for `--name value` when `value` is not `what`.
fn usage(name: &str, value: &str, what: &str) -> String {
    format!("--{name} takes {what}, not {value:?}")
}

/// Prints a usage error and exits with status 2.
fn exit_usage(message: &str) -> ! {
    eprintln!("usage: {message}");
    std::process::exit(2)
}

/// Evenly samples `count` window indices out of `total` (always includes
/// the first and last when `count >= 2`).
///
/// # Example
///
/// ```
/// assert_eq!(pem_bench::sample_windows(720, 4), vec![0, 239, 479, 719]);
/// assert_eq!(pem_bench::sample_windows(10, 20).len(), 10);
/// ```
pub fn sample_windows(total: usize, count: usize) -> Vec<usize> {
    if count == 0 || total == 0 {
        return Vec::new();
    }
    if count >= total {
        return (0..total).collect();
    }
    if count == 1 {
        return vec![total / 2];
    }
    (0..count)
        .map(|i| (i * (total - 1)) / (count - 1))
        .collect()
}

/// Formats a float compactly for CSV cells.
pub fn fmt_f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// `v` rounded to `places` decimals: the precision a trajectory figure
/// is recorded at.
pub fn rounded(v: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (v * scale).round() / scale
}

/// One trajectory run in the `BENCH_crypto.json` shape,
/// `{"entries": […], "run": label}` — what `crypto_kernels` and
/// `telemetry_overhead` print.
pub fn trajectory_run(label: &str, entries: Vec<Json>) -> Json {
    pem_telemetry::json_object! { "run": label, "entries": Json::Arr(entries) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_mixed() {
        let a = Args::from_tokens(
            ["--n", "10", "--paper", "--sizes", "1,2,3", "positional"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.get_usize("n", 0), 10);
        assert!(a.get_flag("paper"));
        assert_eq!(a.get_usize_list("sizes", &[9]), vec![1, 2, 3]);
        assert_eq!(a.get_usize_list("missing", &[9]), vec![9]);
        assert!(!a.get_flag("n"));
        assert_eq!(a.get_str("missing", "x"), "x");
    }

    #[test]
    fn an_unparsable_number_is_a_usage_error_naming_its_flag() {
        let a = Args::from_tokens(["--windows", "2O"].iter().map(|s| s.to_string()));
        let err = a.try_parsed("windows", 720usize, "a non-negative integer");
        assert_eq!(
            err,
            Err("--windows takes a non-negative integer, not \"2O\"".into())
        );
        assert_eq!(a.try_parsed("homes", 30usize, "n"), Ok(30));
    }

    #[test]
    fn args_flag_at_end() {
        let a = Args::from_tokens(["--full"].iter().map(|s| s.to_string()));
        assert!(a.get_flag("full"));
    }

    #[test]
    fn sampling_edges() {
        assert_eq!(sample_windows(720, 0), Vec::<usize>::new());
        assert_eq!(sample_windows(0, 5), Vec::<usize>::new());
        assert_eq!(sample_windows(10, 1), vec![5]);
        let s = sample_windows(720, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert_eq!(*s.last().expect("non-empty"), 719);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(123.456), "123.46");
        assert_eq!(fmt_f(1.23456), "1.2346");
        assert_eq!(rounded(123.456, 1), 123.5);
        assert_eq!(rounded(0.125, 2).to_string(), "0.13");
    }

    #[test]
    fn trajectory_runs_render_hostile_labels_and_non_finite_figures() {
        let label = "ci \"smoke\"\n\\ µ";
        let entry = Json::obj([
            ("ot_group", "ed25519".into()),
            ("x_mean_us", rounded(f64::NAN, 1).into()),
            ("y_mean_us", rounded(2.25, 1).into()),
        ]);
        let text = trajectory_run(label, vec![entry]).to_string();
        let run = Json::parse(&text).expect("a run always renders valid JSON");
        assert_eq!(run.get("run").and_then(Json::as_str), Some(label));
        let entry = &run
            .get("entries")
            .and_then(Json::as_array)
            .expect("entries")[0];
        assert_eq!(entry.get("x_mean_us"), Some(&Json::Null));
        assert_eq!(entry.get("y_mean_us").and_then(Json::as_f64), Some(2.3));
        assert!(text.contains("\"ot_group\":\"ed25519\",\"x_mean_us\":null"));
    }
}
