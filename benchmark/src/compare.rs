//! `benchmark compare <a> <b>`: do two sets of runs agree within the
//! benchmark's own bounds? A command, not a judgement.
//!
//! Each file holds `--out` records, one JSON object per line. For every
//! workload and end-to-end metric the verdict is
//!
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! * `unresolved` — either side's quartile spread exceeds the bound, so
//!   the medians cannot be told apart (unless every run of `b` reads
//!   better than every run of `a`). `setup_s` is exempt, as it is in
//!   the driver: only its medians are compared;
//! * `ok` — otherwise.

use std::collections::BTreeMap;

use pem_bench::json::Json;

use crate::stats;

/// An end-to-end metric's contract, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from_benchmark_json(text: &str) -> Result<Vec<Bound>, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

/// `workload → metric → values` over the untraced records of a file.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let rec = Json::parse(line).map_err(|e| bad(&e.to_string()))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no result.metrics"))?;
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

pub fn verdict(bound: &Bound, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = b is worse, as a share of a's median.
    let worse_by = if bound.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if worse_by > bound.bound {
        return Verdict::Worse;
    }
    let wide = |v: &[f64]| v.len() >= 2 && stats::spread(v) > bound.bound;
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if bound.higher_is_better { y > x } else { y < x })
    });
    if bound.name != "setup_s" && (wide(a) || wide(b)) && !b_always_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Prints one row per workload and metric; `true` when every row is ok.
pub fn compare(bounds: &[Bound], a: &Runs, b: &Runs) -> bool {
    println!(
        "{:<24} {:<26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "b vs a", "iqr a", "iqr b", "bound"
    );
    let mut all_ok = true;
    for (workload, metrics_a) in a {
        for bound in bounds {
            let (Some(va), Some(vb)) = (
                metrics_a.get(&bound.name),
                b.get(workload).and_then(|m| m.get(&bound.name)),
            ) else {
                println!("{workload:<24} {:<26} missing from one side", bound.name);
                all_ok = false;
                continue;
            };
            let v = verdict(bound, va, vb);
            all_ok &= v == Verdict::Ok;
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let pct = |v: &[f64]| {
                if v.len() >= 2 {
                    format!("{:.1}%", stats::spread(v) * 100.0)
                } else {
                    "-".to_string()
                }
            };
            println!(
                "{workload:<24} {:<26} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>8} {:>8} {:>5.0}%  {}",
                bound.name,
                (mb / ma - 1.0) * 100.0,
                pct(va),
                pct(vb),
                bound.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(name: &str, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        let b = lower("window_p50_ms", 0.10);
        assert_eq!(verdict(&b, &steady, &steady), Verdict::Ok);
        assert_eq!(verdict(&b, &steady, &slower), Verdict::Worse);
        assert_eq!(verdict(&b, &slower, &steady), Verdict::Ok);
        assert_eq!(verdict(&b, &steady, &noisy), Verdict::Unresolved);
        // Every run of b better than every run of a: resolved despite noise.
        let fast_noisy = [10.0, 50.0, 30.0, 20.0, 60.0];
        assert_eq!(verdict(&b, &steady, &fast_noisy), Verdict::Ok);
        // setup_s is judged on medians alone.
        assert_eq!(
            verdict(&lower("setup_s", 0.10), &steady, &noisy),
            Verdict::Ok
        );
        let higher = Bound {
            name: "agent_windows_per_s".into(),
            higher_is_better: true,
            bound: 0.10,
        };
        assert_eq!(verdict(&higher, &slower, &steady), Verdict::Worse);
        assert_eq!(verdict(&higher, &steady, &slower), Verdict::Ok);
    }

    #[test]
    fn reads_records_and_bounds() {
        let text = concat!(
            r#"{"workload": "w", "seed": 1, "trace": 0, "result": {"correct": true, "attempted": 4, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}}"#,
            "\n\n",
            r#"{"workload": "w", "seed": 2, "trace": 0, "result": {"correct": true, "attempted": 4, "failed": 0, "metrics": {"setup_s": {"value": 2.5, "unit": "s"}}}}"#,
            "\n",
            r#"{"workload": "w", "seed": 2, "trace": 1, "result": {"correct": true, "attempted": 4, "failed": 0, "metrics": {"core.window_ms": {"value": 9, "unit": "ms"}}}}"#,
        );
        let runs = parse_runs(text).expect("records");
        assert_eq!(runs["w"]["setup_s"], [1.5, 2.5]);
        assert!(
            !runs["w"].contains_key("core.window_ms"),
            "traced runs skipped"
        );
        assert!(parse_runs("{not json").is_err());

        let bounds = bounds_from_benchmark_json(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .expect("bounds");
        assert_eq!(bounds, [lower("setup_s", 0.25)]);
        assert!(bounds_from_benchmark_json("{}").is_err());
    }
}
