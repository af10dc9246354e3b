//! Small statistics: percentiles with the sample-count rule, quartile
//! spread as the driver takes it, and process CPU time from `/proc`.

/// Nearest-rank percentile (`p` in percent) of an ascending-sorted,
/// non-empty slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (sorted.len() * p as usize)
        .div_ceil(100)
        .clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median as Python's `statistics.median` gives it: the mean of the
/// two middle values when there is an even number of them.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest percentile with at least ten samples beyond it — the only
/// tail a run of `n` samples can report honestly. Falls back to the
/// median when even p75 has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> u32 {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 1000)
        .unwrap_or(50)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
/// Fields 14 and 15 are `utime` and `stime` in clock ticks; `comm`
/// (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`. Linux reports ticks at `USER_HZ` = 100
/// on every architecture.
pub fn parse_proc_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// CPU seconds this process (all threads, exited ones included) has used.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_proc_stat_cpu_s(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(1000), 99);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5, 10], n=4) == [3.0, 4.0, 7.5]
        let (q1, q3) = quartiles(&[10.0, 4.0, 2.0, 5.0, 4.0]);
        assert!((q1 - 3.0).abs() < 1e-12 && (q3 - 7.5).abs() < 1e-12);
        assert!((spread(&[10.0, 4.0, 2.0, 5.0, 4.0]) - 4.5 / 4.0).abs() < 1e-12);
        // Two samples: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5].
        let (q1, q3) = quartiles(&[1.0, 3.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn proc_stat_survives_hostile_comm() {
        let stat = "4242 (a) b (c)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 99 1 2";
        assert_eq!(parse_proc_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_proc_stat_cpu_s("1 (x) R 1 2"), None);
        assert_eq!(parse_proc_stat_cpu_s("no parens"), None);
        assert!(process_cpu_s() >= 0.0);
    }
}
