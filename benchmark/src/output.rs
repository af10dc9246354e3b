//! What a run prints: one `name value unit` line per metric for people,
//! then the result object the driver reads as the last line.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        // A NaN or infinity is not a JSON number and not a measurement;
        // dying here leaves no result line, which is the right failure.
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric { name, value, unit }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Coalition-windows attempted, and those not `Cleared`.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, values with all their digits (`{}` on an
    /// `f64` is the shortest string that reads back the same).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One record of an `--out` file: the result plus what produced it.
    pub fn to_record(&self, workload: &str, seed: u64, trace: bool) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {}}}",
            u8::from(trace),
            self.to_json()
        )
    }

    pub fn print(&self) {
        for m in &self.metrics {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_bench::json::Json;

    #[test]
    fn result_survives_a_strict_reparse() {
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("window_p50_ms", 1203.456789012345, "ms"),
                Metric::new("agent_windows_per_s", 1e-7, "1/s"),
                Metric::new("setup_s", 3.0, "s"),
            ],
        };
        let parsed = Json::parse(&result.to_json()).expect("strict parser accepts it");
        let keys: Vec<&String> = parsed.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1234.0));
        let metrics = parsed.get("metrics").expect("metrics");
        for m in &result.metrics {
            let entry = metrics.get(m.name).expect("metric present");
            // Bit-identical after the round trip: all digits were printed.
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(m.value));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        let record = Json::parse(&result.to_record("grid_k1024", 7, true)).expect("record");
        assert_eq!(record.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(record.get("result"), Some(&parsed));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        let _ = Metric::new("x", f64::NAN, "ms");
    }
}
