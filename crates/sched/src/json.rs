//! The JSON shape of grid reports, built as [`Json`] values.
//!
//! Rendered by `examples/grid_day.rs --json` and read back by
//! `grid_doctor`; the tests here pin the shape and parse it back.
//! Latency percentiles everywhere use the canonical
//! [`LatencyPercentiles::to_json`] key names.
//!
//! [`LatencyPercentiles::to_json`]: crate::LatencyPercentiles::to_json

use pem_core::PoolStats;
use pem_coupling::CouplingSummary;
use pem_net::NetStats;
use pem_telemetry::json::Json;
use pem_telemetry::{json_object, CriticalPathReport, ProfileSummary};

use crate::report::{CoalitionStatus, GridDayReport, GridReport, PriceStats};

fn hex(bytes: &[u8]) -> Json {
    Json::Str(bytes.iter().map(|b| format!("{b:02x}")).collect())
}

fn price_stats_json(p: &PriceStats) -> Json {
    json_object! {
        "trading_shards": p.trading_shards,
        "min": p.min, "max": p.max, "mean": p.mean, "stddev": p.stddev,
    }
}

fn net_json(n: &NetStats) -> Json {
    let per_label = n.per_label.iter().map(|(label, s)| {
        let traffic = json_object! { "messages": s.messages, "bytes": s.bytes };
        (label.as_str(), traffic)
    });
    json_object! {
        "total_messages": n.total_messages, "total_bytes": n.total_bytes,
        "parties": n.sent_bytes.len(), "per_label": Json::obj(per_label),
    }
}

fn pool_json(p: &PoolStats) -> Json {
    json_object! { "hits": p.hits, "misses": p.misses, "generated": p.generated }
}

fn coupling_json(c: &CouplingSummary) -> Json {
    json_object! {
        "engaged": c.engaged, "corridor_price": c.corridor_price,
        "transfer_count": c.transfer_count, "transferred_kwh": c.transferred_kwh,
        "welfare_gain_cents": c.welfare_gain_cents, "critical_path_us": c.critical_path_us,
        "causal": c.critical_path.as_ref().map(CriticalPathReport::to_json),
    }
}

fn status_json(s: &CoalitionStatus) -> Json {
    match s {
        CoalitionStatus::Cleared => json_object! { "status": "cleared" },
        CoalitionStatus::Recovered { attempts } => {
            json_object! { "status": "recovered", "attempts": *attempts }
        }
        CoalitionStatus::Quarantined { error } => {
            json_object! { "status": "quarantined", "error": error.as_str() }
        }
    }
}

impl GridReport {
    /// The report as one JSON object.
    pub fn to_json(&self) -> Json {
        let [general, extreme, no_market] = self.regime_counts;
        let (latency, settlement) = (&self.latency, &self.settlement);
        let shard_fingerprints = self.shard_outcomes.iter().map(|so| {
            json_object! { "shard": so.shard, "fingerprint": hex(&so.fingerprint()) }
        });
        json_object! {
            "window": self.window, "agents": self.agents, "shards": self.shard_outcomes.len(),
            "cleared_kwh": self.cleared_kwh, "payments_cents": self.payments_cents,
            "regimes": json_object! {
                "general": general, "extreme": extreme, "no_market": no_market,
            },
            "prices": price_stats_json(&self.prices),
            "net": net_json(&self.net),
            "latency": json_object! {
                "evaluation": latency.evaluation.to_json(), "pricing": latency.pricing.to_json(),
                "distribution": latency.distribution.to_json(), "total": latency.total.to_json(),
            },
            "settlement": json_object! {
                "blocks_appended": settlement.blocks_appended,
                "chain_blocks": settlement.chain_blocks, "tip_hash": hex(&settlement.tip_hash),
            },
            "pool": self.pool.as_ref().map(pool_json),
            "coupling": self.coupling.as_ref().map(coupling_json),
            "profile": self.profile.as_ref().map(ProfileSummary::to_json),
            "causal": self.causal.as_ref().map(CriticalPathReport::to_json),
            "statuses": self.statuses.iter().map(status_json).collect::<Json>(),
            "shard_fingerprints": shard_fingerprints.collect::<Json>(),
            "fingerprint": hex(&self.fingerprint()),
        }
    }
}

impl GridDayReport {
    /// The day report, every window inline, as one JSON object.
    pub fn to_json(&self) -> Json {
        json_object! {
            "cleared_kwh": self.cleared_kwh, "payments_cents": self.payments_cents,
            "total_bytes": self.total_bytes, "total_messages": self.total_messages,
            "ledger_valid": self.ledger_valid, "transferred_kwh": self.transferred_kwh,
            "coupling_welfare_cents": self.coupling_welfare_cents,
            "pool": self.pool.as_ref().map(pool_json),
            "net": self.net.as_ref().map(net_json),
            "profile": self.profile.as_ref().map(ProfileSummary::to_json),
            "windows": self.windows.iter().map(GridReport::to_json).collect::<Json>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use pem_core::PemConfig;
    use pem_market::AgentWindow;
    use pem_net::FaultKind;

    use super::*;
    use crate::report::LatencyPercentiles;
    use crate::{ChaosSpec, Engine, GridConfig, GridOrchestrator, PartitionStrategy, RetryPolicy};

    #[test]
    fn degraded_day_roundtrips_through_the_parser() {
        let population: Vec<AgentWindow> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    AgentWindow::new(i, 3.0, 0.5, 0.0, 0.9, 22.0 + i as f64)
                } else {
                    AgentWindow::new(i, 0.0, 2.0, 0.0, 0.9, 25.0)
                }
            })
            .collect();
        let cfg = GridConfig {
            pem: PemConfig::fast_test(),
            coalition_size: 6,
            workers: 1,
            engine: Engine::Threads,
            strategy: PartitionStrategy::SurplusBalanced,
            coupling: None,
            retry: RetryPolicy::default(),
        };
        // Coalition 0 stalls on every attempt: quarantined both windows.
        let mut grid = GridOrchestrator::new(cfg)
            .expect("grid")
            .with_chaos(vec![ChaosSpec {
                shard: 0,
                label: "eval/demand-agg",
                nth: 0,
                kind: FaultKind::Stall,
                persistent: true,
                window: None,
            }]);
        let mut windows: Vec<GridReport> = (0..2)
            .map(|_| grid.run_window(&population).expect("window"))
            .collect();
        assert!(matches!(
            windows[0].statuses[0],
            CoalitionStatus::Quarantined { .. }
        ));
        // An error string no escaper may pass through raw, and a price
        // figure JSON has no literal for.
        let hostile = "stalled on \"eval/demand-agg\"\n\tafter 0 µs \\ 𝄞";
        windows[0].statuses[0] = CoalitionStatus::Quarantined {
            error: hostile.into(),
        };
        windows[1].prices.mean = f64::NAN;
        let day = GridDayReport::fold(windows, grid.ledger().validate().is_ok());

        let text = day.to_json().to_string();
        assert!(!text.contains("NaN"));
        let doc = Json::parse(&text).expect("a degraded day renders valid JSON");
        assert_eq!(doc.get("ledger_valid"), Some(&Json::Bool(true)));
        let rendered = doc
            .get("windows")
            .and_then(Json::as_array)
            .expect("windows");
        assert_eq!(rendered.len(), day.windows.len());
        for (w, report) in rendered.iter().zip(&day.windows) {
            let fingerprint = w.get("fingerprint").expect("fingerprint");
            assert_eq!(*fingerprint, hex(&report.fingerprint()));
            assert_eq!(fingerprint.as_str().map(str::len), Some(64));
            let shards: Vec<f64> = w
                .get("shard_fingerprints")
                .and_then(Json::as_array)
                .expect("shard fingerprints")
                .iter()
                .filter_map(|s| s.get("shard").and_then(Json::as_f64))
                .collect();
            assert_eq!(shards, [1.0], "the quarantined coalition has no outcome");
            let statuses = w.get("statuses").and_then(Json::as_array).expect("roster");
            let statuses: Vec<&str> = statuses
                .iter()
                .filter_map(|s| s.get("status").and_then(Json::as_str))
                .collect();
            assert_eq!(statuses, ["quarantined", "cleared"]);
        }
        let error = rendered[0]
            .get("statuses")
            .and_then(Json::as_array)
            .expect("roster")[0]
            .get("error")
            .and_then(Json::as_str);
        assert_eq!(error, Some(hostile));
        let mean = |w: &Json| w.get("prices").and_then(|p| p.get("mean")).cloned();
        assert_eq!(mean(&rendered[1]), Some(Json::Null));
        assert!(mean(&rendered[0]).and_then(|m| m.as_f64()).is_some());
    }

    #[test]
    fn latency_json_uses_canonical_keys() {
        let p = LatencyPercentiles {
            p50_us: 1,
            p90_us: 2,
            p99_us: 3,
            max_us: 4,
        };
        assert_eq!(
            p.to_json().to_string(),
            "{\"max_us\":4,\"p50_us\":1,\"p90_us\":2,\"p99_us\":3}"
        );
    }

    #[test]
    fn net_json_shape() {
        let mut n = NetStats::new(2);
        n.record(0, 1, "eval/result", 10);
        let json = net_json(&n);
        assert_eq!(json.get("total_messages"), Some(&Json::Num(1.0)));
        assert_eq!(json.get("parties"), Some(&Json::Num(2.0)));
        assert_eq!(
            json.get("per_label")
                .and_then(|l| l.get("eval/result"))
                .map(Json::to_string)
                .as_deref(),
            Some("{\"bytes\":10,\"messages\":1}")
        );
    }
}
