//! Grid-level reporting: what a sharded trading window produced.

use pem_core::{PemWindowOutcome, PoolStats};
use pem_coupling::CouplingSummary;
use pem_crypto::sha256;
use pem_net::NetStats;
use pem_telemetry::json::Json;
use pem_telemetry::{json_object, CriticalPathReport, ProfileSummary};

/// One coalition's contribution to a grid window.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index within the plan.
    pub shard: usize,
    /// Global agent indices of the coalition members.
    pub members: Vec<usize>,
    /// The coalition's PEM window outcome (trades already carry global
    /// agent ids via `AgentWindow::id`).
    pub outcome: PemWindowOutcome,
}

impl ShardOutcome {
    /// Canonical digest of this shard's deterministic contribution
    /// alone: membership, regime, price, trades and the sanctioned
    /// disclosure surface. Because each coalition owns an independent
    /// seed stream, a healthy shard's fingerprint is bit-identical
    /// between a fault-free run and a degraded run that quarantined
    /// *other* shards — the per-shard invariant the chaos doctor checks.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut buf = Vec::with_capacity(96);
        buf.extend_from_slice(b"pem-shard-v1");
        self.fold(&mut buf);
        sha256(&buf)
    }

    /// Appends the shard's canonical serialization (the per-shard chunk
    /// of [`GridReport::fingerprint`]) to `buf`.
    fn fold(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.shard as u64).to_be_bytes());
        buf.extend_from_slice(&(self.members.len() as u64).to_be_bytes());
        for &m in &self.members {
            buf.extend_from_slice(&(m as u64).to_be_bytes());
        }
        buf.push(self.outcome.kind as u8);
        buf.extend_from_slice(&self.outcome.price.to_bits().to_be_bytes());
        buf.extend_from_slice(&(self.outcome.trades.len() as u64).to_be_bytes());
        for t in &self.outcome.trades {
            buf.extend_from_slice(&(t.seller.0 as u64).to_be_bytes());
            buf.extend_from_slice(&(t.buyer.0 as u64).to_be_bytes());
            buf.extend_from_slice(&t.energy.to_bits().to_be_bytes());
            buf.extend_from_slice(&t.payment.to_bits().to_be_bytes());
        }
        // The sanctioned disclosure surface is seed-dependent (nonce
        // masses, ratio quantization); folding it in makes the
        // fingerprint sensitive to the crypto streams as well.
        // Options get a presence byte and the ratio list a length
        // prefix so the serialization stays injective.
        let rev = &self.outcome.revealed;
        for masked in [rev.masked_demand, rev.masked_supply] {
            match masked {
                Some(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&v.to_be_bytes());
                }
                None => buf.push(0),
            }
        }
        buf.extend_from_slice(&(rev.allocation_ratios.len() as u64).to_be_bytes());
        for r in &rev.allocation_ratios {
            buf.extend_from_slice(&r.to_bits().to_be_bytes());
        }
    }
}

/// How a coalition's window concluded under the recovery layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoalitionStatus {
    /// The first attempt succeeded.
    Cleared,
    /// A transient failure was retried away.
    Recovered {
        /// Re-executions consumed (1-based; a successful re-admission
        /// probe after a quarantined window also reports 1).
        attempts: u32,
    },
    /// Every attempt failed: the coalition is excluded from this
    /// window's settlement and coupling, and carried over for a
    /// re-admission probe next window.
    Quarantined {
        /// Display form of the last error. Deliberately excluded from
        /// fingerprints: it is diagnostic text, and rewording an error
        /// message must not move a fingerprint.
        error: String,
    },
}

/// Dispersion of clearing prices across the trading coalitions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PriceStats {
    /// Coalitions that actually traded (general or extreme regime).
    pub trading_shards: usize,
    /// Lowest clearing price.
    pub min: f64,
    /// Highest clearing price.
    pub max: f64,
    /// Mean clearing price.
    pub mean: f64,
    /// Population standard deviation of clearing prices — the
    /// cross-shard price-dispersion figure.
    pub stddev: f64,
}

impl PriceStats {
    /// Computes dispersion over the prices of trading shards.
    ///
    /// Degenerate inputs are well-defined: an empty slice (an
    /// all-`NoMarket` window, or no shards at all) yields the zeroed
    /// default, a single price yields zero dispersion, and non-finite
    /// entries are dropped before any moment is computed — the result
    /// never contains NaN or infinities.
    pub fn from_prices(prices: &[f64]) -> PriceStats {
        let finite: Vec<f64> = prices.iter().copied().filter(|p| p.is_finite()).collect();
        if finite.is_empty() {
            return PriceStats::default();
        }
        let n = finite.len() as f64;
        PriceStats {
            trading_shards: finite.len(),
            min: finite.iter().copied().fold(f64::INFINITY, f64::min),
            max: finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean: finite.iter().sum::<f64>() / n,
            // One dispersion definition across the workspace: the same
            // helper the coupling round reports pre/post figures with.
            stddev: pem_coupling::price_dispersion(&finite),
        }
    }
}

/// Nearest-rank percentiles over per-shard phase latencies (µs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest shard — the window's critical path.
    pub max_us: u64,
}

impl LatencyPercentiles {
    /// Computes percentiles from unsorted per-shard samples.
    pub fn from_samples(samples: &[u64]) -> LatencyPercentiles {
        if samples.is_empty() {
            return LatencyPercentiles::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        LatencyPercentiles {
            p50_us: nearest_rank(&sorted, 0.50),
            p90_us: nearest_rank(&sorted, 0.90),
            p99_us: nearest_rank(&sorted, 0.99),
            max_us: *sorted.last().expect("non-empty"),
        }
    }

    /// Canonical JSON shape — the one latency-percentile object every
    /// report emitter shares (key names are schema-pinned by
    /// `json::tests::latency_json_uses_canonical_keys`).
    pub fn to_json(&self) -> Json {
        json_object! {
            "p50_us": self.p50_us, "p90_us": self.p90_us, "p99_us": self.p99_us,
            "max_us": self.max_us,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-phase latency percentiles across the window's coalitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseLatencies {
    /// Protocol 2 (Private Market Evaluation).
    pub evaluation: LatencyPercentiles,
    /// Protocol 3 (Private Pricing).
    pub pricing: LatencyPercentiles,
    /// Protocol 4 (Private Distribution).
    pub distribution: LatencyPercentiles,
    /// Whole coalition windows.
    pub total: LatencyPercentiles,
}

/// What landed on the settlement chain for this window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettlementSummary {
    /// Blocks appended by this window (one per trading shard).
    pub blocks_appended: usize,
    /// Chain length afterwards (including genesis).
    pub chain_blocks: usize,
    /// Hash of the chain tip after settlement.
    pub tip_hash: [u8; 32],
}

/// Everything one sharded grid window produced.
#[derive(Debug, Clone)]
pub struct GridReport {
    /// Grid window index (0-based, monotonically increasing).
    pub window: u64,
    /// Population size.
    pub agents: usize,
    /// Per-coalition outcomes, in shard order. Quarantined coalitions
    /// contribute no outcome: their shard indices are simply absent
    /// (see [`statuses`](GridReport::statuses) for the full roster).
    pub shard_outcomes: Vec<ShardOutcome>,
    /// Recovery verdict for every coalition, indexed by shard. All
    /// [`CoalitionStatus::Cleared`] on a healthy run.
    pub statuses: Vec<CoalitionStatus>,
    /// Total energy cleared peer-to-peer (kWh).
    pub cleared_kwh: f64,
    /// Total payments settled (cents).
    pub payments_cents: f64,
    /// Shard counts per regime: `[general, extreme, no-market]`.
    pub regime_counts: [usize; 3],
    /// Cross-shard price dispersion.
    pub prices: PriceStats,
    /// Grid-global traffic (shard fabrics merged onto global party ids).
    pub net: NetStats,
    /// Latency percentiles across shards.
    pub latency: PhaseLatencies,
    /// Settlement-chain effects of this window.
    pub settlement: SettlementSummary,
    /// Randomizer-pool activity of *this window alone* (deltas, not
    /// lifetime totals), summed across the coalitions' pools; `None`
    /// when pools precompute nothing (batch 0). A coalition's first
    /// window — after a re-partition rebuilt it, too — also counts its
    /// initial batch in `generated`, so the windows sum to what the
    /// pools ever did.
    pub pool: Option<PoolStats>,
    /// The cross-shard coupling round's summary; `None` when coupling is
    /// disabled (in which case the report — and its fingerprint — is
    /// bit-identical to a coupling-unaware grid).
    pub coupling: Option<CouplingSummary>,
    /// Per-phase span profile of this window (wall + virtual clock),
    /// captured from the telemetry collector; `None` when no collector
    /// is installed. Observability only — deliberately excluded from
    /// [`GridReport::fingerprint`].
    pub profile: Option<ProfileSummary>,
    /// Causal critical-path attribution of the *dominant* shard fabric
    /// (the coalition whose message chain is the window's longest),
    /// built from the telemetry message log. `None` when no collector
    /// is installed or under the zero-latency model. Observability only
    /// — excluded from [`GridReport::fingerprint`] like
    /// [`profile`](GridReport::profile); the coupling round's own
    /// attribution rides in
    /// [`CouplingSummary::critical_path`](pem_coupling::CouplingSummary).
    pub causal: Option<CriticalPathReport>,
}

impl GridReport {
    /// Canonical digest of everything *deterministic* in the report:
    /// shard membership, regimes, prices, trades, traffic totals and the
    /// settlement tip. Two runs of the same population + seed must
    /// produce identical fingerprints regardless of worker count;
    /// latencies and pool hit counters are deliberately excluded.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut buf = Vec::with_capacity(64 + self.shard_outcomes.len() * 64);
        buf.extend_from_slice(b"pem-grid-report-v1");
        buf.extend_from_slice(&self.window.to_be_bytes());
        buf.extend_from_slice(&(self.agents as u64).to_be_bytes());
        for so in &self.shard_outcomes {
            so.fold(&mut buf);
        }
        buf.extend_from_slice(&self.net.total_bytes.to_be_bytes());
        buf.extend_from_slice(&self.net.total_messages.to_be_bytes());
        buf.extend_from_slice(&self.settlement.tip_hash);
        // The coupling section is folded in only when the round ran, so
        // a coupling-disabled grid fingerprints exactly as before the
        // subsystem existed.
        if let Some(cs) = &self.coupling {
            buf.extend_from_slice(b"pem-coupling-v1");
            buf.push(u8::from(cs.engaged));
            buf.push(u8::from(cs.repartitioned));
            buf.extend_from_slice(&cs.corridor_price.to_bits().to_be_bytes());
            buf.extend_from_slice(&(cs.transfer_count as u64).to_be_bytes());
            buf.extend_from_slice(&cs.transferred_kwh.to_bits().to_be_bytes());
            buf.extend_from_slice(&cs.net.total_bytes.to_be_bytes());
            buf.extend_from_slice(&cs.net.total_messages.to_be_bytes());
        }
        // The degraded section is folded in only when the recovery layer
        // actually intervened, so healthy-run fingerprints stay
        // bit-identical to pre-recovery goldens. Status tags and attempt
        // counts are folded; error strings are diagnostic text and are
        // not, so rewording an error message moves no fingerprint.
        if self.statuses.iter().any(|s| *s != CoalitionStatus::Cleared) {
            buf.extend_from_slice(b"pem-degraded-v1");
            buf.extend_from_slice(&(self.statuses.len() as u64).to_be_bytes());
            for status in &self.statuses {
                match status {
                    CoalitionStatus::Cleared => buf.push(0),
                    CoalitionStatus::Recovered { attempts } => {
                        buf.push(1);
                        buf.extend_from_slice(&attempts.to_be_bytes());
                    }
                    CoalitionStatus::Quarantined { .. } => buf.push(2),
                }
            }
        }
        sha256(&buf)
    }
}

/// Aggregates over a sequence of grid windows (a trading day).
#[derive(Debug, Clone)]
pub struct GridDayReport {
    /// One report per window, in order.
    pub windows: Vec<GridReport>,
    /// Total energy cleared across the day (kWh).
    pub cleared_kwh: f64,
    /// Total payments settled (cents).
    pub payments_cents: f64,
    /// Total protocol bytes across the day.
    pub total_bytes: u64,
    /// Total protocol messages across the day.
    pub total_messages: u64,
    /// `true` if the settlement chain validated end-to-end afterwards.
    pub ledger_valid: bool,
    /// Day-total randomizer-pool counters (sum of per-window deltas).
    pub pool: Option<PoolStats>,
    /// Total energy moved between coalitions by coupling rounds (kWh).
    pub transferred_kwh: f64,
    /// Total welfare recovered by coupling rounds (cents).
    pub coupling_welfare_cents: f64,
    /// Day-level traffic: every window's [`GridReport::net`] merged into
    /// one per-party/per-label block. `None` when there are no windows
    /// or the windows disagree on party count (heterogeneous reports
    /// can't be merged; coupling fabrics are excluded either way — their
    /// totals are already folded into `total_bytes`/`total_messages`).
    pub net: Option<NetStats>,
    /// Day-level span profile: every window's
    /// [`GridReport::profile`] merged by span name (counts and times
    /// sum — the profile analogue of the merged `net`). `None` when no
    /// window carried a profile (collector off).
    pub profile: Option<ProfileSummary>,
}

impl GridDayReport {
    /// Folds per-window reports plus the final chain validation verdict.
    pub fn fold(windows: Vec<GridReport>, ledger_valid: bool) -> GridDayReport {
        let mut day = GridDayReport {
            cleared_kwh: 0.0,
            payments_cents: 0.0,
            total_bytes: 0,
            total_messages: 0,
            ledger_valid,
            pool: None,
            transferred_kwh: 0.0,
            coupling_welfare_cents: 0.0,
            net: None,
            profile: None,
            windows: Vec::new(),
        };
        let mut net_ok = true;
        for w in &windows {
            day.cleared_kwh += w.cleared_kwh;
            day.payments_cents += w.payments_cents;
            day.total_bytes += w.net.total_bytes;
            day.total_messages += w.net.total_messages;
            if let Some(acc) = day.net.as_mut() {
                // A mismatch (heterogeneous window reports) drops the
                // merged view rather than poisoning partial counters.
                if acc.merge(&w.net).is_err() {
                    day.net = None;
                    net_ok = false;
                }
            } else if net_ok {
                day.net = Some(w.net.clone());
            }
            if let Some(p) = w.pool {
                *day.pool.get_or_insert_with(PoolStats::default) += p;
            }
            if let Some(p) = &w.profile {
                day.profile
                    .get_or_insert_with(ProfileSummary::default)
                    .merge(p);
            }
            if let Some(cs) = &w.coupling {
                day.transferred_kwh += cs.transferred_kwh;
                day.coupling_welfare_cents += cs.welfare_gain_cents;
                day.total_bytes += cs.net.total_bytes;
                day.total_messages += cs.net.total_messages;
            }
        }
        day.windows = windows;
        day
    }
}

/// Extracts `(outcome, phase)` latencies in µs for percentile folding.
pub(crate) fn phase_latencies(outcomes: &[&PemWindowOutcome]) -> PhaseLatencies {
    let us = |d: std::time::Duration| d.as_micros() as u64;
    let eval: Vec<u64> = outcomes
        .iter()
        .map(|o| us(o.metrics.market_evaluation.elapsed))
        .collect();
    let pricing: Vec<u64> = outcomes
        .iter()
        .map(|o| us(o.metrics.pricing.elapsed))
        .collect();
    let dist: Vec<u64> = outcomes
        .iter()
        .map(|o| us(o.metrics.distribution.elapsed))
        .collect();
    let total: Vec<u64> = outcomes
        .iter()
        .map(|o| us(o.metrics.total_elapsed()))
        .collect();
    PhaseLatencies {
        evaluation: LatencyPercentiles::from_samples(&eval),
        pricing: LatencyPercentiles::from_samples(&pricing),
        distribution: LatencyPercentiles::from_samples(&dist),
        total: LatencyPercentiles::from_samples(&total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_stats_dispersion() {
        let s = PriceStats::from_prices(&[100.0, 102.0, 98.0, 100.0]);
        assert_eq!(s.trading_shards, 4);
        assert_eq!(s.min, 98.0);
        assert_eq!(s.max, 102.0);
        assert!((s.mean - 100.0).abs() < 1e-12);
        assert!((s.stddev - (2.0f64).sqrt()).abs() < 1e-9);
        assert_eq!(PriceStats::from_prices(&[]), PriceStats::default());
    }

    #[test]
    fn price_stats_degenerate_inputs() {
        // An all-NoMarket (or empty) shard set must yield the zeroed
        // default — no NaN dispersion, no infinite min/max.
        let empty = PriceStats::from_prices(&[]);
        assert_eq!(empty, PriceStats::default());
        assert!(!empty.stddev.is_nan() && !empty.mean.is_nan());
        assert!(empty.min.is_finite() && empty.max.is_finite());

        // A single trading shard: zero dispersion, degenerate range.
        let one = PriceStats::from_prices(&[104.5]);
        assert_eq!(one.trading_shards, 1);
        assert_eq!((one.min, one.max, one.mean), (104.5, 104.5, 104.5));
        assert_eq!(one.stddev, 0.0);

        // Identical prices: exactly zero, never a tiny NaN-prone value.
        let flat = PriceStats::from_prices(&[100.0; 7]);
        assert_eq!(flat.stddev, 0.0);

        // Non-finite entries (a defensive guard: `optimal_price` clamps,
        // but the unclamped path can yield infinity) are dropped.
        let mixed = PriceStats::from_prices(&[100.0, f64::INFINITY, 102.0, f64::NAN]);
        assert_eq!(mixed.trading_shards, 2);
        assert_eq!((mixed.min, mixed.max), (100.0, 102.0));
        assert!(mixed.stddev.is_finite());
        assert_eq!(
            PriceStats::from_prices(&[f64::NAN, f64::NEG_INFINITY]),
            PriceStats::default()
        );
    }

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let p = LatencyPercentiles::from_samples(&samples);
        assert_eq!(p.p50_us, 50);
        assert_eq!(p.p90_us, 90);
        assert_eq!(p.p99_us, 99);
        assert_eq!(p.max_us, 100);
        let single = LatencyPercentiles::from_samples(&[7]);
        assert_eq!(
            (single.p50_us, single.p90_us, single.p99_us, single.max_us),
            (7, 7, 7, 7)
        );
        assert_eq!(
            LatencyPercentiles::from_samples(&[]),
            LatencyPercentiles::default()
        );
    }
}
