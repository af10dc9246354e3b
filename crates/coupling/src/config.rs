//! Coupling-round and re-partitioning configuration.

use pem_net::LatencyModel;
use serde::{Deserialize, Serialize};

use crate::error::CouplingError;

/// Configuration of the cross-shard coupling round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CouplingConfig {
    /// Bits of the grid Paillier key every coalition position is
    /// encrypted under. Independent of the per-agent key size; 96-bit
    /// minimum so the aggregates fit the message space with headroom.
    pub key_bits: usize,
    /// Transfers below this many kWh are dust and never scheduled.
    pub min_transfer_kwh: f64,
    /// Latency model of the coupling fabric's links (shard
    /// representatives ↔ coordinator). The aggregation tree's
    /// critical-path latency under this model is reported in
    /// [`CouplingSummary::critical_path_us`](crate::CouplingSummary);
    /// zero by default, which reproduces the pre-latency behaviour
    /// bit-for-bit.
    pub latency: LatencyModel,
    /// Dispersion-driven re-partitioning; `None` keeps membership fixed.
    pub repartition: Option<RepartitionConfig>,
}

impl CouplingConfig {
    /// A simulation-sized profile (toy 128-bit grid key) running the
    /// full code path.
    pub fn fast_test() -> CouplingConfig {
        CouplingConfig {
            key_bits: 128,
            min_transfer_kwh: 1e-3,
            latency: LatencyModel::zero(),
            repartition: None,
        }
    }

    /// Enables dispersion-driven re-partitioning (builder style).
    #[must_use]
    pub fn with_repartition(mut self, repartition: RepartitionConfig) -> CouplingConfig {
        self.repartition = Some(repartition);
        self
    }

    /// Sets the coupling fabric's latency model (builder style).
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> CouplingConfig {
        self.latency = latency;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`CouplingError::Config`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), CouplingError> {
        if self.key_bits < 96 {
            return Err(CouplingError::Config(format!(
                "grid key of {} bits cannot hold coalition aggregates",
                self.key_bits
            )));
        }
        if !self.min_transfer_kwh.is_finite() || self.min_transfer_kwh < 0.0 {
            return Err(CouplingError::Config(
                "minimum transfer must be finite and non-negative".into(),
            ));
        }
        if let Some(r) = &self.repartition {
            r.validate()?;
        }
        Ok(())
    }
}

impl Default for CouplingConfig {
    fn default() -> CouplingConfig {
        CouplingConfig {
            key_bits: 512,
            min_transfer_kwh: 1e-3,
            latency: LatencyModel::zero(),
            repartition: None,
        }
    }
}

/// Configuration of the dispersion-driven [`crate::Repartitioner`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepartitionConfig {
    /// EWMA weight of the newest residual observation, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Smallest persistent per-shard imbalance (kWh) that triggers a
    /// re-partition; both a surplus and a deficit shard must exceed it.
    pub threshold_kwh: f64,
    /// Windows of history required before the first proposal.
    pub min_windows: u64,
    /// Maximum member swaps per proposal: bounds churn, and so how many
    /// coalitions are rebuilt (no key is re-made; every home keeps its
    /// pair).
    pub max_swaps: usize,
}

impl RepartitionConfig {
    /// A conservative default: react after 2 windows, at most 4 swaps.
    pub fn fast_test() -> RepartitionConfig {
        RepartitionConfig {
            ewma_alpha: 0.5,
            threshold_kwh: 0.5,
            min_windows: 2,
            max_swaps: 4,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`CouplingError::Config`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), CouplingError> {
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err(CouplingError::Config(
                "EWMA weight must lie in (0, 1]".into(),
            ));
        }
        if !self.threshold_kwh.is_finite() || self.threshold_kwh <= 0.0 {
            return Err(CouplingError::Config(
                "re-partition threshold must be finite and positive".into(),
            ));
        }
        if self.max_swaps == 0 {
            return Err(CouplingError::Config(
                "a re-partition round needs at least one swap".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_validate() {
        CouplingConfig::fast_test().validate().expect("fast");
        CouplingConfig::default().validate().expect("default");
        CouplingConfig::fast_test()
            .with_repartition(RepartitionConfig::fast_test())
            .validate()
            .expect("with repartition");
    }

    #[test]
    fn rejects_inconsistencies() {
        let mut c = CouplingConfig::fast_test();
        c.key_bits = 64;
        assert!(c.validate().is_err());
        let mut c = CouplingConfig::fast_test();
        c.min_transfer_kwh = -1.0;
        assert!(c.validate().is_err());
        let mut r = RepartitionConfig::fast_test();
        r.ewma_alpha = 0.0;
        assert!(r.validate().is_err());
        let mut r = RepartitionConfig::fast_test();
        r.threshold_kwh = 0.0;
        assert!(r.validate().is_err());
        let mut r = RepartitionConfig::fast_test();
        r.max_swaps = 0;
        assert!(CouplingConfig::fast_test()
            .with_repartition(r)
            .validate()
            .is_err());
    }
}
