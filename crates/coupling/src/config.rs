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
        Ok(())
    }
}

impl Default for CouplingConfig {
    fn default() -> CouplingConfig {
        CouplingConfig {
            key_bits: 512,
            latency: LatencyModel::zero(),
            repartition: None,
        }
    }
}

/// Dispersion-driven re-partitioning, switched on by
/// [`CouplingConfig::with_repartition`]. Its tuning is fixed: see
/// [`crate::Repartitioner`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepartitionConfig;

impl RepartitionConfig {
    /// Re-partitioning as every profile runs it: react after 2 windows,
    /// at most 4 swaps.
    pub fn fast_test() -> RepartitionConfig {
        RepartitionConfig
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
    }
}
