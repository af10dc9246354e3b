//! Per-phase compute time: the measurement surface of the paper's Fig. 5.
//!
//! Traffic (Table I) is not metered here: a window's `NetStats` carries
//! it per label, and the label prefix is the phase
//! (`out.net.label_totals("eval/")`, `"price/"`, `"dist/"`).

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Compute time of one protocol phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseMetrics {
    /// Wall-clock compute time of the phase.
    #[serde(with = "duration_micros")]
    pub elapsed: Duration,
}

/// Per-window metrics, split by protocol phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowMetrics {
    /// Protocol 2 (Private Market Evaluation).
    pub market_evaluation: PhaseMetrics,
    /// Protocol 3 (Private Pricing); zero in extreme/no-market windows.
    pub pricing: PhaseMetrics,
    /// Protocol 4 (Private Distribution).
    pub distribution: PhaseMetrics,
}

impl WindowMetrics {
    /// Total compute time across phases.
    pub fn total_elapsed(&self) -> Duration {
        self.market_evaluation.elapsed + self.pricing.elapsed + self.distribution.elapsed
    }
}

// Driven only when a real serde data format serializes `PhaseMetrics`;
// the offline stub derive never calls `with`-modules, hence the allow.
#[allow(dead_code)]
mod duration_micros {
    use std::time::Duration;

    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_micros() as u64).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_micros(u64::deserialize(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let m = WindowMetrics {
            market_evaluation: PhaseMetrics {
                elapsed: Duration::from_millis(5),
            },
            pricing: PhaseMetrics {
                elapsed: Duration::from_millis(2),
            },
            distribution: PhaseMetrics {
                elapsed: Duration::from_millis(3),
            },
        };
        assert_eq!(m.total_elapsed(), Duration::from_millis(10));
    }
}
