//! Per-agent protocol state for one trading window.

use pem_market::{AgentWindow, Role};

use crate::config::VALUE_BITS;
use crate::error::PemError;
use crate::quantize::Quantizer;

/// What one agent knows and contributes during a window. Fields are laid
/// out to mirror the paper's information model: everything here is local
/// to the agent; only ciphertexts and sanctioned aggregates leave it.
#[derive(Debug, Clone)]
pub struct AgentCtx {
    /// Index of this agent (= its `PartyId` on the fabric).
    pub index: usize,
    /// The window's private data (generation, load, battery, `k`, `ε`).
    pub data: AgentWindow,
    /// Quantized net energy `sn` (signed).
    pub sn_q: i64,
    /// Quantized `|sn|`.
    pub sn_abs_q: u64,
    /// This window's masking nonce `r_i` (Protocol 2) — reused across the
    /// two aggregation rounds so the masked difference stays exact.
    pub nonce: u64,
    /// Role this window.
    pub role: Role,
}

impl AgentCtx {
    /// Prepares an agent's window state.
    ///
    /// # Errors
    ///
    /// Propagates data validation and quantization failures, and returns
    /// [`PemError::Quantization`] for a quantized net energy of `2^32` or
    /// more in magnitude: the bound `PemConfig::validate` sizes the
    /// comparison and Protocol 4's ratio slots by.
    pub fn prepare(
        index: usize,
        data: AgentWindow,
        quantizer: &Quantizer,
        nonce: u64,
    ) -> Result<AgentCtx, PemError> {
        data.validate()?;
        let what = "net energy";
        let sn_q = quantizer.quantize(data.net_energy(), what)?;
        let sn_abs_q = sn_q.unsigned_abs();
        if sn_abs_q >> VALUE_BITS != 0 {
            return Err(PemError::Quantization {
                what,
                value: data.net_energy(),
            });
        }
        Ok(AgentCtx {
            index,
            data,
            sn_q,
            sn_abs_q,
            nonce,
            role: if sn_q > 0 {
                Role::Seller
            } else if sn_q < 0 {
                Role::Buyer
            } else {
                Role::OffMarket
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_classifies_on_quantized_value() {
        let q = Quantizer::new();
        let seller = AgentCtx::prepare(0, AgentWindow::new(0, 2.0, 1.0, 0.0, 0.9, 20.0), &q, 7)
            .expect("prepare");
        assert_eq!(seller.role, Role::Seller);
        assert_eq!(seller.sn_q, 1_000_000);
        assert_eq!(seller.sn_abs_q, 1_000_000);

        let buyer = AgentCtx::prepare(1, AgentWindow::new(1, 0.0, 0.5, 0.0, 0.9, 20.0), &q, 7)
            .expect("prepare");
        assert_eq!(buyer.role, Role::Buyer);
        assert_eq!(buyer.sn_abs_q, 500_000);

        // Sub-resolution dust rounds to zero → off market.
        let dust = AgentCtx::prepare(
            2,
            AgentWindow::new(2, 1.0, 1.0 - 1e-9, 0.0, 0.9, 20.0),
            &q,
            7,
        )
        .expect("prepare");
        assert_eq!(dust.role, Role::OffMarket);
    }

    #[test]
    fn prepare_rejects_invalid_data() {
        let q = Quantizer::new();
        let bad = AgentWindow::new(0, -1.0, 1.0, 0.0, 0.9, 20.0);
        assert!(AgentCtx::prepare(0, bad, &q, 0).is_err());
    }

    #[test]
    fn prepare_enforces_the_per_value_bound() {
        // |sn_q| < 2^32 µkWh, on both sides of zero; the quantizer alone
        // would admit up to 2^62.
        let q = Quantizer::new();
        let limit = (1u64 << 32) as f64 / 1e6; // ≈ 4294.97 kWh
        for (generation, load) in [(limit, 0.0), (0.0, limit), (1e5, 0.0)] {
            let data = AgentWindow::new(0, generation, load, 0.0, 0.9, 20.0);
            assert!(
                matches!(
                    AgentCtx::prepare(0, data, &q, 0),
                    Err(PemError::Quantization { .. })
                ),
                "generation {generation}, load {load}"
            );
        }
        let data = AgentWindow::new(0, limit - 0.001, 0.0, 0.0, 0.9, 20.0);
        let ctx = AgentCtx::prepare(0, data, &q, 0).expect("just below the bound");
        assert!(ctx.sn_abs_q < 1 << 32);
    }
}
