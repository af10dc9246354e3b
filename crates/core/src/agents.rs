//! Per-agent protocol state for one trading window, and the
//! [`Coalition`] Protocols 2–4 run over.

use pem_market::{AgentWindow, Role};
use rand::Rng;

use crate::config::{PemConfig, NONCE_BITS, VALUE_BITS};
use crate::draws::Draws;
use crate::error::PemError;
use crate::keys::KeyDirectory;
use crate::quantize::quantize;

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
    pub fn prepare(index: usize, data: AgentWindow, nonce: u64) -> Result<AgentCtx, PemError> {
        data.validate()?;
        let what = "net energy";
        let sn_q = quantize(data.net_energy(), what)?;
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

/// One window's market: the configuration and keys it runs under, the
/// attempt's [`Draws`], every agent's prepared state and the two
/// coalitions the agents formed — the one set of parties Protocols 2, 3
/// and 4 each take.
#[derive(Debug, Clone)]
pub struct Coalition<'a> {
    /// The configuration in force; every fold takes `cfg.topology`.
    pub cfg: &'a PemConfig,
    /// Agent `i`'s key pair at position `i`.
    pub keys: &'a KeyDirectory,
    /// The attempt every party opens its streams under.
    pub draws: Draws,
    /// Every agent's window state, agent `i` at position `i`.
    pub agents: Vec<AgentCtx>,
    /// The seller coalition, ascending.
    pub sellers: Vec<usize>,
    /// The buyer coalition, ascending.
    pub buyers: Vec<usize>,
}

impl<'a> Coalition<'a> {
    /// Forms the window's coalitions (Protocol 1's local step): every
    /// agent quantizes its data, draws this window's nonce from its own
    /// stream and claims a role.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] if `window_data` does not cover the
    /// population of `keys`; data validation and quantization failures.
    pub fn new(
        cfg: &'a PemConfig,
        keys: &'a KeyDirectory,
        draws: Draws,
        window_data: &[AgentWindow],
    ) -> Result<Coalition<'a>, PemError> {
        if window_data.len() != keys.len() {
            return Err(PemError::Config(format!(
                "window data covers {} agents, the population has {}",
                window_data.len(),
                keys.len()
            )));
        }
        let mut agents = Vec::with_capacity(window_data.len());
        let mut sellers = Vec::new();
        let mut buyers = Vec::new();
        for (i, data) in window_data.iter().enumerate() {
            let nonce = draws.nonce(i).gen::<u64>() >> (64 - NONCE_BITS);
            let ctx = AgentCtx::prepare(i, *data, nonce)?;
            match ctx.role {
                Role::Seller => sellers.push(i),
                Role::Buyer => buyers.push(i),
                Role::OffMarket => {}
            }
            agents.push(ctx);
        }
        Ok(Coalition {
            cfg,
            keys,
            draws,
            agents,
            sellers,
            buyers,
        })
    }
}

/// What a [`Coalition`] borrows — a `fast_test` market's configuration
/// and keys — and one window's data: the fixture the protocols' unit
/// tests run over.
#[cfg(test)]
pub(crate) struct Market {
    pub(crate) cfg: PemConfig,
    pub(crate) keys: KeyDirectory,
    pub(crate) data: Vec<AgentWindow>,
}

#[cfg(test)]
impl Market {
    pub(crate) fn new(data: Vec<AgentWindow>) -> Market {
        let cfg = PemConfig::fast_test();
        let keys = KeyDirectory::generate(data.len(), cfg.key_bits, cfg.seed).expect("keys");
        Market { cfg, keys, data }
    }

    /// The window's coalition under attempt 0 of window 0.
    pub(crate) fn coalition(&self) -> Coalition<'_> {
        let draws = Draws::new(self.cfg.seed, 0, 0);
        Coalition::new(&self.cfg, &self.keys, draws, &self.data).expect("coalition")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_classifies_on_quantized_value() {
        let seller = AgentCtx::prepare(0, AgentWindow::new(0, 2.0, 1.0, 0.0, 0.9, 20.0), 7)
            .expect("prepare");
        assert_eq!(seller.role, Role::Seller);
        assert_eq!(seller.sn_q, 1_000_000);
        assert_eq!(seller.sn_abs_q, 1_000_000);

        let buyer = AgentCtx::prepare(1, AgentWindow::new(1, 0.0, 0.5, 0.0, 0.9, 20.0), 7)
            .expect("prepare");
        assert_eq!(buyer.role, Role::Buyer);
        assert_eq!(buyer.sn_abs_q, 500_000);

        // Sub-resolution dust rounds to zero → off market.
        let dust = AgentCtx::prepare(2, AgentWindow::new(2, 1.0, 1.0 - 1e-9, 0.0, 0.9, 20.0), 7)
            .expect("prepare");
        assert_eq!(dust.role, Role::OffMarket);
    }

    #[test]
    fn prepare_rejects_invalid_data() {
        let bad = AgentWindow::new(0, -1.0, 1.0, 0.0, 0.9, 20.0);
        assert!(AgentCtx::prepare(0, bad, 0).is_err());
    }

    #[test]
    fn prepare_enforces_the_per_value_bound() {
        // |sn_q| < 2^32 µkWh, on both sides of zero; the quantizer alone
        // would admit up to 2^62.
        let limit = (1u64 << 32) as f64 / 1e6; // ≈ 4294.97 kWh
        for (generation, load) in [(limit, 0.0), (0.0, limit), (1e5, 0.0)] {
            let data = AgentWindow::new(0, generation, load, 0.0, 0.9, 20.0);
            assert!(
                matches!(
                    AgentCtx::prepare(0, data, 0),
                    Err(PemError::Quantization { .. })
                ),
                "generation {generation}, load {load}"
            );
        }
        let data = AgentWindow::new(0, limit - 0.001, 0.0, 0.0, 0.9, 20.0);
        let ctx = AgentCtx::prepare(0, data, 0).expect("just below the bound");
        assert!(ctx.sn_abs_q < 1 << 32);
    }
}
