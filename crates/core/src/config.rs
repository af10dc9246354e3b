//! PEM protocol configuration.

use serde::{Deserialize, Serialize};

use pem_crypto::ot::{DhGroup, Ed25519, OtGroup};
use pem_market::PriceBand;
use pem_net::LatencyModel;

use crate::error::PemError;
use crate::fold::Topology;
use crate::quantize::compare_width;

/// Fixed-point scale of energies and pricing terms: µkWh resolution on
/// one-minute windows.
pub(crate) const SCALE: u64 = 1_000_000;

/// Bits of each per-agent masking nonce (Protocol 2).
pub(crate) const NONCE_BITS: u32 = 40;

/// Bits of Protocol 4's ratio precision constant `K = 2^48`.
pub(crate) const RATIO_PRECISION_BITS: u32 = 48;

/// Every quantized net energy satisfies `|sn_q| < 2^VALUE_BITS`
/// ([`AgentCtx::prepare`](crate::AgentCtx::prepare) enforces it). Minute
/// windows stay below 2^6 kWh, i.e. 2^26 at [`SCALE`], so 32 bits is
/// generous.
pub(crate) const VALUE_BITS: u32 = 32;

/// A population holds at most `2^POPULATION_BITS` agents
/// ([`PemConfig::validate`] enforces it).
const POPULATION_BITS: u32 = 16;

/// The bit width every Protocol 4 ratio plaintext
/// `v_j = E · round(K / |sn_j|)` stays below, and the slot width its
/// decryptor packs them at: `E < 2^(VALUE_BITS + POPULATION_BITS)` and
/// `round(K / |sn_j|) ≤ K`, plus two bits of slack — 98 bits.
pub(crate) const RATIO_SLOT_BITS: usize =
    (VALUE_BITS + 2 + RATIO_PRECISION_BITS + POPULATION_BITS) as usize;

/// Which group backs the oblivious transfers of the secure comparison.
/// Independent of the Paillier key size — the paper varies only the
/// latter (512/1024/2048) in its Fig. 5 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OtProfile {
    /// 192-bit toy group of `Z_p*`: fast simulation profile (NOT
    /// cryptographically sized; used for unit tests and large sweeps).
    Test192,
    /// edwards25519: 32-byte elements, the 128-bit level.
    Ed25519,
}

impl OtProfile {
    /// A handle to the profile's process-wide group: `test192`'s prime
    /// is parsed and its generator's comb table built once per process,
    /// and so is the curve's basepoint table, however often this is
    /// called.
    pub fn group(self) -> OtGroup {
        match self {
            OtProfile::Test192 => DhGroup::test_192().into(),
            OtProfile::Ed25519 => Ed25519.into(),
        }
    }
}

/// Full protocol configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PemConfig {
    /// Paillier key size in bits (the paper's 512/1024/2048 sweep).
    pub key_bits: usize,
    /// The widest garbled comparison a window may run: each window
    /// compares at [`compare_width`] of its member count, and a
    /// population whose width exceeds this ceiling is rejected.
    pub compare_bits: usize,
    /// OT group profile for the comparison.
    pub ot_profile: OtProfile,
    /// Market price structure.
    pub band: PriceBand,
    /// Master seed for all protocol randomness.
    pub seed: u64,
    /// The shape every fold of Protocols 2–4 takes: the paper's
    /// sequential ring, the depth-1 star fan-in, or an f-ary aggregation
    /// tree (the same ciphertexts and messages in all three; the
    /// critical path is what moves).
    pub topology: Topology,
    /// Latency model of the default transport the window driver builds
    /// ([`SimNetwork`](pem_net::SimNetwork) with this model). Zero by
    /// default: pure bandwidth accounting, bit-identical to the
    /// pre-transport-API behaviour. The virtual clock only shapes the
    /// reported critical path, never a market outcome.
    pub latency: LatencyModel,
}

impl PemConfig {
    /// The paper's evaluation profile with a chosen Paillier key size.
    pub fn paper(key_bits: usize) -> PemConfig {
        PemConfig {
            key_bits,
            compare_bits: 64,
            ot_profile: OtProfile::Ed25519,
            band: PriceBand::paper_defaults(),
            seed: 2020,
            topology: Topology::Ring,
            latency: LatencyModel::zero(),
        }
    }

    /// A profile small enough for unit tests (toy 128-bit Paillier keys,
    /// 192-bit OT group) but running the identical code paths.
    pub fn fast_test() -> PemConfig {
        PemConfig {
            key_bits: 128,
            compare_bits: 64,
            ot_profile: OtProfile::Test192,
            band: PriceBand::paper_defaults(),
            seed: 7,
            topology: Topology::Ring,
            latency: LatencyModel::zero(),
        }
    }

    /// A no-op, kept for callers written against the retired randomizer
    /// pool (every randomizer is drawn on line; see [`crate::randpool`]).
    #[must_use]
    pub fn with_randomizer_pool(self, _batch: usize) -> PemConfig {
        self
    }

    /// Selects the aggregation topology of Protocols 2–4.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> PemConfig {
        self.topology = topology;
        self
    }

    /// Sets the latency model of the driver-built transport.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> PemConfig {
        self.latency = latency;
        self
    }

    /// Validates internal consistency for a population of `agents`.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] or [`PemError::Market`] describing the
    /// violated constraint.
    pub fn validate(&self, agents: usize) -> Result<(), PemError> {
        if agents == 0 {
            return Err(PemError::Config("population must be non-empty".into()));
        }
        if self.compare_bits == 0 || self.compare_bits > 128 {
            return Err(PemError::Config(
                "comparison width must be in 1..=128".into(),
            ));
        }
        if agents > 1 << POPULATION_BITS {
            return Err(PemError::Config(format!(
                "population of {agents} exceeds 2^{POPULATION_BITS} agents"
            )));
        }
        self.band.validate()?;
        self.window_compare_bits(agents)?;
        // The Paillier space must hold Protocol 4's scaled ratios.
        if self.key_bits < RATIO_SLOT_BITS {
            return Err(PemError::Config(format!(
                "key_bits {} too small for ratio precision (need ≥ {RATIO_SLOT_BITS})",
                self.key_bits
            )));
        }
        Ok(())
    }

    /// The comparison width of an `agents`-member window:
    /// [`compare_width`], checked against the `compare_bits` ceiling.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] if the width exceeds the ceiling.
    pub(crate) fn window_compare_bits(&self, agents: usize) -> Result<usize, PemError> {
        let width = compare_width(agents);
        if width > self.compare_bits {
            return Err(PemError::Config(format!(
                "aggregate of {agents} agents needs a {width}-bit comparison, \
                 the ceiling is {}",
                self.compare_bits
            )));
        }
        Ok(width)
    }
}

impl Default for PemConfig {
    fn default() -> Self {
        PemConfig::paper(2048)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profiles_validate() {
        for bits in [512usize, 1024, 2048] {
            PemConfig::paper(bits).validate(300).expect("valid");
        }
        PemConfig::fast_test().validate(50).expect("valid");
    }

    #[test]
    fn rejects_inconsistencies() {
        assert!(PemConfig::fast_test().validate(0).is_err());
        let mut c = PemConfig::fast_test();
        c.key_bits = 64;
        assert!(matches!(c.validate(10), Err(PemError::Config(_))));
        // 300 agents compare at 42 bits: the ceiling admits exactly that.
        let mut c = PemConfig::fast_test();
        c.compare_bits = 41;
        assert!(matches!(c.validate(300), Err(PemError::Config(_))));
        c.compare_bits = 42;
        c.validate(300)
            .expect("the derived width meets the ceiling");
        let mut c = PemConfig::fast_test();
        c.band.floor = 10.0; // violates Eq. 3
        assert!(c.validate(10).is_err());
    }

    #[test]
    fn population_cap_backs_the_ratio_slot() {
        // The slot width assumes at most 2^16 agents: the cap is
        // enforced, not just assumed.
        let c = PemConfig::paper(1024);
        assert_eq!(RATIO_SLOT_BITS, 98);
        c.validate(1 << 16).expect("2^16 agents fit");
        assert!(matches!(
            c.validate((1 << 16) + 1),
            Err(PemError::Config(_))
        ));
    }

    #[test]
    fn ot_profiles_materialize() {
        match OtProfile::Test192.group() {
            OtGroup::Dh(g) => assert_eq!(g.p().bit_length(), 192),
            other => panic!("Test192 gave {other:?}"),
        }
        assert_eq!(OtProfile::Ed25519.group(), OtGroup::Ed25519(Ed25519));
        assert_eq!(PemConfig::paper(1024).ot_profile, OtProfile::Ed25519);
        assert_eq!(PemConfig::paper(2048).ot_profile, OtProfile::Ed25519);
        assert_eq!(PemConfig::fast_test().ot_profile, OtProfile::Test192);
    }
}
