//! PEM protocol configuration.

use serde::{Deserialize, Serialize};

use pem_crypto::ot::DhGroup;
use pem_market::PriceBand;
use pem_net::LatencyModel;

use crate::error::PemError;
use crate::fold::Topology;
use crate::quantize::Quantizer;

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

/// Which Diffie–Hellman group backs the oblivious transfers of the secure
/// comparison. Independent of the Paillier key size — the paper varies
/// only the latter (512/1024/2048) in its Fig. 5 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OtProfile {
    /// 192-bit toy group: fast simulation profile (NOT cryptographically
    /// sized; used for unit tests and large sweeps).
    Test192,
    /// RFC 2409 Oakley Group 2, 1024-bit.
    Modp1024,
    /// RFC 3526 Group 14, 2048-bit.
    Modp2048,
}

impl OtProfile {
    /// A handle to the profile's process-wide group context: the prime
    /// is parsed once and the generator's comb table built once per
    /// process (on the first `g^x`), however often this is called.
    pub fn group(self) -> DhGroup {
        match self {
            OtProfile::Test192 => DhGroup::test_192(),
            OtProfile::Modp1024 => DhGroup::modp_1024(),
            OtProfile::Modp2048 => DhGroup::modp_2048(),
        }
    }
}

/// Full protocol configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PemConfig {
    /// Paillier key size in bits (the paper's 512/1024/2048 sweep).
    pub key_bits: usize,
    /// Bit width of the garbled comparison circuit.
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
            ot_profile: OtProfile::Modp1024,
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
        if self.key_bits < 96 {
            return Err(PemError::Config(format!(
                "paillier keys of {} bits cannot hold the protocol aggregates",
                self.key_bits
            )));
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
        Quantizer::check_headroom(agents, VALUE_BITS, NONCE_BITS, self.compare_bits)?;
        // The Paillier space must also hold Protocol 4's scaled ratios.
        if self.key_bits < RATIO_SLOT_BITS {
            return Err(PemError::Config(format!(
                "key_bits {} too small for ratio precision (need ≥ {RATIO_SLOT_BITS})",
                self.key_bits
            )));
        }
        Ok(())
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
        assert!(c.validate(10).is_err());
        let mut c = PemConfig::fast_test();
        c.compare_bits = 48; // too tight for 40-bit nonces over 300 agents
        assert!(c.validate(300).is_err());
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
        assert_eq!(OtProfile::Test192.group().p().bit_length(), 192);
        assert_eq!(OtProfile::Modp1024.group().p().bit_length(), 1024);
        assert_eq!(OtProfile::Modp2048.group().p().bit_length(), 2048);
    }
}
