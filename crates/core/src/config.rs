//! PEM protocol configuration.

use serde::{Deserialize, Serialize};

use pem_crypto::ot::DhGroup;
use pem_market::PriceBand;
use pem_net::LatencyModel;

use crate::error::PemError;
use crate::fold::Topology;
use crate::quantize::Quantizer;

/// Every quantized net energy satisfies `|sn_q| < 2^VALUE_BITS`
/// ([`AgentCtx::prepare`](crate::AgentCtx::prepare) enforces it). Minute
/// windows stay below 2^6 kWh, i.e. 2^26 at the default scale, so 32
/// bits is generous.
pub(crate) const VALUE_BITS: u32 = 32;

/// A population holds at most `2^POPULATION_BITS` agents
/// ([`PemConfig::validate`] enforces it).
const POPULATION_BITS: u32 = 16;

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
    /// Fixed-point scale for energies and pricing terms.
    pub scale: u64,
    /// Bits of each per-agent masking nonce (Protocol 2).
    pub nonce_bits: u32,
    /// Bits of the ratio precision constant `K` (Protocol 4).
    pub ratio_precision_bits: u32,
    /// Master seed for all protocol randomness.
    pub seed: u64,
    /// Precomputed Paillier randomizers held per key (0 disables the
    /// pool). Batches of `h_s^x mod n²` are generated off the critical
    /// path and consumed by the protocols, one multiplication per
    /// encryption instead of a short table exponentiation; see
    /// [`crate::randpool`].
    pub randomizer_pool: usize,
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
            scale: 1_000_000,
            nonce_bits: 40,
            ratio_precision_bits: 48,
            seed: 2020,
            randomizer_pool: 0,
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
            scale: 1_000_000,
            nonce_bits: 40,
            ratio_precision_bits: 48,
            seed: 7,
            randomizer_pool: 0,
            topology: Topology::Ring,
            latency: LatencyModel::zero(),
        }
    }

    /// Enables a precomputed-randomizer pool of `batch` entries per key.
    #[must_use]
    pub fn with_randomizer_pool(mut self, batch: usize) -> PemConfig {
        self.randomizer_pool = batch;
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

    /// The quantizer induced by this configuration.
    pub fn quantizer(&self) -> Quantizer {
        Quantizer::new(self.scale)
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
        if self.nonce_bits == 0 || self.nonce_bits > 60 {
            return Err(PemError::Config("nonce bits must be in 1..=60".into()));
        }
        if self.scale == 0 {
            return Err(PemError::Config("scale must be positive".into()));
        }
        if self.ratio_precision_bits < 16 || self.ratio_precision_bits > 60 {
            return Err(PemError::Config(
                "ratio precision must be in 16..=60 bits".into(),
            ));
        }
        if agents > 1 << POPULATION_BITS {
            return Err(PemError::Config(format!(
                "population of {agents} exceeds 2^{POPULATION_BITS} agents"
            )));
        }
        self.band.validate()?;
        self.quantizer()
            .check_headroom(agents, VALUE_BITS, self.nonce_bits, self.compare_bits)?;
        // The Paillier space must also hold Protocol 4's scaled ratios.
        let needed = self.ratio_slot_bits();
        if self.key_bits < needed {
            return Err(PemError::Config(format!(
                "key_bits {} too small for ratio precision (need ≥ {needed})",
                self.key_bits
            )));
        }
        Ok(())
    }

    /// The bit width every Protocol 4 ratio plaintext
    /// `v_j = E · round(K / |sn_j|)` stays below, and the slot width its
    /// decryptor packs them at: `E < 2^(VALUE_BITS + POPULATION_BITS)`
    /// and `round(K / |sn_j|) ≤ K`, plus two bits of slack — 98 bits at
    /// the paper's 48-bit precision.
    pub fn ratio_slot_bits(&self) -> usize {
        (VALUE_BITS + 2 + self.ratio_precision_bits + POPULATION_BITS) as usize
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
        let mut c = PemConfig::fast_test();
        c.nonce_bits = 0;
        assert!(c.validate(10).is_err());
        let mut c = PemConfig::fast_test();
        c.scale = 0; // a rejection, not a panic in the quantizer
        assert!(matches!(c.validate(10), Err(PemError::Config(_))));
    }

    #[test]
    fn population_cap_backs_the_ratio_slot() {
        // The slot width assumes at most 2^16 agents: the cap is
        // enforced, not just assumed.
        let c = PemConfig::paper(1024);
        assert_eq!(c.ratio_slot_bits(), 98);
        c.validate(1 << 16).expect("2^16 agents fit");
        assert!(matches!(
            c.validate((1 << 16) + 1),
            Err(PemError::Config(_))
        ));
        let mut c = PemConfig::fast_test();
        c.ratio_precision_bits = 60;
        assert_eq!(c.ratio_slot_bits(), 110);
    }

    #[test]
    fn ot_profiles_materialize() {
        assert_eq!(OtProfile::Test192.group().p().bit_length(), 192);
        assert_eq!(OtProfile::Modp1024.group().p().bit_length(), 1024);
        assert_eq!(OtProfile::Modp2048.group().p().bit_length(), 2048);
    }
}
