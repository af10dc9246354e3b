//! Per-agent key material (Protocol 1, lines 1–2).

use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::{Keypair, PublicKey};

use crate::error::PemError;

/// Every agent's Paillier key pair plus the shared public-key registry —
/// the result of the key-sharing round in Protocol 1.
#[derive(Debug, Clone)]
pub struct KeyDirectory {
    keypairs: Vec<Keypair>,
}

impl KeyDirectory {
    /// Generates `agents` key pairs of `key_bits` bits, deterministically
    /// from `seed` (each agent derives an independent stream).
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] for an empty population.
    pub fn generate(agents: usize, key_bits: usize, seed: u64) -> Result<KeyDirectory, PemError> {
        if agents == 0 {
            return Err(PemError::Config("population must be non-empty".into()));
        }
        let keypairs = (0..agents)
            .map(|i| {
                let mut rng = HashDrbg::from_seed_label(b"pem-agent-key", seed ^ (i as u64) << 20);
                Keypair::generate(key_bits, &mut rng)
            })
            .collect();
        Ok(KeyDirectory { keypairs })
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.keypairs.len()
    }

    /// `true` if the directory is empty (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.keypairs.is_empty()
    }

    /// Agent `i`'s public key (what everyone can see).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn public(&self, i: usize) -> &PublicKey {
        self.keypairs[i].public()
    }

    /// Agent `i`'s full key pair (only agent `i` would hold this in a real
    /// deployment; the simulator routes all decryptions through here so
    /// the information flow stays explicit).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn keypair(&self, i: usize) -> &Keypair {
        &self.keypairs[i]
    }

    /// Precomputes `count` randomizers (`h_s^x`) under key `i` — the one
    /// lane every encryption under that key takes, batched. The first
    /// call under a key builds its `h_s` table.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn precompute_randomizers_for(
        &self,
        i: usize,
        count: usize,
        rng: &mut HashDrbg,
    ) -> Vec<pem_crypto::paillier::Randomizer> {
        self.keypairs[i].public().precompute_randomizers(count, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_bignum::BigUint;

    #[test]
    fn generates_distinct_keys() {
        let dir = KeyDirectory::generate(4, 96, 1).expect("generate");
        assert_eq!(dir.len(), 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(dir.public(i).n(), dir.public(j).n(), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = KeyDirectory::generate(2, 96, 9).expect("generate");
        let b = KeyDirectory::generate(2, 96, 9).expect("generate");
        assert_eq!(a.public(0).n(), b.public(0).n());
        let c = KeyDirectory::generate(2, 96, 10).expect("generate");
        assert_ne!(a.public(0).n(), c.public(0).n());
    }

    #[test]
    fn keys_work() {
        let dir = KeyDirectory::generate(1, 128, 2).expect("generate");
        let mut rng = HashDrbg::new(b"use");
        let c = dir.public(0).encrypt(&BigUint::from(5u64), &mut rng);
        assert_eq!(dir.keypair(0).private().decrypt(&c), BigUint::from(5u64));
    }

    #[test]
    fn empty_population_rejected() {
        assert!(KeyDirectory::generate(0, 128, 1).is_err());
    }
}
