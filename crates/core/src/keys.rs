//! Per-agent key material (Protocol 1, lines 1–2).

use std::sync::Arc;

use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::{Keypair, PublicKey};

use crate::error::PemError;

/// Paillier key pairs generated, process-wide (telemetry): one per home
/// over a whole grid day, however often its coalitions re-form.
static KEYGENS: pem_telemetry::Counter = pem_telemetry::Counter::new();

/// Every agent's Paillier key pair plus the shared public-key registry —
/// the result of the key-sharing round in Protocol 1.
///
/// A key belongs to its agent, not to a coalition slot: agent `i`'s pair
/// is a function of `(seed, i)` alone ([`KeyDirectory::agent_keypair`]).
/// The directory holds shared handles, so a coalition's directory
/// borrows its members' keys from a grid-wide one
/// ([`KeyDirectory::select`]) and every copy shares each key's lazily
/// built `h_s` table and its CRT context.
#[derive(Debug, Clone)]
pub struct KeyDirectory {
    keypairs: Vec<Arc<Keypair>>,
}

impl KeyDirectory {
    /// Generates `agents` key pairs of `key_bits` bits, deterministically
    /// from `seed`: position `i` holds [`KeyDirectory::agent_keypair`]`(key_bits, seed, i)`.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] for an empty population.
    pub fn generate(agents: usize, key_bits: usize, seed: u64) -> Result<KeyDirectory, PemError> {
        KeyDirectory::from_keypairs(
            (0..agents)
                .map(|i| KeyDirectory::agent_keypair(key_bits, seed, i))
                .collect(),
        )
    }

    /// Agent `agent`'s key pair under `seed` — the one key derivation:
    /// each agent draws from its own DRBG stream, so the pair depends on
    /// nothing but `(key_bits, seed, agent)`. Counted on `crypto/keygens`.
    pub fn agent_keypair(key_bits: usize, seed: u64, agent: usize) -> Keypair {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| pem_telemetry::register_counter("crypto/keygens", &KEYGENS));
        KEYGENS.incr();
        let mut rng = HashDrbg::from_seed_label(b"pem-agent-key", seed ^ (agent as u64) << 20);
        Keypair::generate(key_bits, &mut rng)
    }

    /// A directory over key pairs already generated, agent `i` at
    /// position `i`.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] for an empty population.
    pub fn from_keypairs(keypairs: Vec<Keypair>) -> Result<KeyDirectory, PemError> {
        if keypairs.is_empty() {
            return Err(PemError::Config("population must be non-empty".into()));
        }
        Ok(KeyDirectory {
            keypairs: keypairs.into_iter().map(Arc::new).collect(),
        })
    }

    /// The directory of a coalition: position `i` holds agent
    /// `members[i]`'s key, shared with `self` (no key is generated or
    /// copied).
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] for an empty member list or a member outside
    /// the directory.
    pub fn select(&self, members: &[usize]) -> Result<KeyDirectory, PemError> {
        if members.is_empty() {
            return Err(PemError::Config("population must be non-empty".into()));
        }
        let keypairs = members
            .iter()
            .map(|&m| {
                self.keypairs.get(m).cloned().ok_or_else(|| {
                    PemError::Config(format!("agent {m} has no key in the directory"))
                })
            })
            .collect::<Result<_, _>>()?;
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

    #[test]
    fn a_selection_shares_its_members_keys() {
        let dir = KeyDirectory::generate(4, 96, 3).expect("generate");
        let coalition = dir.select(&[3, 1]).expect("select");
        assert_eq!(coalition.len(), 2);
        for (pos, agent) in [(0, 3), (1, 1)] {
            assert!(Arc::ptr_eq(&coalition.keypairs[pos], &dir.keypairs[agent]));
        }
        // Agent 3's key is the same pair however the directory was made.
        let alone = KeyDirectory::agent_keypair(96, 3, 3);
        assert_eq!(coalition.public(0).n(), alone.public().n());
        assert!(dir.select(&[4]).is_err(), "no such agent");
        assert!(dir.select(&[]).is_err());
    }
}
