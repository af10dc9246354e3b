//! A precomputed-randomizer cache, kept as a measurement shim.
//!
//! No protocol path holds a pool: every encryption takes the next draw
//! of its key's [`RandomizerStreams`] on line
//! ([`encrypt_under`](crate::encrypt_under)). A pooled-vs-pool-less
//! A/B found the pool a pure cache that moved no work off line (its
//! refill ran inside the timed window) and changed throughput and CPU
//! by at most 1.1%, so it was retired (ROADMAP item 13 (b)).
//!
//! What is left serves the benchmark's `core.pool_refill_ms` probe:
//! [`RandomizerPool`] queues a batch of draws in front of the same
//! per-key streams ([`generate`](RandomizerPool::generate),
//! [`take`](RandomizerPool::take), [`refill`](RandomizerPool::refill)),
//! and [`PoolStats`] is the type of `GridReport::pool`, which is always
//! `None`. Both are on ROADMAP item 13 (d)'s delete list.

use std::collections::VecDeque;

use pem_crypto::paillier::Randomizer;

use crate::keys::{KeyDirectory, RandomizerStreams};

/// Pool counters: the type of `GridReport::pool`, which no pool fills.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Encryptions served from a precomputed randomizer.
    pub hits: u64,
    /// Encryptions whose randomizer was drawn on line.
    pub misses: u64,
    /// Randomizers precomputed.
    pub generated: u64,
}

impl PoolStats {
    /// Fraction of encryptions served from the pool (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A queue of precomputed draws in front of each key's randomizer
/// stream: queue `i` is a prefix of the rest of stream `i`.
#[derive(Debug, Clone)]
pub struct RandomizerPool {
    queues: Vec<VecDeque<Randomizer>>,
    streams: RandomizerStreams,
    batch: usize,
}

impl RandomizerPool {
    /// Builds the streams of every directory key under `seed` (those of
    /// [`RandomizerStreams::new`]) and precomputes the first `batch`
    /// draws of each.
    pub fn generate(keys: &KeyDirectory, batch: usize, seed: u64) -> RandomizerPool {
        let mut pool = RandomizerPool {
            queues: vec![VecDeque::new(); keys.len()],
            streams: RandomizerStreams::new(keys.len(), seed),
            batch,
        };
        pool.refill(keys);
        pool
    }

    /// The oldest precomputed randomizer under `key_owner`, if any.
    pub fn take(&mut self, key_owner: usize) -> Option<Randomizer> {
        self.queues.get_mut(key_owner)?.pop_front()
    }

    /// Tops every queue back up to the batch size from its key's stream.
    /// Returns how many randomizers were generated.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is smaller than the directory the pool was
    /// generated for.
    pub fn refill(&mut self, keys: &KeyDirectory) -> usize {
        let mut generated = 0;
        for (i, (queue, stream)) in self.queues.iter_mut().zip(&mut self.streams.0).enumerate() {
            let missing = self.batch.saturating_sub(queue.len());
            queue.extend(keys.public(i).precompute_randomizers(missing, stream));
            generated += missing;
        }
        generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::encrypt_under;
    use pem_bignum::BigUint;
    use pem_crypto::drbg::HashDrbg;
    use pem_crypto::paillier::Ciphertext;

    fn directory() -> KeyDirectory {
        KeyDirectory::generate(3, 128, 11).expect("keys")
    }

    #[test]
    fn generates_batch_per_key() {
        let keys = directory();
        let mut pool = RandomizerPool::generate(&keys, 4, 1);
        for key in 0..3 {
            for draw in 0..4 {
                assert!(pool.take(key).is_some(), "key {key} draw {draw}");
            }
            assert!(pool.take(key).is_none(), "key {key}: batch of 4");
        }
        assert_eq!(pool.refill(&keys), 12);
    }

    #[test]
    fn take_depletes_and_refill_restores() {
        let keys = directory();
        let mut pool = RandomizerPool::generate(&keys, 2, 1);
        assert!(pool.take(0).is_some());
        assert!(pool.take(0).is_some());
        assert!(pool.take(0).is_none(), "queue exhausted");
        assert!(pool.take(3).is_none(), "no such key");
        assert_eq!(pool.refill(&keys), 2);
        assert_eq!(pool.refill(&keys), 0, "every queue full");
        assert!(pool.take(0).is_some());
    }

    #[test]
    fn pooled_ciphertexts_decrypt() {
        let keys = directory();
        let mut pool = RandomizerPool::generate(&keys, 1, 9);
        let m = BigUint::from(123u64);
        let r = pool.take(1).expect("one precomputed");
        let c = keys.public(1).try_encrypt_with(&m, &r).expect("encrypt");
        assert_eq!(keys.keypair(1).private().decrypt(&c), m);
    }

    #[test]
    fn the_batch_size_moves_no_ciphertext() {
        // The queues sit in front of the streams every protocol draws
        // from on line: at any batch, across refills, key `i`'s queued
        // draws encrypt to exactly the ciphertexts `encrypt_under` makes
        // from a fresh `RandomizerStreams` under the same seed.
        let keys = directory();
        let m = BigUint::from(5u64);
        let mut streams = RandomizerStreams::new(keys.len(), 4);
        let on_line: Vec<Vec<Ciphertext>> = (0..keys.len())
            .map(|key| {
                (0..8)
                    .map(|_| encrypt_under(keys.public(key), key, &m, &mut streams).expect("enc"))
                    .collect()
            })
            .collect();
        for batch in [1, 2, 8] {
            let mut pool = RandomizerPool::generate(&keys, batch, 4);
            for (key, expected) in on_line.iter().enumerate() {
                let mut pooled = Vec::new();
                while pooled.len() < expected.len() {
                    match pool.take(key) {
                        Some(r) => {
                            pooled.push(keys.public(key).try_encrypt_with(&m, &r).expect("enc"))
                        }
                        None => {
                            pool.refill(&keys);
                        }
                    }
                }
                assert_eq!(&pooled, expected, "batch {batch} key {key}");
            }
        }
    }

    #[test]
    fn pool_matches_the_public_key_reference_lane() {
        // The pool must hand out exactly what the public key computes
        // on the same per-key stream — across the initial batch and a
        // refill.
        let keys = directory();
        let (batch, seed) = (2usize, 7u64);
        let mut pool = RandomizerPool::generate(&keys, batch, seed);
        let mut reference: Vec<HashDrbg> = (0..keys.len())
            .map(|i| HashDrbg::from_seed_label(b"pem-randpool", seed ^ ((i as u64) << 24)))
            .collect();
        for round in 0..2 {
            for (key, stream) in reference.iter_mut().enumerate() {
                for (draw, expected) in keys
                    .public(key)
                    .precompute_randomizers(batch, stream)
                    .into_iter()
                    .enumerate()
                {
                    assert_eq!(
                        pool.take(key),
                        Some(expected),
                        "round {round} key {key} draw {draw}"
                    );
                }
            }
            assert_eq!(pool.refill(&keys), batch * keys.len());
        }
    }

    #[test]
    fn pool_streams_are_independent_of_draw_interleaving() {
        // Taking from *different* keys in another order must not change
        // what each key's queue yields.
        let keys = directory();
        let mut a = RandomizerPool::generate(&keys, 3, 5);
        let mut b = RandomizerPool::generate(&keys, 3, 5);
        let a0 = a.take(0);
        let _ = a.take(1);
        let a0b = a.take(0);
        let b0 = b.take(0);
        let b0b = b.take(0);
        let _ = b.take(1);
        assert_eq!(a0, b0);
        assert_eq!(a0b, b0b);
    }
}
