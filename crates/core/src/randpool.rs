//! Batched Paillier encryption randomizers (`h_s^x mod n²`).
//!
//! Every Paillier encryption pays one fixed-base exponentiation for its
//! randomizer — ≈40 multiplications off the key's `h_s` table at
//! 1024-bit keys, ≈56 at 2048 (see `pem_crypto::paillier`) — and the
//! message factor `1 + m·n` is a single multiplication. Since the
//! randomizer is message-independent, batches can be generated **off the
//! critical path** (idle time between trading windows) and consumed one
//! per encryption during the protocols: what a pooled randomizer still
//! saves is one multiplication instead of ≈40. Whether that earns the
//! refill is for a pooled-vs-pool-less A/B to decide (ROADMAP item
//! 13 (b)); the two runs differ in nothing else.
//!
//! **One randomizer stream per key.** The pool holds one sequential DRBG
//! per key of its directory (label `pem-randpool`, seed `seed ^ (i << 24)`
//! for key `i`), and every encryption under key `i` — pooled or not —
//! takes the *next draw of key `i`'s stream*: [`encrypt_under`] pops the
//! oldest precomputed randomizer, and only when the queue is empty
//! draws the next one on line from the same stream. A queue is thus a
//! precomputed prefix of its key's stream, never a different stream, so
//! the batch size (0 included: nothing precomputed) moves no bit —
//! pooled and pool-less runs are bit-identical; only where the
//! exponentiations run, and the hit/miss counters, differ. Nothing
//! outside the key's stream is drawn, so the order of encryptions under
//! *different* keys is free too (Protocol 2 may encrypt supply before
//! demand).
//!
//! Deployment note: in a real deployment each agent would pre-generate
//! private randomizer batches for the public keys it expects to encrypt
//! under. The simulator models the *cost structure* with one shared pool
//! per target key, mirroring how `KeyDirectory` centralizes key material
//! to keep information flow explicit.
//!
//! Both lanes are [`PublicKey::randomizer`] under the key — the same
//! `h_s^x` draw [`PublicKey::try_encrypt`] makes. Generating the initial
//! batch is also what first touches each key's `h_s` table.
//! [`RandomizerPool::refill`] tops every queue back up to the batch; a
//! [`Pem`](crate::Pem) window runs it after Protocol 4, the cross-shard
//! coupling coordinator after each round.

use std::collections::VecDeque;

use pem_bignum::BigUint;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::{Ciphertext, PublicKey, Randomizer};
use pem_crypto::CryptoError;

use crate::keys::KeyDirectory;

/// Global pool counters mirroring [`PoolStats`] into the telemetry
/// registry (no-ops until a collector is installed; summed across all
/// pools in the process, where `PoolStats` stays per-pool).
static POOL_HITS: pem_telemetry::Counter = pem_telemetry::Counter::new();
static POOL_MISSES: pem_telemetry::Counter = pem_telemetry::Counter::new();
static POOL_GENERATED: pem_telemetry::Counter = pem_telemetry::Counter::new();

fn register_pool_counters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pem_telemetry::register_counter("pool/hit", &POOL_HITS);
        pem_telemetry::register_counter("pool/miss", &POOL_MISSES);
        pem_telemetry::register_counter("pool/generated", &POOL_GENERATED);
    });
}

/// Draw/refill counters for observability (surfaced in grid reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Encryptions served from a precomputed randomizer.
    pub hits: u64,
    /// Encryptions whose randomizer was drawn on line (the queue was
    /// empty).
    pub misses: u64,
    /// Randomizers precomputed (initial batch + refills).
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

    /// The activity since `mark`, an earlier reading of the same pool.
    pub fn since(&self, mark: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - mark.hits,
            misses: self.misses - mark.misses,
            generated: self.generated - mark.generated,
        }
    }
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, other: PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.generated += other.generated;
    }
}

/// Per-key randomizer streams, each with a queue of precomputed draws.
#[derive(Debug, Clone)]
pub struct RandomizerPool {
    queues: Vec<VecDeque<Randomizer>>,
    /// One sequential DRBG per key: randomizer `j` under a key is draw
    /// `j` of that key's stream, precomputed or not.
    streams: Vec<HashDrbg>,
    batch: usize,
    stats: PoolStats,
}

impl RandomizerPool {
    /// Builds the streams of every directory key, deterministically
    /// derived from `seed` (independent of the protocol RNG streams), and
    /// precomputes the first `batch` draws of each (none at batch 0).
    pub fn generate(keys: &KeyDirectory, batch: usize, seed: u64) -> RandomizerPool {
        register_pool_counters();
        let n = keys.len();
        let streams = (0..n)
            .map(|i| HashDrbg::from_seed_label(b"pem-randpool", seed ^ ((i as u64) << 24)))
            .collect();
        let mut pool = RandomizerPool {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            streams,
            batch,
            stats: PoolStats::default(),
        };
        pool.refill(keys);
        pool
    }

    /// Number of keys the pool covers.
    pub fn keys(&self) -> usize {
        self.queues.len()
    }

    /// Target batch size per key.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Currently available randomizers under key `key_owner`.
    pub fn available(&self, key_owner: usize) -> usize {
        self.queues.get(key_owner).map_or(0, VecDeque::len)
    }

    /// The oldest precomputed randomizer under `key_owner`, if any (a
    /// miss otherwise).
    pub fn take(&mut self, key_owner: usize) -> Option<Randomizer> {
        match self.queues.get_mut(key_owner).and_then(VecDeque::pop_front) {
            Some(r) => {
                self.stats.hits += 1;
                POOL_HITS.incr();
                Some(r)
            }
            None => {
                self.stats.misses += 1;
                POOL_MISSES.incr();
                None
            }
        }
    }

    /// The next draw of `key_owner`'s stream: precomputed if the queue
    /// holds one, drawn on line under `pk` (the key's public half)
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `key_owner` is outside the pool's directory.
    pub(crate) fn draw(&mut self, pk: &PublicKey, key_owner: usize) -> Randomizer {
        match self.take(key_owner) {
            Some(r) => r,
            None => pk.randomizer(&mut self.streams[key_owner]),
        }
    }

    /// Tops every queue back up to the batch size from its key's stream
    /// — the off-critical-path step, meant to run between windows.
    /// Returns how many randomizers were generated.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is smaller than the directory the pool was
    /// generated for.
    pub fn refill(&mut self, keys: &KeyDirectory) -> usize {
        let refill_span = pem_telemetry::Span::enter("pool/refill", "pool");
        let mut generated = 0;
        for (i, (queue, stream)) in self.queues.iter_mut().zip(&mut self.streams).enumerate() {
            let missing = self.batch.saturating_sub(queue.len());
            if missing > 0 {
                queue.extend(keys.public(i).precompute_randomizers(missing, stream));
                generated += missing;
            }
        }
        self.stats.generated += generated as u64;
        POOL_GENERATED.add(generated as u64);
        refill_span.finish();
        generated
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

/// Encrypts `m` under `pk` (owned by directory entry `key_owner`) with
/// the next randomizer of that key's stream: the oldest precomputed one,
/// or one drawn on line when the key's queue is empty.
///
/// # Errors
///
/// [`CryptoError::MessageTooLarge`] if `m` exceeds the message space
/// (the randomizer is consumed either way).
pub fn encrypt_under(
    pk: &PublicKey,
    key_owner: usize,
    m: &BigUint,
    pool: &mut RandomizerPool,
) -> Result<Ciphertext, CryptoError> {
    pk.try_encrypt_with(m, &pool.draw(pk, key_owner))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directory() -> KeyDirectory {
        KeyDirectory::generate(3, 128, 11).expect("keys")
    }

    #[test]
    fn generates_batch_per_key() {
        let keys = directory();
        let pool = RandomizerPool::generate(&keys, 4, 1);
        assert_eq!(pool.keys(), 3);
        for i in 0..3 {
            assert_eq!(pool.available(i), 4);
        }
        assert_eq!(pool.stats().generated, 12);
    }

    #[test]
    fn take_depletes_and_refill_restores() {
        let keys = directory();
        let mut pool = RandomizerPool::generate(&keys, 2, 1);
        assert!(pool.take(0).is_some());
        assert!(pool.take(0).is_some());
        assert!(pool.take(0).is_none(), "queue exhausted");
        assert_eq!(pool.available(0), 0);
        assert_eq!(pool.refill(&keys), 2);
        assert_eq!(pool.available(0), 2);
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.generated, 8);
    }

    #[test]
    fn pooled_ciphertexts_decrypt() {
        let keys = directory();
        let mut pool = RandomizerPool::generate(&keys, 1, 9);
        let m = BigUint::from(123u64);
        // First draw: pooled. Second: on line. Both decrypt correctly.
        let c1 = encrypt_under(keys.public(1), 1, &m, &mut pool).expect("pooled");
        let c2 = encrypt_under(keys.public(1), 1, &m, &mut pool).expect("on line");
        assert_ne!(c1, c2);
        assert_eq!(keys.keypair(1).private().decrypt(&c1), m);
        assert_eq!(keys.keypair(1).private().decrypt(&c2), m);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn the_batch_size_moves_no_ciphertext() {
        // Key `i`'s ciphertexts are its stream's draws in order, whether
        // precomputed or drawn on line, across refills, at any batch.
        let keys = directory();
        let m = BigUint::from(5u64);
        let run = |batch: usize| {
            let mut pool = RandomizerPool::generate(&keys, batch, 4);
            let mut cts = Vec::new();
            for round in 0..3 {
                for key in [0, 2, 0, 0, 1, 2, 0] {
                    cts.push(encrypt_under(keys.public(key), key, &m, &mut pool).expect("enc"));
                }
                if round != 1 {
                    pool.refill(&keys);
                }
            }
            cts
        };
        let reference = run(0);
        for batch in [1, 2, 8] {
            assert_eq!(run(batch), reference, "batch {batch}");
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
        // Draw order across *different* keys must not change what each
        // key's stream yields — pooled or on line.
        let keys = directory();
        for batch in [0, 3] {
            let mut a = RandomizerPool::generate(&keys, batch, 5);
            let mut b = RandomizerPool::generate(&keys, batch, 5);
            let a0 = a.draw(keys.public(0), 0);
            let _ = a.draw(keys.public(1), 1);
            let a0b = a.draw(keys.public(0), 0);
            let b0 = b.draw(keys.public(0), 0);
            let b0b = b.draw(keys.public(0), 0);
            let _ = b.draw(keys.public(1), 1);
            assert_eq!(a0, b0, "batch {batch}");
            assert_eq!(a0b, b0b, "batch {batch}");
        }
    }
}
