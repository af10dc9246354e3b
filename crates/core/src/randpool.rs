//! Batched Paillier encryption randomizers (`h_s^x mod n²`).
//!
//! Every Paillier encryption pays one fixed-base exponentiation for its
//! randomizer — ≈40 multiplications off the key's `h_s` table at
//! 1024-bit keys, ≈56 at 2048 (see `pem_crypto::paillier`) — and the
//! message factor `1 + m·n` is a single multiplication. Since the
//! randomizer is message-independent, batches can be generated **off the
//! critical path** (idle time between trading windows) and consumed one
//! per encryption during the protocols: what a pooled randomizer still
//! saves is one multiplication instead of ≈40. That is a far smaller
//! prize than the full-width ladder the pool was built to hide; whether
//! it still earns the refill machinery is for the `benchmark` PR to
//! decide from a pooled-vs-pool-less A/B (ROADMAP, "One pool
//! discipline"), not this module.
//!
//! The pool keeps one queue *per key in the directory* (a randomizer is
//! bound to the modulus it was computed under), each fed by its own
//! sequential DRBG stream (label `pem-randpool`, seed `seed ^ (i << 24)`
//! for key `i`): randomizer `j` under a key is draw `j` of that key's
//! stream, whatever happens under the other keys. Draw order under a
//! given key is fixed by protocol order, so runs with the same seed *and
//! the same configuration* (batch size included) are bit-identical — the
//! worker-count determinism the grid builds on. The batch size itself is
//! part of that equivalence class: when the pool runs dry mid-window,
//! [`encrypt_under`] falls back to on-line randomizer generation from
//! the caller's protocol stream, which consumes draws that a
//! larger-batch run would not, shifting every later ciphertext. Market
//! outcomes (prices, trades, regimes) are unaffected either way.
//!
//! Deployment note: in a real deployment each agent would pre-generate
//! private randomizer batches for the public keys it expects to encrypt
//! under. The simulator models the *cost structure* with one shared pool
//! per target key, mirroring how `KeyDirectory` centralizes key material
//! to keep information flow explicit.
//!
//! Precompute has one lane,
//! [`KeyDirectory::precompute_randomizers_for`], which is
//! [`PublicKey::precompute_randomizers`] under the key — the same
//! `h_s^x` draw an on-line [`PublicKey::try_encrypt`] makes, so pooled
//! and fallback ciphertexts come from one distribution. Generating the
//! initial batch is also what first touches each key's `h_s` table.
//!
//! Two refill policies, one caller each: [`RandomizerPool::refill`] tops
//! every queue back up to the static batch and is what a
//! [`Pem`](crate::Pem) window runs after Protocol 4;
//! [`RandomizerPool::refill_adaptive`] scales each key's target to the
//! demand observed since the last refill and is what the cross-shard
//! coupling coordinator runs after each round (the draw rate under its
//! single grid key grows with the shard count, which its configured
//! batch does not know).

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
    /// Encryptions that fell back to on-line exponentiation.
    pub misses: u64,
    /// Randomizers generated (initial batch + refills).
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

/// A per-key pool of precomputed Paillier randomizers.
#[derive(Debug, Clone)]
pub struct RandomizerPool {
    queues: Vec<VecDeque<Randomizer>>,
    /// One sequential DRBG per key: randomizer `j` under a key is draw
    /// `j` of that key's stream.
    streams: Vec<HashDrbg>,
    batch: usize,
    stats: PoolStats,
    /// Draws attempted per key since the last refill (hits + misses) —
    /// the observed per-key demand the adaptive refill scales to.
    draws: Vec<u64>,
    /// Misses per key since the last refill (a miss means the queue ran
    /// dry mid-window: the previous target underestimated demand).
    dry: Vec<u64>,
}

impl RandomizerPool {
    /// Builds a pool holding `batch` randomizers per directory key,
    /// deterministically derived from `seed` (independent of the
    /// protocol RNG streams).
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
            draws: vec![0; n],
            dry: vec![0; n],
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

    /// Draws one randomizer bound to `key_owner`'s modulus, if available.
    pub fn take(&mut self, key_owner: usize) -> Option<Randomizer> {
        if let Some(d) = self.draws.get_mut(key_owner) {
            *d += 1;
        }
        match self.queues.get_mut(key_owner).and_then(VecDeque::pop_front) {
            Some(r) => {
                self.stats.hits += 1;
                POOL_HITS.incr();
                Some(r)
            }
            None => {
                self.stats.misses += 1;
                POOL_MISSES.incr();
                if let Some(d) = self.dry.get_mut(key_owner) {
                    *d += 1;
                }
                None
            }
        }
    }

    /// Tops every queue back up to the batch size — the off-critical-path
    /// step, meant to run between windows. Returns how many randomizers
    /// were generated.
    pub fn refill(&mut self, keys: &KeyDirectory) -> usize {
        let targets = vec![self.batch; self.queues.len()];
        self.refill_to_targets(keys, &targets)
    }

    /// Tops queue `i` up to `targets[i]`, resetting the per-key demand
    /// counters — the shared mechanics of both refill policies.
    fn refill_to_targets(&mut self, keys: &KeyDirectory, targets: &[usize]) -> usize {
        assert_eq!(keys.len(), self.queues.len(), "key directory size changed");
        let refill_span = pem_telemetry::Span::enter("pool/refill", "pool");
        let mut generated = 0;
        for (i, queue) in self.queues.iter_mut().enumerate() {
            let missing = targets[i].saturating_sub(queue.len());
            if missing > 0 {
                let fresh = keys.precompute_randomizers_for(i, missing, &mut self.streams[i]);
                generated += fresh.len();
                queue.extend(fresh);
            }
        }
        for i in 0..self.queues.len() {
            self.draws[i] = 0;
            self.dry[i] = 0;
        }
        self.stats.generated += generated as u64;
        POOL_GENERATED.add(generated as u64);
        refill_span.finish();
        generated
    }

    /// The adaptive per-key refill target for an observed window demand.
    ///
    /// The curve, in terms of `demand` (draws under the key since the
    /// last refill) and `misses` (draws that found the queue dry):
    ///
    /// * **idle key** (`demand = 0`) → target 1: keep a single
    ///   randomizer as insurance, stop generating for keys nobody
    ///   encrypts under;
    /// * **steady key** (`misses = 0`) → `demand + demand/4 + 1`: last
    ///   window's demand plus 25% headroom for jitter;
    /// * **starved key** (`misses > 0`) → `2·demand`: the target was an
    ///   underestimate, so grow aggressively;
    /// * everything is capped at `4·base` so one anomalous window cannot
    ///   commit unbounded precompute.
    pub fn adaptive_target(demand: u64, misses: u64, base: usize) -> usize {
        let cap = (4 * base.max(1)) as u64;
        let raw = if demand == 0 {
            1
        } else if misses > 0 {
            2 * demand
        } else {
            demand + demand / 4 + 1
        };
        raw.clamp(1, cap) as usize
    }

    /// Tops every queue up to its *adaptive* target — scaled per key to
    /// the draw rate observed since the last refill (see
    /// [`RandomizerPool::adaptive_target`]) instead of the static batch
    /// size. Returns how many randomizers were generated.
    ///
    /// Like [`RandomizerPool::refill`] this is deterministic: the targets
    /// are a pure function of the (deterministic) draw history, so two
    /// runs of the same configuration refill identically.
    pub fn refill_adaptive(&mut self, keys: &KeyDirectory) -> usize {
        let targets: Vec<usize> = (0..self.queues.len())
            .map(|i| RandomizerPool::adaptive_target(self.draws[i], self.dry[i], self.batch))
            .collect();
        self.refill_to_targets(keys, &targets)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

/// Encrypts `m` under `pk` (owned by directory entry `key_owner`),
/// preferring a pooled randomizer and falling back to `rng`.
///
/// # Errors
///
/// [`CryptoError::MessageTooLarge`] if `m` exceeds the message space.
pub fn encrypt_under(
    pk: &PublicKey,
    key_owner: usize,
    m: &BigUint,
    pool: &mut Option<RandomizerPool>,
    rng: &mut HashDrbg,
) -> Result<Ciphertext, CryptoError> {
    if let Some(pool) = pool.as_mut() {
        if let Some(r) = pool.take(key_owner) {
            return pk.try_encrypt_with(m, &r);
        }
    }
    pk.try_encrypt(m, rng)
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
        let mut pool = Some(RandomizerPool::generate(&keys, 1, 9));
        let mut rng = HashDrbg::new(b"fallback");
        let m = BigUint::from(123u64);
        // First draw: pooled. Second: fallback. Both decrypt correctly.
        let c1 = encrypt_under(keys.public(1), 1, &m, &mut pool, &mut rng).expect("pooled");
        let c2 = encrypt_under(keys.public(1), 1, &m, &mut pool, &mut rng).expect("fallback");
        assert_ne!(c1, c2);
        assert_eq!(keys.keypair(1).private().decrypt(&c1), m);
        assert_eq!(keys.keypair(1).private().decrypt(&c2), m);
        let stats = pool.expect("pool").stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn adaptation_curve_shape() {
        // Idle keys park at one randomizer.
        assert_eq!(RandomizerPool::adaptive_target(0, 0, 8), 1);
        // Steady demand gets 25% headroom, monotone in demand.
        assert_eq!(RandomizerPool::adaptive_target(4, 0, 8), 6);
        assert_eq!(RandomizerPool::adaptive_target(8, 0, 8), 11);
        for d in 1..30u64 {
            assert!(
                RandomizerPool::adaptive_target(d + 1, 0, 16)
                    >= RandomizerPool::adaptive_target(d, 0, 16),
                "target must be monotone in demand (d={d})"
            );
        }
        // A starved key doubles, and always beats the steady target.
        assert_eq!(RandomizerPool::adaptive_target(5, 2, 8), 10);
        assert!(
            RandomizerPool::adaptive_target(5, 1, 8) > RandomizerPool::adaptive_target(5, 0, 8)
        );
        // Everything caps at 4x the configured base batch.
        assert_eq!(RandomizerPool::adaptive_target(1000, 0, 8), 32);
        assert_eq!(RandomizerPool::adaptive_target(1000, 99, 8), 32);
        assert_eq!(RandomizerPool::adaptive_target(1000, 0, 0), 4);
    }

    #[test]
    fn adaptive_refill_scales_per_key() {
        let keys = directory();
        let mut pool = RandomizerPool::generate(&keys, 2, 3);
        // Key 0: heavy demand (4 draws, 2 dry). Key 1: light (1 draw).
        // Key 2: idle.
        for _ in 0..4 {
            let _ = pool.take(0);
        }
        let _ = pool.take(1);
        let generated = pool.refill_adaptive(&keys);
        // Key 0 grows to 2*4 = 8, key 1 tops up to 1 + 1/4 + 1 = 2,
        // key 2 keeps its untouched batch of 2 (target 1 < on-hand 2).
        assert_eq!(pool.available(0), 8);
        assert_eq!(pool.available(1), 2);
        assert_eq!(pool.available(2), 2);
        assert_eq!(generated, 8 + 1);

        // Next window is quiet on key 0: no regeneration for anyone.
        let _ = pool.take(0);
        assert_eq!(pool.refill_adaptive(&keys), 0, "7 on hand covers demand");
        assert_eq!(pool.available(0), 7);
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
        // key's queue yields — the worker-pool determinism guarantee.
        let keys = directory();
        let mut a = RandomizerPool::generate(&keys, 3, 5);
        let mut b = RandomizerPool::generate(&keys, 3, 5);
        let a0 = a.take(0).expect("a0");
        let _ = a.take(1).expect("a1");
        let a0b = a.take(0).expect("a0 second");
        let b0 = b.take(0).expect("b0");
        let b0b = b.take(0).expect("b0 second");
        let _ = b.take(1).expect("b1");
        assert_eq!(a0, b0);
        assert_eq!(a0b, b0b);
    }
}
