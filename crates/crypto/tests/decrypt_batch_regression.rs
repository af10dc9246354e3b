//! Bench-backed regression guard: batching decryptions must never be
//! slower than the per-item CRT path.
//!
//! `BENCH_crypto.json`'s first trajectory entry caught `decrypt_batch`
//! at 2048-bit keys running ~45% *slower* per ciphertext than single
//! `decrypt` calls. The batch is now exactly per-ciphertext `decrypt`,
//! one after another on one thread, so it must cost what the singles
//! cost. This test pins the property at a CI scale: best-of-trials
//! batch time must not exceed the per-item path by more than a generous
//! noise margin.

use std::time::{Duration, Instant};

use pem_bignum::BigUint;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::{Ciphertext, Keypair};

/// Best-of-`trials` wall clock for `op`.
fn best_of<F: FnMut()>(trials: usize, mut op: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..trials {
        let t0 = Instant::now();
        op();
        best = best.min(t0.elapsed());
    }
    best
}

#[test]
fn decrypt_batch_not_slower_than_singles() {
    // 512-bit keys: large enough that per-item work dwarfs timer noise.
    let mut rng = HashDrbg::new(b"batch-regression-key");
    let kp = Keypair::generate(512, &mut rng);
    let ms: Vec<BigUint> = (0u64..8).map(|i| BigUint::from(i * 9_973 + 1)).collect();
    let cts: Vec<Ciphertext> = ms
        .iter()
        .map(|m| kp.public().encrypt(m, &mut rng))
        .collect();
    let sk = kp.private();

    // Warm-up: build the CRT context and fault in both paths once.
    assert_eq!(sk.decrypt_batch(&cts), ms);
    for (c, m) in cts.iter().zip(&ms) {
        assert_eq!(&sk.decrypt(c), m);
    }

    let singles = best_of(5, || {
        for c in &cts {
            let _ = std::hint::black_box(sk.decrypt(c));
        }
    });
    let batch = best_of(5, || {
        let _ = std::hint::black_box(sk.decrypt_batch(&cts));
    });

    // 25% headroom absorbs scheduler noise; any real regression (the
    // baseline's was +45%) still trips it.
    assert!(
        batch <= singles + singles / 4,
        "decrypt_batch regressed: batch of {} took {batch:?}, singles took {singles:?}",
        cts.len()
    );
}
