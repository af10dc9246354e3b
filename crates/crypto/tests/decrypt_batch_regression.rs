//! Regression guard: batching decryptions must never cost more than the
//! per-item CRT path.
//!
//! `BENCH_crypto.json`'s first trajectory entry caught `decrypt_batch`
//! at 2048-bit keys running ~45% *slower* per ciphertext than single
//! `decrypt` calls. The batch is now exactly per-ciphertext `decrypt`,
//! one after another on one thread, so it must run the same kernels the
//! singles run. This test pins that exactly, by operation count rather
//! than wall clock (which a busy box swings past any margin): the
//! batch and the singles must add the same `crypto/modpow` ladders and
//! the same `crypto/modpow_bits` exponent bits — two half-width ladders
//! per ciphertext.
//!
//! ONE `#[test]`: the telemetry collector and its counters are process
//! global.

use pem_bignum::BigUint;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::{Ciphertext, Keypair};
use pem_telemetry as telemetry;

/// The ladder counters: ladders run, and the exponent bits they walk.
const COUNTERS: [&str; 2] = ["crypto/modpow", "crypto/modpow_bits"];

/// The current values of [`COUNTERS`].
fn ladders() -> [u64; 2] {
    let snapshot = telemetry::counter_snapshot();
    COUNTERS.map(|name| {
        snapshot
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} is registered"))
    })
}

/// The counter deltas `op` adds.
fn ladders_of(op: impl FnOnce()) -> [u64; 2] {
    let before = ladders();
    op();
    let after = ladders();
    [after[0] - before[0], after[1] - before[1]]
}

#[test]
fn decrypt_batch_not_slower_than_singles() {
    assert!(telemetry::install());
    let mut rng = HashDrbg::new(b"batch-regression-key");
    let kp = Keypair::generate(512, &mut rng);
    let ms: Vec<BigUint> = (0u64..8).map(|i| BigUint::from(i * 9_973 + 1)).collect();
    let cts: Vec<Ciphertext> = ms
        .iter()
        .map(|m| kp.public().encrypt(m, &mut rng))
        .collect();
    let sk = kp.private();

    assert_eq!(sk.decrypt_batch(&cts), ms);
    for (c, m) in cts.iter().zip(&ms) {
        assert_eq!(&sk.decrypt(c), m);
    }

    let singles = ladders_of(|| {
        for c in &cts {
            let _ = std::hint::black_box(sk.decrypt(c));
        }
    });
    let batch = ladders_of(|| {
        let _ = std::hint::black_box(sk.decrypt_batch(&cts));
    });
    assert_eq!(
        batch, singles,
        "decrypt_batch ran other kernels than the singles (modpow, modpow_bits)"
    );
    assert_eq!(
        singles[0],
        2 * cts.len() as u64,
        "one ladder per ciphertext and CRT leg"
    );
    telemetry::uninstall();
}
