//! Regression guard: the Montgomery contexts of a 2048-bit Paillier key
//! (`n²`, `p²`/`q²`, `p`/`q`) all have a monomorphised kernel —
//! `bignum/dyn_width_ops` counts calls at any other limb count and stays
//! at zero — and the OT group of the paper profiles, edwards25519, runs
//! no Montgomery kernel at all. The 128- and 1024-bit shapes are
//! pinned by a whole trading window in
//! `crates/core/tests/kernel_width_coverage.rs`. Along the way, a batch
//! decryption counts one `crypto/modpow` ladder per ciphertext and leg,
//! a bounded one (`decrypt_u128`) one per ciphertext, and a pack one.
//!
//! ONE `#[test]`: the telemetry collector and its counters are process
//! global.

use pem_bignum::BigUint;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::{run_local_ot, Ed25519};
use pem_crypto::paillier::Keypair;
use pem_telemetry as telemetry;

/// The ladder counter (every `Montgomery::modpow_recoded`).
const MODPOW: &str = "crypto/modpow";

/// A registered counter's current value.
fn counter(name: &str) -> u64 {
    telemetry::counter_snapshot()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("{name} is registered"))
}

#[test]
fn contexts_of_a_2048_bit_key_and_group_are_specialised() {
    assert!(telemetry::install());
    let mut rng = HashDrbg::new(b"kernel-width-coverage");

    // Key generation (Miller–Rabin mod p, q; `h_s` on the owner's CRT
    // legs mod p², q²), the randomizer lane (the `h_s` table build and
    // its pows mod n²), the classic reference ladder (mod n²) and CRT
    // decryption (mod p², q² and the half-width recombination), batched
    // and packed.
    let kp = Keypair::generate(2048, &mut rng);
    let (pk, sk) = (kp.public(), kp.private());
    let m = BigUint::from(123_456_789u64);
    let c = pk.encrypt(&m, &mut rng);
    let pooled = pk.precompute_randomizers(1, &mut rng);
    let c2 = pk.try_encrypt_with(&m, &pooled[0]).expect("in range");
    let c3 = pk.try_encrypt_classic(&m, &mut rng).expect("in range");
    let cts = [c, c2, c3];
    let ladders_before = counter(MODPOW);
    assert_eq!(sk.decrypt_batch(&cts), [m.clone(), m.clone(), m.clone()]);
    assert_eq!(
        counter(MODPOW) - ladders_before,
        2 * cts.len() as u64,
        "one ladder per ciphertext and CRT leg"
    );
    // A plaintext below 2^128 decrypts on the p-leg alone: one ladder.
    let ladders_before = counter(MODPOW);
    for c in &cts {
        assert_eq!(sk.decrypt_u128(c), Ok(123_456_789));
    }
    assert_eq!(
        counter(MODPOW) - ladders_before,
        cts.len() as u64,
        "one ladder per bounded ciphertext"
    );
    // The packed fan-in folds on that half-width leg: one pack of three
    // 98-bit slots, one ladder.
    let ladders_before = counter(MODPOW);
    assert_eq!(
        sk.decrypt_packed(&cts, 98),
        Ok(vec![m.clone(), m.clone(), m])
    );
    assert_eq!(counter(MODPOW) - ladders_before, 1, "one ladder per pack");

    // The OT group: a transfer on the curve is field arithmetic on
    // fixed limbs, no ladder and no comb table of this crate's integers.
    let before = (counter(MODPOW), counter("crypto/fixed_base_pow"));
    let got = run_local_ot(&Ed25519.into(), b"zero", b"one!", true, &mut rng).expect("ot");
    assert_eq!(got, b"one!");
    assert_eq!(
        (counter(MODPOW), counter("crypto/fixed_base_pow")),
        before,
        "an OT on the curve ran a Montgomery kernel"
    );
    assert!(counter("crypto/ec_scalar_mul") > 0);

    assert_eq!(
        counter("bignum/dyn_width_ops"),
        0,
        "a modulus fell off the kernel's specialised widths"
    );
    telemetry::uninstall();
}
