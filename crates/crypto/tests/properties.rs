//! Property-based tests for the cryptographic primitives.

use pem_bignum::BigUint;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::{run_local_ot, DhGroup, Ed25519, OtGroup};
use pem_crypto::paillier::{Ciphertext, Keypair, PublicKey};
use pem_crypto::{short_exponent_bits, CryptoError};
use proptest::prelude::*;
use rand::Rng as _;
use std::sync::OnceLock;

/// One shared keypair: Paillier keygen dominates test time otherwise.
fn shared_keypair() -> &'static Keypair {
    static KP: OnceLock<Keypair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = HashDrbg::new(b"proptest-keypair");
        Keypair::generate(128, &mut rng)
    })
}

/// The widths the randomizer-lane properties run at: the toy key, and
/// the two whose `n²` contexts take the 16- and 32-limb kernels.
const LANE_KEY_BITS: [usize; 3] = [128, 512, 1024];

/// One shared keypair per entry of [`LANE_KEY_BITS`].
fn lane_keypair(which: usize) -> &'static Keypair {
    static KPS: [OnceLock<Keypair>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    KPS[which].get_or_init(|| {
        let bits = LANE_KEY_BITS[which];
        let mut rng = HashDrbg::from_seed_label(b"proptest-lane-keypair", bits as u64);
        Keypair::generate(bits, &mut rng)
    })
}

/// Slot width of Protocol 4's ratios at the paper's precision.
const SLOT_BITS: usize = 98;

/// The widths the packed- and bounded-decryption properties run at:
/// one 98-bit slot per pack on both legs (256), then one, four and nine
/// on the p-leg alone (512, 1024, 2048). The bounded properties skip
/// 256, whose 128-bit p-leg holds no 128-bit bound with its guard.
const WIDE_KEY_BITS: [usize; 4] = [256, 512, 1024, 2048];

/// One shared keypair per entry of [`WIDE_KEY_BITS`].
fn wide_keypair(which: usize) -> &'static Keypair {
    static KPS: [OnceLock<Keypair>; 4] = [const { OnceLock::new() }; 4];
    KPS[which].get_or_init(|| {
        let bits = WIDE_KEY_BITS[which];
        let mut rng = HashDrbg::from_seed_label(b"proptest-pack-keypair", bits as u64);
        Keypair::generate(bits, &mut rng)
    })
}

/// Checks the bounded paths against the two-leg `decrypt` for one
/// unsigned and one signed plaintext: `decrypt_u128` returns what
/// `decrypt` returns, and `decrypt_i128` what the balanced decoding of
/// `decrypt` around `n/2` returns (`i128::MIN` is out of range on both).
fn assert_bounded_paths_agree(kp: &Keypair, u: u128, i: i128, rng: &mut HashDrbg) {
    let (pk, sk) = (kp.public(), kp.private());
    let c = pk.encrypt(&BigUint::from(u), rng);
    assert_eq!(sk.decrypt(&c).to_u128(), Some(u));
    assert_eq!(sk.decrypt_u128(&c), Ok(u), "u={u} at {} bits", pk.bits());
    let c = pk.encrypt(&pk.encode_i128(i), rng);
    let m = sk.decrypt(&c);
    let (negative, mag) = if m <= (pk.n() >> 1) {
        (false, m)
    } else {
        (true, pk.n() - &m)
    };
    let two_legs =
        mag.to_u128()
            .and_then(|v| i128::try_from(v).ok())
            .map(|v| if negative { -v } else { v });
    assert_eq!(two_legs, (i != i128::MIN).then_some(i));
    assert_eq!(
        sk.decrypt_i128(&c).ok(),
        two_legs,
        "i={i} at {} bits",
        pk.bits()
    );
}

#[test]
fn bounded_decryptions_match_both_legs_at_the_edges() {
    let edges_u = [0, 1, u128::from(u64::MAX), 1 << 127, u128::MAX];
    let max = i128::MAX; // 2^127 − 1
    let edges_i = [0, 1, -1, max, -max, i128::MIN, i128::from(i64::MIN)];
    for which in 1..WIDE_KEY_BITS.len() {
        let kp = wide_keypair(which);
        let mut rng = HashDrbg::from_seed_label(b"bounded-edges", which as u64);
        for (&u, &i) in edges_u.iter().cycle().zip(&edges_i) {
            assert_bounded_paths_agree(kp, u, i, &mut rng);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bounded_decryptions_match_both_legs(
        which in 1usize..4,
        hi in any::<u64>(),
        lo in any::<u64>(),
        shift in 0usize..128,
        negative in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Plaintexts of every width up to the bound, both signs.
        let u = ((u128::from(hi) << 64) | u128::from(lo)) >> shift;
        let mag = (u >> 1) as i128;
        let i = if negative { -mag } else { mag };
        let mut rng = HashDrbg::from_seed_label(b"bounded-eq", seed);
        assert_bounded_paths_agree(wide_keypair(which), u, i, &mut rng);
    }
}

/// `len` in-bound slot values, with the edges `0` and `2^SLOT_BITS − 1`
/// drawn half the time.
fn slot_values(len: usize, rng: &mut HashDrbg) -> Vec<BigUint> {
    let top = &(BigUint::one() << SLOT_BITS) - &BigUint::one();
    (0..len)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => BigUint::zero(),
            1 => top.clone(),
            _ => BigUint::random_bits(SLOT_BITS, rng),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decrypt_packed_equals_decrypt_batch(
        which in 0usize..4,
        len in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        // Lengths 0..=2s+1: empty, partial, full and spilling packs.
        let kp = wide_keypair(which);
        let (pk, sk) = (kp.public(), kp.private());
        let len = len.index(2 * sk.slots_per_pack(SLOT_BITS) + 2);
        let mut rng = HashDrbg::from_seed_label(b"packed-eq", seed);
        let ms = slot_values(len, &mut rng);
        let cts: Vec<Ciphertext> = ms.iter().map(|m| pk.encrypt(m, &mut rng)).collect();
        let batch = sk.decrypt_batch(&cts);
        prop_assert_eq!(&batch, &ms);
        prop_assert_eq!(sk.decrypt_packed(&cts, SLOT_BITS), Ok(batch));
    }

    #[test]
    fn decrypt_packed_rejects_out_of_bound_slots(
        which in 0usize..4,
        len in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        // A slot uniform in [2^w, n), or a random unit in place of a
        // ciphertext, at any position: the pack's plaintext is then
        // uniform mod n and lands in the guard bits (all but 2^−64).
        let kp = wide_keypair(which);
        let (pk, sk) = (kp.public(), kp.private());
        let len = 1 + len.index(2 * sk.slots_per_pack(SLOT_BITS) + 1);
        let at = at.index(len);
        let mut rng = HashDrbg::from_seed_label(b"packed-oob", seed);
        let mut ms = slot_values(len, &mut rng);
        let floor = BigUint::one() << SLOT_BITS;
        ms[at] = &floor + &BigUint::random_below(&(pk.n() - &floor), &mut rng);
        let mut cts: Vec<Ciphertext> = ms.iter().map(|m| pk.encrypt(m, &mut rng)).collect();
        prop_assert!(matches!(
            sk.decrypt_packed(&cts, SLOT_BITS),
            Err(CryptoError::MessageTooLarge { .. })
        ));
        cts[at] = pk.encrypt(&BigUint::zero(), &mut rng);
        prop_assert!(sk.decrypt_packed(&cts, SLOT_BITS).is_ok());
        cts[at] = Ciphertext::from_biguint(BigUint::random_coprime(pk.n_squared(), &mut rng));
        prop_assert!(pk.validate_ciphertext(&cts[at]).is_ok());
        prop_assert!(matches!(
            sk.decrypt_packed(&cts, SLOT_BITS),
            Err(CryptoError::MessageTooLarge { .. })
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paillier_roundtrip(v in any::<u64>()) {
        let kp = shared_keypair();
        let mut rng = HashDrbg::from_seed_label(b"pp-rt", v);
        let m = BigUint::from(v);
        let c = kp.public().encrypt(&m, &mut rng);
        prop_assert_eq!(kp.private().decrypt(&c), m);
    }

    #[test]
    fn paillier_additive_homomorphism(a in any::<u64>(), b in any::<u64>()) {
        let kp = shared_keypair();
        let mut rng = HashDrbg::from_seed_label(b"pp-add", a ^ b.rotate_left(17));
        let ca = kp.public().encrypt(&BigUint::from(a), &mut rng);
        let cb = kp.public().encrypt(&BigUint::from(b), &mut rng);
        let sum = kp.public().add_ciphertexts(&ca, &cb);
        // u64 + u64 < 2^65 << n (128 bits): no wraparound.
        let expected = BigUint::from(a) + BigUint::from(b);
        prop_assert_eq!(kp.private().decrypt(&sum), expected);
    }

    #[test]
    fn paillier_scalar_homomorphism(a in any::<u32>(), k in 0u32..1000) {
        let kp = shared_keypair();
        let mut rng = HashDrbg::from_seed_label(b"pp-mul", ((a as u64) << 32) | k as u64);
        let ca = kp.public().encrypt(&BigUint::from(a as u64), &mut rng);
        let prod = kp.public().mul_plain(&ca, &BigUint::from(k as u64));
        prop_assert_eq!(
            kp.private().decrypt(&prod),
            BigUint::from(a as u64) * BigUint::from(k as u64)
        );
    }

    #[test]
    fn paillier_signed_arithmetic(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
        let kp = shared_keypair();
        let mut rng = HashDrbg::from_seed_label(b"pp-signed", (a ^ b) as u64);
        let pk = kp.public();
        let ca = pk.encrypt(&pk.encode_i128(a as i128), &mut rng);
        let cb = pk.encrypt(&pk.encode_i128(b as i128), &mut rng);
        let sum = pk.add_ciphertexts(&ca, &cb);
        prop_assert_eq!(kp.private().decrypt_i128(&sum), Ok((a + b) as i128));
    }

    #[test]
    fn crt_decrypt_equals_classic_everywhere(v in any::<u64>(), seed in any::<u64>()) {
        let kp = shared_keypair();
        let sk = kp.private();
        let mut rng = HashDrbg::from_seed_label(b"crt-eq", seed);
        let m = BigUint::from(v);
        let c = kp.public().encrypt(&m, &mut rng);
        let fast = sk.decrypt(&c);
        prop_assert_eq!(&fast, &sk.decrypt_classic(&c));
        prop_assert_eq!(fast, m);
    }

    #[test]
    fn crt_decrypt_equals_classic_near_half_n(offset in -8i64..=8, seed in any::<u64>()) {
        // The balanced-signed boundary band around n/2: the CRT
        // recombination must land on exactly the same representative the
        // classic L-function path produces, so sign decoding agrees.
        let kp = shared_keypair();
        let sk = kp.private();
        let pk = kp.public();
        let half = pk.n() >> 1;
        let m = if offset >= 0 {
            &half + &BigUint::from(offset as u64)
        } else {
            &half - &BigUint::from((-offset) as u64)
        };
        let mut rng = HashDrbg::from_seed_label(b"crt-half", seed ^ offset as u64);
        let c = pk.encrypt(&m, &mut rng);
        prop_assert_eq!(sk.decrypt(&c), sk.decrypt_classic(&c));
    }

    #[test]
    fn crt_decrypt_equals_classic_signed(v in any::<i64>(), seed in any::<u64>()) {
        let kp = shared_keypair();
        let sk = kp.private();
        let pk = kp.public();
        let mut rng = HashDrbg::from_seed_label(b"crt-signed", seed);
        let m = pk.encode_i128(v as i128);
        let c = pk.encrypt(&m, &mut rng);
        prop_assert_eq!(sk.decrypt_i128(&c), Ok(v as i128));
        prop_assert_eq!(sk.decrypt_classic(&c), m);
    }

    #[test]
    fn crt_batch_equals_singles(vs in proptest::collection::vec(any::<u64>(), 1..6), seed in any::<u64>()) {
        let kp = shared_keypair();
        let mut rng = HashDrbg::from_seed_label(b"crt-batch", seed);
        let cts: Vec<_> = vs
            .iter()
            .map(|&v| kp.public().encrypt(&BigUint::from(v), &mut rng))
            .collect();
        let batch = kp.private().decrypt_batch(&cts);
        for (c, m) in cts.iter().zip(&batch) {
            prop_assert_eq!(&kp.private().decrypt(c), m);
        }
        prop_assert_eq!(batch, vs.iter().map(|&v| BigUint::from(v)).collect::<Vec<_>>());
    }

    #[test]
    fn owner_and_public_precompute_are_one_lane(which in 0usize..3, count in 1usize..5, seed in any::<u64>()) {
        // Whoever asks — the public key, the owner, or an on-line
        // encryption — draws the same `h_s^x` from the same stream.
        let kp = lane_keypair(which);
        let mut rng_pk = HashDrbg::from_seed_label(b"one-lane", seed);
        let via_pk = kp.public().precompute_randomizers(count, &mut rng_pk);
        let mut rng_sk = HashDrbg::from_seed_label(b"one-lane", seed);
        let via_sk = kp.private().precompute_randomizers_crt(count, &mut rng_sk);
        prop_assert_eq!(&via_pk, &via_sk);
        prop_assert_eq!(rng_pk.gen::<u64>(), rng_sk.gen::<u64>());
        let mut rng_enc = HashDrbg::from_seed_label(b"one-lane", seed);
        let m = BigUint::from(seed);
        prop_assert_eq!(
            kp.public().encrypt(&m, &mut rng_enc),
            kp.public().try_encrypt_with(&m, &via_pk[0]).expect("in range")
        );
    }

    #[test]
    fn fixed_base_randomizer_is_the_ladders_nth_residue(which in 0usize..3, seed in any::<u64>()) {
        // Replay the lane's draw: the table's `h_s^x` is the ladder's,
        // and it decrypts to 0 (an n-th residue hides nothing but m).
        let kp = lane_keypair(which);
        let (pk, sk) = (kp.public(), kp.private());
        let mut rng = HashDrbg::from_seed_label(b"lane-residue", seed);
        let r = pk.precompute_randomizers(1, &mut rng).remove(0);
        let mut replay = HashDrbg::from_seed_label(b"lane-residue", seed);
        let x = BigUint::random_bits(short_exponent_bits(pk.bits()), &mut replay);
        prop_assert!(x.bit_length() <= short_exponent_bits(LANE_KEY_BITS[which]));
        let mont = pem_bignum::Montgomery::new(pk.n_squared().clone()).expect("n² is odd");
        prop_assert_eq!(r.as_biguint(), &mont.modpow(pk.h_s(), &x));
        prop_assert!(sk.decrypt(&Ciphertext::from_biguint(r.as_biguint().clone())).is_zero());
    }

    #[test]
    fn fixed_base_and_classic_ciphertexts_mix_under_one_key(
        which in 0usize..3,
        a in -1_000_000_000i64..1_000_000_000,
        b in -1_000_000_000i64..1_000_000_000,
        k in 1u32..1_000_000,
        seed in any::<u64>(),
    ) {
        let kp = lane_keypair(which);
        let (pk, sk) = (kp.public(), kp.private());
        let mut rng = HashDrbg::from_seed_label(b"lane-mix", seed);
        let fixed = pk.encrypt(&pk.encode_i128(a as i128), &mut rng);
        let classic = pk
            .try_encrypt_classic(&pk.encode_i128(b as i128), &mut rng)
            .expect("in range");
        for c in [&fixed, &classic] {
            prop_assert!(pk.validate_ciphertext(c).is_ok());
        }
        prop_assert_eq!(sk.decrypt_i128(&fixed), Ok(a as i128));
        prop_assert_eq!(sk.decrypt_i128(&classic), Ok(b as i128));
        prop_assert_eq!(sk.decrypt_classic(&fixed), pk.encode_i128(a as i128));
        let sum = pk.add_ciphertexts(&fixed, &classic);
        prop_assert_eq!(sk.decrypt_i128(&sum), Ok((a + b) as i128));
        let k_big = BigUint::from(k as u64);
        prop_assert_eq!(sk.decrypt_i128(&pk.mul_plain(&sum, &k_big)), Ok((a + b) as i128 * k as i128));
        let offset = pk.encode_i128(b as i128);
        for c in [&fixed, &classic, &sum] {
            let fused = pk.affine(c, &k_big, &offset);
            prop_assert_eq!(&fused, &pk.add_plain(&pk.mul_plain(c, &k_big), &offset));
            prop_assert_eq!(
                sk.decrypt_i128(&fused),
                sk.decrypt_i128(c).map(|v| v * k as i128 + b as i128)
            );
        }
    }

    #[test]
    fn affine_equals_mul_then_add(a in any::<u64>(), k in any::<u32>(), b in any::<u64>(), seed in any::<u64>()) {
        let kp = shared_keypair();
        let pk = kp.public();
        let mut rng = HashDrbg::from_seed_label(b"affine-prop", seed);
        let ca = pk.encrypt(&BigUint::from(a), &mut rng);
        let (k, b) = (BigUint::from(k as u64), BigUint::from(b));
        let fused = pk.affine(&ca, &k, &b);
        prop_assert_eq!(&fused, &pk.add_plain(&pk.mul_plain(&ca, &k), &b));
        // k·a + b for u32·u64 + u64 stays far below the 128-bit modulus.
        let expected = (BigUint::from(a) * &k + &b) % pk.n();
        prop_assert_eq!(kp.private().decrypt(&fused), expected);
    }

    #[test]
    fn mul_plain_power_of_two_equals_generic(a in any::<u32>(), t in 0usize..48, seed in any::<u64>()) {
        // The squaring-chain fast path for 2^t scalars against the
        // generic windowed ladder, via a scalar adjacent to the power of
        // two (2^t + 1) that cannot take the fast path.
        let kp = shared_keypair();
        let pk = kp.public();
        let mut rng = HashDrbg::from_seed_label(b"pow2-prop", seed);
        let ca = pk.encrypt(&BigUint::from(a as u64), &mut rng);
        let k_pow2 = BigUint::one() << t;
        let fast = pk.mul_plain(&ca, &k_pow2);
        prop_assert_eq!(
            kp.private().decrypt(&fast),
            BigUint::from((a as u128) << t)
        );
        // Homomorphism cross-check: Enc(a)^(2^t) · Enc(a) = Enc(a·(2^t + 1)).
        let slow = pk.mul_plain(&ca, &(&k_pow2 + &BigUint::one()));
        prop_assert_eq!(pk.add_ciphertexts(&fast, &ca), slow);
    }

    #[test]
    fn roundtripped_public_key_is_bit_identical(v in any::<u64>(), seed in any::<u64>()) {
        // `from_parts` rebuilds exactly the state a serde round-trip of
        // `{n, n², h_s}` leaves behind (context and table dropped, each
        // lazily rebuilt once): fed the same DRBG stream or the same
        // pooled randomizer, it must emit the same ciphertext bits,
        // validate them identically, and decrypt to the same plaintext.
        let kp = shared_keypair();
        let pk = kp.public();
        let rebuilt = PublicKey::from_parts(pk.n().clone(), pk.h_s().clone()).expect("valid key");
        // A key that lost its `h_s` on the wire is refused, not laddered.
        prop_assert!(PublicKey::from_parts(pk.n().clone(), BigUint::from(v % 2)).is_err());
        let m = BigUint::from(v);
        let mut rng_a = HashDrbg::from_seed_label(b"pk-rt", seed);
        let mut rng_b = HashDrbg::from_seed_label(b"pk-rt", seed);
        let ca = pk.encrypt(&m, &mut rng_a);
        let cb = rebuilt.encrypt(&m, &mut rng_b);
        prop_assert_eq!(&ca, &cb);
        prop_assert!(rebuilt.validate_ciphertext(&cb).is_ok());
        prop_assert_eq!(kp.private().decrypt(&cb), m);

        let mut rng_pool = HashDrbg::from_seed_label(b"pk-rt-pool", seed);
        let r = pk.precompute_randomizers(1, &mut rng_pool);
        prop_assert_eq!(
            pk.try_encrypt_with(&m, &r[0]).expect("encrypt"),
            rebuilt.try_encrypt_with(&m, &r[0]).expect("encrypt")
        );
    }

    #[test]
    fn ot_transfers_exactly_chosen_message(
        m0 in proptest::collection::vec(any::<u8>(), 16),
        m1 in proptest::collection::vec(any::<u8>(), 16),
        choice in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = HashDrbg::from_seed_label(b"ot-prop", seed);
        for group in [OtGroup::from(DhGroup::test_192()), Ed25519.into()] {
            let got = run_local_ot(&group, &m0, &m1, choice, &mut rng).expect("ot runs");
            prop_assert_eq!(&got, if choice { &m1 } else { &m0 });
        }
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..300), split in any::<prop::sample::Index>()) {
        let cut = split.index(data.len() + 1);
        let mut h = pem_crypto::Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), pem_crypto::sha256(&data));
    }
}
