//! Property-based tests for the big-integer substrate.

use std::sync::OnceLock;

use pem_bignum::BigUint;
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: a BigUint built from 0..=4 random limbs.
fn arb_biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..=4).prop_map(BigUint::from_limbs)
}

/// Strategy: a non-zero BigUint.
fn arb_biguint_nonzero() -> impl Strategy<Value = BigUint> {
    arb_biguint().prop_filter("non-zero", |v| !v.is_zero())
}

/// A random 512-bit prime, drawn once.
fn prime_512() -> &'static BigUint {
    static P: OnceLock<BigUint> = OnceLock::new();
    P.get_or_init(|| BigUint::gen_rsa_prime(512, &mut rand::rngs::StdRng::seed_from_u64(512)))
}

proptest! {
    #[test]
    fn add_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_sub_roundtrip(a in arb_biguint(), b in arb_biguint()) {
        let sum = &a + &b;
        prop_assert_eq!(&sum - &b, a);
    }

    #[test]
    fn mul_commutative(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn div_rem_invariant(a in arb_biguint(), b in arb_biguint_nonzero()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_is_power_of_two_mul(a in arb_biguint(), bits in 0usize..200) {
        let two_pow = BigUint::one() << bits;
        prop_assert_eq!(&a << bits, &a * &two_pow);
        prop_assert_eq!(&(&a << bits) >> bits, a);
    }

    #[test]
    fn decimal_roundtrip(a in arb_biguint()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<BigUint>().expect("decimal parse"), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_biguint()) {
        let s = a.to_str_radix(16);
        prop_assert_eq!(BigUint::from_str_radix(&s, 16).expect("hex parse"), a);
    }

    #[test]
    fn bytes_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a.clone());
        let len = a.to_bytes_be().len() + 3;
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be_padded(len)), a);
    }

    #[test]
    fn gcd_divides_both(a in arb_biguint_nonzero(), b in arb_biguint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
        // … and is the greatest such divisor.
        prop_assert!((&a / &g).gcd(&(&b / &g)).is_one());
    }

    #[test]
    fn modpow_montgomery_matches_naive(
        base in arb_biguint(),
        exp in proptest::collection::vec(any::<u64>(), 0..=2).prop_map(BigUint::from_limbs),
        modulus in arb_biguint_nonzero(),
    ) {
        // Force odd modulus > 1 so the Montgomery path is taken.
        let modulus = (modulus | BigUint::one()) + BigUint::from(2u64);
        prop_assert_eq!(
            base.modpow(&exp, &modulus),
            base.modpow_naive(&exp, &modulus)
        );
    }

    #[test]
    fn power_of_two_exponent_matches_naive(
        base in arb_biguint(),
        t in 0usize..200,
        modulus in arb_biguint_nonzero(),
    ) {
        // The squaring-chain fast path (exponent 2^t) against the naive
        // reference, plus neighbours straddling the detection predicate.
        let modulus = (modulus | BigUint::one()) + BigUint::from(2u64);
        let ctx = pem_bignum::Montgomery::new(modulus.clone()).expect("odd > 1");
        for exp in [
            BigUint::one() << t,
            (BigUint::one() << t) + BigUint::one(),
        ] {
            prop_assert_eq!(ctx.modpow(&base, &exp), base.modpow_naive(&exp, &modulus));
        }
    }

    #[test]
    fn recoded_modpow_matches_modpow(
        exp in proptest::collection::vec(any::<u64>(), 0..=3).prop_map(BigUint::from_limbs),
        bases in proptest::collection::vec(any::<u64>(), 1..4),
        modulus in arb_biguint_nonzero(),
    ) {
        // One recoding, many bases — the randomizer-batch shape.
        let modulus = (modulus | BigUint::one()) + BigUint::from(2u64);
        let ctx = pem_bignum::Montgomery::new(modulus.clone()).expect("odd > 1");
        let digits = pem_bignum::ExpDigits::recode(&exp);
        for b in bases {
            let base = BigUint::from(b);
            prop_assert_eq!(
                ctx.modpow_recoded(&base, &digits),
                ctx.modpow(&base, &exp)
            );
        }
    }

    #[test]
    fn fixed_base_table_matches_modpow(
        base in arb_biguint(),
        exps in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..=3).prop_map(BigUint::from_limbs),
            1..4,
        ),
        modulus in arb_biguint_nonzero(),
    ) {
        // One comb table, many exponents — the fixed-base reuse shape.
        let modulus = (modulus | BigUint::one()) + BigUint::from(2u64);
        let ctx = pem_bignum::Montgomery::new(modulus.clone()).expect("odd > 1");
        let table = ctx.fixed_base_table(&base, 192);
        for exp in exps {
            prop_assert_eq!(table.pow(&exp), ctx.modpow(&base, &exp));
        }
    }

    #[test]
    fn multi_modpow_matches_sequential(
        pairs in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u64>(), 0..=2).prop_map(BigUint::from_limbs),
                proptest::collection::vec(any::<u64>(), 0..=2).prop_map(BigUint::from_limbs),
            ),
            0..4,
        ),
        modulus in arb_biguint_nonzero(),
    ) {
        let modulus = (modulus | BigUint::one()) + BigUint::from(2u64);
        let ctx = pem_bignum::Montgomery::new(modulus.clone()).expect("odd > 1");
        let refs: Vec<(&BigUint, &BigUint)> = pairs.iter().map(|(b, e)| (b, e)).collect();
        let mut expected = if modulus.is_one() { BigUint::zero() } else { BigUint::one() };
        for (b, e) in &pairs {
            expected = ctx.mul(&expected, &ctx.modpow(b, e));
        }
        prop_assert_eq!(ctx.multi_modpow(&refs), expected);
    }

    #[test]
    fn pow_mul_matches_unfused(
        base in arb_biguint(),
        exp in proptest::collection::vec(any::<u64>(), 0..=2).prop_map(BigUint::from_limbs),
        factor in arb_biguint(),
        modulus in arb_biguint_nonzero(),
    ) {
        let modulus = (modulus | BigUint::one()) + BigUint::from(2u64);
        let ctx = pem_bignum::Montgomery::new(modulus.clone()).expect("odd > 1");
        prop_assert_eq!(
            ctx.pow_mul(&base, &exp, &factor),
            ctx.mul(&ctx.modpow(&base, &exp), &factor)
        );
    }

    #[test]
    fn mod_inverse_really_inverts(a in arb_biguint_nonzero(), m in arb_biguint_nonzero()) {
        let m = &m + &BigUint::from(2u64);
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert_eq!((&a * &inv) % &m, BigUint::one());
            prop_assert!(inv < m);
        } else {
            prop_assert!(!(&a % &m).gcd(&m).is_one() || (&a % &m).is_zero());
        }
        // Fermat: modulo a prime p the inverse is a^(p−2).
        let p = prime_512();
        let a = &a % p;
        if !a.is_zero() {
            let fermat = a.modpow(&(p - &BigUint::from(2u64)), p);
            prop_assert_eq!(a.mod_inverse(p), Some(fermat));
        }
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in arb_biguint(), b in arb_biguint()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(b.checked_sub(&a).expect("b>=a") > BigUint::zero()),
            std::cmp::Ordering::Equal => prop_assert_eq!(&a, &b),
            std::cmp::Ordering::Greater => prop_assert!(a.checked_sub(&b).expect("a>=b") > BigUint::zero()),
        }
    }
}

/// Large-operand stress: exercise the Karatsuba path deterministically.
#[test]
fn karatsuba_large_operands_roundtrip() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..5 {
        let a = BigUint::random_bits(5000, &mut rng);
        let b = BigUint::random_bits(4700, &mut rng);
        let prod = &a * &b;
        let (q, r) = prod.div_rem(&a);
        assert_eq!(q, b);
        assert!(r.is_zero());
    }
}

/// Cross-check division against an independently computed identity at scale.
#[test]
fn division_stress_many_sizes() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1234);
    for ub in [64usize, 128, 500, 1200, 3000] {
        for vb in [1usize, 33, 64, 65, 127, 500] {
            if vb > ub {
                continue;
            }
            let u = BigUint::random_bits(ub, &mut rng);
            let v = BigUint::random_bits(vb, &mut rng) + BigUint::one();
            let (q, r) = u.div_rem(&v);
            assert!(r < v, "remainder bound ub={ub} vb={vb}");
            assert_eq!(&(&q * &v) + &r, u, "identity ub={ub} vb={vb}");
        }
    }
}
