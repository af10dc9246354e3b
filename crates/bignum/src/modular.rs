//! Modular arithmetic on [`BigUint`]: exponentiation, GCD, inverse.

use crate::arith;
use crate::biguint::BigUint;
use crate::montgomery::Montgomery;

impl BigUint {
    /// `self^exp mod modulus`, choosing Montgomery for odd moduli and a
    /// binary ladder otherwise.
    ///
    /// One-shot convenience: the context (whose setup costs a
    /// full-width division) is rebuilt per call. Hot paths hold a
    /// [`Montgomery`] and use its engine directly — recoded exponents,
    /// fixed-base tables (see `pem_bignum::montgomery`).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// let r = BigUint::from(4u64).modpow(&BigUint::from(13u64), &BigUint::from(497u64));
    /// assert_eq!(r, BigUint::from(445u64));
    /// ```
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        // Trivial exponents skip the context build entirely.
        if exp.is_zero() {
            return BigUint::one();
        }
        if exp.is_one() {
            return self % modulus;
        }
        if modulus.is_odd() {
            let ctx = Montgomery::new(modulus.clone()).expect("odd modulus");
            return ctx.modpow(self, exp);
        }
        self.modpow_naive(exp, modulus)
    }

    /// Square-and-multiply exponentiation with division-based reduction.
    ///
    /// Correct for any non-zero modulus; used as the reference
    /// implementation in tests and as the even-modulus fallback.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow_naive(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut base = self % modulus;
        let mut result = BigUint::one();
        let bits = exp.bit_length();
        for i in 0..bits {
            if exp.bit(i) {
                result = (&result * &base) % modulus;
            }
            if i + 1 < bits {
                base = (&base * &base) % modulus;
            }
        }
        result
    }

    /// Greatest common divisor, by Lehmer's algorithm (Knuth Alg. 4.5.2L).
    ///
    /// While the larger operand spans more than two limbs, Euclid is
    /// simulated on the operands' leading 62-bit digits until a quotient
    /// could differ from the full-precision one; the cofactors collected
    /// so far are then applied to the limbs in one linear combination
    /// (≈30 bits of progress per pass, into two reused buffers). A pass
    /// whose first quotient is already uncertain takes one full division
    /// instead. Two-limb operands finish on a binary gcd over `u128`.
    /// The time depends on the operands' values, as Euclid's did; no
    /// caller passes a secret (ciphertext validation sees public
    /// ciphertexts, key generation's draws were variable-time already).
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// assert_eq!(BigUint::from(48u64).gcd(&BigUint::from(18u64)), BigUint::from(6u64));
    /// ```
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let (mut a, mut b) = if self >= other {
            (self.limbs.clone(), other.limbs.clone())
        } else {
            (other.limbs.clone(), self.limbs.clone())
        };
        // Invariant: a ≥ b, both normalized.
        let mut next_a = Vec::with_capacity(a.len());
        let mut next_b = Vec::with_capacity(a.len());
        while a.len() > 2 && !b.is_empty() {
            let [x, y, z, w] = lehmer_cofactors(&a, &b);
            if y == 0 {
                let (_, r) = arith::div_rem(&a, &b);
                a = std::mem::replace(&mut b, r);
            } else {
                linear_combination(&mut next_a, x, &a, y, &b);
                linear_combination(&mut next_b, z, &a, w, &b);
                std::mem::swap(&mut a, &mut next_a);
                std::mem::swap(&mut b, &mut next_b);
            }
        }
        let (a, b) = (BigUint { limbs: a }, BigUint { limbs: b });
        match (a.to_u128(), b.to_u128()) {
            (Some(x), Some(y)) => BigUint::from(binary_gcd(x, y)),
            // Only a zero `b` leaves the loop with `a` wider than two limbs.
            _ => a,
        }
    }

    /// `true` when `self mod n` is a unit of `Z_n`: `gcd(self mod n, n)
    /// = 1`. Paillier ciphertext validation's check, counted on the
    /// `crypto/validations` telemetry counter.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// let n = BigUint::from(15u64);
    /// assert!(BigUint::from(17u64).is_unit_mod(&n));
    /// assert!(!BigUint::from(20u64).is_unit_mod(&n));
    /// ```
    pub fn is_unit_mod(&self, n: &BigUint) -> bool {
        crate::montgomery::count_unit_check();
        (self % n).gcd(n).is_one()
    }

    /// Textbook Euclid, one full division per quotient: the reference
    /// [`BigUint::gcd`] is tested against.
    #[cfg(test)]
    pub(crate) fn gcd_euclid(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple.
    ///
    /// # Panics
    ///
    /// Panics if both inputs are zero.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        let g = self.gcd(other);
        assert!(!g.is_zero(), "lcm(0, 0) is undefined");
        (self / &g) * other
    }

    /// Modular inverse: `self^{-1} mod modulus` if it exists.
    ///
    /// Returns `None` when `gcd(self, modulus) != 1`. Euclid on
    /// `(modulus, self mod modulus)` carries the Bézout coefficient of
    /// `self` as a magnitude, `t ← t_prev + q·t`: the signed coefficient
    /// alternates in sign, so the step count's parity says whether the
    /// inverse is `t` or `modulus − t` (the last coefficient is at most
    /// `modulus / 2`, so neither needs a reduction).
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// let inv = BigUint::from(3u64).mod_inverse(&BigUint::from(11u64)).expect("coprime");
    /// assert_eq!(inv, BigUint::from(4u64));
    /// ```
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Invariant: r ≡ t·self (mod modulus) while `positive`, and
        // r ≡ −t·self otherwise; each step flips the sign.
        let (mut r_prev, mut r) = (modulus.clone(), self % modulus);
        let (mut t_prev, mut t) = (BigUint::zero(), BigUint::one());
        let mut positive = true;
        while !r.is_zero() && !r.is_one() {
            let (q, rem) = r_prev.div_rem(&r);
            r_prev = std::mem::replace(&mut r, rem);
            let next = &t_prev + &(&q * &t);
            t_prev = std::mem::replace(&mut t, next);
            positive = !positive;
        }
        if r.is_zero() {
            return None;
        }
        debug_assert!(&t < modulus);
        Some(if positive { t } else { modulus - &t })
    }
}

/// Width of the leading digits Lehmer's simulation runs on. The
/// cofactors it accumulates stay below `2^62` in magnitude, so a
/// cofactor times a limb is below `2^126` and the two opposite-signed
/// products of one output limb sum inside an `i128`.
const LEHMER_DIGIT_BITS: usize = 62;

/// Knuth's step L2–L3 on `a ≥ b` (`a` wider than two limbs): simulates
/// Euclid on `â = ⌊a / 2^s⌋` and `b̂ = ⌊b / 2^s⌋`, where `â` is `a`'s
/// leading 62 bits, for as long as the quotients provably match the
/// full-precision ones, and returns the cofactors `[A, B, C, D]` with
/// `(A·a + B·b, C·a + D·b)` the remainder pair reached. `B = 0` means
/// not even the first quotient was certain.
fn lehmer_cofactors(a: &[u64], b: &[u64]) -> [i64; 4] {
    let top = a[a.len() - 1];
    let shift = a.len() * 64 - top.leading_zeros() as usize - LEHMER_DIGIT_BITS;
    // Knuth: â + A, â + B, b̂ + C and b̂ + D stay in [0, 2^62] and the
    // cofactors below 2^62 in magnitude, so no i64 below overflows.
    let (mut x, mut y) = (digit_at(a, shift) as i64, digit_at(b, shift) as i64);
    let (mut ca, mut cb, mut cc, mut cd) = (1i64, 0i64, 0i64, 1i64);
    loop {
        let (den_c, den_d) = (y + cc, y + cd);
        if den_c == 0 || den_d == 0 {
            break;
        }
        // The true quotient lies between (â + A)/(b̂ + C) and
        // (â + B)/(b̂ + D); take it only when both floors agree (the
        // second checked by multiplication).
        let q = (x + ca) / den_c;
        let num = i128::from(x + cb);
        let prod = i128::from(q) * i128::from(den_d);
        if num < prod || num - prod >= i128::from(den_d) {
            break;
        }
        (ca, cc) = (cc, ca - q * cc);
        (cb, cd) = (cd, cb - q * cd);
        (x, y) = (y, x - q * y);
    }
    [ca, cb, cc, cd]
}

/// The 64 bits of `limbs` starting at bit `shift` (zero-filled above).
fn digit_at(limbs: &[u64], shift: usize) -> u64 {
    let (i, off) = (shift / 64, shift % 64);
    let lo = limbs.get(i).map_or(0, |&l| l >> off);
    let hi = match off {
        0 => 0,
        _ => limbs.get(i + 1).map_or(0, |&l| l << (64 - off)),
    };
    lo | hi
}

/// `out = x·a + y·b` for cofactors of opposite sign (or one zero) whose
/// result is a Euclid remainder — non-negative and at most `a`.
fn linear_combination(out: &mut Vec<u64>, x: i64, a: &[u64], y: i64, b: &[u64]) {
    let (x, y) = (i128::from(x), i128::from(y));
    out.clear();
    let mut carry = 0i128;
    for (i, &ai) in a.iter().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let t = x * i128::from(ai) + y * i128::from(bi) + carry;
        out.push(t as u64);
        carry = t >> 64;
    }
    debug_assert_eq!(carry, 0, "a Lehmer step left a negative remainder");
    arith::normalize(out);
}

/// Stein's binary gcd on two words.
fn binary_gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modpow_dispatches_even_odd() {
        let base = BigUint::from(7u64);
        let exp = BigUint::from(22u64);
        for m in [256u64, 255, 1000, 1001] {
            let m = BigUint::from(m);
            assert_eq!(base.modpow(&exp, &m), base.modpow_naive(&exp, &m), "m={m}");
        }
    }

    #[test]
    fn modpow_modulus_one() {
        assert_eq!(
            BigUint::from(5u64).modpow(&BigUint::from(3u64), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn modpow_zero_modulus_panics() {
        BigUint::from(2u64).modpow(&BigUint::one(), &BigUint::zero());
    }

    #[test]
    fn gcd_lcm_basics() {
        let a = BigUint::from(48u64);
        let b = BigUint::from(18u64);
        assert_eq!(a.gcd(&b), BigUint::from(6u64));
        assert_eq!(a.lcm(&b), BigUint::from(144u64));
        assert_eq!(a.gcd(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().gcd(&b), b);
    }

    /// `gcd` agrees with the Euclid reference in both argument orders;
    /// returns it.
    fn checked_gcd(a: &BigUint, b: &BigUint) -> BigUint {
        let g = a.gcd(b);
        assert_eq!(g, a.gcd_euclid(b), "a={a:?} b={b:?}");
        assert_eq!(g, b.gcd(a), "b={b:?} a={a:?}");
        g
    }

    /// A value of exactly `bits` bits (top bit set).
    fn exact_bits(bits: usize, rng: &mut rand::rngs::StdRng) -> BigUint {
        let mut v = BigUint::random_bits(bits, rng);
        v.set_bit(bits - 1, true);
        v
    }

    #[test]
    fn gcd_of_consecutive_fibonacci_numbers_is_one() {
        // Every quotient is 1: the longest remainder sequence for the
        // operands' size, so the most simulated steps per Lehmer pass.
        let (mut f0, mut f1) = (BigUint::zero(), BigUint::one());
        while f1.bit_length() < 2048 {
            (f0, f1) = (f1.clone(), &f0 + &f1);
        }
        assert!(checked_gcd(&f1, &f0).is_one());
        assert!(checked_gcd(&(&f0 + &f1), &f1).is_one());
        // Scaled by a common factor, the sequence keeps its quotients.
        let k = BigUint::from(0xDEAD_BEEF_u64);
        assert_eq!(checked_gcd(&(&f1 * &k), &(&f0 * &k)), k);
    }

    #[test]
    fn gcd_of_equal_and_zero_operands() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let a = exact_bits(2048, &mut rng);
        assert_eq!(checked_gcd(&a, &a), a);
        assert_eq!(checked_gcd(&a, &BigUint::zero()), a);
        assert_eq!(
            checked_gcd(&BigUint::zero(), &BigUint::zero()),
            BigUint::zero()
        );
        assert_eq!(checked_gcd(&a, &BigUint::one()), BigUint::one());
    }

    #[test]
    fn gcd_of_one_limb_against_sixty_four_takes_the_division_fallback() {
        // The small operand has no bits under the large one's leading
        // digit, so the first pass cannot simulate a quotient.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let big = exact_bits(4096, &mut rng);
        for small in [1u64, 3, 1 << 40, 0xFFFF_FFFF_FFFF_FFC5, u64::MAX] {
            checked_gcd(&big, &BigUint::from(small));
            let multiple = &big * &BigUint::from(small);
            assert_eq!(
                checked_gcd(&multiple, &BigUint::from(small)),
                BigUint::from(small)
            );
        }
        // Two limbs against 64, and 3 against 64 (past the binary tail).
        checked_gcd(&big, &exact_bits(128, &mut rng));
        checked_gcd(&big, &exact_bits(190, &mut rng));
    }

    #[test]
    fn gcd_of_powers_of_two_and_shared_factors() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let pow2 = |k: usize| BigUint::one() << k;
        for (i, j) in [(0, 0), (1, 4000), (130, 129), (2047, 64), (64, 128)] {
            assert_eq!(checked_gcd(&pow2(i), &pow2(j)), pow2(i.min(j)));
        }
        // 2^k·p with the Mersenne prime p = 2^127 − 1 and coprime-ish
        // cofactors: the gcd is a multiple of 2^k·p.
        let p = &pow2(127) - &BigUint::one();
        for k in [0, 1, 63, 64, 65, 700] {
            let shared = &p << k;
            let a = &shared * &exact_bits(1500, &mut rng);
            let b = &(&shared << 3) * &exact_bits(900, &mut rng);
            assert!((&checked_gcd(&a, &b) % &shared).is_zero(), "k={k}");
        }
    }

    #[test]
    fn gcd_at_the_leading_digit_boundary() {
        // The 62-bit leading digit starts exactly on a limb (a 62-bit top
        // limb) or straddles two (1, 2, 61, 63, 64 top bits).
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for top_bits in [1, 2, 61, 62, 63, 64] {
            for limbs in [3, 4, 32, 64] {
                let bits = 64 * (limbs - 1) + top_bits;
                let a = exact_bits(bits, &mut rng);
                checked_gcd(&a, &exact_bits(bits, &mut rng));
                checked_gcd(&a, &exact_bits(bits - 1, &mut rng));
                checked_gcd(&a, &exact_bits(bits - 62, &mut rng));
            }
        }
    }

    #[test]
    fn binary_gcd_tail_matches_euclid() {
        for (a, b) in [
            (0u128, 0u128),
            (0, 7),
            (u128::MAX, u128::MAX - 1),
            (u128::MAX, 3 << 100),
            (1 << 127, 1 << 64),
            (48, 18),
            ((1 << 89) - 1, (1 << 61) - 1),
        ] {
            let expected = BigUint::from(a).gcd_euclid(&BigUint::from(b));
            assert_eq!(BigUint::from(binary_gcd(a, b)), expected, "a={a} b={b}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn gcd_matches_euclid(
            a in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..=64),
            b in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..=64),
            share in proptest::prelude::any::<bool>(),
            factor in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..=4),
        ) {
            // Half the pairs share a factor of up to four limbs.
            let (a, b) = (BigUint::from_limbs(a), BigUint::from_limbs(b));
            let (a, b) = if share {
                let f = BigUint::from_limbs(factor);
                (&a * &f, &b * &f)
            } else {
                (a, b)
            };
            let g = a.gcd(&b);
            proptest::prop_assert_eq!(&g, &a.gcd_euclid(&b));
            proptest::prop_assert_eq!(&g, &b.gcd(&a));
            // A gcd that is merely a common divisor fails here.
            if !g.is_zero() {
                proptest::prop_assert!((&a / &g).gcd(&(&b / &g)).is_one());
            }
        }
    }

    /// Division steps [`BigUint::mod_inverse`]'s Euclid takes on `(m, a
    /// mod m)` before the remainder reaches 0 or 1.
    fn euclid_steps(a: &BigUint, m: &BigUint) -> usize {
        let (mut r_prev, mut r, mut steps) = (m.clone(), a % m, 0);
        while !r.is_zero() && !r.is_one() {
            let rem = &r_prev % &r;
            r_prev = std::mem::replace(&mut r, rem);
            steps += 1;
        }
        steps
    }

    #[test]
    fn mod_inverse_exists() {
        let p = BigUint::from(1_000_003u64); // prime
        let above_u64 = (BigUint::one() << 64) + BigUint::from(13u64); // odd
        let mut cases: Vec<(BigUint, BigUint)> = [2u64, 3, 65537, 999_999]
            .iter()
            .map(|&a| (BigUint::from(a), p.clone()))
            .collect();
        cases.extend([
            // a ≥ m, a ≡ 1 (no step), a = m − 1, the smallest modulus.
            (&p + &BigUint::from(5u64), p.clone()),
            (&(&p * &BigUint::from(3u64)) + &BigUint::one(), p.clone()),
            (&p - &BigUint::one(), p.clone()),
            (BigUint::one(), BigUint::from(2u64)),
            (BigUint::from(7u64), BigUint::from(2u64)),
            // A modulus just above 2^64, with single- and two-limb a.
            (BigUint::from(3u64), above_u64.clone()),
            (&above_u64 - &BigUint::from(2u64), above_u64.clone()),
            (BigUint::from(u64::MAX), above_u64.clone()),
            (&above_u64 + &BigUint::from(5u64), above_u64.clone()),
        ]);
        let parities: Vec<usize> = cases.iter().map(|(a, m)| euclid_steps(a, m) % 2).collect();
        assert!(
            parities.contains(&0) && parities.contains(&1),
            "{parities:?}"
        );
        for (a, m) in &cases {
            let inv = a.mod_inverse(m).expect("inverse exists");
            assert!(&inv < m, "a={a:?} m={m:?}");
            assert_eq!((a * &inv) % m, BigUint::one(), "a={a:?} m={m:?}");
        }
        // m − 1 is its own inverse.
        assert_eq!(
            (&p - &BigUint::one()).mod_inverse(&p),
            Some(&p - &BigUint::one())
        );
    }

    #[test]
    fn mod_inverse_missing() {
        let m = BigUint::from(12u64);
        assert!(BigUint::from(4u64).mod_inverse(&m).is_none());
        assert!(BigUint::from(12u64).mod_inverse(&m).is_none()); // ≡ 0
        assert!(BigUint::from(5u64).mod_inverse(&BigUint::one()).is_none());
        assert!(BigUint::from(5u64).mod_inverse(&BigUint::zero()).is_none());
        // a ≥ m sharing a factor, after an odd and an even step count.
        let cases = [
            (BigUint::from(12u64 * 5 + 8), m.clone()),
            (BigUint::from(16u64), m.clone()),
            (BigUint::from(9u64), m.clone()),
            // m = 2 with an even a, and a = 0.
            (BigUint::from(4u64), BigUint::from(2u64)),
            (BigUint::zero(), BigUint::from(2u64)),
        ];
        for (a, m) in &cases {
            assert!(a.mod_inverse(m).is_none(), "a={a:?} m={m:?}");
        }
        let parities: Vec<usize> = cases[..3]
            .iter()
            .map(|(a, m)| euclid_steps(a, m) % 2)
            .collect();
        assert!(
            parities.contains(&0) && parities.contains(&1),
            "{parities:?}"
        );
        // Above 2^64: 2^64 + 14 = 2·(2^63 + 7) shares 2 with 2^65 + 28.
        let even = (BigUint::one() << 65) + BigUint::from(28u64);
        assert!(((BigUint::one() << 64) + BigUint::from(14u64))
            .mod_inverse(&even)
            .is_none());
        assert!(BigUint::from(6u64).mod_inverse(&even).is_none());
    }
}
