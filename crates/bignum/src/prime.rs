//! Primality testing and the key generator's prime draw.

use rand::Rng;

use crate::arith::rem_limb;
use crate::biguint::BigUint;
use crate::montgomery::{ExpDigits, Montgomery};

/// Trial-division bound: primes below this are precomputed once.
const SMALL_PRIME_BOUND: u64 = 2048;

/// Deterministic Miller–Rabin witness set, sufficient for all `n < 3.3e24`
/// (covers every value that fits in 81 bits).
const DETERMINISTIC_WITNESSES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

fn small_primes() -> &'static [u64] {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let n = SMALL_PRIME_BOUND as usize;
        let mut sieve = vec![true; n];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..n {
            if sieve[i] {
                let mut j = i * i;
                while j < n {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        (0..n as u64).filter(|&i| sieve[i as usize]).collect()
    })
}

/// Random-base Miller–Rabin rounds run above 2^81, after the base-2
/// round: error below 4^-24 per composite.
const RANDOM_ROUNDS: usize = 24;

/// Miller–Rabin probable-prime test. Values below 2^81 are settled
/// deterministically by the fixed bases 2…41; above that a base-2 round
/// and 24 uniform bases drawn from `rng` decide (error below 4^-24 per
/// composite).
///
/// # Example
///
/// ```
/// use pem_bignum::{is_prime, BigUint};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// assert!(is_prime(&BigUint::from(65537u64), &mut rng));
/// assert!(!is_prime(&BigUint::from(65539u64 * 3), &mut rng));
/// ```
pub fn is_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    // Small and even cases.
    if let Some(small) = n.to_u64() {
        if small < SMALL_PRIME_BOUND {
            return small_primes().binary_search(&small).is_ok();
        }
    }
    if n.is_even() {
        return false;
    }
    // Trial division on the limbs: one single-limb remainder per small
    // prime, no allocation. A multi-limb `n` exceeds every `p²` here, so
    // only single-limb values can stop early.
    let small = n.to_u64();
    for &p in small_primes() {
        if small.is_some_and(|v| p * p > v) {
            break;
        }
        if rem_limb(n.limbs(), p) == 0 {
            return false;
        }
    }

    // Write n-1 = d * 2^s with d odd.
    let one = BigUint::one();
    let n_minus_1 = n - &one;
    let s = n_minus_1.trailing_zeros().expect("n > 2 so n-1 > 0");
    let d = &n_minus_1 >> s;
    let ctx = Montgomery::new(n.clone()).expect("odd n");
    // Every witness exponentiates to the same odd `d`: recode it once.
    let d_digits = ExpDigits::recode(&d);

    let witness_passes = |a: &BigUint| -> bool {
        let a = a % n;
        if a.is_zero() || a.is_one() || a == n_minus_1 {
            return true;
        }
        let mut x = ctx.modpow_recoded(&a, &d_digits);
        if x.is_one() || x == n_minus_1 {
            return true;
        }
        for _ in 0..s - 1 {
            x = ctx.mul(&x, &x);
            if x == n_minus_1 {
                return true;
            }
            if x.is_one() {
                return false; // non-trivial square root of 1
            }
        }
        false
    };

    // Base 2 is the cheap first filter at every width; the full fixed
    // set runs only where it is the proof (values below 2^81). Above
    // that the random rounds alone carry the 4^-rounds bound.
    let deterministic = n.bit_length() <= 81;
    let fixed = if deterministic {
        &DETERMINISTIC_WITNESSES[..]
    } else {
        &DETERMINISTIC_WITNESSES[..1]
    };
    if !fixed.iter().all(|&w| witness_passes(&BigUint::from(w))) {
        return false;
    }
    if deterministic {
        return true;
    }
    for _ in 0..RANDOM_ROUNDS {
        // Uniform witness in [2, n-2].
        let span = n - &BigUint::from(4u64);
        let w = BigUint::random_below(&span, rng) + BigUint::from(2u64);
        if !witness_passes(&w) {
            return false;
        }
    }
    true
}

impl BigUint {
    /// A random (probable) prime of exactly `bits` bits with the top
    /// **two** bits set (the RSA convention): the product of a `k`-bit
    /// and an `l`-bit such prime is at least `9/16 · 2^(k+l)`, so it
    /// always has exactly `k + l` bits and no finished prime is thrown
    /// away for width.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2`.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// use rand::SeedableRng;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let p = BigUint::gen_rsa_prime(64, &mut rng);
    /// assert!(p.bit(63) && p.bit(62));
    /// ```
    pub fn gen_rsa_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
        assert!(bits >= 2, "a prime needs at least 2 bits");
        loop {
            let mut candidate = BigUint::random_bits(bits, rng);
            for i in 1..=2 {
                candidate.set_bit(bits - i, true);
            }
            if bits > 2 {
                candidate.set_bit(0, true); // odd
            }
            if is_prime(&candidate, rng) {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xFEED)
    }

    #[test]
    fn small_values() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 1009, 2027];
        let composites = [0u64, 1, 4, 6, 9, 15, 100, 1001, 2047];
        for p in primes {
            assert!(is_prime(&BigUint::from(p), &mut r), "{p} should be prime");
        }
        for c in composites {
            assert!(
                !is_prime(&BigUint::from(c), &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn known_larger_primes() {
        let mut r = rng();
        // 2^61 - 1 is a Mersenne prime; 2^67 - 1 is famously composite.
        let m61 = (BigUint::one() << 61) - BigUint::one();
        let m67 = (BigUint::one() << 67) - BigUint::one();
        assert!(is_prime(&m61, &mut r));
        assert!(!is_prime(&m67, &mut r));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&BigUint::from(c), &mut r), "{c} is Carmichael");
        }
    }

    /// The tester as it stood before the single-limb trial division and
    /// the trimmed fixed-base set: `BigUint` trial division, all
    /// thirteen fixed bases at every width, then the random rounds.
    fn reference_is_prime(n: &BigUint, rng: &mut StdRng) -> bool {
        if let Some(small) = n.to_u64() {
            if small < SMALL_PRIME_BOUND {
                return small_primes().binary_search(&small).is_ok();
            }
        }
        if n.is_even() {
            return false;
        }
        for &p in small_primes() {
            let p = BigUint::from(p);
            if &p * &p > *n {
                break;
            }
            if (n % &p).is_zero() {
                return false;
            }
        }
        let n_minus_1 = n - &BigUint::one();
        let s = n_minus_1.trailing_zeros().expect("n > 2");
        let d = &n_minus_1 >> s;
        let passes = |a: BigUint| {
            let mut x = (a % n).modpow(&d, n);
            if x <= BigUint::one() || x == n_minus_1 {
                return true;
            }
            (1..s).any(|_| {
                x = x.modpow(&BigUint::from(2u64), n);
                x == n_minus_1
            })
        };
        let span = n - &BigUint::from(4u64);
        DETERMINISTIC_WITNESSES
            .iter()
            .all(|&w| passes(BigUint::from(w)))
            && (n.bit_length() <= 81
                || (0..24).all(|_| passes(BigUint::random_below(&span, rng) + BigUint::from(2u64))))
    }

    #[test]
    fn limb_trial_division_matches_biguint_rem() {
        let mut r = rng();
        let mut values: Vec<BigUint> = (1..=8)
            .map(|limbs| BigUint::from_limbs(vec![u64::MAX; limbs]))
            .collect();
        values.extend((0..64).map(|i| BigUint::random_bits(64 + 31 * i, &mut r)));
        for n in &values {
            for &p in small_primes() {
                let expected = (n % &BigUint::from(p)).to_u64().expect("below p");
                assert_eq!(rem_limb(n.limbs(), p), expected, "n={n:?} p={p}");
            }
        }
    }

    #[test]
    fn agrees_with_the_reference_tester() {
        let (mut r, mut r_ref) = (rng(), rng());
        // Carmichael numbers, strong pseudoprimes to base 2, Mersenne
        // numbers on both sides of the deterministic 81-bit boundary.
        let mut values: Vec<BigUint> = [
            561u64,
            1105,
            1729,
            2465,
            2821,
            6601,
            8911,
            41041,
            825265,
            2047,
            3_215_031_751,
            3_825_123_056_546_413_051,
        ]
        .into_iter()
        .map(BigUint::from)
        .collect();
        values.extend(
            [61usize, 67, 89, 107, 127, 131].map(|e| (BigUint::one() << e) - BigUint::one()),
        );
        let mut draw = StdRng::seed_from_u64(0xC0FFEE);
        values.extend((0..200).map(|_| {
            let mut v = BigUint::random_bits(256, &mut draw);
            v.set_bit(0, true);
            v
        }));
        values.extend((0..4).map(|_| BigUint::gen_rsa_prime(256, &mut draw)));
        for n in &values {
            assert_eq!(
                is_prime(n, &mut r),
                reference_is_prime(n, &mut r_ref),
                "n={n:?}"
            );
        }
    }

    #[test]
    fn rsa_primes_multiply_to_full_width() {
        let mut r = rng();
        for bits in [2usize, 8, 32, 64] {
            let p = BigUint::gen_rsa_prime(bits, &mut r);
            let q = BigUint::gen_rsa_prime(bits + 1, &mut r);
            assert_eq!(p.bit_length(), bits);
            assert!(p.bit(bits - 2) && q.bit(bits - 1), "second bit forced");
            assert_eq!((&p * &q).bit_length(), 2 * bits + 1);
        }
    }

    #[test]
    fn gen_prime_has_exact_bits() {
        let mut r = rng();
        for bits in [16usize, 48, 128] {
            let p = BigUint::gen_rsa_prime(bits, &mut r);
            assert_eq!(p.bit_length(), bits);
            assert!(p.is_odd());
            assert!(is_prime(&p, &mut r));
        }
    }

    #[test]
    fn product_of_two_primes_is_composite() {
        let mut r = rng();
        let p = BigUint::gen_rsa_prime(48, &mut r);
        let q = BigUint::gen_rsa_prime(48, &mut r);
        assert!(!is_prime(&(&p * &q), &mut r));
    }
}
