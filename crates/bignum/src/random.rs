//! Uniform random generation of [`BigUint`] values.

use rand::Rng;

use crate::biguint::BigUint;

impl BigUint {
    /// Uniformly random value with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
        if bits == 0 {
            return BigUint::zero();
        }
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = bits % 64;
        if top_bits != 0 {
            let mask = (1u64 << top_bits) - 1;
            *v.last_mut().expect("at least one limb") &= mask;
        }
        BigUint::from_limbs(v)
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(bound: &BigUint, rng: &mut R) -> BigUint {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bit_length();
        loop {
            let candidate = BigUint::random_bits(bits, rng);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Uniformly random invertible element of `Z_n*` (coprime with `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 1`.
    pub fn random_coprime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> BigUint {
        assert!(*n > BigUint::one(), "group modulus must exceed 1");
        loop {
            let candidate = BigUint::random_below(n, rng);
            if !candidate.is_zero() && candidate.gcd(n).is_one() {
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

    #[test]
    fn random_bits_respects_width() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [0usize, 1, 63, 64, 65, 200] {
            for _ in 0..20 {
                let v = BigUint::random_bits(bits, &mut rng);
                assert!(v.bit_length() <= bits, "bits={bits} got {}", v.bit_length());
            }
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let bound = BigUint::from(1000u64);
        for _ in 0..200 {
            assert!(BigUint::random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn random_below_hits_small_range_fully() {
        let mut rng = StdRng::seed_from_u64(5);
        let bound = BigUint::from(4u64);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = BigUint::random_below(&bound, &mut rng)
                .to_u64()
                .expect("small");
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn random_coprime_is_invertible() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = BigUint::from(100u64);
        for _ in 0..50 {
            let v = BigUint::random_coprime(&n, &mut rng);
            assert!(v.mod_inverse(&n).is_some());
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            BigUint::random_bits(256, &mut a),
            BigUint::random_bits(256, &mut b)
        );
    }

    #[test]
    #[should_panic(expected = "zero bound")]
    fn random_below_zero_bound_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        BigUint::random_below(&BigUint::zero(), &mut rng);
    }
}
