//! The [`BigUint`] type: an arbitrary-precision unsigned integer.

use crate::arith;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with no most-significant zero limb;
/// zero is the empty limb vector.
///
/// # Example
///
/// ```
/// use pem_bignum::BigUint;
///
/// let a = BigUint::from(7u64);
/// let b = BigUint::from(6u64);
/// assert_eq!((&a * &b).to_string(), "42");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// Returns zero.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// assert!(BigUint::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// Returns one.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// assert_eq!(BigUint::one(), BigUint::from(1u64));
    /// ```
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        arith::normalize(&mut limbs);
        BigUint { limbs }
    }

    /// Exposes the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// `true` if the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (zero has bit length 0).
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// assert_eq!(BigUint::from(255u64).bit_length(), 8);
    /// assert_eq!(BigUint::from(256u64).bit_length(), 9);
    /// ```
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `value`, growing as needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let limb = i / 64;
        let off = i % 64;
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << off;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << off);
            arith::normalize(&mut self.limbs);
        }
    }

    /// Number of trailing zero bits; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * 64 + l.trailing_zeros() as usize);
            }
        }
        None
    }

    /// `true` when exactly one bit is set (`self = 2^k`); `false` for
    /// zero.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// assert!((BigUint::one() << 70).is_power_of_two());
    /// assert!(!BigUint::from(6u64).is_power_of_two());
    /// assert!(!BigUint::zero().is_power_of_two());
    /// ```
    pub fn is_power_of_two(&self) -> bool {
        self.trailing_zeros()
            .is_some_and(|t| t + 1 == self.bit_length())
    }

    /// `(self / other, self % other)` in one division.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// let (q, r) = BigUint::from(17u64).div_rem(&BigUint::from(5u64));
    /// assert_eq!((q, r), (BigUint::from(3u64), BigUint::from(2u64)));
    /// ```
    pub fn div_rem(&self, other: &BigUint) -> (BigUint, BigUint) {
        let (q, r) = arith::div_rem(&self.limbs, &other.limbs);
        (BigUint { limbs: q }, BigUint { limbs: r })
    }

    /// Checked subtraction: `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            None
        } else {
            Some(BigUint {
                limbs: arith::sub(&self.limbs, &other.limbs),
            })
        }
    }

    /// `min(self, 2^64 - 1)` as a `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        arith::cmp_limbs(&self.limbs, &other.limbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn normalization() {
        let a = BigUint::from_limbs(vec![5, 0, 0]);
        assert_eq!(a.limbs(), &[5]);
        assert_eq!(BigUint::from_limbs(vec![0, 0]), BigUint::zero());
    }

    #[test]
    fn bit_length_and_bits() {
        let mut a = BigUint::zero();
        assert_eq!(a.bit_length(), 0);
        a.set_bit(100, true);
        assert_eq!(a.bit_length(), 101);
        assert!(a.bit(100));
        assert!(!a.bit(99));
        a.set_bit(100, false);
        assert!(a.is_zero());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(BigUint::zero().trailing_zeros(), None);
        assert_eq!(BigUint::from(8u64).trailing_zeros(), Some(3));
        let mut big = BigUint::zero();
        big.set_bit(130, true);
        assert_eq!(big.trailing_zeros(), Some(130));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(5u64);
        let b = BigUint::from_limbs(vec![0, 1]); // 2^64
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn conversions_to_primitive() {
        assert_eq!(BigUint::from(42u64).to_u64(), Some(42));
        assert_eq!(BigUint::from_limbs(vec![1, 1]).to_u64(), None);
        assert_eq!(BigUint::from_limbs(vec![0, 1]).to_u128(), Some(1u128 << 64));
        assert_eq!(BigUint::from_limbs(vec![0, 0, 1]).to_u128(), None);
    }

    #[test]
    fn checked_sub() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(7u64);
        assert_eq!(b.checked_sub(&a), Some(BigUint::from(2u64)));
        assert_eq!(a.checked_sub(&b), None);
    }
}
