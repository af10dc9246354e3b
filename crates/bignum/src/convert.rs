//! Conversions between [`BigUint`] and unsigned primitives / big-endian
//! byte strings.

use crate::biguint::BigUint;

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {
        $(
            impl From<$t> for BigUint {
                fn from(v: $t) -> BigUint {
                    BigUint::from_limbs(vec![v as u64])
                }
            }
        )*
    };
}

impl_from_unsigned!(u8, u16, u32, u64, usize);

impl From<u128> for BigUint {
    fn from(v: u128) -> BigUint {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl BigUint {
    /// Builds from big-endian bytes.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// assert_eq!(BigUint::from_bytes_be(&[0x01, 0x00]), BigUint::from(256u64));
    /// ```
    pub fn from_bytes_be(bytes: &[u8]) -> BigUint {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        BigUint::from_limbs(limbs)
    }

    /// Minimal big-endian byte encoding (zero encodes as an empty vector).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first_nonzero);
        out
    }

    /// Big-endian byte encoding left-padded with zeros to exactly `len`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(
            raw.len() <= len,
            "value needs {} bytes, pad target {}",
            raw.len(),
            len
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_primitives() {
        assert_eq!(BigUint::from(0u8), BigUint::zero());
        assert_eq!(BigUint::from(u64::MAX).limbs(), &[u64::MAX]);
        assert_eq!(BigUint::from(u128::MAX).limbs(), &[u64::MAX, u64::MAX]);
        assert_eq!(BigUint::from(300u16), BigUint::from(300u64));
    }

    #[test]
    fn bytes_roundtrip_be() {
        let v = BigUint::from(0x0102030405060708090Au128);
        let bytes = v.to_bytes_be();
        assert_eq!(bytes[0], 0x01);
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
    }

    #[test]
    fn zero_bytes() {
        assert!(BigUint::zero().to_bytes_be().is_empty());
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 0]), BigUint::zero());
    }

    #[test]
    fn padded_encoding() {
        let v = BigUint::from(0x1234u64);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic(expected = "pad target")]
    fn padded_too_small_panics() {
        BigUint::from(0x123456u64).to_bytes_be_padded(2);
    }
}
