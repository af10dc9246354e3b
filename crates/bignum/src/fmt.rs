//! Decimal formatting and radix parsing for [`BigUint`].

use std::fmt;
use std::str::FromStr;

use crate::arith;
use crate::biguint::BigUint;
use crate::error::ParseBigIntError;

/// Largest power of ten fitting in a `u64`, used as the decimal chunk base.
const DEC_CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
const DEC_CHUNK_DIGITS: usize = 19;

impl BigUint {
    /// Parses from a string in the given radix (2..=36).
    ///
    /// Underscores are permitted as visual separators. Case-insensitive for
    /// radices above 10.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBigIntError`] for an unsupported radix, an empty
    /// string, or an invalid digit.
    ///
    /// ```
    /// use pem_bignum::BigUint;
    /// # fn main() -> Result<(), pem_bignum::ParseBigIntError> {
    /// let v = BigUint::from_str_radix("ff_ff", 16)?;
    /// assert_eq!(v, BigUint::from(65535u64));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_str_radix(s: &str, radix: u32) -> Result<BigUint, ParseBigIntError> {
        if !(2..=36).contains(&radix) {
            return Err(ParseBigIntError::invalid_radix(radix));
        }
        let mut out = BigUint::zero();
        let radix_big = [radix as u64];
        let mut saw_digit = false;
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c
                .to_digit(radix)
                .ok_or_else(|| ParseBigIntError::invalid_digit(c))?;
            saw_digit = true;
            out.limbs = arith::mul(&out.limbs, &radix_big);
            arith::add_assign(&mut out.limbs, &[d as u64]);
            arith::normalize(&mut out.limbs);
        }
        if !saw_digit {
            return Err(ParseBigIntError::empty());
        }
        Ok(out)
    }

    /// Formats in the given radix (2..=36), lowercase digits.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is outside `2..=36`.
    pub fn to_str_radix(&self, radix: u32) -> String {
        assert!((2..=36).contains(&radix), "radix must be in 2..=36");
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = self.limbs.clone();
        while !cur.is_empty() {
            let (q, r) = arith::div_rem_limb(&cur, radix as u64);
            digits.push(std::char::from_digit(r as u32, radix).expect("digit in radix"));
            cur = q;
        }
        digits.iter().rev().collect()
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        // Extract 19-decimal-digit chunks to cut the number of big divisions.
        let mut chunks = Vec::new();
        let mut cur = self.limbs.clone();
        while !cur.is_empty() {
            let (q, r) = arith::div_rem_limb(&cur, DEC_CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = chunks.last().expect("non-empty").to_string();
        for chunk in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{chunk:0width$}", width = DEC_CHUNK_DIGITS));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl FromStr for BigUint {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigUint::from_str_radix(s, 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_small() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::from(12345u64).to_string(), "12345");
    }

    #[test]
    fn display_large_roundtrip() {
        let s = "987654321098765432109876543210987654321098765432109876543210";
        let v: BigUint = s.parse().expect("parse");
        assert_eq!(v.to_string(), s);
    }

    #[test]
    fn display_with_zero_chunks() {
        // 10^19 exactly: second chunk must keep leading zeros.
        let v: BigUint = "10000000000000000000".parse().expect("parse");
        assert_eq!(v.to_string(), "10000000000000000000");
    }

    #[test]
    fn hex_roundtrip() {
        let v = BigUint::from(0xDEADBEEFCAFEu64);
        assert_eq!(v.to_str_radix(16), "deadbeefcafe");
        assert_eq!(BigUint::from_str_radix("deadbeefcafe", 16).expect("hex"), v);
        assert_eq!(BigUint::from_str_radix("DEADBEEFCAFE", 16).expect("hex"), v);
    }

    #[test]
    fn binary_octal() {
        let v = BigUint::from(10u64);
        assert_eq!(v.to_str_radix(2), "1010");
        assert_eq!(v.to_str_radix(8), "12");
    }

    #[test]
    fn parse_with_underscores() {
        assert_eq!(
            "1_000_000".parse::<BigUint>().expect("parse"),
            BigUint::from(1_000_000u64)
        );
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<BigUint>().is_err());
        assert!("_".parse::<BigUint>().is_err());
        assert!("12a".parse::<BigUint>().is_err());
        assert!(BigUint::from_str_radix("1", 37).is_err());
    }

    #[test]
    fn debug_nonempty() {
        assert_eq!(format!("{:?}", BigUint::zero()), "BigUint(0)");
    }

    #[test]
    fn radix_36() {
        let v = BigUint::from_str_radix("zz", 36).expect("parse");
        assert_eq!(v, BigUint::from(35 * 36 + 35u64));
        assert_eq!(v.to_str_radix(36), "zz");
    }
}
