//! Fixed-point quantization between market floats and field elements.
//!
//! All energies (kWh) and the pricing terms enter the ciphertexts as
//! integers scaled by `10^6` (µkWh resolution on one-minute windows).
//! Headroom checks guarantee that nonce-masked aggregates fit both the
//! Paillier message space and the comparison-circuit width.

use crate::config::SCALE;
use crate::error::PemError;

/// Converts between `f64` quantities and integers at the fixed scale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quantizer;

impl Quantizer {
    /// The quantizer (µkWh resolution).
    pub fn new() -> Quantizer {
        Quantizer
    }

    /// Quantizes a signed value (round-to-nearest).
    ///
    /// # Errors
    ///
    /// [`PemError::Quantization`] if the value is non-finite or its
    /// magnitude exceeds `2^62 / 10^6` (headroom guard).
    pub fn quantize(&self, v: f64, what: &'static str) -> Result<i64, PemError> {
        if !v.is_finite() {
            return Err(PemError::Quantization { what, value: v });
        }
        let scaled = v * SCALE as f64;
        if scaled.abs() >= (1u64 << 62) as f64 {
            return Err(PemError::Quantization { what, value: v });
        }
        Ok(scaled.round() as i64)
    }

    /// Quantizes a value known to be non-negative.
    ///
    /// # Errors
    ///
    /// As [`Quantizer::quantize`], plus rejection of negative inputs.
    pub fn quantize_unsigned(&self, v: f64, what: &'static str) -> Result<u64, PemError> {
        let q = self.quantize(v, what)?;
        u64::try_from(q).map_err(|_| PemError::Quantization { what, value: v })
    }

    /// Recovers the float.
    pub fn dequantize(&self, q: i64) -> f64 {
        q as f64 / SCALE as f64
    }

    /// Recovers the float from an unsigned/aggregated value.
    pub fn dequantize_u128(&self, q: u128) -> f64 {
        q as f64 / SCALE as f64
    }

    /// Verifies that `agents` nonce-masked contributions of at most
    /// `value_bits` bits each fit in a `compare_bits`-wide comparison with
    /// at least 2 bits of slack.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] describing the violated bound.
    pub fn check_headroom(
        agents: usize,
        value_bits: u32,
        nonce_bits: u32,
        compare_bits: usize,
    ) -> Result<(), PemError> {
        let per_agent = 1u128 << value_bits.max(nonce_bits);
        let worst = per_agent
            .checked_mul(2)
            .and_then(|v| v.checked_mul(agents as u128))
            .ok_or_else(|| PemError::Config("aggregate bound overflows u128".into()))?;
        let need_bits = 128 - worst.leading_zeros() as usize;
        if need_bits + 2 > compare_bits {
            return Err(PemError::Config(format!(
                "aggregate of {agents} agents needs {need_bits}+2 bits, \
                 comparison width is {compare_bits}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_typical_energies() {
        let q = Quantizer::new();
        for v in [0.0, 0.001, 0.05, 1.5, -0.75, 123.456789] {
            let enc = q.quantize(v, "test").expect("quantize");
            assert!((q.dequantize(enc) - v).abs() < 1e-6, "v={v}");
        }
    }

    #[test]
    fn rounds_to_nearest() {
        let q = Quantizer::new();
        assert_eq!(q.quantize(4e-7, "t").expect("ok"), 0);
        assert_eq!(q.quantize(6e-7, "t").expect("ok"), 1);
        assert_eq!(q.quantize(-6e-7, "t").expect("ok"), -1);
    }

    #[test]
    fn rejects_pathological_values() {
        let q = Quantizer::new();
        assert!(q.quantize(f64::NAN, "t").is_err());
        assert!(q.quantize(f64::INFINITY, "t").is_err());
        assert!(q.quantize(1e60, "t").is_err());
        assert!(q.quantize_unsigned(-1.0, "t").is_err());
    }

    #[test]
    fn unsigned_accepts_zero() {
        let q = Quantizer::new();
        assert_eq!(q.quantize_unsigned(0.0, "t").expect("ok"), 0);
    }

    #[test]
    fn headroom_accepts_paper_scale() {
        // 1000 agents, 30-bit values, 40-bit nonces, 64-bit comparison.
        Quantizer::check_headroom(1000, 30, 40, 64).expect("fits");
    }

    #[test]
    fn headroom_rejects_tight_width() {
        assert!(Quantizer::check_headroom(1000, 30, 40, 52).is_err());
        assert!(Quantizer::check_headroom(4, 8, 8, 8).is_err());
    }
}
