//! Fixed-point quantization between market floats and field elements,
//! and the comparison width a coalition's nonce-masked totals need.
//!
//! All energies (kWh) and the pricing terms enter the ciphertexts as
//! integers scaled by `10^6` (µkWh resolution on one-minute windows).
//! [`compare_width`] sizes Protocol 2's comparison so that nonce-masked
//! aggregates always fit it; the Paillier message space is checked by
//! [`PemConfig::validate`](crate::PemConfig::validate).

use crate::config::{NONCE_BITS, SCALE, VALUE_BITS};
use crate::error::PemError;

/// Quantizes a signed value (round-to-nearest).
///
/// # Errors
///
/// [`PemError::Quantization`] if the value is non-finite or its
/// magnitude exceeds `2^62 / 10^6` (headroom guard).
pub fn quantize(v: f64, what: &'static str) -> Result<i64, PemError> {
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
/// As [`quantize`], plus rejection of negative inputs.
pub fn quantize_unsigned(v: f64, what: &'static str) -> Result<u64, PemError> {
    let q = quantize(v, what)?;
    u64::try_from(q).map_err(|_| PemError::Quantization { what, value: v })
}

/// Recovers the float.
pub fn dequantize(q: i64) -> f64 {
    q as f64 / SCALE as f64
}

/// Recovers the float from an unsigned/aggregated value.
pub fn dequantize_u128(q: u128) -> f64 {
    q as f64 / SCALE as f64
}

/// The comparison width of an `agents`-member coalition: the bits of
/// its worst nonce-masked total, plus two bits of slack.
///
/// Each member adds at most `|sn| + r < 2^VALUE_BITS + 2^NONCE_BITS ≤
/// 2 · 2^max(VALUE_BITS, NONCE_BITS)` to either total, so both stay below
/// `2 · agents · 2^40` — 47 bits at 12 members, 60 at 2^16. The
/// coalition size is public, so both comparing parties derive the same
/// width; bits above it are zeros both know in advance.
pub fn compare_width(agents: usize) -> usize {
    let worst = (agents as u128) << (VALUE_BITS.max(NONCE_BITS) + 1);
    (128 - worst.leading_zeros()) as usize + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_typical_energies() {
        for v in [0.0, 0.001, 0.05, 1.5, -0.75, 123.456789] {
            let enc = quantize(v, "test").expect("quantize");
            assert!((dequantize(enc) - v).abs() < 1e-6, "v={v}");
        }
    }

    #[test]
    fn rounds_to_nearest() {
        assert_eq!(quantize(4e-7, "t").expect("ok"), 0);
        assert_eq!(quantize(6e-7, "t").expect("ok"), 1);
        assert_eq!(quantize(-6e-7, "t").expect("ok"), -1);
    }

    #[test]
    fn rejects_pathological_values() {
        assert!(quantize(f64::NAN, "t").is_err());
        assert!(quantize(f64::INFINITY, "t").is_err());
        assert!(quantize(1e60, "t").is_err());
        assert!(quantize_unsigned(-1.0, "t").is_err());
    }

    #[test]
    fn unsigned_accepts_zero() {
        assert_eq!(quantize_unsigned(0.0, "t").expect("ok"), 0);
    }

    #[test]
    fn headroom_accepts_paper_scale() {
        // 1000 agents, 32-bit values, 40-bit nonces: 53 bits, under the
        // 64-bit ceiling.
        assert_eq!(compare_width(1000), 53);
    }

    #[test]
    fn headroom_rejects_tight_width() {
        // A 52-bit comparison cannot hold 1000 agents' masked totals.
        assert!(compare_width(1000) > 52);
        assert!(compare_width(4) > 8);
    }

    #[test]
    fn compare_width_is_the_narrowest_the_bound_admits() {
        // For every population `validate` accepts: the worst total
        // `2 · m · 2^40` needs exactly `width − 2` bits, so one bit less
        // of slack would not hold it, and the width fits today's 64-bit
        // ceiling.
        for m in 1..=1usize << 16 {
            let width = compare_width(m);
            let worst = 2 * m as u128 * (1 << NONCE_BITS.max(VALUE_BITS));
            assert!(worst >> (width - 2) == 0, "m = {m}: {width} bits");
            assert!(worst >> (width - 3) != 0, "m = {m}: {width} bits");
            assert!(width <= 64, "m = {m}: {width} bits");
        }
        let pins = [(1, 44), (2, 45), (4, 46), (12, 47), (15, 47), (40, 49)];
        for (m, width) in pins.into_iter().chain([(1 << 16, 60)]) {
            assert_eq!(compare_width(m), width, "m = {m}");
        }
    }

    #[test]
    fn totals_at_the_bound_compare_correctly_at_the_derived_width() {
        use pem_circuit::compare::secure_less_than_local;
        use pem_crypto::drbg::HashDrbg;
        use pem_crypto::ot::DhGroup;

        // The two largest totals the bound admits, in both orders and
        // equal: the derived width holds them with two bits to spare.
        let group = DhGroup::test_192().into();
        let mut rng = HashDrbg::new(b"compare-width-bound");
        for m in [2usize, 12, 40, 1 << 16] {
            let width = compare_width(m);
            let top = 2 * m as u128 * (1 << NONCE_BITS.max(VALUE_BITS)) - 1;
            for (a, b) in [(top - 1, top), (top, top - 1), (top, top)] {
                let less = secure_less_than_local(a, b, width, &group, &mut rng)
                    .unwrap_or_else(|e| panic!("m = {m}, {a} < {b}: {e:?}"));
                assert_eq!(less, a < b, "m = {m}, width {width}: {a} < {b}");
            }
        }
    }
}
