//! Fixed-point quantization between market floats and field elements,
//! and the width Protocol 2 compares a coalition's nonce-masked totals at.
//!
//! All energies (kWh) and the pricing terms enter the ciphertexts as
//! integers scaled by `10^6` (µkWh resolution on one-minute windows).
//! [`compare_width`] sizes Protocol 2's comparison of the nonce-masked
//! aggregates' low bits, and [`compare_input`] checks each aggregate
//! against its bound before taking them; the Paillier message space is
//! checked by [`PemConfig::validate`](crate::PemConfig::validate).

use pem_circuit::CircuitError;

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

/// The comparison width of an `agents`-member coalition,
/// `VALUE_BITS + ⌈log₂ agents⌉ + 1`: 37 bits at 12 members, 39 at 40,
/// 49 at 2^16.
///
/// Protocol 2 compares the two masked totals `S + R` and `D + R`, which
/// carry the same nonce mask `R`, on their low bits alone. Only the sign
/// of `S − D` matters, and `|S − D| < agents · 2^VALUE_BITS ≤
/// 2^(width − 1)` whatever the mask, so the wrapped comparator
/// (`pem_circuit::wrapped_comparator_circuit`) reads it from the top bit
/// of `(S − D) mod 2^width`. The coalition size is public, so both
/// comparing parties derive the same width.
pub fn compare_width(agents: usize) -> usize {
    // ⌈log₂ agents⌉, total over `usize` (0 for 0 and 1).
    let log2 = usize::BITS - agents.saturating_sub(1).leading_zeros();
    (VALUE_BITS + log2 + 1) as usize
}

/// The bound every masked total of an `agents`-member coalition stays
/// below, `agents · 2^(NONCE_BITS + 1)`: each member adds at most
/// `|sn| + r < 2^VALUE_BITS + 2^NONCE_BITS ≤ 2^(NONCE_BITS + 1)`.
///
/// The comparison sees only a total's low [`compare_width`] bits, so a
/// collector checks this bound on the whole total first
/// ([`compare_input`]): a corrupted aggregate is refused, not truncated
/// into a wrong market.
fn masked_total_bound(agents: usize) -> u128 {
    (agents as u128) << (NONCE_BITS.max(VALUE_BITS) + 1)
}

/// A collector's masked total as the comparison takes it: its low
/// [`compare_width`] bits, once the whole total is checked against the
/// bound every honest one stays below, `agents · 2^(NONCE_BITS + 1)`.
///
/// # Errors
///
/// [`CircuitError::ValueTooWide`] at the comparison width for a total at
/// or above the bound.
pub fn compare_input(total: u128, agents: usize) -> Result<u128, PemError> {
    let width = compare_width(agents);
    if total >= masked_total_bound(agents) {
        return Err(CircuitError::ValueTooWide { width }.into());
    }
    Ok(total & ((1 << width) - 1))
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
        // 1000 agents, 32-bit values: ⌈log₂ 1000⌉ = 10, so 43 bits, under
        // the 64-bit ceiling.
        assert_eq!(compare_width(1000), 43);
    }

    #[test]
    fn headroom_rejects_tight_width() {
        // A 42-bit comparison cannot hold the difference of 1000 agents'
        // totals, nor a 33-bit one that of 4.
        assert!(compare_width(1000) > 42);
        assert!(compare_width(4) > 33);
    }

    #[test]
    fn compare_width_is_the_narrowest_the_bound_admits() {
        // For every population `validate` accepts: the widest difference
        // of the two totals, `(m − 1) · 2^32` (a seller and a buyer at
        // least), is below 2^(width − 1), so its sign is the top bit of
        // the difference mod 2^width, and one bit less would not hold it.
        for m in 1..=1usize << 16 {
            let width = compare_width(m);
            let widest = (m as u128 - 1) << VALUE_BITS;
            assert!(widest < 1 << (width - 1), "m = {m}: {width} bits");
            if m > 1 {
                assert!(widest >= 1 << (width - 2), "m = {m}: {width} bits");
            }
            assert!(width <= 64, "m = {m}: {width} bits");
        }
        let pins = [(1, 33), (2, 34), (4, 35), (12, 37), (15, 37), (40, 39)];
        for (m, width) in pins.into_iter().chain([(1 << 16, 49)]) {
            assert_eq!(compare_width(m), width, "m = {m}");
        }
    }

    #[test]
    fn totals_at_the_bound_compare_correctly_at_the_derived_width() {
        use pem_circuit::compare::secure_less_than_local;
        use pem_crypto::drbg::HashDrbg;
        use pem_crypto::ot::DhGroup;

        // The largest masked total the bound admits, `m · 2^41 − 1`, as
        // the larger, the smaller and both sides, its partner the widest
        // difference away, compared on their low bits; one at the bound
        // is refused with a typed error.
        let group = DhGroup::test_192().into();
        let mut rng = HashDrbg::new(b"compare-width-bound");
        for m in [2usize, 12, 40, 1 << 16] {
            let width = compare_width(m);
            let top = masked_total_bound(m) - 1;
            let gap = (m as u128 - 1) << VALUE_BITS;
            for (a, b) in [
                (top - gap, top),
                (top, top - gap),
                (top - 1, top),
                (top, top),
            ] {
                let (x, y) = (
                    compare_input(a, m).expect("a"),
                    compare_input(b, m).expect("b"),
                );
                let less = secure_less_than_local(x, y, width, &group, &mut rng)
                    .unwrap_or_else(|e| panic!("m = {m}, {a} < {b}: {e:?}"));
                assert_eq!(less, a < b, "m = {m}, width {width}: {a} < {b}");
            }
            assert!(matches!(
                compare_input(top + 1, m),
                Err(PemError::Circuit(CircuitError::ValueTooWide { width: w })) if w == width
            ));
        }
    }
}
