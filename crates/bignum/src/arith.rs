//! Low-level limb-slice algorithms shared by [`crate::BigUint`] operators.
//!
//! All slices are little-endian `u64` limbs. Functions here operate on raw
//! limb vectors; normalization (stripping high zero limbs) is the caller's
//! responsibility unless stated otherwise.

/// Threshold (in limbs) above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

/// Strips most-significant zero limbs in place.
pub(crate) fn normalize(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

/// Compares two normalized limb slices.
pub(crate) fn cmp_limbs(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {}
        other => return other,
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// `a + b`, allocating.
pub(crate) fn add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &lw) in long.iter().enumerate() {
        let s = lw as u128 + *short.get(i).unwrap_or(&0) as u128 + carry as u128;
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a += b` in place (growing `a` as needed).
pub(crate) fn add_assign(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    let mut carry = 0u64;
    for i in 0..b.len() {
        let s = a[i] as u128 + b[i] as u128 + carry as u128;
        a[i] = s as u64;
        carry = (s >> 64) as u64;
    }
    let mut i = b.len();
    while carry != 0 && i < a.len() {
        let (s, c) = a[i].overflowing_add(carry);
        a[i] = s;
        carry = c as u64;
        i += 1;
    }
    if carry != 0 {
        a.push(carry);
    }
}

/// `a - b`; caller must guarantee `a >= b`. Result is normalized.
///
/// # Panics
///
/// Panics in debug builds if `a < b` (the final borrow is asserted away).
pub(crate) fn sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(cmp_limbs(a, b) != std::cmp::Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &aw) in a.iter().enumerate() {
        let bi = *b.get(i).unwrap_or(&0);
        let (d, b1) = aw.overflowing_sub(bi);
        let (d, b2) = d.overflowing_sub(borrow);
        out.push(d);
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
    normalize(&mut out);
    out
}

/// Schoolbook `a * b`. Result has `a.len() + b.len()` limbs before
/// normalization.
fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry: u128 = 0;
        for (j, &bj) in b.iter().enumerate() {
            let t = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    normalize(&mut out);
    out
}

/// Karatsuba `a * b` for large operands, with schoolbook base case.
pub(crate) fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    // Split at half of the shorter operand's length.
    let half = a.len().min(b.len()) / 2;
    let (a_lo, a_hi) = a.split_at(half.min(a.len()));
    let (b_lo, b_hi) = b.split_at(half.min(b.len()));
    let mut a_lo = a_lo.to_vec();
    let mut b_lo = b_lo.to_vec();
    normalize(&mut a_lo);
    normalize(&mut b_lo);

    // z0 = a_lo*b_lo ; z2 = a_hi*b_hi ; z1 = (a_lo+a_hi)(b_lo+b_hi) - z0 - z2
    let z0 = mul(&a_lo, &b_lo);
    let z2 = mul(a_hi, b_hi);
    let sa = add(&a_lo, a_hi);
    let sb = add(&b_lo, b_hi);
    let mut z1 = mul(&sa, &sb);
    z1 = sub(&z1, &z0);
    z1 = sub(&z1, &z2);

    // result = z0 + (z1 << 64*half) + (z2 << 128*half)
    let mut out = z0;
    let mut shifted1 = vec![0u64; half];
    shifted1.extend_from_slice(&z1);
    add_assign(&mut out, &shifted1);
    let mut shifted2 = vec![0u64; 2 * half];
    shifted2.extend_from_slice(&z2);
    add_assign(&mut out, &shifted2);
    normalize(&mut out);
    out
}

/// Shifts left by `bits < 64`, extending by exactly one limb (which may be 0).
fn shl_small_extend(a: &[u64], bits: u32) -> Vec<u64> {
    debug_assert!(bits < 64);
    let mut out = Vec::with_capacity(a.len() + 1);
    if bits == 0 {
        out.extend_from_slice(a);
        out.push(0);
        return out;
    }
    let mut carry = 0u64;
    for &limb in a {
        out.push((limb << bits) | carry);
        carry = limb >> (64 - bits);
    }
    out.push(carry);
    out
}

/// Shifts right by `bits < 64` in place (no normalization).
fn shr_small_in_place(a: &mut [u64], bits: u32) {
    debug_assert!(bits < 64);
    if bits == 0 {
        return;
    }
    for i in 0..a.len() {
        let hi = if i + 1 < a.len() { a[i + 1] } else { 0 };
        a[i] = (a[i] >> bits) | (hi << (64 - bits));
    }
}

/// Full left shift by an arbitrary bit count.
pub(crate) fn shl(a: &[u64], bits: usize) -> Vec<u64> {
    if a.is_empty() {
        return Vec::new();
    }
    let limb_shift = bits / 64;
    let bit_shift = (bits % 64) as u32;
    let mut out = vec![0u64; limb_shift];
    out.extend(shl_small_extend(a, bit_shift));
    normalize(&mut out);
    out
}

/// Full right shift by an arbitrary bit count.
pub(crate) fn shr(a: &[u64], bits: usize) -> Vec<u64> {
    let limb_shift = bits / 64;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let bit_shift = (bits % 64) as u32;
    let mut out = a[limb_shift..].to_vec();
    shr_small_in_place(&mut out, bit_shift);
    normalize(&mut out);
    out
}

/// Divides by a single limb; returns `(quotient, remainder)`.
pub(crate) fn div_rem_limb(a: &[u64], d: u64) -> (Vec<u64>, u64) {
    assert!(d != 0, "division by zero");
    let mut q = vec![0u64; a.len()];
    let mut rem: u128 = 0;
    for i in (0..a.len()).rev() {
        let cur = (rem << 64) | a[i] as u128;
        q[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    normalize(&mut q);
    (q, rem as u64)
}

/// Remainder by a single limb, without building the quotient: one
/// `u128 % u64` per limb and no allocation (the trial-division kernel).
pub(crate) fn rem_limb(a: &[u64], d: u64) -> u64 {
    assert!(d != 0, "division by zero");
    a.iter()
        .rev()
        .fold(0u128, |rem, &limb| ((rem << 64) | limb as u128) % d as u128) as u64
}

/// Knuth Algorithm D long division: returns `(quotient, remainder)`.
///
/// # Panics
///
/// Panics if `v` is empty (division by zero).
pub(crate) fn div_rem(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!v.is_empty(), "division by zero");
    if cmp_limbs(u, v) == std::cmp::Ordering::Less {
        return (Vec::new(), u.to_vec());
    }
    if v.len() == 1 {
        let (q, r) = div_rem_limb(u, v[0]);
        let rem = if r == 0 { Vec::new() } else { vec![r] };
        return (q, rem);
    }

    let n = v.len();
    let m = u.len() - n;
    let shift = v[n - 1].leading_zeros();

    // D1: normalize so the divisor's top bit is set.
    let mut vn = shl_small_extend(v, shift);
    vn.pop(); // divisor keeps exactly n limbs (top limb non-zero)
    debug_assert_eq!(vn.len(), n);
    debug_assert!(vn[n - 1] >> 63 == 1);
    let mut un = shl_small_extend(u, shift); // m + n + 1 limbs

    let b: u128 = 1u128 << 64;
    let vn1 = vn[n - 1] as u128;
    let vn2 = vn[n - 2] as u128;
    let mut q = vec![0u64; m + 1];

    // D2-D7: main loop over quotient digits, most significant first.
    for j in (0..=m).rev() {
        // D3: estimate the quotient digit from the top two dividend limbs.
        let u_hi = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = u_hi / vn1;
        let mut rhat = u_hi % vn1;
        if qhat >= b {
            qhat = b - 1;
            rhat = u_hi - qhat * vn1;
        }
        while rhat < b && qhat * vn2 > ((rhat << 64) | un[j + n - 2] as u128) {
            qhat -= 1;
            rhat += vn1;
        }

        // D4: multiply and subtract qhat * v from the dividend window.
        let qhat64 = qhat as u64;
        let mut mul_carry: u128 = 0;
        let mut borrow: u64 = 0;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + mul_carry;
            mul_carry = p >> 64;
            let (d, b1) = un[j + i].overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(borrow);
            un[j + i] = d;
            borrow = b1 as u64 + b2 as u64;
        }
        let (d, b1) = un[j + n].overflowing_sub(mul_carry as u64);
        let (d, b2) = d.overflowing_sub(borrow);
        un[j + n] = d;

        // D5/D6: the estimate was one too large; add the divisor back.
        if b1 || b2 {
            q[j] = qhat64.wrapping_sub(1);
            let mut carry: u128 = 0;
            for i in 0..n {
                let s = un[j + i] as u128 + vn[i] as u128 + carry;
                un[j + i] = s as u64;
                carry = s >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        } else {
            q[j] = qhat64;
        }
    }

    // D8: denormalize the remainder.
    let mut rem = un[..n].to_vec();
    shr_small_in_place(&mut rem, shift);
    normalize(&mut rem);
    normalize(&mut q);
    (q, rem)
}

/// Bitwise AND of two limb slices.
pub(crate) fn bitand(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out: Vec<u64> = a.iter().zip(b.iter()).map(|(x, y)| x & y).collect();
    normalize(&mut out);
    out
}

/// Bitwise OR of two limb slices.
pub(crate) fn bitor(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = long.to_vec();
    for (o, s) in out.iter_mut().zip(short.iter()) {
        *o |= s;
    }
    out
}

/// Bitwise XOR of two limb slices.
pub(crate) fn bitxor(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = long.to_vec();
    for (o, s) in out.iter_mut().zip(short.iter()) {
        *o ^= s;
    }
    normalize(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_with_carry_chain() {
        let a = vec![u64::MAX, u64::MAX];
        let b = vec![1];
        assert_eq!(add(&a, &b), vec![0, 0, 1]);
    }

    #[test]
    fn add_assign_grows() {
        let mut a = vec![u64::MAX];
        add_assign(&mut a, &[u64::MAX, u64::MAX]);
        assert_eq!(a, vec![u64::MAX - 1, 0, 1]);
    }

    #[test]
    fn sub_borrows() {
        let a = vec![0, 1]; // 2^64
        let b = vec![1];
        assert_eq!(sub(&a, &b), vec![u64::MAX]);
    }

    #[test]
    fn schoolbook_simple() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = vec![u64::MAX];
        let r = mul_schoolbook(&a, &a);
        assert_eq!(r, vec![1, u64::MAX - 1]);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands big enough to trigger Karatsuba.
        let a: Vec<u64> = (0..80)
            .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let b: Vec<u64> = (0..75)
            .map(|i| (i as u64).wrapping_mul(0xD1B54A32D192ED03) ^ 7)
            .collect();
        assert_eq!(mul(&a, &b), mul_schoolbook(&a, &b));
    }

    #[test]
    fn div_rem_limb_roundtrip() {
        let a = vec![0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x1111];
        let (q, r) = div_rem_limb(&a, 12345);
        let mut back = mul(&q, &[12345]);
        add_assign(&mut back, &[r]);
        normalize(&mut back);
        let mut a_norm = a.clone();
        normalize(&mut a_norm);
        assert_eq!(back, a_norm);
    }

    #[test]
    fn knuth_division_roundtrip() {
        let u = vec![
            0xDEADBEEFCAFEBABE,
            0x0123456789ABCDEF,
            0xFFFFFFFFFFFFFFFF,
            0x1,
        ];
        let v = vec![0xFEDCBA9876543210, 0x0F0F0F0F0F0F0F0F];
        let (q, r) = div_rem(&u, &v);
        assert!(cmp_limbs(&r, &v) == std::cmp::Ordering::Less);
        let mut back = mul(&q, &v);
        add_assign(&mut back, &r);
        normalize(&mut back);
        assert_eq!(back, u);
    }

    #[test]
    fn knuth_add_back_case() {
        // Constructed so the qhat estimate overshoots (forces D6 add-back):
        // classic pattern u = [0, qhat-overflow] style from Hacker's Delight.
        let u = vec![0x0000000000000003, 0x0000000000000000, 0x8000000000000000];
        let v = vec![0x0000000000000001, 0x8000000000000000];
        let (q, r) = div_rem(&u, &v);
        let mut back = mul(&q, &v);
        add_assign(&mut back, &r);
        normalize(&mut back);
        let mut u_n = u.clone();
        normalize(&mut u_n);
        assert_eq!(back, u_n);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = vec![0xAAAAAAAAAAAAAAAA, 0x5555555555555555, 0xF0F];
        for bits in [0usize, 1, 7, 63, 64, 65, 130] {
            let s = shl(&a, bits);
            let back = shr(&s, bits);
            let mut a_n = a.clone();
            normalize(&mut a_n);
            assert_eq!(back, a_n, "bits={bits}");
        }
    }

    #[test]
    fn bit_ops() {
        let a = vec![0b1100, 0b1010];
        let b = vec![0b1010];
        assert_eq!(bitand(&a, &b), vec![0b1000]);
        assert_eq!(bitor(&a, &b), vec![0b1110, 0b1010]);
        assert_eq!(bitxor(&a, &b), vec![0b0110, 0b1010]);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = div_rem(&[1, 2], &[]);
    }
}
