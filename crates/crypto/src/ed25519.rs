//! The edwards25519 group: the prime-order subgroup of the twisted
//! Edwards curve `−x² + y² = 1 + d·x²·y²` over `GF(p)`, `p = 2^255 − 19`,
//! `d = −121665/121666` (RFC 8032 §5.1; Bernstein et al., 2012).
//!
//! The comparison's oblivious transfers run here at the paper profiles
//! ([`crate::ot`]): 32-byte elements and full-width scalars at the
//! 128-bit level. Everything is fixed-size and on the stack:
//!
//! * field elements are five 51-bit limbs in `u64`s, multiplied through
//!   `u128` products (`19·2^255 ≡ 19`, so the wrap is a multiplication
//!   by 19);
//! * points are extended coordinates `(X : Y : Z : T)`, `x = X/Z`,
//!   `y = Y/Z`, `x·y = T/Z`, added and doubled with the `a = −1`
//!   formulas of Hisil–Wong–Carter–Dawson (Asiacrypt 2008), complete on
//!   this curve;
//! * a variable-base multiplication ([`EdwardsPoint::mul`]) runs a signed
//!   4-bit window over `[1..8]·P`: 252 doublings and at most 64
//!   additions;
//! * a fixed-base multiplication ([`EdwardsTable::mul`]) runs off a comb
//!   table of `[1..8]·256^i·P` for the 32 byte positions `i`: 64
//!   additions and 4 doublings. The basepoint's table is built once per
//!   process ([`basepoint_table`]).
//!
//! Scalars are integers mod the subgroup order `ℓ = 2^252 +
//! 27742317777372353535851937790883648493`; [`Scalar::random`] reduces
//! 64 drawn bytes, so a draw is within `2^-260` of uniform and always
//! takes the same number of bytes.
//!
//! Nothing here is constant time: the semi-honest model of the paper
//! (Section II-B) has no side-channel adversary, and the `Z_p*`
//! arithmetic of [`pem_bignum`] is not constant time either.
//!
//! Decoding ([`EdwardsPoint::decompress`]) follows RFC 8032 §5.1.3 and
//! rejects non-canonical `y`, points off the curve and `x = 0` with the
//! sign bit set. A decoded point may still carry a component of order
//! dividing 8 (the curve has cofactor 8); the OT layer clears it with
//! [`EdwardsPoint::mul_by_cofactor`] and rejects what becomes the
//! identity.

use std::sync::OnceLock;

use rand::Rng;

use pem_bignum::{register_counter, BigUint, Counter};

use crate::error::CryptoError;

/// Variable-base multiplications ([`EdwardsPoint::mul`]).
static SCALAR_MULS: Counter = Counter::new();
/// Multiplications off a comb table ([`EdwardsTable::mul`]).
static FIXED_BASE_MULS: Counter = Counter::new();
/// Comb-table builds ([`EdwardsTable::new`]): the basepoint's once per
/// process, then one per OT batch long enough for its `A` table.
static TABLE_BUILDS: Counter = Counter::new();

fn register_curve_counters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        register_counter("crypto/ec_scalar_mul", &SCALAR_MULS);
        register_counter("crypto/ec_fixed_base", &FIXED_BASE_MULS);
        register_counter("crypto/ec_table_builds", &TABLE_BUILDS);
    });
}

const MASK: u64 = (1 << 51) - 1;

/// An element of `GF(2^255 − 19)` as `Σ limbs[i]·2^(51·i)`. Every
/// operation but [`Fe::add`] returns limbs below `2^52`; `add` skips the
/// carry, so its limbs stay below `2^53` for such operands, and its
/// result only ever feeds [`Fe::mul`], [`Fe::square`] or [`Fe::sub`],
/// whose bounds hold for limbs below `2^54`. Only [`Fe::to_bytes`] is
/// canonical.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

/// `d = −121665/121666`.
const D: Fe = Fe([
    929955233495203,
    466365720129213,
    1662059464998953,
    2033849074728123,
    1442794654840575,
]);

/// `2·d`, the constant of the addition formula.
const D2: Fe = Fe([
    1859910466990425,
    932731440258426,
    1072319116312658,
    1815898335770999,
    633789495995903,
]);

/// `√−1 = 2^((p−1)/4)`.
const SQRT_M1: Fe = Fe([
    1718705420411056,
    234908883556509,
    2233514472574048,
    2117202627021982,
    765476049583133,
]);

/// The basepoint `B`: `y = 4/5`, `x` even.
const B_X: Fe = Fe([
    1738742601995546,
    1146398526822698,
    2070867633025821,
    562264141797630,
    587772402128613,
]);
const B_Y: Fe = Fe([
    1801439850948184,
    1351079888211148,
    450359962737049,
    900719925474099,
    1801439850948198,
]);

/// `ℓ`, big-endian.
const ORDER_BE: [u8; 32] = [
    0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x14, 0xde, 0xf9, 0xde, 0xa2, 0xf7, 0x9c,
    0xd6, 0x58, 0x12, 0x63, 0x1a, 0x5c, 0xf5, 0xd3, 0xed,
];

#[inline(always)]
fn m(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// The low 255 bits of `b`, little-endian (bit 255 is ignored).
    fn from_bytes(b: &[u8; 32]) -> Fe {
        let word = |i: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[8 * i..8 * i + 8]);
            u64::from_le_bytes(w)
        };
        let (w0, w1, w2, w3) = (word(0), word(1), word(2), word(3));
        Fe([
            w0 & MASK,
            (w0 >> 51 | w1 << 13) & MASK,
            (w1 >> 38 | w2 << 26) & MASK,
            (w2 >> 25 | w3 << 39) & MASK,
            (w3 >> 12) & MASK,
        ])
    }

    /// The canonical (fully reduced) little-endian encoding.
    fn to_bytes(self) -> [u8; 32] {
        let mut l = Fe::carry(self.0).0;
        // q = 1 exactly when the value is at least p.
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK;
        }
        l[4] &= MASK;
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// One carry pass: limbs below `2^51 + 2^13·19`, same value mod p.
    #[inline(always)]
    fn carry(mut l: [u64; 5]) -> Fe {
        let c = [l[0] >> 51, l[1] >> 51, l[2] >> 51, l[3] >> 51, l[4] >> 51];
        for limb in &mut l {
            *limb &= MASK;
        }
        l[0] += c[4] * 19;
        l[1] += c[0];
        l[2] += c[1];
        l[3] += c[2];
        l[4] += c[3];
        Fe(l)
    }

    /// `self + o`, uncarried (see [`Fe`]).
    #[inline(always)]
    fn add(&self, o: &Fe) -> Fe {
        let (a, b) = (&self.0, &o.0);
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// `self − o`, computed as `(self + 16·p) − o` so no limb underflows.
    #[inline(always)]
    fn sub(&self, o: &Fe) -> Fe {
        const P16_0: u64 = 16 * ((1 << 51) - 19);
        const P16_N: u64 = 16 * ((1 << 51) - 1);
        let (a, b) = (&self.0, &o.0);
        Fe::carry([
            (a[0] + P16_0) - b[0],
            (a[1] + P16_N) - b[1],
            (a[2] + P16_N) - b[2],
            (a[3] + P16_N) - b[3],
            (a[4] + P16_N) - b[4],
        ])
    }

    fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Carries the five column sums of a product into limbs.
    #[inline(always)]
    fn carry_wide(mut c: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        for i in 0..4 {
            c[i + 1] += c[i] >> 51;
            out[i] = c[i] as u64 & MASK;
        }
        // c[4] carries no factor of 19, so its carry times 19 fits.
        let top = (c[4] >> 51) as u64;
        out[4] = c[4] as u64 & MASK;
        out[0] += top * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK;
        Fe(out)
    }

    #[inline(always)]
    fn mul(&self, o: &Fe) -> Fe {
        let (a, b) = (&self.0, &o.0);
        let (b1, b2, b3, b4) = (b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19);
        Fe::carry_wide([
            m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4),
            m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4),
            m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4),
            m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4),
            m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
        ])
    }

    #[inline(always)]
    fn square(&self) -> Fe {
        let a = &self.0;
        let (a3, a4) = (a[3] * 19, a[4] * 19);
        Fe::carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4) + m(a[2], a3)),
            m(a[3], a3) + 2 * (m(a[0], a[1]) + m(a[2], a4)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3)),
            m(a[4], a4) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// `self^(2^k)`.
    fn pow2k(&self, k: u32) -> Fe {
        (0..k).fold(*self, |x, _| x.square())
    }

    /// `(self^(2^250 − 1), self^11)`, the shared head of the inversion
    /// and square-root chains.
    fn pow22501(&self) -> (Fe, Fe) {
        let t0 = self.square(); // 2
        let t1 = t0.pow2k(2); // 8
        let t2 = self.mul(&t1); // 9
        let t3 = t0.mul(&t2); // 11
        let t5 = t2.mul(&t3.square()); // 2^5 − 1
        let t7 = t5.pow2k(5).mul(&t5); // 2^10 − 1
        let t9 = t7.pow2k(10).mul(&t7); // 2^20 − 1
        let t11 = t9.pow2k(20).mul(&t9); // 2^40 − 1
        let t13 = t11.pow2k(10).mul(&t7); // 2^50 − 1
        let t15 = t13.pow2k(50).mul(&t13); // 2^100 − 1
        let t17 = t15.pow2k(100).mul(&t15); // 2^200 − 1
        let t19 = t17.pow2k(50).mul(&t13); // 2^250 − 1
        (t19, t3)
    }

    /// `self^(p − 2)`: the inverse, and 0 for 0.
    fn invert(&self) -> Fe {
        let (t19, t3) = self.pow22501();
        t19.pow2k(5).mul(&t3) // 2^255 − 21
    }

    /// `self^((p − 5)/8) = self^(2^252 − 3)`.
    fn pow_p58(&self) -> Fe {
        let (t19, _) = self.pow22501();
        t19.pow2k(2).mul(self)
    }

    /// A square root of `u/v` (RFC 8032 §5.1.3 step 2), `None` if `u/v`
    /// is not a square or `v = 0 ≠ u`.
    fn sqrt_ratio(u: &Fe, v: &Fe) -> Option<Fe> {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vxx = v.mul(&x.square());
        if vxx.equals(u) {
            Some(x)
        } else if vxx.equals(&u.neg()) {
            Some(x.mul(&SQRT_M1))
        } else {
            None
        }
    }

    fn equals(&self, o: &Fe) -> bool {
        self.to_bytes() == o.to_bytes()
    }

    fn is_zero(&self) -> bool {
        self.to_bytes() == [0; 32]
    }

    /// The low bit of the canonical value: the sign of `x` in RFC 8032.
    fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }
}

/// The subgroup order `ℓ`.
pub fn order() -> &'static BigUint {
    static ORDER: OnceLock<BigUint> = OnceLock::new();
    ORDER.get_or_init(|| BigUint::from_bytes_be(&ORDER_BE))
}

/// An integer mod `ℓ`, fully reduced, as 32 little-endian bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scalar([u8; 32]);

impl Scalar {
    /// One.
    pub const ONE: Scalar = Scalar([
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0,
    ]);

    /// A secret scalar: 64 bytes from `rng` reduced mod `ℓ` (the `2^-252`
    /// zero maps to 1), so every draw takes the same 64 bytes.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Scalar {
        let mut wide = [0u8; 64];
        rng.fill_bytes(&mut wide);
        wide.reverse();
        let x = Scalar::from_biguint(&BigUint::from_bytes_be(&wide));
        if x == Scalar([0; 32]) {
            Scalar::ONE
        } else {
            x
        }
    }

    /// `x mod ℓ`.
    pub fn from_biguint(x: &BigUint) -> Scalar {
        let mut bytes = [0u8; 32];
        for (out, b) in bytes
            .iter_mut()
            .zip((x % order()).to_bytes_be_padded(32).iter().rev())
        {
            *out = *b;
        }
        Scalar(bytes)
    }

    /// The scalar as an integer in `[0, ℓ)`.
    pub fn to_biguint(&self) -> BigUint {
        let mut be = self.0;
        be.reverse();
        BigUint::from_bytes_be(&be)
    }

    /// Signed radix-16 digits `eᵢ ∈ [−8, 8)` (the last in `[−8, 8]`)
    /// with `Σ eᵢ·16^i` equal to the scalar; needs the scalar below
    /// `2^255`, which every value below `ℓ` is.
    fn radix16(&self) -> [i8; 64] {
        let mut e = [0i8; 64];
        for (i, b) in self.0.iter().enumerate() {
            e[2 * i] = (b & 15) as i8;
            e[2 * i + 1] = (b >> 4) as i8;
        }
        let mut carry = 0i8;
        for digit in e.iter_mut().take(63) {
            *digit += carry;
            carry = (*digit + 8) >> 4;
            *digit -= carry << 4;
        }
        e[63] += carry;
        e
    }
}

/// A point of edwards25519 in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point readied as the right operand of additions:
/// `(Y + X, Y − X, 2d·T, 2·Z)`.
#[derive(Clone, Copy, Debug)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
    z2: Fe,
}

impl Cached {
    /// The negated point: `−(x, y) = (−x, y)`.
    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            t2d: self.t2d.neg(),
            z2: self.z2,
        }
    }
}

impl PartialEq for EdwardsPoint {
    /// Equal as points: `X₁Z₂ = X₂Z₁` and `Y₁Z₂ = Y₂Z₁`.
    fn eq(&self, o: &EdwardsPoint) -> bool {
        self.x.mul(&o.z).equals(&o.x.mul(&self.z)) && self.y.mul(&o.z).equals(&o.y.mul(&self.z))
    }
}

impl Eq for EdwardsPoint {}

impl EdwardsPoint {
    /// The neutral element `(0, 1)`.
    pub const IDENTITY: EdwardsPoint = EdwardsPoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The basepoint `B` (`y = 4/5`, `x` even), of order `ℓ`.
    pub fn basepoint() -> EdwardsPoint {
        EdwardsPoint {
            x: B_X,
            y: B_Y,
            z: Fe::ONE,
            t: B_X.mul(&B_Y),
        }
    }

    fn cached(&self) -> Cached {
        Cached {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            t2d: self.t.mul(&D2),
            z2: self.z.add(&self.z),
        }
    }

    /// `self + c` (HWCD `add-2008-hwcd-3`, `a = −1`): 8 multiplications.
    fn add_cached(&self, c: &Cached) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&c.y_minus_x);
        let b = self.y.add(&self.x).mul(&c.y_plus_x);
        let cc = self.t.mul(&c.t2d);
        let d = self.z.mul(&c.z2);
        let (e, f, g, h) = (b.sub(&a), d.sub(&cc), d.add(&cc), b.add(&a));
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// `self + d·P` for a signed digit `|d| ≤ 8`, off `row = [1..8]·P`.
    fn add_digit(&self, row: &[Cached; 8], d: i8) -> EdwardsPoint {
        match d {
            0 => *self,
            1..=8 => self.add_cached(&row[d as usize - 1]),
            _ => self.add_cached(&row[d.unsigned_abs() as usize - 1].neg()),
        }
    }

    /// `self + o`.
    pub fn add(&self, o: &EdwardsPoint) -> EdwardsPoint {
        self.add_cached(&o.cached())
    }

    /// `2·self` (HWCD `dbl-2008-hwcd`, `a = −1`, with `F` and `H`
    /// negated: that negates all four coordinates, the same point, for
    /// one subtraction and one negation fewer); `T` is computed only if
    /// asked for, since a doubling never reads it.
    fn dbl(&self, with_t: bool) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square();
        let c = c.add(&c);
        let h = a.add(&b);
        let e = self.x.add(&self.y).square().sub(&h);
        let g = b.sub(&a);
        let f = c.sub(&g);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: if with_t { e.mul(&h) } else { Fe::ZERO },
        }
    }

    /// `2·self`.
    pub fn double(&self) -> EdwardsPoint {
        self.dbl(true)
    }

    /// `2^k·self`, `k ≥ 1`.
    fn double_n(&self, k: u32) -> EdwardsPoint {
        (1..k).fold(*self, |p, _| p.dbl(false)).dbl(true)
    }

    /// `8·self`: three doublings, which clear any component of small
    /// order.
    pub fn mul_by_cofactor(&self) -> EdwardsPoint {
        self.double_n(3)
    }

    /// `true` for the neutral element.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.equals(&self.z)
    }

    /// `[1..8]·self`.
    fn multiples(&self) -> [Cached; 8] {
        let first = self.cached();
        let mut row = [first; 8];
        let mut acc = self.double();
        row[1] = acc.cached();
        for entry in &mut row[2..] {
            acc = acc.add_cached(&first);
            *entry = acc.cached();
        }
        row
    }

    /// `k·self` on a signed 4-bit window; counted on
    /// `crypto/ec_scalar_mul`.
    pub fn mul(&self, k: &Scalar) -> EdwardsPoint {
        register_curve_counters();
        SCALAR_MULS.incr();
        let row = self.multiples();
        let e = k.radix16();
        (0..63)
            .rev()
            .fold(EdwardsPoint::IDENTITY.add_digit(&row, e[63]), |q, i| {
                q.double_n(4).add_digit(&row, e[i])
            })
    }

    /// The RFC 8032 encoding: `y` little-endian, the sign of `x` in
    /// bit 255.
    pub fn compress(&self) -> [u8; 32] {
        self.encode_with(&self.z.invert())
    }

    fn encode_with(&self, z_inv: &Fe) -> [u8; 32] {
        let mut bytes = self.y.mul(z_inv).to_bytes();
        bytes[31] |= (self.x.mul(z_inv).is_negative() as u8) << 7;
        bytes
    }

    /// [`EdwardsPoint::compress`] for every point at the cost of one
    /// inversion (Montgomery's trick: the running products of the `Z`s,
    /// one inversion of the last, and two multiplications per point back
    /// down).
    pub fn compress_batch(points: &[EdwardsPoint]) -> Vec<[u8; 32]> {
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = Fe::ONE;
        for p in points {
            prefix.push(acc);
            acc = acc.mul(&p.z);
        }
        let mut inv = acc.invert();
        let mut out = vec![[0u8; 32]; points.len()];
        for ((p, before), slot) in points.iter().zip(prefix).zip(out.iter_mut()).rev() {
            *slot = p.encode_with(&inv.mul(&before));
            inv = inv.mul(&p.z);
        }
        out
    }

    /// Decodes an RFC 8032 encoding (§5.1.3). The point may lie outside
    /// the prime-order subgroup.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if `y ≥ p`, no point has this
    /// `y`, or `x = 0` with the sign bit set.
    pub fn decompress(bytes: &[u8; 32]) -> Result<EdwardsPoint, CryptoError> {
        let sign = bytes[31] >> 7 == 1;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        if y.to_bytes() != y_bytes {
            return Err(CryptoError::InvalidOtMessage(
                "point encoding: y is not below p",
            ));
        }
        let yy = y.square();
        let (u, v) = (yy.sub(&Fe::ONE), yy.mul(&D).add(&Fe::ONE));
        let x = Fe::sqrt_ratio(&u, &v).ok_or(CryptoError::InvalidOtMessage(
            "point encoding: not on the curve",
        ))?;
        if sign && x.is_zero() {
            return Err(CryptoError::InvalidOtMessage(
                "point encoding: x = 0 with the sign bit set",
            ));
        }
        let x = if x.is_negative() == sign { x } else { x.neg() };
        Ok(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }
}

/// A comb table for one point `P`: row `i` holds `[1..8]·256^i·P`, so
/// `k·P = Σᵢ eᵢ·16^i·P` for the signed radix-16 digits `eᵢ` of `k` is 64
/// table additions and 4 doublings (the odd digits are summed first and
/// shifted by 16). 32 rows of 8 cached points, ≈40 KB.
#[derive(Debug, Clone)]
pub struct EdwardsTable(Vec<[Cached; 8]>);

impl EdwardsTable {
    /// Builds the table for `p` (7 additions or doublings per row, 8
    /// doublings between rows); counted on `crypto/ec_table_builds`.
    pub fn new(p: &EdwardsPoint) -> EdwardsTable {
        register_curve_counters();
        TABLE_BUILDS.incr();
        let mut rows = Vec::with_capacity(32);
        let mut base = *p;
        for i in 0..32 {
            rows.push(base.multiples());
            if i < 31 {
                base = base.double_n(8);
            }
        }
        EdwardsTable(rows)
    }

    /// `k·P`; counted on `crypto/ec_fixed_base`.
    pub fn mul(&self, k: &Scalar) -> EdwardsPoint {
        register_curve_counters();
        FIXED_BASE_MULS.incr();
        let e = k.radix16();
        let sum = |q: EdwardsPoint, parity: usize| {
            (self.0.iter().enumerate()).fold(q, |q, (i, row)| q.add_digit(row, e[2 * i + parity]))
        };
        sum(sum(EdwardsPoint::IDENTITY, 1).double_n(4), 0)
    }
}

/// The basepoint's comb table, built on first use, once per process.
pub fn basepoint_table() -> &'static EdwardsTable {
    static TABLE: OnceLock<EdwardsTable> = OnceLock::new();
    TABLE.get_or_init(|| EdwardsTable::new(&EdwardsPoint::basepoint()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HashDrbg;
    use pem_bignum::is_prime;

    fn p() -> BigUint {
        (BigUint::one() << 255) - BigUint::from(19u64)
    }

    fn to_big(x: &Fe) -> BigUint {
        let mut be = x.to_bytes();
        be.reverse();
        BigUint::from_bytes_be(&be)
    }

    /// `x mod p` as a field element (any `x < 2^255`).
    fn from_big(x: &BigUint) -> Fe {
        let mut le = [0u8; 32];
        for (out, b) in le.iter_mut().zip(x.to_bytes_be_padded(32).iter().rev()) {
            *out = *b;
        }
        Fe::from_bytes(&le)
    }

    fn inv_mod(x: &BigUint, m: &BigUint) -> BigUint {
        x.mod_inverse(m).expect("invertible")
    }

    /// Affine point on the curve, by BigUint arithmetic.
    type Affine = (BigUint, BigUint);

    fn affine_add(a: &Affine, b: &Affine) -> Affine {
        let p = p();
        let d = to_big(&D);
        let xx = &a.0 * &b.0;
        let yy = &a.1 * &b.1;
        let dxy = &(&(&d * &xx) % &p) * &yy % &p;
        let x = (&(&a.0 * &b.1) + &(&a.1 * &b.0)) % &p;
        let y = (&yy + &xx) % &p;
        let x = &x * &inv_mod(&((&BigUint::one() + &dxy) % &p), &p) % &p;
        let y = &y * &inv_mod(&((&(&BigUint::one() + &p) - &dxy) % &p), &p) % &p;
        (x, y)
    }

    fn affine_mul(pt: &Affine, k: &BigUint) -> Affine {
        let mut acc = (BigUint::zero(), BigUint::one());
        for i in (0..k.bit_length()).rev() {
            acc = affine_add(&acc, &acc);
            if k.bit(i) {
                acc = affine_add(&acc, pt);
            }
        }
        acc
    }

    fn affine_encode(a: &Affine) -> [u8; 32] {
        let mut le = [0u8; 32];
        for (out, b) in le.iter_mut().zip(a.1.to_bytes_be_padded(32).iter().rev()) {
            *out = *b;
        }
        le[31] |= (a.0.is_odd() as u8) << 7;
        le
    }

    fn affine_of(pt: &EdwardsPoint) -> Affine {
        let zi = pt.z.invert();
        (to_big(&pt.x.mul(&zi)), to_big(&pt.y.mul(&zi)))
    }

    /// `k·P` for any integer `k` (not reduced mod ℓ), by double-and-add
    /// on the extended formulas.
    fn mul_big(pt: &EdwardsPoint, k: &BigUint) -> EdwardsPoint {
        (0..k.bit_length())
            .rev()
            .fold(EdwardsPoint::IDENTITY, |acc, i| {
                let acc = acc.double();
                if k.bit(i) {
                    acc.add(pt)
                } else {
                    acc
                }
            })
    }

    #[test]
    fn constants_are_derived() {
        let p = p();
        let big = |x: u64| BigUint::from(x);
        let mut rng = HashDrbg::new(b"ed25519-constants");
        assert!(is_prime(&p, &mut rng));
        // d = −121665/121666.
        let d = &(&p - &big(121665)) * &inv_mod(&big(121666), &p) % &p;
        assert_eq!(to_big(&D), d);
        assert_eq!(to_big(&D2), &(&d + &d) % &p);
        // √−1 = 2^((p−1)/4), and it squares to −1.
        let i = big(2).modpow(&((&p - &BigUint::one()) >> 2), &p);
        assert_eq!(to_big(&SQRT_M1), i);
        assert_eq!(&(&i * &i) % &p, &p - &BigUint::one());
        // B: y = 4/5, x the even root of the curve equation at y.
        let y = &big(4) * &inv_mod(&big(5), &p) % &p;
        assert_eq!(to_big(&B_Y), y);
        let x = to_big(&B_X);
        assert!(x.is_even());
        let (xx, yy) = (&(&x * &x) % &p, &(&y * &y) % &p);
        let lhs = (&(&p - &xx) + &yy) % &p;
        let rhs = (&BigUint::one() + &(&(&d * &xx) % &p * &yy)) % &p;
        assert_eq!(lhs, rhs, "B is on the curve");
        // ℓ: the stated value, prime, and the order of B.
        let l = (BigUint::one() << 252)
            + "27742317777372353535851937790883648493"
                .parse::<BigUint>()
                .expect("decimal");
        assert_eq!(order(), &l);
        assert!(is_prime(&l, &mut rng));
        assert!(mul_big(&EdwardsPoint::basepoint(), &l).is_identity());
        assert!(!EdwardsPoint::basepoint().is_identity());
    }

    #[test]
    fn basepoint_encoding_is_58_then_66s() {
        let mut expected = [0x66u8; 32];
        expected[0] = 0x58;
        assert_eq!(EdwardsPoint::basepoint().compress(), expected);
        assert_eq!(basepoint_table().mul(&Scalar::ONE).compress(), expected);
        let decoded = EdwardsPoint::decompress(&expected).expect("B decodes");
        assert_eq!(decoded, EdwardsPoint::basepoint());
    }

    #[test]
    fn field_ops_match_biguint() {
        let p = p();
        let mut rng = HashDrbg::new(b"ed25519-field");
        let top = (BigUint::one() << 255) - BigUint::one();
        let mut values = vec![
            BigUint::zero(),
            BigUint::one(),
            &p - &BigUint::one(),
            p.clone(),
            top.clone(),
            &p + &BigUint::one(),
        ];
        values.extend((0..24).map(|_| BigUint::random_below(&(&top + &BigUint::one()), &mut rng)));
        for a in &values {
            let fa = from_big(a);
            let ra = a % &p;
            assert_eq!(to_big(&fa), ra, "canonical encoding of {a:?}");
            assert_eq!(to_big(&fa.square()), &(&ra * &ra) % &p, "square {a:?}");
            assert_eq!(to_big(&fa.neg()), (&p - &ra) % &p, "neg {a:?}");
            let inv = to_big(&fa.invert());
            if ra.is_zero() {
                assert!(inv.is_zero());
            } else {
                assert_eq!(inv, inv_mod(&ra, &p), "invert {a:?}");
            }
            // sqrt: a root squares back; a non-residue has none.
            let euler = ra.modpow(&((&p - &BigUint::one()) >> 1), &p);
            match Fe::sqrt_ratio(&fa, &Fe::ONE) {
                Some(r) => {
                    assert!(euler.is_zero() || euler.is_one(), "root of a non-residue");
                    assert_eq!(to_big(&r.square()), ra, "sqrt {a:?}");
                }
                None => assert_eq!(euler, &p - &BigUint::one(), "residue {a:?} had no root"),
            }
            for b in &values {
                let (fb, rb) = (from_big(b), b % &p);
                assert_eq!(to_big(&fa.mul(&fb)), &(&ra * &rb) % &p, "{a:?} * {b:?}");
                assert_eq!(to_big(&fa.add(&fb)), &(&ra + &rb) % &p, "{a:?} + {b:?}");
                assert_eq!(
                    to_big(&fa.sub(&fb)),
                    &(&(&ra + &p) - &rb) % &p,
                    "{a:?} - {b:?}"
                );
            }
        }
    }

    #[test]
    fn scalar_multiplication_matches_affine_double_and_add() {
        let mut rng = HashDrbg::new(b"ed25519-mul");
        let b = EdwardsPoint::basepoint();
        let l = order();
        let mut scalars = vec![
            Scalar::ONE,
            Scalar::from_biguint(&BigUint::from(2u64)),
            Scalar::from_biguint(&BigUint::from(16u64)),
            Scalar::from_biguint(&(l - &BigUint::one())),
            Scalar::from_biguint(&((BigUint::one() << 252) - BigUint::one())),
        ];
        scalars.extend((0..6).map(|_| Scalar::random(&mut rng)));
        // A second base off the basepoint, with its own table.
        let p = b.mul(&Scalar::random(&mut rng));
        let p_table = EdwardsTable::new(&p);
        for k in &scalars {
            let kb = k.to_biguint();
            for (base, table) in [(&b, basepoint_table()), (&p, &p_table)] {
                let expected = affine_encode(&affine_mul(&affine_of(base), &kb));
                assert_eq!(base.mul(k).compress(), expected, "window, k = {kb:?}");
                assert_eq!(table.mul(k).compress(), expected, "comb, k = {kb:?}");
            }
        }
        // Zero: the identity on both paths.
        let zero = Scalar::from_biguint(l);
        assert!(b.mul(&zero).is_identity() && basepoint_table().mul(&zero).is_identity());
        // Batch encoding is per-point encoding.
        let points: Vec<EdwardsPoint> = scalars.iter().map(|k| p.mul(k).double()).collect();
        let each: Vec<[u8; 32]> = points.iter().map(EdwardsPoint::compress).collect();
        assert_eq!(EdwardsPoint::compress_batch(&points), each);
        assert!(EdwardsPoint::compress_batch(&[]).is_empty());
    }

    #[test]
    fn random_scalars_draw_64_bytes_and_stay_below_the_order() {
        let mut rng = HashDrbg::new(b"ed25519-scalar");
        for _ in 0..32 {
            let k = Scalar::random(&mut rng);
            assert!(&k.to_biguint() < order() && !k.to_biguint().is_zero());
        }
        // 64 bytes, whatever they hold: the draw is a fill of exactly 64.
        struct Zeros(usize);
        impl rand::RngCore for Zeros {
            fn next_u32(&mut self) -> u32 {
                unreachable!("draws fill bytes")
            }
            fn next_u64(&mut self) -> u64 {
                unreachable!("draws fill bytes")
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                self.0 += dest.len();
                dest.fill(0);
            }
            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
                self.fill_bytes(dest);
                Ok(())
            }
        }
        let mut zeros = Zeros(0);
        assert_eq!(Scalar::random(&mut zeros), Scalar::ONE, "zero maps to one");
        assert_eq!(zeros.0, 64);
    }

    #[test]
    fn decoding_rejects_each_invalid_class() {
        let rejects = |bytes: [u8; 32], why: &str| {
            assert!(
                matches!(EdwardsPoint::decompress(&bytes), Err(CryptoError::InvalidOtMessage(m)) if m.contains(why)),
                "{bytes:02x?} should fail with {why}"
            );
        };
        // y = p and y = 2^255 − 1: not below p.
        let mut y_p = [0xffu8; 32];
        y_p[0] = 0xed;
        y_p[31] = 0x7f;
        rejects(y_p, "below p");
        rejects([0xff; 32], "below p");
        // y = 1 is the identity (x = 0); with the sign bit it is refused.
        let mut one = [0u8; 32];
        one[0] = 1;
        assert!(EdwardsPoint::decompress(&one)
            .expect("identity")
            .is_identity());
        one[31] = 0x80;
        rejects(one, "x = 0");
        // y = 2: (y² − 1)/(d·y² + 1) is not a square.
        let mut two = [0u8; 32];
        two[0] = 2;
        rejects(two, "not on the curve");
        // Encodings round-trip: canonical y, and the sign picks the root.
        let b = EdwardsPoint::basepoint().compress();
        let mut neg = b;
        neg[31] ^= 0x80;
        let decoded = EdwardsPoint::decompress(&neg).expect("−B decodes");
        assert!(decoded.add(&EdwardsPoint::basepoint()).is_identity());
        assert_eq!(decoded.compress(), neg);
    }

    #[test]
    fn every_small_order_point_clears_to_the_identity() {
        // [ℓ]P for points P off the subgroup: the 8 points of order
        // dividing 8, each found as the torsion part of some P.
        let mut small: Vec<[u8; 32]> = Vec::new();
        let mut rng = HashDrbg::new(b"ed25519-torsion");
        let mut tries = 0;
        while small.len() < 8 {
            tries += 1;
            assert!(
                tries < 2000,
                "found only {} small-order points",
                small.len()
            );
            let mut bytes = [0u8; 32];
            rand::RngCore::fill_bytes(&mut rng, &mut bytes);
            let Ok(p) = EdwardsPoint::decompress(&bytes) else {
                continue;
            };
            let t = mul_big(&p, order()).compress();
            if !small.contains(&t) {
                small.push(t);
            }
        }
        for t in &small {
            let p = EdwardsPoint::decompress(t).expect("a small-order point decodes");
            assert!(mul_big(&p, &BigUint::from(8u64)).is_identity());
            assert!(p.mul_by_cofactor().is_identity(), "{t:02x?}");
        }
        // A subgroup point does not: 8·B ≠ O.
        assert!(!EdwardsPoint::basepoint().mul_by_cofactor().is_identity());
    }
}
