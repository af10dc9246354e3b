//! Montgomery-form modular arithmetic for odd moduli.
//!
//! A [`Montgomery`] context precomputes the constants needed to multiply in
//! Montgomery form and exposes the exponentiation engine the Paillier and
//! OT hot paths bottom out in:
//!
//! * [`Montgomery::modpow`] — sliding fixed-window exponentiation with the
//!   window sized to the exponent, the squaring kernel in the
//!   square chain, and a pure-squaring fast path for power-of-two
//!   exponents (quantized market scalars hit `2^k` constantly);
//! * [`ExpDigits`] / [`Montgomery::modpow_recoded`] — the exponent's
//!   window recoding as a reusable value, so exponentiations under one
//!   fixed exponent (a CRT decryption leg, the OT sender's replies,
//!   Miller–Rabin's witnesses) recode once instead of per call;
//! * [`Montgomery::horner_fold`] — `Π b_j^(2^(shift·(len−1−j)))` as one
//!   Horner pass (square `shift` times, multiply, repeat): how a
//!   Paillier decryptor packs a batch of bounded plaintexts into one;
//! * [`Montgomery::pow_mul`] — `base^exp · factor` fused in the Montgomery
//!   domain (one conversion round-trip instead of two);
//! * [`Montgomery::multi_modpow`] — simultaneous (Shamir/interleaved
//!   window) multi-exponentiation: `Π base_i^exp_i` with one shared
//!   square chain;
//! * [`Montgomery::fixed_base_table`] / [`FixedBasePow`] — comb
//!   precomputation for a base that is exponentiated many times (group
//!   generators, Paillier's `h_s`): after the one-off table build, a full
//!   exponentiation costs only window-count multiplications — no
//!   squarings at all.
//!
//! # The kernel
//!
//! All of the above is `a·b·R⁻¹ mod n` over limb slices, and there is
//! one multiplication and one squaring body (`mul_limbs`, `sqr_limbs`):
//! every loop bound is the limb count, the result accumulates in the
//! output (no scratch), carries live in scalars. The limb count alone
//! picks the algorithm:
//!
//! * below `PRODUCT_SCANNING_LIMBS`, **coarsely integrated operand
//!   scanning (CIOS)** — per limb of `b`, a multiply row into the
//!   accumulator and a reduction row that shifts it down a limb.
//!   Squaring runs the same rows with `b = a`: once the rows unroll, a
//!   dedicated squaring saves nothing at these widths;
//! * from it up, **product scanning** — each output column sums into a
//!   three-word accumulator, so no carry chain runs along a row, and
//!   squaring computes each cross product once. Operand scanning is
//!   bound by that chain's latency once a row outgrows the out-of-order
//!   window: at 64 limbs this is ≈1.4× faster, at 16 limbs ≈10% slower.
//!
//! `mont_mul_into` / `mont_sqr_into` instantiate the body at a
//! compile-time width for the limb counts the protocols produce — `p`,
//! `p²`, `n²` at 128/512/1024/2048-bit Paillier keys and the `test_192`
//! OT group are {1, 2, 3, 4, 8, 16, 32, 64} limbs — so rows unroll and bounds checks vanish. Any other width
//! runs the same body at dynamic width and bumps `bignum/dyn_width_ops`,
//! which tests pin at zero for trading windows: a key size that falls
//! off the list fails a test instead of silently losing 1.2–1.7×. The
//! result is always the canonical residue `< n`, so nothing above the
//! kernel can observe which arm ran.

use crate::biguint::BigUint;
use pem_telemetry::Counter;

/// Exponentiation-kernel op counters — no-ops until a telemetry
/// collector is installed, registered on first context construction.
static MODPOW_OPS: Counter = Counter::new();
/// Exponent bits summed over every ladder run (whichever entry point
/// reached it): the square-chain length a ladder *count* cannot see, so
/// a short exponent that drifts back to full width shows here.
static MODPOW_BITS: Counter = Counter::new();
static POW_MUL_OPS: Counter = Counter::new();
static MULTI_MODPOW_OPS: Counter = Counter::new();
static FIXED_BASE_OPS: Counter = Counter::new();
/// Comb-table *builds* (each ≈ one ladder plus the table products): a
/// per-operation build is a regression, so tests pin this at zero for
/// steady-state windows.
static FIXED_BASE_BUILDS: Counter = Counter::new();
/// Kernel calls at a limb count without a monomorphised arm (see the
/// module doc): tests pin this at zero for trading windows.
static DYN_WIDTH_OPS: Counter = Counter::new();
/// Unit checks ([`BigUint::is_unit_mod`]): one per ciphertext a party
/// validates on receipt, which tests pin per trading window.
static UNIT_CHECKS: Counter = Counter::new();

/// Counts one [`BigUint::is_unit_mod`] call on `crypto/validations`.
pub(crate) fn count_unit_check() {
    register_kernel_counters();
    UNIT_CHECKS.incr();
}

fn register_kernel_counters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pem_telemetry::register_counter("crypto/modpow", &MODPOW_OPS);
        pem_telemetry::register_counter("crypto/validations", &UNIT_CHECKS);
        pem_telemetry::register_counter("crypto/modpow_bits", &MODPOW_BITS);
        pem_telemetry::register_counter("crypto/pow_mul", &POW_MUL_OPS);
        pem_telemetry::register_counter("crypto/multi_modpow", &MULTI_MODPOW_OPS);
        pem_telemetry::register_counter("crypto/fixed_base_pow", &FIXED_BASE_OPS);
        pem_telemetry::register_counter("bignum/fixed_base_builds", &FIXED_BASE_BUILDS);
        pem_telemetry::register_counter("bignum/dyn_width_ops", &DYN_WIDTH_OPS);
    });
}

/// `t + a·b + c` as `(low, high)` limbs; `(2^64 − 1)² + 2·(2^64 − 1)`
/// is `2^128 − 1`, so the sum cannot overflow.
#[inline(always)]
fn mac(t: u64, a: u64, b: u64, c: u64) -> (u64, u64) {
    let s = t as u128 + a as u128 * b as u128 + c as u128;
    (s as u64, (s >> 64) as u64)
}

/// One output column of a product-scanning pass: a three-word
/// accumulator, wide enough for the `2k` double-limb products a column
/// of a `k`-limb Montgomery product sums.
#[derive(Clone, Copy, Default)]
struct Column {
    low: u128,
    high: u64,
}

impl Column {
    /// `self += a·b`.
    #[inline(always)]
    fn add(&mut self, a: u64, b: u64) {
        let (low, carry) = self.low.overflowing_add(a as u128 * b as u128);
        self.low = low;
        self.high += carry as u64;
    }

    /// `self += 2·other`.
    #[inline(always)]
    fn add_doubled(&mut self, other: Column) {
        let (low, carry) = self.low.overflowing_add(other.low << 1);
        self.low = low;
        self.high += carry as u64 + ((other.high << 1) | (other.low >> 127) as u64);
    }

    /// Pops the finished column's limb; what is left carries into the
    /// next column.
    #[inline(always)]
    fn shift(&mut self) -> u64 {
        let limb = self.low as u64;
        self.low = (self.low >> 64) | ((self.high as u128) << 64);
        self.high = 0;
        limb
    }
}

/// Limb count from which the kernel bodies run product scanning instead
/// of operand scanning (measured crossover: see the module doc).
const PRODUCT_SCANNING_LIMBS: usize = 32;

/// CIOS over `k = n.len()`-limb slices: `out + top·2^(64k)` is
/// `a·b·R⁻¹ mod n`, not yet canonical (`< 2n`); returns `top`.
#[inline(always)]
fn operand_scan(a: &[u64], b: &[u64], n: &[u64], n0_inv: u64, out: &mut [u64]) -> u64 {
    let k = n.len();
    out.fill(0);
    let mut top = 0u64;
    for &bi in b {
        // out += a·bi …
        let mut carry = 0u64;
        for j in 0..k {
            (out[j], carry) = mac(out[j], a[j], bi, carry);
        }
        let (high, high_carry) = top.overflowing_add(carry);
        // … then out = (out + m·n) / 2^64, with m zeroing the low limb.
        let m = out[0].wrapping_mul(n0_inv);
        let (_, mut carry) = mac(out[0], m, n[0], 0);
        for j in 1..k {
            (out[j - 1], carry) = mac(out[j], m, n[j], carry);
        }
        let (high, carry) = high.overflowing_add(carry);
        out[k - 1] = high;
        top = high_carry as u64 + carry as u64;
    }
    top
}

/// Product scanning: column `i` of the result sums `column(i)` — the
/// operand products of weight `2^(64i)` — and the reduction products
/// `m_j·n_(i−j)`, where `m_i` zeroes column `i`. `out` holds the `m_j`
/// until column `k + j` replaces each with a result limb. Returns the
/// overflow word, as [`operand_scan`].
#[inline(always)]
fn product_scan(
    n: &[u64],
    n0_inv: u64,
    out: &mut [u64],
    mut column: impl FnMut(&mut Column, usize),
) -> u64 {
    let k = n.len();
    let mut acc = Column::default();
    for i in 0..k {
        column(&mut acc, i);
        for j in 0..i {
            acc.add(out[j], n[i - j]);
        }
        let m = (acc.low as u64).wrapping_mul(n0_inv);
        out[i] = m;
        acc.add(m, n[0]);
        acc.shift();
    }
    for i in k..2 * k {
        column(&mut acc, i);
        for j in i - k + 1..k {
            acc.add(out[j], n[i - j]);
        }
        out[i - k] = acc.shift();
    }
    acc.low as u64
}

/// The conditional subtraction both scans end in: `out + top·2^(64k)` is
/// `< 2n`, so at most one `n` comes off.
#[inline(always)]
fn reduce_once(out: &mut [u64], top: u64, n: &[u64]) {
    let k = n.len();
    let ge = top != 0
        || match (0..k).rev().find(|&j| out[j] != n[j]) {
            Some(j) => out[j] > n[j],
            None => true,
        };
    if ge {
        let mut borrow = false;
        for j in 0..k {
            let (d, b1) = out[j].overflowing_sub(n[j]);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            out[j] = d;
            borrow = b1 | b2;
        }
        debug_assert_eq!(top, borrow as u64);
    }
}

/// The multiplication body: `out = a·b·R⁻¹ mod n`, canonical; every
/// slice is `n.len()` limbs and `a`, `b` are `< n`. `K` is that limb
/// count as a compile-time constant, or 0 to read it from `n` — the
/// monomorphised arms and the dynamic arm of `at_width!` instantiate
/// this one function.
fn mul_limbs<const K: usize>(a: &[u64], b: &[u64], n: &[u64], n0_inv: u64, out: &mut [u64]) {
    let k = if K == 0 { n.len() } else { K };
    let (a, b, n, out) = (&a[..k], &b[..k], &n[..k], &mut out[..k]);
    let top = if k < PRODUCT_SCANNING_LIMBS {
        operand_scan(a, b, n, n0_inv, out)
    } else {
        product_scan(n, n0_inv, out, |acc, i| {
            for j in (i + 1).saturating_sub(k)..k.min(i + 1) {
                acc.add(a[j], b[i - j]);
            }
        })
    };
    reduce_once(out, top, n);
}

/// The squaring body: [`mul_limbs`] with `b = a`, bit for bit.
fn sqr_limbs<const K: usize>(a: &[u64], n: &[u64], n0_inv: u64, out: &mut [u64]) {
    let k = if K == 0 { n.len() } else { K };
    let (a, n, out) = (&a[..k], &n[..k], &mut out[..k]);
    let top = if k < PRODUCT_SCANNING_LIMBS {
        operand_scan(a, a, n, n0_inv, out)
    } else {
        product_scan(n, n0_inv, out, |acc, i| {
            // a_j·a_(i−j) for j < i − j once, doubled; the diagonal on
            // even columns.
            let mut cross = Column::default();
            for j in (i + 1).saturating_sub(k)..i.div_ceil(2) {
                cross.add(a[j], a[i - j]);
            }
            acc.add_doubled(cross);
            if i % 2 == 0 {
                acc.add(a[i / 2], a[i / 2]);
            }
        })
    };
    reduce_once(out, top, n);
}

/// Instantiates a kernel body at `$k` limbs: at compile-time width when
/// `$k` is a limb count the protocols produce (the module doc derives
/// the list), at dynamic width — and counted — otherwise.
macro_rules! at_width {
    ($k:expr => $body:ident $args:tt) => {
        match $k {
            1 => $body::<1> $args,
            2 => $body::<2> $args,
            3 => $body::<3> $args,
            4 => $body::<4> $args,
            8 => $body::<8> $args,
            16 => $body::<16> $args,
            32 => $body::<32> $args,
            64 => $body::<64> $args,
            _ => {
                DYN_WIDTH_OPS.incr();
                $body::<0> $args
            }
        }
    };
}

/// A reusable Montgomery-multiplication context for a fixed odd modulus.
///
/// # Example
///
/// ```
/// use pem_bignum::{BigUint, Montgomery};
///
/// let modulus = BigUint::from(1000003u64); // odd
/// let ctx = Montgomery::new(modulus.clone()).expect("odd modulus");
/// let base = BigUint::from(7u64);
/// let exp = BigUint::from(12u64);
/// assert_eq!(ctx.modpow(&base, &exp), BigUint::from(7u64).modpow_naive(&exp, &modulus));
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: BigUint,
    /// Modulus limb count; all internal representations use exactly `k` limbs.
    k: usize,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n` where `R = 2^{64k}`, used to enter Montgomery form.
    r2: Vec<u64>,
    /// `R mod n`: the Montgomery representation of one.
    r1: Vec<u64>,
}

/// The windowed recoding of an exponent, detached from any modulus.
///
/// Recoding walks every bit of the exponent once; for a single
/// exponentiation that cost disappears into the noise, but the protocols
/// exponentiate many bases under one exponent (`c^{p-1}` and `c^{q-1}`
/// per decrypted ciphertext, `B^a` per OT reply). Recode once, reuse
/// everywhere: [`Montgomery::modpow_recoded`] accepts the recoding in
/// place of the raw exponent and produces bit-identical results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpDigits {
    /// Window width in bits.
    w: usize,
    /// Window digits, most-significant window first; each `< 2^w`.
    digits: Vec<u8>,
    /// Bit length of the recoded exponent.
    bits: usize,
    /// `true` when the exponent has exactly one set bit (`2^{bits-1}`):
    /// the whole exponentiation collapses to a squaring chain.
    power_of_two: bool,
}

impl ExpDigits {
    /// The window width whose table-build cost amortizes over `bits`
    /// exponent bits: tiny exponents (quantized market scalars) take a
    /// plain square-and-multiply ladder, full-width Paillier exponents a
    /// 5-bit table.
    fn window_bits(bits: usize) -> usize {
        match bits {
            0..=7 => 1,
            8..=23 => 2,
            24..=95 => 3,
            96..=767 => 4,
            _ => 5,
        }
    }

    /// Recodes `exp` with the width `ExpDigits::window_bits` picks for
    /// its bit length — exactly the windows [`Montgomery::modpow`] uses.
    pub fn recode(exp: &BigUint) -> ExpDigits {
        let bits = exp.bit_length();
        ExpDigits::recode_with_width(exp, ExpDigits::window_bits(bits))
    }

    /// Recodes `exp` with an explicit window width (the simultaneous
    /// multi-exponentiation aligns every exponent on one shared grid).
    fn recode_with_width(exp: &BigUint, w: usize) -> ExpDigits {
        debug_assert!((1..=8).contains(&w));
        let bits = exp.bit_length();
        let windows = bits.div_ceil(w);
        let mut digits = Vec::with_capacity(windows);
        for win in (0..windows).rev() {
            let mut idx = 0u8;
            for b in 0..w {
                let bit_pos = win * w + (w - 1 - b);
                idx <<= 1;
                if bit_pos < bits && exp.bit(bit_pos) {
                    idx |= 1;
                }
            }
            digits.push(idx);
        }
        ExpDigits {
            w,
            digits,
            bits,
            power_of_two: exp.is_power_of_two(),
        }
    }

    /// `true` for the recoding of zero.
    pub fn is_zero(&self) -> bool {
        self.bits == 0
    }

    /// Bit length of the recoded exponent.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The window width the recoding was built with.
    pub fn window(&self) -> usize {
        self.w
    }
}

impl Montgomery {
    /// Creates a context for an odd modulus `n > 1`; `None` if `n` is even
    /// or `<= 1`.
    pub fn new(n: BigUint) -> Option<Montgomery> {
        if n.is_even() || n.is_one() || n.is_zero() {
            return None;
        }
        register_kernel_counters();
        let k = n.limbs().len();
        let n0 = n.limbs()[0];
        // Newton's iteration doubles correct bits each round: 6 rounds
        // suffice for 64 bits starting from the 3-bit-correct seed `n0`.
        let mut inv = n0; // correct mod 2^3 for odd n0
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        let r = BigUint::one() << (64 * k);
        let r1 = pad_to(&(&r % &n), k);
        let r2_big = (&r * &r) % &n;
        let r2 = pad_to(&r2_big, k);
        Some(Montgomery {
            n,
            k,
            n0_inv,
            r2,
            r1,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Montgomery multiplication: returns `a * b * R^{-1} mod n`.
    /// Inputs and output are `k`-limb vectors (values `< n`).
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        self.mont_mul_into(a, b, &mut out);
        out
    }

    /// [`Montgomery::mont_mul`] into a caller-owned `k`-limb buffer: the
    /// kernel accumulates in `out`, so a group operation allocates
    /// nothing and the exponentiation ladders ping-pong two buffers.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        at_width!(self.k => mul_limbs(a, b, self.n.limbs(), self.n0_inv, out))
    }

    /// Montgomery squaring: returns `a * a * R^{-1} mod n`.
    fn mont_sqr(&self, a: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        self.mont_sqr_into(a, &mut out);
        out
    }

    /// [`Montgomery::mont_sqr`] into a caller-owned `k`-limb buffer. The
    /// square chain is where a windowed exponentiation spends ~80% of
    /// its multiplies.
    fn mont_sqr_into(&self, a: &[u64], out: &mut [u64]) {
        at_width!(self.k => sqr_limbs(a, self.n.limbs(), self.n0_inv, out))
    }

    /// Converts into Montgomery form (`a * R mod n`).
    fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let reduced = a % &self.n;
        self.mont_mul(&pad_to(&reduced, self.k), &self.r2)
    }

    /// Converts out of Montgomery form.
    #[allow(clippy::wrong_self_convention)] // standard Montgomery terminology
    fn from_mont(&self, a: &[u64]) -> BigUint {
        let mut one = vec![0u64; self.k];
        one[0] = 1;
        BigUint::from_limbs(self.mont_mul(a, &one))
    }

    /// `a * b mod n`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// `a² mod n` via the squaring kernel (cheaper than `mul(a, a)` from
    /// 32 limbs up, the same below).
    pub fn sqr(&self, a: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        self.from_mont(&self.mont_sqr(&am))
    }

    /// Bench hook behind `crypto_kernels`' `mont_mul_ns` / `mont_sqr_ns`
    /// rows: `muls` chained kernel multiplications by `a`, then `sqrs`
    /// chained squarings, with the domain conversions paid once.
    #[doc(hidden)]
    pub fn kernel_chain(&self, a: &BigUint, muls: usize, sqrs: usize) -> BigUint {
        let am = self.to_mont(a);
        let (mut acc, mut tmp) = (am.clone(), vec![0u64; self.k]);
        for _ in 0..muls {
            self.mont_mul_into(&acc, &am, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.sqr_chain(&mut acc, &mut tmp, sqrs);
        self.from_mont(&acc)
    }

    /// Squares `acc` in place `count` times, ping-ponging through `tmp`.
    fn sqr_chain(&self, acc: &mut Vec<u64>, tmp: &mut Vec<u64>, count: usize) {
        for _ in 0..count {
            self.mont_sqr_into(acc, tmp);
            std::mem::swap(acc, tmp);
        }
    }

    /// Fills the flat power table `table[d·k..(d+1)·k] = base^d`
    /// (Montgomery form) for every `d` it has room for; entry 0 is one.
    fn fill_pow_table(&self, base_m: &[u64], table: &mut [u64]) {
        let k = self.k;
        table[..k].copy_from_slice(&self.r1);
        table[k..2 * k].copy_from_slice(base_m);
        for i in 2..table.len() / k {
            let (lo, hi) = table.split_at_mut(i * k);
            self.mont_mul_into(&lo[(i - 1) * k..], base_m, &mut hi[..k]);
        }
    }

    /// The windowed ladder — the only one: `base^exp` in Montgomery
    /// form (`digits` not zero), on a `2^w`-entry window table (entry `d`
    /// at `[d·k, (d+1)·k)`) built for this base. Power-of-two exponents
    /// (`2^{bits-1}`: quantized tick sizes, `mul_plain` by `2^k`) need no
    /// table and no window bookkeeping, just the squaring chain.
    fn ladder(&self, base_m: &[u64], digits: &ExpDigits) -> Vec<u64> {
        debug_assert!(!digits.is_zero());
        MODPOW_BITS.add(digits.bits as u64);
        let k = self.k;
        let mut tmp = vec![0u64; k];
        if digits.power_of_two {
            let mut acc = base_m.to_vec();
            self.sqr_chain(&mut acc, &mut tmp, digits.bits - 1);
            return acc;
        }
        let mut table = vec![0u64; k << digits.w];
        self.fill_pow_table(base_m, &mut table);
        let mut acc = self.r1.clone();
        let mut started = false;
        for &d in &digits.digits {
            if started {
                self.sqr_chain(&mut acc, &mut tmp, digits.w);
            }
            if d != 0 {
                let d = d as usize;
                self.mont_mul_into(&acc, &table[d * k..(d + 1) * k], &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
                started = true;
            }
            // A zero window needs nothing beyond the squarings above
            // (or, before the first set bit, nothing at all).
        }
        acc
    }

    /// `base^exp mod n` using sliding fixed-window exponentiation with
    /// the window (and its `2^w`-entry table) sized to the exponent's
    /// actual bit length, the squaring kernel in the square
    /// chain, and a table-free squaring chain when the exponent is a
    /// power of two.
    ///
    /// ```
    /// use pem_bignum::{BigUint, Montgomery};
    /// let ctx = Montgomery::new(BigUint::from(97u64)).expect("odd");
    /// assert_eq!(ctx.modpow(&BigUint::from(5u64), &BigUint::from(96u64)), BigUint::one());
    /// ```
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        self.modpow_recoded(base, &ExpDigits::recode(exp))
    }

    /// [`Montgomery::modpow`] over a prebuilt exponent recoding —
    /// bit-identical results; the recode walk is paid once per exponent
    /// instead of once per call (Miller–Rabin's witnesses, the OT
    /// sender's replies, each CRT decryption leg).
    pub fn modpow_recoded(&self, base: &BigUint, digits: &ExpDigits) -> BigUint {
        MODPOW_OPS.incr();
        if digits.is_zero() {
            return BigUint::one();
        }
        self.from_mont(&self.ladder(&self.to_mont(base), digits))
    }

    /// Horner fold of `bases` at a fixed shift: `acc ← acc^(2^shift) · b`
    /// per base, so the result is `Π b_j^(2^(shift·(len−1−j)))` — the
    /// first base carries the highest power. One pass through the
    /// Montgomery domain: `shift` squarings and one multiplication per
    /// base after the first. An empty fold is one. Not a ladder, so
    /// nothing is counted in `crypto/modpow`.
    ///
    /// Under Paillier this packs plaintexts: folding `Enc(m_j)` yields
    /// `Enc(Σ m_j · 2^(shift·(len−1−j)))`.
    pub fn horner_fold<'a>(
        &self,
        bases: impl IntoIterator<Item = &'a BigUint>,
        shift: usize,
    ) -> BigUint {
        let mut bases = bases.into_iter();
        let Some(first) = bases.next() else {
            return BigUint::one();
        };
        let (mut acc, mut tmp) = (self.to_mont(first), vec![0u64; self.k]);
        for base in bases {
            self.sqr_chain(&mut acc, &mut tmp, shift);
            self.mont_mul_into(&acc, &self.to_mont(base), &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.from_mont(&acc)
    }

    /// Fused `base^exp · factor mod n`: the multiplication happens in the
    /// Montgomery domain, saving a conversion round-trip (and a separate
    /// reduction of `factor`) over `mul(&modpow(base, exp), factor)`.
    ///
    /// Backs the fused homomorphic ops (`PublicKey::affine`): a
    /// `mul_plain` + `add_plain` chain is one `pow_mul`.
    pub fn pow_mul(&self, base: &BigUint, exp: &BigUint, factor: &BigUint) -> BigUint {
        POW_MUL_OPS.incr();
        let digits = ExpDigits::recode(exp);
        let factor_m = self.to_mont(factor);
        if digits.is_zero() {
            return self.from_mont(&factor_m);
        }
        let acc = self.ladder(&self.to_mont(base), &digits);
        self.from_mont(&self.mont_mul(&acc, &factor_m))
    }

    /// Simultaneous multi-exponentiation: `Π base_i^exp_i mod n` with a
    /// *single* shared square chain (Shamir's trick, interleaved
    /// windows). Two fused 2048-bit exponentiations cost ~60% of two
    /// sequential ones; the saving grows with the number of bases.
    pub fn multi_modpow(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        MULTI_MODPOW_OPS.incr();
        // Drop zero exponents up front: they contribute a factor of one.
        let live: Vec<&(&BigUint, &BigUint)> = pairs.iter().filter(|(_, e)| !e.is_zero()).collect();
        let max_bits = live.iter().map(|(_, e)| e.bit_length()).max().unwrap_or(0);
        if max_bits == 0 {
            return BigUint::one();
        }
        if live.len() == 1 {
            return self.modpow(live[0].0, live[0].1);
        }
        // One shared window grid: every exponent recoded at the width the
        // longest one picks, padded to the same window count.
        let w = ExpDigits::window_bits(max_bits);
        let windows = max_bits.div_ceil(w);
        let k = self.k;
        let recoded: Vec<(Vec<u64>, ExpDigits)> = live
            .iter()
            .map(|(b, e)| {
                let mut d = ExpDigits::recode_with_width(e, w);
                let pad = windows - d.digits.len();
                if pad > 0 {
                    let mut padded = vec![0u8; pad];
                    padded.extend_from_slice(&d.digits);
                    d.digits = padded;
                }
                let mut table = vec![0u64; k << w];
                self.fill_pow_table(&self.to_mont(b), &mut table);
                (table, d)
            })
            .collect();

        let mut acc = self.r1.clone();
        let mut tmp = vec![0u64; k];
        let mut started = false;
        for win in 0..windows {
            if started {
                self.sqr_chain(&mut acc, &mut tmp, w);
            }
            for (table, digits) in &recoded {
                let d = digits.digits[win] as usize;
                if d != 0 {
                    self.mont_mul_into(&acc, &table[d * k..(d + 1) * k], &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                    started = true;
                }
            }
        }
        if !started {
            return BigUint::one();
        }
        self.from_mont(&acc)
    }

    /// Builds a comb (fixed-base windowed) table for `base`, good for
    /// exponents up to `max_bits` bits. The build costs about one
    /// full-width exponentiation plus the table multiplications; every
    /// [`FixedBasePow::pow`] after that skips the square chain entirely.
    pub fn fixed_base_table(&self, base: &BigUint, max_bits: usize) -> FixedBasePow {
        FIXED_BASE_BUILDS.incr();
        // Width 4 keeps the table compact (15 entries per window) while
        // cutting the per-pow multiplication count to bits/4; going wider
        // pays off only past ~10^4 reuses, which no caller reaches.
        let w = 4usize;
        let max_bits = max_bits.max(1);
        let windows = max_bits.div_ceil(w);
        let mut tables = Vec::with_capacity(windows);
        // cur = base^(2^(w·i)) in Montgomery form, advanced by squaring.
        let mut cur = self.to_mont(base);
        for i in 0..windows {
            let mut t: Vec<Vec<u64>> = Vec::with_capacity((1 << w) - 1);
            t.push(cur.clone()); // d = 1
            for _ in 2..(1 << w) {
                let prev = t.last().expect("seeded with d=1");
                t.push(self.mont_mul(prev, &cur));
            }
            if i + 1 < windows {
                for _ in 0..w {
                    cur = self.mont_sqr(&cur);
                }
            }
            tables.push(t);
        }
        FixedBasePow {
            ctx: self.clone(),
            base: base.clone(),
            w,
            tables,
            max_bits,
        }
    }
}

/// A comb-precomputed fixed base: `tables[i][d-1] = base^(d·2^{w·i})` in
/// Montgomery form, so `base^e = Π_i tables[i][e_i - 1]` — one
/// multiplication per non-zero window and **no squarings**.
///
/// Built by [`Montgomery::fixed_base_table`]; produces bit-identical
/// results to [`Montgomery::modpow`] for every exponent (exponents wider
/// than the table was sized for fall back to `modpow`).
#[derive(Debug, Clone)]
pub struct FixedBasePow {
    ctx: Montgomery,
    base: BigUint,
    w: usize,
    tables: Vec<Vec<Vec<u64>>>,
    max_bits: usize,
}

impl FixedBasePow {
    /// The base the table was built for.
    pub fn base(&self) -> &BigUint {
        &self.base
    }

    /// The modulus the table reduces by.
    pub fn modulus(&self) -> &BigUint {
        self.ctx.modulus()
    }

    /// Largest exponent bit length served from the table.
    pub fn max_bits(&self) -> usize {
        self.max_bits
    }

    /// `base^exp` in Montgomery form, or `None` when the exponent
    /// overflows the table (callers fall back to the generic ladder).
    fn pow_mont(&self, exp: &BigUint) -> Option<Vec<u64>> {
        if exp.bit_length() > self.max_bits {
            return None;
        }
        let mut acc: Option<Vec<u64>> = None;
        let mut tmp = vec![0u64; self.ctx.k];
        for (i, table) in self.tables.iter().enumerate() {
            let mut d = 0usize;
            for b in (0..self.w).rev() {
                d <<= 1;
                if exp.bit(i * self.w + b) {
                    d |= 1;
                }
            }
            if d != 0 {
                match acc.as_mut() {
                    None => acc = Some(table[d - 1].clone()),
                    Some(a) => {
                        self.ctx.mont_mul_into(a, &table[d - 1], &mut tmp);
                        std::mem::swap(a, &mut tmp);
                    }
                }
            }
        }
        Some(acc.unwrap_or_else(|| self.ctx.r1.clone()))
    }

    /// `base^exp mod n` — identical to `ctx.modpow(base, exp)`, at the
    /// cost of one multiplication per non-zero exponent window.
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        FIXED_BASE_OPS.incr();
        match self.pow_mont(exp) {
            Some(m) => self.ctx.from_mont(&m),
            None => self.ctx.modpow(&self.base, exp),
        }
    }
}

/// Pads a value's limbs to exactly `k` entries.
fn pad_to(v: &BigUint, k: usize) -> Vec<u64> {
    let mut out = v.limbs().to_vec();
    assert!(out.len() <= k, "value wider than modulus");
    out.resize(k, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_or_trivial_moduli() {
        assert!(Montgomery::new(BigUint::from(10u64)).is_none());
        assert!(Montgomery::new(BigUint::zero()).is_none());
        assert!(Montgomery::new(BigUint::one()).is_none());
        assert!(Montgomery::new(BigUint::from(9u64)).is_some());
    }

    #[test]
    fn mul_matches_naive() {
        let n = BigUint::from(1_000_003u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let a = BigUint::from(999_999u64);
        let b = BigUint::from(123_456u64);
        let expected = (&a * &b) % &n;
        assert_eq!(ctx.mul(&a, &b), expected);
    }

    #[test]
    fn modpow_fermat_small() {
        // Fermat's little theorem for p = 1_000_003 (prime).
        let p = BigUint::from(1_000_003u64);
        let ctx = Montgomery::new(p.clone()).expect("odd");
        let a = BigUint::from(2u64);
        let e = &p - &BigUint::one();
        assert_eq!(ctx.modpow(&a, &e), BigUint::one());
    }

    #[test]
    fn modpow_multi_limb() {
        // Odd 192-bit modulus; compare against the naive implementation.
        let n = (BigUint::one() << 190) + BigUint::from(12345u64); // odd
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let base = (BigUint::one() << 150) + BigUint::from(987654321u64);
        let exp = BigUint::from(65537u64);
        assert_eq!(ctx.modpow(&base, &exp), base.modpow_naive(&exp, &n));
    }

    #[test]
    fn modpow_exponent_zero_and_one() {
        let n = BigUint::from(101u64);
        let ctx = Montgomery::new(n).expect("odd");
        let a = BigUint::from(42u64);
        assert_eq!(ctx.modpow(&a, &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.modpow(&a, &BigUint::one()), a);
    }

    #[test]
    fn base_larger_than_modulus() {
        let n = BigUint::from(97u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let a = BigUint::from(12_345u64);
        assert_eq!(
            ctx.modpow(&a, &BigUint::from(5u64)),
            (a % &n).modpow_naive(&BigUint::from(5u64), &n)
        );
    }

    #[test]
    fn sqr_matches_mul_across_widths() {
        // Single- and multi-limb moduli; values spanning zero to just
        // below the modulus.
        let moduli = [
            BigUint::from(1_000_003u64),
            (BigUint::one() << 190) + BigUint::from(12345u64),
            (BigUint::one() << 509) + BigUint::from(9u64),
        ];
        for n in moduli {
            let ctx = Montgomery::new(n.clone()).expect("odd");
            let mut a = BigUint::from(3u64);
            for _ in 0..24 {
                // Walk a pseudo-random orbit mod n so high limbs get
                // exercised: a <- a² + 1 mod n.
                assert_eq!(ctx.sqr(&a), ctx.mul(&a, &a), "n={n:?} a={a:?}");
                a = (ctx.sqr(&a) + BigUint::one()) % &n;
            }
            assert_eq!(ctx.sqr(&BigUint::zero()), BigUint::zero());
            assert_eq!(ctx.sqr(&(&n - &BigUint::one())), BigUint::one());
        }
    }

    #[test]
    fn modpow_window_boundaries() {
        // Exponent bit lengths straddling every window-width threshold
        // must all agree with the naive ladder.
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let base = BigUint::from(0xDEAD_BEEFu64);
        for bits in [1usize, 7, 8, 23, 24, 95, 96, 767, 768] {
            // exp = 2^(bits-1) (+ 0b1011 when it fits): full length,
            // mixed windows.
            let mut exp = BigUint::one() << (bits - 1);
            if bits > 1 {
                exp += BigUint::from(0b1011u64) % (BigUint::one() << (bits - 1));
            }
            assert_eq!(exp.bit_length(), bits, "constructed width");
            assert_eq!(
                ctx.modpow(&base, &exp),
                base.modpow_naive(&exp, &n),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn exponent_with_zero_windows() {
        // Exponent 2^65 exercises long runs of zero windows (and now the
        // power-of-two squaring chain).
        let n = BigUint::from(1_000_003u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let a = BigUint::from(3u64);
        let e = BigUint::one() << 65;
        assert_eq!(ctx.modpow(&a, &e), a.modpow_naive(&e, &n));
    }

    #[test]
    fn power_of_two_exponents_match_ladder() {
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let base = BigUint::from(0xFEED_F00Du64);
        for t in [0usize, 1, 2, 5, 31, 64, 100, 255] {
            let e = BigUint::one() << t;
            assert_eq!(
                ctx.modpow(&base, &e),
                base.modpow_naive(&e, &n),
                "exp=2^{t}"
            );
        }
    }

    #[test]
    fn recoded_modpow_matches_plain() {
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let exps = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(0b1011_0110u64),
            (BigUint::one() << 150) + BigUint::from(987_654_321u64),
            BigUint::one() << 189,
        ];
        for e in &exps {
            let digits = ExpDigits::recode(e);
            for b in [2u64, 3, 0xDEAD_BEEF] {
                let base = BigUint::from(b);
                assert_eq!(
                    ctx.modpow_recoded(&base, &digits),
                    ctx.modpow(&base, e),
                    "base={b} exp={e:?}"
                );
            }
        }
    }

    #[test]
    fn pow_mul_fuses_correctly() {
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let base = BigUint::from(7_777_777u64);
        let factor = (BigUint::one() << 120) + BigUint::from(13u64);
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(123_456_789u64),
            BigUint::one() << 77,
        ] {
            assert_eq!(
                ctx.pow_mul(&base, &e, &factor),
                ctx.mul(&ctx.modpow(&base, &e), &factor),
                "exp={e:?}"
            );
        }
    }

    #[test]
    fn horner_fold_matches_powers_of_two() {
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let bases: Vec<BigUint> = [3u64, 0xDEAD_BEEF, 1, 0xFFFF_FFFF_FFFF_FFFF]
            .iter()
            .map(|&b| BigUint::from(b))
            .chain([&n + &BigUint::from(7u64)]) // wider than the modulus
            .collect();
        for shift in [0usize, 1, 13, 98] {
            for len in 0..=bases.len() {
                let mut expected = BigUint::one();
                for (j, b) in bases[..len].iter().enumerate() {
                    let e = BigUint::one() << (shift * (len - 1 - j));
                    expected = ctx.mul(&expected, &ctx.modpow(b, &e));
                }
                assert_eq!(
                    ctx.horner_fold(&bases[..len], shift),
                    expected,
                    "shift={shift} len={len}"
                );
            }
        }
    }

    #[test]
    fn multi_modpow_matches_sequential() {
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let b1 = BigUint::from(3u64);
        let b2 = (BigUint::one() << 100) + BigUint::from(17u64);
        let b3 = BigUint::from(0xABCDEFu64);
        let e1 = (BigUint::one() << 180) + BigUint::from(999u64);
        let e2 = BigUint::from(65_537u64);
        let e3 = BigUint::zero();
        let expected = ctx.mul(
            &ctx.mul(&ctx.modpow(&b1, &e1), &ctx.modpow(&b2, &e2)),
            &ctx.modpow(&b3, &e3),
        );
        assert_eq!(
            ctx.multi_modpow(&[(&b1, &e1), (&b2, &e2), (&b3, &e3)]),
            expected
        );
        // Degenerate shapes.
        assert_eq!(ctx.multi_modpow(&[]), BigUint::one());
        assert_eq!(ctx.multi_modpow(&[(&b1, &e3)]), BigUint::one());
        assert_eq!(ctx.multi_modpow(&[(&b1, &e2)]), ctx.modpow(&b1, &e2));
    }

    #[test]
    fn fixed_base_matches_modpow() {
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let base = BigUint::from(5u64);
        let table = ctx.fixed_base_table(&base, 192);
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(2u64),
            BigUint::from(0xFFFF_FFFFu64),
            (BigUint::one() << 191) + BigUint::from(123u64),
            BigUint::one() << 64,
        ] {
            assert_eq!(table.pow(&e), ctx.modpow(&base, &e), "exp={e:?}");
        }
        // Exponent wider than the table: falls back, stays correct.
        let wide = BigUint::one() << 200;
        assert_eq!(table.pow(&wide), ctx.modpow(&base, &wide));
    }

    /// Every limb count with a monomorphised kernel arm.
    const FIXED_WIDTHS: [usize; 8] = [1, 2, 3, 4, 8, 16, 32, 64];
    /// Off-grid limb counts on both sides of `PRODUCT_SCANNING_LIMBS`:
    /// the dynamic arm.
    const DYNAMIC_WIDTHS: [usize; 5] = [5, 7, 17, 33, 65];

    fn all_widths() -> impl Iterator<Item = usize> {
        FIXED_WIDTHS.into_iter().chain(DYNAMIC_WIDTHS)
    }

    /// Reference `a·b·R⁻¹ mod n` through plain `BigUint` arithmetic.
    fn reference_mont_mul(a: &BigUint, b: &BigUint, n: &BigUint) -> BigUint {
        let r = BigUint::one() << (64 * n.limbs().len());
        let r_inv = r.mod_inverse(n).expect("R is a power of two, n is odd");
        (&(a * b) * &r_inv) % n
    }

    /// Checks the multiplication and the squaring kernel on `a`, `b`
    /// (any values; reduced mod `n` here) against the reference.
    fn assert_kernels_match(n: &BigUint, a: &BigUint, b: &BigUint) {
        let ctx = Montgomery::new(n.clone()).expect("odd modulus");
        let (a, b) = (a % n, b % n);
        let (al, bl) = (pad_to(&a, ctx.k), pad_to(&b, ctx.k));
        let k = ctx.k;
        assert_eq!(
            BigUint::from_limbs(ctx.mont_mul(&al, &bl)),
            reference_mont_mul(&a, &b, n),
            "mul at {k} limbs: n={n:?} a={a:?} b={b:?}"
        );
        assert_eq!(
            BigUint::from_limbs(ctx.mont_sqr(&al)),
            reference_mont_mul(&a, &a, n),
            "sqr at {k} limbs: n={n:?} a={a:?}"
        );
    }

    /// An odd `k`-limb modulus from `k` arbitrary limbs.
    fn modulus_from(limbs: &[u64]) -> BigUint {
        let mut l = limbs.to_vec();
        l[0] |= 1;
        let top = l.last_mut().expect("k >= 1");
        *top = (*top).max(2); // k limbs exactly, and n > 1 at one limb
        BigUint::from_limbs(l)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn kernels_match_reference_at_every_width(
            n in proptest::collection::vec(proptest::prelude::any::<u64>(), 65),
            a in proptest::collection::vec(proptest::prelude::any::<u64>(), 65),
            b in proptest::collection::vec(proptest::prelude::any::<u64>(), 65),
        ) {
            for k in all_widths() {
                assert_kernels_match(
                    &modulus_from(&n[..k]),
                    &BigUint::from_limbs(a[..k].to_vec()),
                    &BigUint::from_limbs(b[..k].to_vec()),
                );
            }
        }
    }

    #[test]
    fn kernels_carry_out_of_the_top_limb() {
        // n = 2^(64k) − c with a = b = n − 1: the unreduced result
        // (a·b + m·n) / R overflows k limbs, so the conditional
        // subtraction runs with the extra word set.
        for k in all_widths() {
            for c in [1u64, 3, 12345] {
                let r = BigUint::one() << (64 * k);
                let n = &r - &BigUint::from(c);
                let a = &n - &BigUint::one();
                // The case reaches the path it is here for: with
                // m = a·b·(−n⁻¹) mod R, (a·b + m·n) / R >= R.
                let neg_n_inv = &r - &n.mod_inverse(&r).expect("n odd");
                let ab = &a * &a;
                let m = (&(&ab % &r) * &neg_n_inv) % &r;
                let unreduced = (&ab + &(&m * &n)).div_rem(&r).0;
                assert!(unreduced >= r, "k={k} c={c}: no carry out");
                assert_kernels_match(&n, &a, &a);
            }
        }
    }

    #[test]
    fn kernels_on_modp_shaped_moduli() {
        // The MODP primes have all-ones top and bottom limbs, so
        // n0_inv = 1 and every reduction multiplier is the low limb itself.
        let modp_1024 = BigUint::from_str_radix(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
             020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
             4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
             EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
            16,
        )
        .expect("hex");
        let mut moduli = vec![modp_1024];
        for k in all_widths().filter(|&k| k >= 2) {
            let mut l: Vec<u64> = (0..k as u64)
                .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            l[0] = u64::MAX;
            l[k - 1] = u64::MAX;
            moduli.push(BigUint::from_limbs(l));
        }
        for n in moduli {
            assert_eq!(Montgomery::new(n.clone()).expect("odd").n0_inv, 1);
            let a = &n - &BigUint::from(2u64);
            let b = (&n >> 1) + BigUint::from(12345u64);
            assert_kernels_match(&n, &a, &b);
            assert_kernels_match(&n, &b, &a);
        }
    }

    #[test]
    fn kernels_on_degenerate_operands() {
        for k in all_widths() {
            let n = modulus_from(&vec![0xD1B5_4A32_D192_ED03; k]);
            let zero = BigUint::zero();
            let one = BigUint::one();
            // Interior zero limbs: only the top and bottom limbs set.
            let mut sparse = vec![0u64; k];
            sparse[0] = 0xDEAD_BEEF;
            sparse[k - 1] = 1;
            let sparse = BigUint::from_limbs(sparse);
            let dense = &n - &one;
            for (a, b) in [
                (&zero, &dense),
                (&dense, &zero),
                (&one, &dense),
                (&dense, &one),
                (&sparse, &dense),
                (&sparse, &sparse),
            ] {
                assert_kernels_match(&n, a, b);
            }
        }
        // The smallest one-limb moduli.
        for n in [3u64, 5, u64::MAX] {
            let n = BigUint::from(n);
            assert_kernels_match(&n, &BigUint::from(2u64), &(&n - &BigUint::one()));
        }
    }
}
