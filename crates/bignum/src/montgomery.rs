//! Montgomery-form modular arithmetic for odd moduli.
//!
//! A [`Montgomery`] context precomputes the constants needed to multiply in
//! Montgomery form (CIOS reduction) and exposes the exponentiation engine
//! the Paillier and OT hot paths bottom out in:
//!
//! * [`Montgomery::modpow`] — sliding fixed-window exponentiation with the
//!   window sized to the exponent, a dedicated squaring kernel in the
//!   square chain, and a pure-squaring fast path for power-of-two
//!   exponents (quantized market scalars hit `2^k` constantly);
//! * [`ExpDigits`] / [`Montgomery::modpow_recoded`] — the exponent's
//!   window recoding as a reusable value, so a batch of exponentiations
//!   under one exponent (every `r^n` of a randomizer pool, every CRT
//!   decryption leg) recodes once instead of per call;
//! * [`Montgomery::pow_mul`] — `base^exp · factor` fused in the Montgomery
//!   domain (one conversion round-trip instead of two);
//! * [`Montgomery::multi_modpow`] — simultaneous (Shamir/interleaved
//!   window) multi-exponentiation: `Π base_i^exp_i` with one shared
//!   square chain;
//! * [`Montgomery::fixed_base_table`] / [`FixedBasePow`] — comb
//!   precomputation for a base that is exponentiated many times (group
//!   generators, Pedersen `g`/`h`): after the one-off table build, a full
//!   exponentiation costs only window-count multiplications — no
//!   squarings at all.

use crate::biguint::BigUint;
use pem_telemetry::Counter;

/// Exponentiation-kernel op counters — no-ops until a telemetry
/// collector is installed, registered on first context construction.
static MODPOW_OPS: Counter = Counter::new();
static POW_MUL_OPS: Counter = Counter::new();
static MULTI_MODPOW_OPS: Counter = Counter::new();
static FIXED_BASE_OPS: Counter = Counter::new();
/// Comb-table *builds* (each ≈ one ladder plus the table products): a
/// per-operation build is a regression, so tests pin this at zero for
/// steady-state windows.
static FIXED_BASE_BUILDS: Counter = Counter::new();

fn register_kernel_counters() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pem_telemetry::register_counter("crypto/modpow", &MODPOW_OPS);
        pem_telemetry::register_counter("crypto/pow_mul", &POW_MUL_OPS);
        pem_telemetry::register_counter("crypto/multi_modpow", &MULTI_MODPOW_OPS);
        pem_telemetry::register_counter("crypto/fixed_base_pow", &FIXED_BASE_OPS);
        pem_telemetry::register_counter("bignum/fixed_base_builds", &FIXED_BASE_BUILDS);
    });
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
/// exponentiate *batches* under one exponent (`r^n` per pool slot,
/// `c^{p-1}` per ciphertext of a decryption fan-in). Recode once, reuse
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

    /// `true` when the running value `(hi, lo)` is `>= n` — the
    /// conditional-subtraction test of both reduction kernels, done in
    /// place (no normalized copy, no allocation).
    fn ge_n(&self, hi: u64, lo: &[u64]) -> bool {
        if hi != 0 {
            return true;
        }
        let n = self.n.limbs();
        for j in (0..self.k).rev() {
            if lo[j] != n[j] {
                return lo[j] > n[j];
            }
        }
        true // equal
    }

    /// Montgomery multiplication: returns `a * b * R^{-1} mod n`.
    /// Inputs and output are `k`-limb vectors (values `< n`).
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        let mut t = vec![0u64; 2 * self.k + 1];
        self.mont_mul_into(a, b, &mut out, &mut t);
        out
    }

    /// [`Montgomery::mont_mul`] into caller-owned buffers: `out` holds
    /// `k` limbs, `t` at least `2k + 1` (the double-width accumulator).
    /// Separated operand scanning (SOS): the full product lands at its
    /// final offsets and one reduction sweep follows — no per-iteration
    /// shifting — and the exponentiation ladders reuse the buffers, so
    /// a group operation allocates nothing.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        debug_assert_eq!(out.len(), k);
        debug_assert!(t.len() > 2 * k);
        let t = &mut t[..2 * k + 1];
        t.fill(0);
        // 1. Schoolbook product into the double-width accumulator
        //    (zipped: the hot multiply-accumulate has no bounds checks).
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            let (t_win, t_hi) = t[i..].split_at_mut(k);
            for (tj, &bj) in t_win.iter_mut().zip(b) {
                let s = *tj as u128 + ai as u128 * bj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            // The running sum fits k+1 limbs per row: one carry limb.
            t_hi[0] = t_hi[0].wrapping_add(carry as u64);
        }
        // 2. Montgomery reduction sweep + conditional subtraction.
        self.mont_reduce(t, out);
    }

    /// The shared tail of both SOS kernels: reduces the double-width
    /// accumulator `t` (2k+1 limbs) in place and writes the canonical
    /// `< n` result to `out`.
    fn mont_reduce(&self, t: &mut [u64], out: &mut [u64]) {
        let k = self.k;
        let n = self.n.limbs();
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0_inv);
            let mut carry: u128 = 0;
            let (t_win, t_hi) = t[i..].split_at_mut(k);
            for (tj, &nj) in t_win.iter_mut().zip(n) {
                let s = *tj as u128 + m as u128 * nj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let mut idx = 0;
            while carry > 0 {
                let s = t_hi[idx] as u128 + carry;
                t_hi[idx] = s as u64;
                carry = s >> 64;
                idx += 1;
            }
        }
        // The reduced value lives in t[k..=2k] and is < 2n: at most one
        // subtraction.
        let ge = self.ge_n(t[2 * k], &t[k..2 * k]);
        out.copy_from_slice(&t[k..2 * k]);
        if ge {
            let mut borrow = 0u64;
            for (limb, &nj) in out.iter_mut().zip(n) {
                let (d, b1) = limb.overflowing_sub(nj);
                let (d, b2) = d.overflowing_sub(borrow);
                *limb = d;
                borrow = b1 as u64 + b2 as u64;
            }
            debug_assert_eq!(t[2 * k].wrapping_sub(borrow), 0);
        }
    }

    /// Dedicated Montgomery squaring: returns `a * a * R^{-1} mod n`.
    ///
    /// The square chain of [`Montgomery::modpow`] spends almost all of its
    /// time here, and squaring needs only half the cross products of a
    /// general multiplication: `a_i·a_j` terms with `i < j` are computed
    /// once and doubled, then the diagonal `a_i²` terms are added, and a
    /// separate reduction sweep (SOS) folds in the modulus.
    fn mont_sqr(&self, a: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        let mut t = vec![0u64; 2 * self.k + 1];
        self.mont_sqr_into(a, &mut out, &mut t);
        out
    }

    /// [`Montgomery::mont_sqr`] into caller-owned buffers: `out` holds
    /// `k` limbs, `t` at least `2k + 1` (the double-width accumulator).
    /// The square chain is where a windowed exponentiation spends ~80%
    /// of its multiplies — this is the allocation-free form it runs on.
    fn mont_sqr_into(&self, a: &[u64], out: &mut [u64], t: &mut [u64]) {
        let k = self.k;
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(out.len(), k);
        debug_assert!(t.len() > 2 * k);
        let t = &mut t[..2 * k + 1];
        t.fill(0);
        // 1. Cross products `a_i·a_j` (i < j) into a 2k-limb accumulator
        //    (one slack limb for transient carries).
        for i in 0..k {
            let ai = a[i];
            if ai == 0 {
                continue;
            }
            // t[2i+1 .. i+k] += ai * a[i+1 .. k], zipped (no bounds
            // checks in the hot multiply-accumulate).
            let mut carry: u128 = 0;
            let (t_win, t_hi) = t[2 * i + 1..].split_at_mut(k - i - 1);
            for (tj, &aj) in t_win.iter_mut().zip(&a[i + 1..k]) {
                let s = *tj as u128 + ai as u128 * aj as u128 + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let mut idx = 0;
            while carry > 0 {
                let s = t_hi[idx] as u128 + carry;
                t_hi[idx] = s as u64;
                carry = s >> 64;
                idx += 1;
            }
        }
        // 2. Double every cross product (shift left one bit) …
        let mut prev = 0u64;
        for limb in t.iter_mut() {
            let cur = *limb;
            *limb = (cur << 1) | (prev >> 63);
            prev = cur;
        }
        // 3. … and add the diagonal `a_i²` terms.
        let mut carry = 0u64;
        for i in 0..k {
            let d = a[i] as u128 * a[i] as u128;
            let (s0, c0) = t[2 * i].overflowing_add(d as u64);
            let (s0, c0b) = s0.overflowing_add(carry);
            t[2 * i] = s0;
            let (s1, c1) = t[2 * i + 1].overflowing_add((d >> 64) as u64);
            let (s1, c1b) = s1.overflowing_add(c0 as u64 + c0b as u64);
            t[2 * i + 1] = s1;
            carry = c1 as u64 + c1b as u64;
        }
        if carry > 0 {
            t[2 * k] = t[2 * k].wrapping_add(carry);
        }
        // 4. Montgomery reduction of the double-width square — the
        //    same SOS sweep the multiplication kernel ends in.
        self.mont_reduce(t, out);
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

    /// `a² mod n` via the dedicated squaring path (~25% cheaper than
    /// `mul(a, a)` at Paillier widths).
    pub fn sqr(&self, a: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        self.from_mont(&self.mont_sqr(&am))
    }

    /// The `1`-result of an empty exponentiation (`BigUint::one()` except
    /// for the degenerate modulus `n = 1`, where everything is zero —
    /// unreachable through `Montgomery::new`, kept for defense in depth).
    fn one_result(&self) -> BigUint {
        if self.n.is_one() {
            BigUint::zero()
        } else {
            BigUint::one()
        }
    }

    /// Builds the odd-power table `table[d] = base^d` (Montgomery form)
    /// for `d ∈ [0, 2^w)`; `table[0]` is one.
    fn pow_table(&self, base_m: &[u64], w: usize) -> Vec<Vec<u64>> {
        let mut table = Vec::with_capacity(1 << w);
        table.push(self.r1.clone()); // 1 in Montgomery form
        table.push(base_m.to_vec());
        for i in 2..(1 << w) {
            let prev: &Vec<u64> = &table[i - 1];
            table.push(self.mont_mul(prev, base_m));
        }
        table
    }

    /// The windowed ladder over a prebuilt power table: returns
    /// `base^exp` in Montgomery form (`digits` must not be zero). The
    /// whole chain ping-pongs between two `k`-limb buffers and one
    /// shared accumulator — zero allocations per group operation.
    fn ladder(&self, table: &[Vec<u64>], digits: &ExpDigits) -> Vec<u64> {
        debug_assert!(!digits.is_zero());
        let mut acc = self.r1.clone();
        let mut tmp = vec![0u64; self.k];
        let mut t = vec![0u64; 2 * self.k + 1];
        let mut started = false;
        for &d in &digits.digits {
            if started {
                for _ in 0..digits.w {
                    self.mont_sqr_into(&acc, &mut tmp, &mut t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            if d != 0 {
                self.mont_mul_into(&acc, &table[d as usize], &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
                started = true;
            }
            // A zero window needs nothing beyond the squarings above
            // (or, before the first set bit, nothing at all).
        }
        acc
    }

    /// `base^exp` in Montgomery form for a non-zero recoding, dispatching
    /// between the squaring-only chain (power-of-two exponents) and the
    /// windowed ladder.
    fn pow_mont(&self, base_m: Vec<u64>, digits: &ExpDigits) -> Vec<u64> {
        debug_assert!(!digits.is_zero());
        if digits.power_of_two {
            // exp = 2^{bits-1}: no table, no window bookkeeping — just
            // the squaring chain. Quantized tick sizes (`mul_plain` by
            // `2^k`) land here constantly.
            let mut acc = base_m;
            let mut tmp = vec![0u64; self.k];
            let mut t = vec![0u64; 2 * self.k + 1];
            for _ in 0..digits.bits - 1 {
                self.mont_sqr_into(&acc, &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            }
            return acc;
        }
        let table = self.pow_table(&base_m, digits.w);
        self.ladder(&table, digits)
    }

    /// `base^exp mod n` using sliding fixed-window exponentiation with
    /// the window (and its `2^w`-entry table) sized to the exponent's
    /// actual bit length, the dedicated squaring kernel in the square
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
            return self.one_result();
        }
        self.modpow_recoded(base, &ExpDigits::recode(exp))
    }

    /// [`Montgomery::modpow`] over a prebuilt exponent recoding —
    /// bit-identical results; the recode walk is paid once per exponent
    /// instead of once per call.
    pub fn modpow_recoded(&self, base: &BigUint, digits: &ExpDigits) -> BigUint {
        MODPOW_OPS.incr();
        if digits.is_zero() {
            return self.one_result();
        }
        let base_m = self.to_mont(base);
        self.from_mont(&self.pow_mont(base_m, digits))
    }

    /// Allocates the scratch a batch of [`Montgomery::modpow_scratch`]
    /// calls shares: the `2^w`-entry window-table storage plus the
    /// ladder's accumulator and ping-pong buffers, sized for `digits`'
    /// window width.
    pub fn pow_scratch(&self, digits: &ExpDigits) -> PowScratch {
        PowScratch {
            // One flat allocation: entry `d` lives at `[d·k, (d+1)·k)`.
            // Four allocations per scratch total, and the ladder walks
            // a contiguous table.
            table: vec![0u64; (1 << digits.w) * self.k],
            acc: vec![0u64; self.k],
            tmp: vec![0u64; self.k],
            t: vec![0u64; 2 * self.k + 1],
        }
    }

    /// [`Montgomery::modpow_recoded`] with every working buffer — the
    /// window table included — reused from `scratch` instead of
    /// reallocated: a fixed-exponent batch (decryption fan-ins,
    /// randomizer precompute) rebuilds the table's *values* per base
    /// but pays its ~`2^w` allocations exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was built for a different context shape
    /// (window width or limb count).
    pub fn modpow_scratch(
        &self,
        base: &BigUint,
        digits: &ExpDigits,
        scratch: &mut PowScratch,
    ) -> BigUint {
        if digits.is_zero() {
            return self.one_result();
        }
        let k = self.k;
        assert_eq!(scratch.acc.len(), k, "scratch from another context");
        let PowScratch { table, acc, tmp, t } = scratch;
        let base_m = self.to_mont(base);
        if digits.power_of_two {
            acc.copy_from_slice(&base_m);
            for _ in 0..digits.bits - 1 {
                self.mont_sqr_into(acc, tmp, t);
                std::mem::swap(acc, tmp);
            }
            return self.from_mont(acc);
        }
        assert_eq!(
            table.len(),
            k << digits.w,
            "scratch sized for another window width"
        );
        // Rebuild the power table in place (entry d at [d·k, (d+1)·k)).
        table[..k].copy_from_slice(&self.r1);
        table[k..2 * k].copy_from_slice(&base_m);
        for i in 2..(1usize << digits.w) {
            let (lo, hi) = table.split_at_mut(i * k);
            self.mont_mul_into(&lo[(i - 1) * k..], &base_m, &mut hi[..k], t);
        }
        // The ladder, on the reused buffers.
        acc.copy_from_slice(&self.r1);
        let mut started = false;
        for &d in &digits.digits {
            if started {
                for _ in 0..digits.w {
                    self.mont_sqr_into(acc, tmp, t);
                    std::mem::swap(acc, tmp);
                }
            }
            if d != 0 {
                let d = d as usize;
                self.mont_mul_into(acc, &table[d * k..(d + 1) * k], tmp, t);
                std::mem::swap(acc, tmp);
                started = true;
            }
        }
        self.from_mont(acc)
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
        let base_m = self.to_mont(base);
        let pow = self.pow_mont(base_m, &digits);
        self.from_mont(&self.mont_mul(&pow, &factor_m))
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
            return self.one_result();
        }
        if live.len() == 1 {
            return self.modpow(live[0].0, live[0].1);
        }
        // One shared window grid: every exponent recoded at the width the
        // longest one picks, padded to the same window count.
        let w = ExpDigits::window_bits(max_bits);
        let windows = max_bits.div_ceil(w);
        let recoded: Vec<(Vec<Vec<u64>>, ExpDigits)> = live
            .iter()
            .map(|(b, e)| {
                let mut d = ExpDigits::recode_with_width(e, w);
                let pad = windows - d.digits.len();
                if pad > 0 {
                    let mut padded = vec![0u8; pad];
                    padded.extend_from_slice(&d.digits);
                    d.digits = padded;
                }
                (self.pow_table(&self.to_mont(b), w), d)
            })
            .collect();

        let mut acc = self.r1.clone();
        let mut tmp = vec![0u64; self.k];
        let mut t = vec![0u64; 2 * self.k + 1];
        let mut started = false;
        for win in 0..windows {
            if started {
                for _ in 0..w {
                    self.mont_sqr_into(&acc, &mut tmp, &mut t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            for (table, digits) in &recoded {
                let d = digits.digits[win];
                if d != 0 {
                    self.mont_mul_into(&acc, &table[d as usize], &mut tmp, &mut t);
                    std::mem::swap(&mut acc, &mut tmp);
                    started = true;
                }
            }
        }
        if !started {
            return self.one_result();
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

/// Reusable working storage for a batch of same-exponent
/// exponentiations: the window table plus the ladder buffers of
/// [`Montgomery::modpow_scratch`]. Build once per (context, exponent
/// recoding) with [`Montgomery::pow_scratch`], reuse for every base.
#[derive(Debug, Clone)]
pub struct PowScratch {
    /// Flat window table: entry `d` occupies limbs `[d·k, (d+1)·k)`.
    table: Vec<u64>,
    acc: Vec<u64>,
    tmp: Vec<u64>,
    t: Vec<u64>,
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
        let mut t = vec![0u64; 2 * self.ctx.k + 1];
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
                        self.ctx.mont_mul_into(a, &table[d - 1], &mut tmp, &mut t);
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

    /// Fused two-base fixed-base exponentiation:
    /// `self.base^exp · other.base^other_exp mod n` in one pass through
    /// the Montgomery domain — the Pedersen commitment kernel
    /// (`g^v · h^r`).
    ///
    /// # Panics
    ///
    /// Panics if the two tables were built over different moduli.
    pub fn pow_mul(&self, exp: &BigUint, other: &FixedBasePow, other_exp: &BigUint) -> BigUint {
        FIXED_BASE_OPS.incr();
        assert_eq!(
            self.ctx.modulus(),
            other.ctx.modulus(),
            "fixed-base tables over different moduli"
        );
        match (self.pow_mont(exp), other.pow_mont(other_exp)) {
            (Some(a), Some(b)) => self.ctx.from_mont(&self.ctx.mont_mul(&a, &b)),
            // Oversized exponent: fall back to the simultaneous
            // two-base ladder (one shared square chain) — correctness
            // first, and still ~40% cheaper than two full ladders.
            _ => self
                .ctx
                .multi_modpow(&[(&self.base, exp), (&other.base, other_exp)]),
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
    fn modpow_scratch_matches_plain_across_batch() {
        // One scratch, many bases and repeated use — the fixed-exponent
        // batch shape (decrypt fan-ins, randomizer precompute).
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        for e in [
            BigUint::zero(),
            BigUint::from(5u64),
            BigUint::one() << 100,
            (BigUint::one() << 150) + BigUint::from(987_654_321u64),
        ] {
            let digits = ExpDigits::recode(&e);
            let mut scratch = ctx.pow_scratch(&digits);
            for b in [2u64, 3, 7, 0xDEAD_BEEF, 0xFFFF_FFFF_FFFF_FFFF] {
                let base = BigUint::from(b);
                assert_eq!(
                    ctx.modpow_scratch(&base, &digits, &mut scratch),
                    ctx.modpow(&base, &e),
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

    #[test]
    fn fixed_base_pow_mul_fuses() {
        let n = (BigUint::one() << 190) + BigUint::from(12345u64);
        let ctx = Montgomery::new(n.clone()).expect("odd");
        let g = BigUint::from(5u64);
        let h = BigUint::from(1_000_033u64);
        let tg = ctx.fixed_base_table(&g, 192);
        let th = ctx.fixed_base_table(&h, 192);
        let (ev, er) = (
            BigUint::from(123_456_789u64),
            (BigUint::one() << 170) + BigUint::from(7u64),
        );
        assert_eq!(
            tg.pow_mul(&ev, &th, &er),
            ctx.mul(&ctx.modpow(&g, &ev), &ctx.modpow(&h, &er))
        );
        // Oversized exponent falls back through the generic path.
        let wide = BigUint::one() << 300;
        assert_eq!(
            tg.pow_mul(&wide, &th, &er),
            ctx.mul(&ctx.modpow(&g, &wide), &ctx.modpow(&h, &er))
        );
    }
}
