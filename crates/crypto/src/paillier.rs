//! The Paillier cryptosystem (Paillier, Eurocrypt '99).
//!
//! Semantically secure public-key encryption with an additive homomorphism:
//! `Enc(a) · Enc(b) = Enc(a + b)` and `Enc(a)^k = Enc(k·a)` (all mod `n²`).
//! PEM uses it for every aggregation in Protocols 2–4.
//!
//! We use the standard `g = n + 1` simplification, under which
//! `Enc(m; r) = (1 + m·n) · r^n mod n²` and decryption is
//! `m = L(c^λ mod n²) · μ mod n` with `L(x) = (x-1)/n` and
//! `μ = λ^{-1} mod n`.
//!
//! Signed values are carried with the usual balanced encoding: a value
//! `v < 0` is represented as `n − |v|`; [`PublicKey::encode_i128`] /
//! [`PrivateKey::decrypt_i128`] hide the bookkeeping.
//!
//! # Hot-path architecture
//!
//! Every homomorphic operation reduces mod `n²`, so [`PublicKey`] keeps
//! one shared [`Montgomery`] context behind `Arc<OnceLock<…>>`: clones
//! share it, operations *borrow* it (no per-op allocation), and a key
//! rebuilt from its serialized fields lazily reconstructs it exactly
//! once on first use. A [`PrivateKey`] exists only as the output of
//! [`Keypair::generate`] and holds the CRT context built there: an
//! unbounded decryption ([`PrivateKey::decrypt`]) is two half-width
//! exponentiations mod `p²`/`q²` with Garner recombination — ~2.3–3.1×
//! the classic full-width `c^λ mod n²` path at the paper's key sizes
//! (measured in `BENCH_crypto.json`), bit-identical output. The classic
//! path survives as the reference [`PrivateKey::decrypt_classic`].
//!
//! **Bounded plaintexts decrypt on one leg.** Every plaintext a protocol
//! opens is small: a masked total or `Σk` below `2^128`
//! ([`PrivateKey::decrypt_u128`]), a signed `Σd` or coupling claim of at
//! most 127 bits ([`PrivateKey::decrypt_i128`]), Protocol 4's 98-bit
//! ratios ([`PrivateKey::decrypt_packed`]). When a plaintext is known to
//! lie below `2^b` and `|p| ≥ b + 64`, it equals `m mod p`, so the p-leg
//! alone recovers it — one half-width ladder, no q-leg and no Garner
//! step: half the ladders of [`PrivateKey::decrypt`], bit-identical
//! output. The 64 bits between the bound and `|p|` are the guard: a
//! corrupted ciphertext decrypts to a value uniform mod `p`, which lands
//! below the bound with odds of about `2^−64`, so it is still a typed
//! error. Toy keys (`|p| < b + 64`, e.g. 128-bit keys) keep both legs.
//! Protocol 4's packs are sized to the leg: [`PrivateKey::decrypt_packed`]
//! Horner-folds `⌊(|p| − 64)/w⌋` ciphertexts into one (9 at 2048-bit keys,
//! 4 at 1024) and decrypts that once. [`PrivateKey::decrypt_batch`], a
//! fan-in of unbounded plaintexts, decrypts one ciphertext after another
//! on both legs. Fused chains (`mul_plain` + `add_plain`) run through
//! [`PublicKey::affine`], one pass through the Montgomery domain.
//!
//! **Encryption has one randomizer lane, `h_s^x`.** At key generation
//! the owner draws `y ∈ Z_n*`, sets `h = −y² mod n` and publishes
//! `h_s = h^n mod n²` as a serialized field of the public key (computed
//! once, on the owner's half-width CRT legs). Every randomizer — in
//! [`PublicKey::try_encrypt`], [`PublicKey::precompute_randomizers`] and
//! whatever pools them — is `h_s^x = (h^x)^n` for a fresh `x` of
//! [`short_exponent_bits`] bits, served by a [`FixedBasePow`] comb table
//! of exactly that width: ≈40 multiplications at 1024-bit keys, ≈56 at
//! 2048, no squarings, no gcd. The table sits in a third shared cell
//! beside the Montgomery context and is built **by the first encryption
//! under the key**, never at key generation (≈154 KB per 1024-bit key,
//! ≈430 KB per 2048-bit key): only keys somebody encrypts under hold
//! one, and a key rebuilt from the wire builds it once. `h_s^x` is an
//! `n`-th residue, so ciphertexts stay textbook Paillier ciphertexts —
//! decryption, homomorphisms and validation are untouched; what the
//! lane adds to DCR is short-exponent indistinguishability in the
//! subgroup generated by `h` (Damgård–Jurik–Nielsen). The classic
//! uniform `r^n` survives as one reference function,
//! [`PublicKey::try_encrypt_classic`], which nothing selects at run time.

use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_bignum::{BigUint, ExpDigits, FixedBasePow, Montgomery};

use crate::error::CryptoError;
use crate::{short_exponent, short_exponent_bits};

/// Bits of the decryption modulus (`p` on one leg, `n` on both) that a
/// bounded decryption leaves above its bound, so that a plaintext
/// uniform modulo it lands there.
const GUARD_BITS: usize = 64;

/// A Paillier public key: `n`, the published randomizer base
/// `h_s = h^n mod n²`, cached `n²`, and the shared, lazily (re)built
/// Montgomery context and `h_s` comb table for `Z_{n²}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PublicKey {
    n: BigUint,
    n2: BigUint,
    h_s: BigUint,
    /// Shared across clones; skipped by serde and rebuilt exactly once
    /// on first use after a round-trip.
    #[serde(skip)]
    mont_n2: Arc<OnceLock<Montgomery>>,
    /// Comb table of `h_s` over [`short_exponent_bits`] bits. Same
    /// sharing as the Montgomery context, but never preloaded: the
    /// first encryption under the key builds it.
    #[serde(skip)]
    h_table: Arc<OnceLock<FixedBasePow>>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.h_s == other.h_s
    }
}

impl Eq for PublicKey {}

/// Precomputed constants for CRT decryption under one prime `r`: the
/// half-width Montgomery context for `r²`, the exponent `r−1` (with its
/// window recoding, shared by every decryption under the key), and
/// `h_r = L_r(g^{r−1} mod r²)^{-1} mod r`.
#[derive(Debug, Clone)]
struct CrtLeg {
    prime: BigUint,
    mont_r2: Montgomery,
    r1_digits: ExpDigits,
    h: BigUint,
}

impl CrtLeg {
    fn build(prime: &BigUint, n: &BigUint) -> Option<CrtLeg> {
        let r2 = prime * prime;
        let mont_r2 = Montgomery::new(r2.clone())?;
        let r1 = prime - &BigUint::one();
        let r1_digits = ExpDigits::recode(&r1);
        // g = n + 1; L_r(g^{r−1} mod r²) is invertible mod r for valid
        // Paillier primes (it equals (r−1)·(n/r) mod r).
        let g = (n + &BigUint::one()) % &r2;
        let l = l_function(&mont_r2.modpow_recoded(&g, &r1_digits), prime);
        let h = l.mod_inverse(prime)?;
        Some(CrtLeg {
            prime: prime.clone(),
            mont_r2,
            r1_digits,
            h,
        })
    }

    /// One half of a CRT decryption: `L_r(c^{r−1} mod r²) · h_r mod r`.
    fn decrypt(&self, c: &BigUint) -> BigUint {
        let x = self.mont_r2.modpow_recoded(c, &self.r1_digits);
        (&l_function(&x, &self.prime) * &self.h) % &self.prime
    }
}

/// The full CRT context: both decryption legs plus the Garner constant
/// `p^{-1} mod q` for recombining plaintexts mod `n`.
#[derive(Debug, Clone)]
struct CrtContext {
    p_leg: CrtLeg,
    q_leg: CrtLeg,
    p_inv_q: BigUint,
}

impl CrtContext {
    fn build(p: &BigUint, q: &BigUint, n: &BigUint) -> Option<CrtContext> {
        Some(CrtContext {
            p_leg: CrtLeg::build(p, n)?,
            q_leg: CrtLeg::build(q, n)?,
            p_inv_q: p.mod_inverse(q)?,
        })
    }

    /// Decrypts to the canonical representative in `[0, n)` via Garner:
    /// `m = m_p + p·((m_q − m_p)·p^{-1} mod q)`.
    fn decrypt(&self, c: &BigUint) -> BigUint {
        let mp = self.p_leg.decrypt(c);
        let mq = self.q_leg.decrypt(c);
        self.garner(mp, mq)
    }

    fn garner(&self, mp: BigUint, mq: BigUint) -> BigUint {
        let q = &self.q_leg.prime;
        let mp_mod_q = &mp % q;
        let u = (&((q + &mq) - &mp_mod_q) * &self.p_inv_q) % q;
        mp + &u * &self.p_leg.prime
    }

    /// The owner's `h^n mod n²` (run once per key, for `h_s`): two
    /// half-width exponentiations mod `p²` / `q²` and Garner
    /// recombination over the ciphertext space — the same group element
    /// the full-width [`Montgomery::modpow`] would produce, at roughly
    /// half the cost. `None` only on degenerate factors (`p = q`).
    fn pow_n(&self, h: &BigUint, n: &BigUint) -> Option<BigUint> {
        let (p2, q2) = (self.p_leg.mont_r2.modulus(), self.q_leg.mont_r2.modulus());
        let digits = ExpDigits::recode(n);
        let xp = self.p_leg.mont_r2.modpow_recoded(h, &digits);
        let xq = self.q_leg.mont_r2.modpow_recoded(h, &digits);
        let u = (&((q2 + &xq) - &(&xp % q2)) * &p2.mod_inverse(q2)?) % q2;
        Some(xp + &u * p2)
    }
}

/// `L(x) = (x − 1) / m` — exact by construction for valid inputs.
fn l_function(x: &BigUint, m: &BigUint) -> BigUint {
    (x - &BigUint::one()) / m
}

/// A Paillier private key: the CRT context every decryption runs on,
/// plus `λ = lcm(p-1, q-1)` and `μ = λ^{-1} mod n` for the classic
/// reference path. Built only by [`Keypair::generate`]; never
/// serialized.
#[derive(Debug, Clone)]
pub struct PrivateKey {
    lambda: BigUint,
    mu: BigUint,
    public: PublicKey,
    crt: CrtContext,
}

/// A key pair produced by [`Keypair::generate`].
#[derive(Debug, Clone)]
pub struct Keypair {
    public: PublicKey,
    private: PrivateKey,
}

/// A Paillier ciphertext: an element of `Z_{n²}*`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext(pub(crate) BigUint);

impl Ciphertext {
    /// Raw group element (for wire encoding).
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Rebuilds from a raw group element (validated lazily at use).
    pub fn from_biguint(v: BigUint) -> Self {
        Ciphertext(v)
    }
}

/// A precomputed encryption randomizer: the `n`-th residue `h_s^x mod n²`
/// for a fresh short `x`.
///
/// The randomizer is the dominant cost of a Paillier encryption (one
/// fixed-base exponentiation, ≈40–56 multiplications); the message
/// factor `1 + m·n` costs a single multiplication. Randomizers therefore
/// can be batch-generated *off the critical path* and consumed one per
/// encryption — same ciphertext distribution, amortized hot path. Each
/// is bound to the key it was generated under and must be used **at most
/// once** (reuse links ciphertexts of the same party).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Randomizer {
    rn: BigUint,
}

impl Randomizer {
    /// The raw precomputed group element `h_s^x mod n²`.
    pub fn as_biguint(&self) -> &BigUint {
        &self.rn
    }
}

impl Keypair {
    /// Generates a key pair with an `n` of exactly `n_bits` bits.
    ///
    /// `n_bits` is the *key size* reported in the paper's evaluation
    /// (512/1024/2048). Primes `p`, `q` are `n_bits/2`-bit random primes
    /// with their top two bits set (so `n` always has full width),
    /// regenerated until `gcd(pq, (p-1)(q-1)) = 1`. After them the owner
    /// draws `y ∈ Z_n*` and publishes `h_s = (−y²)^n mod n²`, the base
    /// of every encryption randomizer under this key (see the module
    /// docs); the `h_s` comb table is *not* built here.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits < 16` (too small for the `L`-function arithmetic
    /// and any meaningful message space).
    pub fn generate<R: Rng + ?Sized>(n_bits: usize, rng: &mut R) -> Keypair {
        assert!(n_bits >= 16, "paillier keys below 16 bits are unusable");
        loop {
            let p = BigUint::gen_rsa_prime(n_bits / 2, rng);
            let q = BigUint::gen_rsa_prime(n_bits.div_ceil(2), rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            debug_assert_eq!(n.bit_length(), n_bits, "top two bits of p, q are set");
            let one = BigUint::one();
            let p1 = &p - &one;
            let q1 = &q - &one;
            if !n.gcd(&(&p1 * &q1)).is_one() {
                continue;
            }
            let lambda = p1.lcm(&q1);
            let mu = match lambda.mod_inverse(&n) {
                Some(mu) => mu,
                None => continue,
            };
            // h = −y² mod n, h_s = h^n mod n² on the CRT legs the owner
            // decrypts with anyway. A degenerate `h_s` (1, reachable only
            // on toy widths) is redrawn with the key.
            let crt = match CrtContext::build(&p, &q, &n) {
                Some(crt) => crt,
                None => continue,
            };
            let y = BigUint::random_coprime(&n, rng);
            let h = &n - &(&(&y * &y) % &n);
            let public = match crt.pow_n(&h, &n).map(|h_s| PublicKey::from_parts(n, h_s)) {
                Some(Ok(public)) => public,
                _ => continue,
            };
            let private = PrivateKey {
                lambda,
                mu,
                public: public.clone(),
                crt,
            };
            return Keypair { public, private };
        }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The private half.
    pub fn private(&self) -> &PrivateKey {
        &self.private
    }
}

impl PublicKey {
    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// The ciphertext-space modulus `n²`.
    pub fn n_squared(&self) -> &BigUint {
        &self.n2
    }

    /// Key size in bits (bit length of `n`).
    pub fn bits(&self) -> usize {
        self.n.bit_length()
    }

    /// The shared `Z_{n²}` Montgomery context — borrowed, never cloned.
    /// Round-trips drop the cached context; the first use after one
    /// rebuilds it exactly once (all clones share the rebuilt context).
    fn mont(&self) -> &Montgomery {
        self.mont_n2
            .get_or_init(|| Montgomery::new(self.n2.clone()).expect("n² is odd"))
    }

    /// The published randomizer base `h_s = h^n mod n²`.
    pub fn h_s(&self) -> &BigUint {
        &self.h_s
    }

    /// The shared comb table of `h_s`, sized to exactly the short
    /// exponent width — built by the first encryption under the key
    /// (per clone family), reused by every later one.
    fn h_table(&self) -> &FixedBasePow {
        self.h_table.get_or_init(|| {
            self.mont()
                .fixed_base_table(&self.h_s, short_exponent_bits(self.bits()))
        })
    }

    /// A fresh randomizer `h_s^x mod n²`, `x` uniform in `[1, 2^bits)`
    /// for `bits =` [`short_exponent_bits`]: a fixed number of draws from
    /// `rng`, no rejection loop (the `2^-bits` zero draw maps to 1).
    fn draw_randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let table = self.h_table();
        table.pow(&short_exponent(table.max_bits(), rng))
    }

    /// Reconstructs a public key from its published parts — exactly what
    /// deserializing `{n, n², h_s}` produces: the Montgomery context and
    /// the `h_s` table are rebuilt lazily, once each, on first use.
    ///
    /// # Errors
    ///
    /// [`CryptoError::KeyMismatch`] unless `n` is odd and `> 1`,
    /// `1 < h_s < n²` and `gcd(h_s mod n, n) = 1` — a key without a
    /// usable `h_s` is refused here, never encrypted under.
    pub fn from_parts(n: BigUint, h_s: BigUint) -> Result<PublicKey, CryptoError> {
        if n.is_even() || n.is_one() {
            return Err(CryptoError::KeyMismatch);
        }
        let n2 = &n * &n;
        if h_s <= BigUint::one() || h_s >= n2 || !(&h_s % &n).gcd(&n).is_one() {
            return Err(CryptoError::KeyMismatch);
        }
        Ok(PublicKey {
            n,
            n2,
            h_s,
            mont_n2: Arc::new(OnceLock::new()),
            h_table: Arc::new(OnceLock::new()),
        })
    }

    /// `Ok` iff `m` lies in the message space `[0, n)`.
    fn check_message(&self, m: &BigUint) -> Result<(), CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::MessageTooLarge {
                message_bits: m.bit_length(),
                modulus_bits: self.n.bit_length(),
            });
        }
        Ok(())
    }

    /// `(1 + m·n) · rn mod n²` for a checked message and an `n`-th
    /// residue `rn < n²`, computed as `rn + n·(m·rn mod n)`: the two are
    /// congruent mod `n²`, and the sum is below `2n²`, so one conditional
    /// subtraction reduces it. Two products and two remainders at
    /// `|n|` bits instead of a Montgomery round trip mod `n²`.
    fn seal(&self, m: &BigUint, rn: &BigUint) -> Ciphertext {
        let mr = &(m * &(rn % &self.n)) % &self.n;
        let sum = rn + &(&self.n * &mr);
        Ciphertext(if sum >= self.n2 { &sum - &self.n2 } else { sum })
    }

    /// Encrypts `m ∈ [0, n)` with fresh randomness from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= n`; use [`PublicKey::try_encrypt`] for a fallible
    /// variant.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Ciphertext {
        self.try_encrypt(m, rng).expect("message within range")
    }

    /// Encrypts `m ∈ [0, n)` as `(1 + m·n) · h_s^x mod n²` for a fresh
    /// short `x` — the one randomizer lane (see the module docs).
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLarge`] if `m >= n`.
    pub fn try_encrypt<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, CryptoError> {
        self.check_message(m)?;
        Ok(self.seal(m, &self.draw_randomizer(rng)))
    }

    /// The classic encryption `(1 + m·n) · r^n mod n²` for a uniform
    /// `r ∈ Z_n*`: a gcd walk plus a full-width ladder per ciphertext.
    /// Kept as the **reference** the fixed-base lane is proptested and
    /// benchmarked against; no protocol path calls it.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLarge`] if `m >= n`.
    pub fn try_encrypt_classic<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, CryptoError> {
        self.check_message(m)?;
        let r = BigUint::random_coprime(&self.n, rng);
        Ok(self.seal(m, &self.mont().modpow(&r, &self.n)))
    }

    /// Precomputes `count` encryption randomizers (`h_s^x mod n²`),
    /// drawing exactly as [`PublicKey::try_encrypt`] does.
    ///
    /// This is the batchable, off-critical-path part of encryption; pair
    /// with [`PublicKey::try_encrypt_with`] on the hot path.
    pub fn precompute_randomizers<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<Randomizer> {
        (0..count).map(|_| self.randomizer(rng)).collect()
    }

    /// One encryption randomizer (`h_s^x mod n²`), drawing exactly as
    /// [`PublicKey::try_encrypt`] does: a batch of one.
    pub fn randomizer<R: Rng + ?Sized>(&self, rng: &mut R) -> Randomizer {
        Randomizer {
            rn: self.draw_randomizer(rng),
        }
    }

    /// Encrypts `m ∈ [0, n)` consuming a precomputed randomizer.
    ///
    /// Produces exactly the ciphertext [`PublicKey::try_encrypt`] would
    /// have produced with the randomizer's underlying `x`, at the cost of
    /// one modular multiplication instead of a table exponentiation.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLarge`] if `m >= n`.
    pub fn try_encrypt_with(
        &self,
        m: &BigUint,
        randomizer: &Randomizer,
    ) -> Result<Ciphertext, CryptoError> {
        self.check_message(m)?;
        Ok(self.seal(m, &randomizer.rn))
    }

    /// Homomorphic addition: `Enc(a) ⊞ Enc(b) = Enc(a + b mod n)`.
    pub fn add_ciphertexts(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext(self.mont().mul(&a.0, &b.0))
    }

    /// Homomorphic plaintext addition: `Enc(a) ⊞ b = Enc(a + b mod n)`.
    pub fn add_plain(&self, a: &Ciphertext, b: &BigUint) -> Ciphertext {
        let gb = (BigUint::one() + &(b % &self.n) * &self.n) % &self.n2;
        Ciphertext(self.mont().mul(&a.0, &gb))
    }

    /// Homomorphic scalar multiplication: `Enc(a)^k = Enc(k·a mod n)`.
    ///
    /// Power-of-two scalars (quantized tick sizes are `2^k` constantly)
    /// skip the window machinery entirely: `k` Montgomery squarings,
    /// nothing else.
    pub fn mul_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext(self.mont().modpow(&a.0, k))
    }

    /// Fused affine update: `Enc(a) ↦ Enc(k·a + b mod n)` — a
    /// `mul_plain` + `add_plain` chain in one pass through the
    /// Montgomery domain (one exponentiation, one multiplication, one
    /// conversion round-trip). Bit-identical to
    /// `add_plain(&mul_plain(a, k), b)`.
    ///
    /// Degenerate scalars take the cheapest correct path: `k = 1`
    /// reduces to a plain-addition multiply, `b ≡ 0 (mod n)` to a bare
    /// `mul_plain`.
    pub fn affine(&self, a: &Ciphertext, k: &BigUint, b: &BigUint) -> Ciphertext {
        let b_red = b % &self.n;
        if b_red.is_zero() {
            return self.mul_plain(a, k);
        }
        let gb = (BigUint::one() + &b_red * &self.n) % &self.n2;
        if k.is_one() {
            return Ciphertext(self.mont().mul(&a.0, &gb));
        }
        Ciphertext(self.mont().pow_mul(&a.0, k, &gb))
    }

    /// Encodes a signed 128-bit value into the message space
    /// (negative `v` ↦ `n − |v|`).
    ///
    /// # Panics
    ///
    /// Panics if `|v| * 2 >= n` (no headroom left to distinguish signs).
    pub fn encode_i128(&self, v: i128) -> BigUint {
        let mag = BigUint::from(v.unsigned_abs());
        assert!(
            (&mag << 1) < self.n,
            "signed value magnitude exceeds half the message space"
        );
        if v < 0 {
            &self.n - &mag
        } else {
            mag
        }
    }

    /// `true` if the ciphertext lies in the valid range `[1, n²)` and is
    /// invertible mod `n²`. A prime divides `n²` iff it divides `n`, so
    /// invertibility is `gcd(c mod n, n) = 1` ([`BigUint::is_unit_mod`]:
    /// one Lehmer gcd at half the width, ≈7 µs at 1024-bit keys and ≈18
    /// µs at 2048 — below an encryption at every key size), counted on
    /// `crypto/validations`.
    pub fn validate_ciphertext(&self, c: &Ciphertext) -> Result<(), CryptoError> {
        if c.0.is_zero() || c.0 >= self.n2 || !c.0.is_unit_mod(&self.n) {
            Err(CryptoError::InvalidCiphertext)
        } else {
            Ok(())
        }
    }

    /// The full-width predicate [`PublicKey::validate_ciphertext`]
    /// replaced, kept as its reference.
    #[cfg(test)]
    fn validate_ciphertext_reference(&self, c: &Ciphertext) -> Result<(), CryptoError> {
        if c.0.is_zero() || c.0 >= self.n2 || !c.0.gcd(&self.n2).is_one() {
            Err(CryptoError::InvalidCiphertext)
        } else {
            Ok(())
        }
    }
}

impl PrivateKey {
    /// The matching public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Decrypts to the canonical representative in `[0, n)`: two
    /// half-width exponentiations mod `p²`/`q²` with Garner
    /// recombination, bit-identical to [`PrivateKey::decrypt_classic`].
    /// For any plaintext; a plaintext known to be bounded takes
    /// [`PrivateKey::decrypt_u128`], [`PrivateKey::decrypt_i128`] or
    /// [`PrivateKey::decrypt_packed`], which at paper keys need one leg.
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        self.crt.decrypt(&c.0)
    }

    /// The classic full-width decryption `L(c^λ mod n²) · μ mod n` —
    /// the pre-CRT kernel, kept as the reference the benches and
    /// equivalence proptests compare against; no protocol path calls it.
    pub fn decrypt_classic(&self, c: &Ciphertext) -> BigUint {
        let pk = &self.public;
        let x = pk.mont().modpow(&c.0, &self.lambda);
        (&l_function(&x, &pk.n) * &self.mu) % &pk.n
    }

    /// [`PublicKey::precompute_randomizers`] under this key's public
    /// half. The owner has no faster lane than the `h_s` table any more;
    /// the name is kept for callers that hold the private key.
    pub fn precompute_randomizers_crt<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<Randomizer> {
        self.public.precompute_randomizers(count, rng)
    }

    /// Decrypts a batch to canonical representatives in `[0, n)`:
    /// [`PrivateKey::decrypt`] per ciphertext, in order, on both legs.
    /// No protocol path calls it: every plaintext a protocol opens is
    /// bounded and takes [`PrivateKey::decrypt_u128`],
    /// [`PrivateKey::decrypt_i128`] or [`PrivateKey::decrypt_packed`].
    pub fn decrypt_batch(&self, cts: &[Ciphertext]) -> Vec<BigUint> {
        cts.iter().map(|c| self.decrypt(c)).collect()
    }

    /// The p-leg, if it alone recovers a plaintext below `2^bound_bits`
    /// with [`GUARD_BITS`] to spare (`|p| ≥ bound_bits + 64`); `None`
    /// means both legs and Garner.
    fn short_leg(&self, bound_bits: usize) -> Option<&CrtLeg> {
        let leg = &self.crt.p_leg;
        (leg.prime.bit_length() >= bound_bits + GUARD_BITS).then_some(leg)
    }

    /// Decrypts a plaintext known to lie below `2^bound_bits`, with the
    /// modulus it comes out reduced by: `p` on the short leg, else `n`
    /// on both legs.
    fn decrypt_below(&self, c: &Ciphertext, bound_bits: usize) -> (BigUint, &BigUint) {
        match self.short_leg(bound_bits) {
            Some(leg) => (leg.decrypt(&c.0), &leg.prime),
            None => (self.crt.decrypt(&c.0), &self.public.n),
        }
    }

    /// A plaintext that failed its bound, as the typed error.
    fn too_large(&self, m: &BigUint) -> CryptoError {
        CryptoError::MessageTooLarge {
            message_bits: m.bit_length(),
            modulus_bits: self.public.bits(),
        }
    }

    /// Decrypts a plaintext known to lie below `2^128` (a masked total,
    /// `Σk`): on the p-leg alone at keys of 384 bits and up, on both legs
    /// below. Every in-bound plaintext decrypts to what
    /// [`PrivateKey::decrypt`] returns, bit for bit.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLarge`] if the decrypted value reaches
    /// `2^128`: any plaintext at or above the bound on both legs, and on
    /// one leg a corrupted ciphertext or an out-of-bound plaintext except
    /// with odds of about `2^−64`.
    pub fn decrypt_u128(&self, c: &Ciphertext) -> Result<u128, CryptoError> {
        let (m, _) = self.decrypt_below(c, 128);
        m.to_u128().ok_or_else(|| self.too_large(&m))
    }

    /// How many `slot_bits`-wide plaintexts [`PrivateKey::decrypt_packed`]
    /// recovers per decryption: `⌊(|p| − 64) / slot_bits⌋` on the p-leg
    /// when at least one slot fits it, else `⌊(|n| − 64) / slot_bits⌋`
    /// on both legs, at least one. For 98-bit slots that is 9 at
    /// 2048-bit keys, 4 at 1024, and 1 at 512, 256 and 128.
    pub fn slots_per_pack(&self, slot_bits: usize) -> usize {
        let leg_bits = self.crt.p_leg.prime.bit_length();
        slots_per_pack(leg_bits, self.public.bits(), slot_bits)
    }

    /// Decrypts a batch whose plaintexts each lie below `2^slot_bits`,
    /// with one decryption per [`PrivateKey::slots_per_pack`] ciphertexts.
    ///
    /// Each pack is folded Horner-style, `acc ← acc^(2^slot_bits) · c_j`
    /// ([`Montgomery::horner_fold`]), which encrypts
    /// `Σ m_j · 2^(slot_bits·(len−1−j))`. One decryption then yields every
    /// slot. The fold and its one ladder (counted in `crypto/modpow`) run
    /// on the p-leg mod `p²` when a slot fits it with 64 guard bits, and
    /// on both legs followed by one Garner step otherwise. On in-bound
    /// input the output is [`PrivateKey::decrypt_batch`]'s, bit for bit.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLarge`] if a pack's plaintext reaches
    /// `2^(slot_bits·len)`. That catches any top slot at or above
    /// `2^slot_bits`, and a corrupted ciphertext, whose plaintext is
    /// uniform mod `p` (mod `n` on both legs), except with odds of about
    /// `2^−64` (the guard bits above the top slot; a one-slot pack on a
    /// toy key has `|n| − slot_bits` of them). An out-of-bound value in a
    /// lower slot can instead carry into the slot above it unseen, so the
    /// bound is the caller's to enforce.
    pub fn decrypt_packed(
        &self,
        cts: &[Ciphertext],
        slot_bits: usize,
    ) -> Result<Vec<BigUint>, CryptoError> {
        // A slot as wide as n holds any plaintext: one slot per pack and
        // no bound to check, exactly as for any wider slot.
        let slot_bits = slot_bits.min(self.public.bits());
        let per_pack = self.slots_per_pack(slot_bits);
        let short_leg = self.short_leg(slot_bits);
        let mask = &(BigUint::one() << slot_bits) - &BigUint::one();
        let mut out = Vec::with_capacity(cts.len());
        for pack in cts.chunks(per_pack) {
            let leg = |leg: &CrtLeg| {
                let folded = leg
                    .mont_r2
                    .horner_fold(pack.iter().map(|c| &c.0), slot_bits);
                leg.decrypt(&folded)
            };
            let packed = match short_leg {
                Some(p_leg) => leg(p_leg),
                None => self.crt.garner(leg(&self.crt.p_leg), leg(&self.crt.q_leg)),
            };
            if packed.bit_length() > slot_bits * pack.len() {
                return Err(self.too_large(&packed));
            }
            out.extend(
                (0..pack.len())
                    .rev()
                    .map(|j| &(&packed >> (slot_bits * j)) & &mask),
            );
        }
        Ok(out)
    }

    /// Decrypts and decodes the balanced signed encoding of a value of
    /// at most 127 bits (`Σd`, a coupling claim).
    ///
    /// At keys of 382 bits and up it decrypts on the p-leg alone and
    /// decodes around `p/2`: `encode_i128(v)` is `v` or `n − |v|`, which
    /// is `v` or `p − |v|` mod `p`. Below that it decrypts on both legs
    /// and decodes around `n/2`. Either way every value that fits `i128`
    /// decrypts to what the two-leg decoding returns, bit for bit.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLarge`] if the decoded magnitude does not
    /// fit `i128`. Under any key wider than 128 bits a peer can encrypt
    /// such a plaintext, so a ciphertext off the wire may carry one.
    pub fn decrypt_i128(&self, c: &Ciphertext) -> Result<i128, CryptoError> {
        let (m, modulus) = self.decrypt_below(c, 127);
        let (negative, mag) = if m <= (modulus >> 1) {
            (false, m)
        } else {
            (true, modulus - &m)
        };
        let v = mag
            .to_u128()
            .and_then(|u| i128::try_from(u).ok())
            .ok_or_else(|| self.too_large(&mag))?;
        Ok(if negative { -v } else { v })
    }
}

/// [`PrivateKey::slots_per_pack`] for a key of `key_bits` bits whose
/// p-leg has `leg_bits`.
fn slots_per_pack(leg_bits: usize, key_bits: usize, slot_bits: usize) -> usize {
    let modulus_bits = if leg_bits >= slot_bits + GUARD_BITS {
        leg_bits
    } else {
        key_bits
    };
    modulus_bits
        .saturating_sub(GUARD_BITS)
        .checked_div(slot_bits)
        .unwrap_or(0)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HashDrbg;

    fn keypair(bits: usize) -> Keypair {
        let mut rng = HashDrbg::from_seed_label(b"paillier-test", bits as u64);
        Keypair::generate(bits, &mut rng)
    }

    #[test]
    fn roundtrip_small_values() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"enc");
        for v in [0u64, 1, 42, 999_999_999] {
            let m = BigUint::from(v);
            let c = kp.public().encrypt(&m, &mut rng);
            assert_eq!(kp.private().decrypt(&c), m, "v={v}");
        }
    }

    #[test]
    fn key_has_requested_bits() {
        for bits in [64usize, 96, 128] {
            let kp = keypair(bits);
            assert_eq!(kp.public().bits(), bits);
        }
    }

    #[test]
    fn generated_moduli_never_come_out_a_bit_short() {
        // Top two bits of each prime forced: 64 keys per width, every
        // one exactly `n_bits` wide with both factors kept (a retry for
        // width would trip the debug assertion in `generate`).
        for bits in [128usize, 512] {
            let mut rng = HashDrbg::from_seed_label(b"paillier-width", bits as u64);
            for _ in 0..64 {
                let kp = Keypair::generate(bits, &mut rng);
                assert_eq!(kp.public().bits(), bits);
                let (p, q) = factors(&kp);
                assert!(p.bit(bits / 2 - 2) && q.bit(bits / 2 - 2));
            }
        }
    }

    #[test]
    fn short_exponent_width_follows_the_key_size() {
        for (n_bits, expected) in [
            (16usize, 16usize),
            (128, 128),
            (512, 160),
            (1024, 160),
            (1536, 224),
            (2048, 224),
            (3072, 256),
            (4096, 384),
        ] {
            assert_eq!(short_exponent_bits(n_bits), expected, "n_bits={n_bits}");
        }
        let kp = keypair(128);
        assert_eq!(kp.public().h_table().max_bits(), 128);
    }

    #[test]
    fn randomizers_are_nth_residues_off_the_table() {
        // h_s^x from the comb table ≡ the ladder, decrypts to 0, and a
        // ciphertext sealed with it sits in ⟨h_s⟩ · (1 + m·n).
        let kp = keypair(128);
        let (pk, sk) = (kp.public(), kp.private());
        let mut rng = HashDrbg::new(b"residue");
        for _ in 0..8 {
            let x = BigUint::random_bits(short_exponent_bits(pk.bits()), &mut rng);
            let rn = pk.h_table().pow(&x);
            assert_eq!(rn, pk.mont().modpow(pk.h_s(), &x));
            assert!(sk.decrypt(&Ciphertext(rn)).is_zero());
        }
        // The published base is itself an n-th residue: h_s = h^n.
        assert!(sk.decrypt(&Ciphertext(pk.h_s().clone())).is_zero());
        let h = BigUint::from(0xBEEFu64);
        assert_eq!(sk.crt.pow_n(&h, pk.n()), Some(pk.mont().modpow(&h, pk.n())));
    }

    #[test]
    fn classic_and_fixed_base_ciphertexts_mix() {
        let kp = keypair(128);
        let (pk, sk) = (kp.public(), kp.private());
        let mut rng = HashDrbg::new(b"mixed-lanes");
        let a = pk.encrypt(&BigUint::from(1000u64), &mut rng);
        let b = pk
            .try_encrypt_classic(&BigUint::from(234u64), &mut rng)
            .expect("in range");
        assert!(pk.validate_ciphertext(&b).is_ok());
        assert_eq!(sk.decrypt(&b), BigUint::from(234u64));
        assert_eq!(
            sk.decrypt(&pk.add_ciphertexts(&a, &b)),
            BigUint::from(1234u64)
        );
        assert!(matches!(
            pk.try_encrypt_classic(pk.n(), &mut rng),
            Err(CryptoError::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn probabilistic_encryption() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"prob");
        let m = BigUint::from(7u64);
        let c1 = kp.public().encrypt(&m, &mut rng);
        let c2 = kp.public().encrypt(&m, &mut rng);
        assert_ne!(c1, c2, "same plaintext must give different ciphertexts");
        assert_eq!(kp.private().decrypt(&c1), kp.private().decrypt(&c2));
    }

    #[test]
    fn homomorphic_addition() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"hom-add");
        let a = BigUint::from(123_456u64);
        let b = BigUint::from(654_321u64);
        let ca = kp.public().encrypt(&a, &mut rng);
        let cb = kp.public().encrypt(&b, &mut rng);
        let sum = kp.public().add_ciphertexts(&ca, &cb);
        assert_eq!(kp.private().decrypt(&sum), &a + &b);
    }

    #[test]
    fn homomorphic_plain_addition() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"hom-plain");
        let a = BigUint::from(1000u64);
        let ca = kp.public().encrypt(&a, &mut rng);
        let sum = kp.public().add_plain(&ca, &BigUint::from(234u64));
        assert_eq!(kp.private().decrypt(&sum), BigUint::from(1234u64));
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"hom-mul");
        let a = BigUint::from(111u64);
        let ca = kp.public().encrypt(&a, &mut rng);
        let prod = kp.public().mul_plain(&ca, &BigUint::from(9u64));
        assert_eq!(kp.private().decrypt(&prod), BigUint::from(999u64));
    }

    #[test]
    fn addition_wraps_mod_n() {
        let kp = keypair(64);
        let mut rng = HashDrbg::new(b"wrap");
        let n = kp.public().n().clone();
        let m = &n - &BigUint::one();
        let c = kp.public().encrypt(&m, &mut rng);
        let sum = kp.public().add_plain(&c, &BigUint::from(2u64));
        assert_eq!(kp.private().decrypt(&sum), BigUint::one());
    }

    #[test]
    fn message_too_large_rejected() {
        let kp = keypair(64);
        let mut rng = HashDrbg::new(b"big");
        let m = kp.public().n().clone();
        assert!(matches!(
            kp.public().try_encrypt(&m, &mut rng),
            Err(CryptoError::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn signed_encoding_roundtrip() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"signed");
        for v in [0i128, 1, -1, 42_000_000, -42_000_000, i64::MAX as i128] {
            let m = kp.public().encode_i128(v);
            let c = kp.public().encrypt(&m, &mut rng);
            assert_eq!(kp.private().decrypt_i128(&c), Ok(v), "v={v}");
        }
    }

    #[test]
    fn out_of_range_signed_plaintext_is_an_error_not_a_panic() {
        // At 256 bits anyone holding the public key can encrypt a value
        // whose balanced decoding is ±2^254, far outside i128.
        let kp = keypair(256);
        let mut rng = HashDrbg::new(b"signed-range");
        let pk = kp.public();
        let quarter = pk.n() >> 2;
        let cts = [
            pk.encrypt(&quarter, &mut rng),
            pk.encrypt(&(pk.n() - &quarter), &mut rng),
        ];
        let sk = kp.private();
        for c in &cts {
            assert!(matches!(
                sk.decrypt_i128(c),
                Err(CryptoError::MessageTooLarge {
                    modulus_bits: 256,
                    ..
                })
            ));
            assert_eq!(sk.decrypt(c), sk.decrypt_classic(c));
        }
        let ok = pk.encrypt(&pk.encode_i128(-7), &mut rng);
        assert_eq!(sk.decrypt_i128(&ok), Ok(-7));
    }

    #[test]
    fn signed_homomorphic_sum_crosses_zero() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"signed-sum");
        let pk = kp.public();
        let c1 = pk.encrypt(&pk.encode_i128(100), &mut rng);
        let c2 = pk.encrypt(&pk.encode_i128(-250), &mut rng);
        let sum = pk.add_ciphertexts(&c1, &c2);
        assert_eq!(kp.private().decrypt_i128(&sum), Ok(-150));
    }

    #[test]
    fn precomputed_randomizers_encrypt_identically() {
        let kp = keypair(128);
        let pk = kp.public();
        let mut rng = HashDrbg::new(b"pool");
        let pool = pk.precompute_randomizers(4, &mut rng);
        assert_eq!(pool.len(), 4);
        // Distinct randomizers → distinct ciphertexts of the same value.
        let m = BigUint::from(321u64);
        let c0 = pk.try_encrypt_with(&m, &pool[0]).expect("encrypt");
        let c1 = pk.try_encrypt_with(&m, &pool[1]).expect("encrypt");
        assert_ne!(c0, c1);
        for c in [&c0, &c1] {
            assert!(pk.validate_ciphertext(c).is_ok());
            assert_eq!(kp.private().decrypt(c), m);
        }
        // Homomorphism is preserved across the two encryption paths.
        let fresh = pk.encrypt(&BigUint::from(9u64), &mut rng);
        let sum = pk.add_ciphertexts(&c0, &fresh);
        assert_eq!(kp.private().decrypt(&sum), BigUint::from(330u64));
    }

    #[test]
    fn precomputed_randomizer_matches_stream() {
        // Same DRBG stream, both paths → identical ciphertext bits.
        let kp = keypair(128);
        let pk = kp.public();
        let m = BigUint::from(77u64);
        let mut rng_a = HashDrbg::new(b"same-stream");
        let direct = pk.encrypt(&m, &mut rng_a);
        let mut rng_b = HashDrbg::new(b"same-stream");
        let pool = pk.precompute_randomizers(1, &mut rng_b);
        let via_pool = pk.try_encrypt_with(&m, &pool[0]).expect("encrypt");
        assert_eq!(direct, via_pool);
    }

    #[test]
    fn precomputed_rejects_oversized_message() {
        let kp = keypair(64);
        let mut rng = HashDrbg::new(b"pool-big");
        let pool = kp.public().precompute_randomizers(1, &mut rng);
        assert!(matches!(
            kp.public()
                .try_encrypt_with(&kp.public().n().clone(), &pool[0]),
            Err(CryptoError::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn ciphertext_validation() {
        let kp = keypair(64);
        let mut rng = HashDrbg::new(b"validate");
        let good = kp.public().encrypt(&BigUint::from(5u64), &mut rng);
        assert!(kp.public().validate_ciphertext(&good).is_ok());
        let zero = Ciphertext::from_biguint(BigUint::zero());
        assert!(kp.public().validate_ciphertext(&zero).is_err());
        let oob = Ciphertext::from_biguint(kp.public().n_squared().clone());
        assert!(kp.public().validate_ciphertext(&oob).is_err());
    }

    /// One cached key pair per validation size: 128 bits, where `c mod n`
    /// fits the gcd's two-limb tail, and 1024, where it runs the
    /// multi-limb Lehmer passes (and bounded decryptions run on one leg).
    fn validation_keypair(bits: usize) -> &'static Keypair {
        static K128: std::sync::OnceLock<Keypair> = std::sync::OnceLock::new();
        static K1024: std::sync::OnceLock<Keypair> = std::sync::OnceLock::new();
        let cell = if bits == 128 { &K128 } else { &K1024 };
        cell.get_or_init(|| keypair(bits))
    }

    /// The key's prime factors.
    fn factors(kp: &Keypair) -> (&BigUint, &BigUint) {
        let crt = &kp.private().crt;
        (&crt.p_leg.prime, &crt.q_leg.prime)
    }

    /// Old and new validation predicates agree on `c`, and both with the
    /// factor test `0 < c < n², p ∤ c, q ∤ c`, which no gcd computes.
    fn assert_validation_agrees(kp: &Keypair, c: BigUint) {
        let (pk, (p, q)) = (kp.public(), factors(kp));
        let unit =
            !c.is_zero() && &c < pk.n_squared() && !(&c % p).is_zero() && !(&c % q).is_zero();
        let c = Ciphertext::from_biguint(c);
        let got = pk.validate_ciphertext(&c);
        assert_eq!(got, pk.validate_ciphertext_reference(&c), "c={c:?}");
        assert_eq!(got.is_ok(), unit, "c={c:?}");
    }

    #[test]
    fn half_width_validation_rejects_multiples_of_the_factors() {
        for bits in [128, 1024] {
            let kp = validation_keypair(bits);
            let (pk, (p, q)) = (kp.public(), factors(kp));
            let (n, n2) = (pk.n(), pk.n_squared());
            for c in [
                p.clone(),
                q.clone(),
                p * q,
                n.clone(),
                (p * &BigUint::from(0xDEAD_BEEF_1234_5678u64)) % n2,
                (&(q * n) + q) % n2,
                n2 - p,
                n2 - &BigUint::one(),
                BigUint::zero(),
                n2.clone(),
                n2 + &BigUint::one(),
            ] {
                assert_validation_agrees(kp, c);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn half_width_validation_matches_reference(
            limbs in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..=33),
            k in proptest::prelude::any::<u64>(),
        ) {
            for bits in [128, 1024] {
                let kp = validation_keypair(bits);
                let (pk, (p, q)) = (kp.public(), factors(kp));
                // Random values on both sides of n², the same reduced
                // into the range …
                let c = BigUint::from_limbs(limbs.clone());
                assert_validation_agrees(kp, &c % pk.n_squared());
                assert_validation_agrees(kp, c);
                // … and random multiples of each factor inside it.
                for f in [p, q] {
                    assert_validation_agrees(kp, (f * &BigUint::from(k)) % pk.n_squared());
                }
            }
        }
    }

    #[test]
    fn crt_matches_classic_decrypt() {
        let kp = keypair(128);
        let sk = kp.private();
        let mut rng = HashDrbg::new(b"crt-vs-classic");
        let n = kp.public().n().clone();
        let half = &n >> 1;
        // Values across the whole space, including the balanced-signed
        // boundary band around n/2 and the wrap at n−1.
        let values = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(123_456_789u64),
            &half - &BigUint::one(),
            half.clone(),
            &half + &BigUint::one(),
            &n - &BigUint::one(),
        ];
        for m in values {
            let c = kp.public().encrypt(&m, &mut rng);
            let crt = sk.decrypt(&c);
            assert_eq!(crt, sk.decrypt_classic(&c), "m={m:?}");
            assert_eq!(crt, m);
        }
    }

    #[test]
    fn crt_signed_edges_roundtrip() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"crt-signed");
        for v in [i128::from(i64::MAX), -i128::from(i64::MAX), 1, -1, 0] {
            let m = kp.public().encode_i128(v);
            let c = kp.public().encrypt(&m, &mut rng);
            assert_eq!(kp.private().decrypt_i128(&c), Ok(v));
            assert_eq!(kp.private().decrypt_classic(&c), m);
        }
    }

    #[test]
    fn decrypt_batch_matches_singles() {
        // Batches in order, at the toy width and at one whose batches
        // of four or more once fanned out over threads.
        for bits in [128usize, 512] {
            let kp = keypair(bits);
            let mut rng = HashDrbg::new(b"batch");
            let ms: Vec<BigUint> = (0u64..9).map(|i| BigUint::from(i * 1000 + 3)).collect();
            let cts: Vec<Ciphertext> = ms
                .iter()
                .map(|m| kp.public().encrypt(m, &mut rng))
                .collect();
            assert_eq!(kp.private().decrypt_batch(&cts), ms);
            let singles: Vec<BigUint> = cts.iter().map(|c| kp.private().decrypt(c)).collect();
            assert_eq!(singles, ms);
            let classic: Vec<BigUint> = cts
                .iter()
                .map(|c| kp.private().decrypt_classic(c))
                .collect();
            assert_eq!(classic, ms);
        }
    }

    #[test]
    fn rebuilt_public_key_encrypts_bit_identically() {
        // from_parts is exactly what a serde round-trip produces: the
        // same ciphertext bits must come out of the rebuilt key.
        let kp = keypair(128);
        let pk = kp.public();
        let rebuilt = PublicKey::from_parts(pk.n().clone(), pk.h_s().clone()).expect("valid key");
        assert_eq!(pk, &rebuilt);
        assert_eq!(pk.n_squared(), rebuilt.n_squared());
        let m = BigUint::from(777u64);
        let mut rng_a = HashDrbg::new(b"rebuilt");
        let mut rng_b = HashDrbg::new(b"rebuilt");
        let ca = pk.encrypt(&m, &mut rng_a);
        let cb = rebuilt.encrypt(&m, &mut rng_b);
        assert_eq!(ca, cb, "identical DRBG stream → identical bits");
        // Pooled path too.
        let mut rng_c = HashDrbg::new(b"rebuilt-pool");
        let r = pk.precompute_randomizers(1, &mut rng_c);
        assert_eq!(
            pk.try_encrypt_with(&m, &r[0]).expect("encrypt"),
            rebuilt.try_encrypt_with(&m, &r[0]).expect("encrypt")
        );
    }

    #[test]
    fn public_key_without_a_usable_h_s_is_a_typed_error() {
        let kp = keypair(128);
        let (pk, sk) = (kp.public(), kp.private());
        let (n, h_s) = (pk.n().clone(), pk.h_s().clone());
        let p = sk.crt.p_leg.prime.clone();
        for (n, h_s) in [
            (BigUint::from(10u64), h_s.clone()),
            (BigUint::one(), h_s.clone()),
            (BigUint::zero(), h_s.clone()),
            (n.clone(), BigUint::zero()),
            (n.clone(), BigUint::one()),
            (n.clone(), pk.n_squared().clone()),
            (n.clone(), pk.n_squared() + &h_s),
            (n.clone(), p.clone()),
            (n.clone(), &n * &BigUint::from(3u64)),
        ] {
            assert_eq!(
                PublicKey::from_parts(n.clone(), h_s.clone()),
                Err(CryptoError::KeyMismatch),
                "n={n:?} h_s={h_s:?}"
            );
        }
        assert!(PublicKey::from_parts(n, h_s).is_ok());
    }

    #[test]
    fn montgomery_context_is_shared_and_rebuilt_once() {
        // Clones borrow one context and one h_s table; a rebuilt key
        // materializes each exactly once and every later op reuses that
        // pointer. Neither keygen nor a rebuild builds the table early.
        let kp = keypair(96);
        let pk = kp.public();
        let clone = pk.clone();
        assert!(pk.h_table.get().is_none(), "keygen leaves the table cold");
        assert!(std::ptr::eq(pk.mont(), clone.mont()), "clones share");
        assert!(std::ptr::eq(pk.h_table(), clone.h_table()), "clones share");
        let rebuilt = PublicKey::from_parts(pk.n().clone(), pk.h_s().clone()).expect("valid");
        assert!(rebuilt.mont_n2.get().is_none() && rebuilt.h_table.get().is_none());
        let first = rebuilt.mont() as *const Montgomery;
        let again = rebuilt.mont() as *const Montgomery;
        assert_eq!(first, again, "lazy rebuild happens once");
        assert!(std::ptr::eq(rebuilt.mont(), rebuilt.clone().mont()));
        let mut rng = HashDrbg::new(b"rebuilt-table");
        let _ = rebuilt.encrypt(&BigUint::one(), &mut rng);
        let table = rebuilt.h_table.get().expect("first encryption builds it") as *const _;
        let _ = rebuilt.clone().encrypt(&BigUint::one(), &mut rng);
        assert!(std::ptr::eq(table, rebuilt.h_table()), "and only once");
    }

    #[test]
    fn mul_plain_small_scalars_match_naive() {
        // The exponent-sized window fast path over quantized-scalar
        // magnitudes.
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"small-k");
        let a = BigUint::from(37u64);
        let ca = kp.public().encrypt(&a, &mut rng);
        for k in [1u64, 2, 3, 15, 16, 255, 1 << 20, (1 << 26) + 5] {
            let prod = kp.public().mul_plain(&ca, &BigUint::from(k));
            assert_eq!(kp.private().decrypt(&prod), BigUint::from(37 * k), "k={k}");
        }
    }

    #[test]
    fn affine_matches_mul_then_add() {
        let kp = keypair(128);
        let pk = kp.public();
        let mut rng = HashDrbg::new(b"affine");
        let ca = pk.encrypt(&BigUint::from(321u64), &mut rng);
        let cases = [
            (7u64, 13u64),      // general fused path
            (1, 5),             // k = 1 → plain addition
            (9, 0),             // b = 0 → bare mul_plain
            (0, 4),             // k = 0 → Enc(b)-shaped (deterministic)
            (1 << 20, 1 << 30), // power-of-two scalar
        ];
        for (k, b) in cases {
            let (k, b) = (BigUint::from(k), BigUint::from(b));
            let fused = pk.affine(&ca, &k, &b);
            let sequential = pk.add_plain(&pk.mul_plain(&ca, &k), &b);
            assert_eq!(fused, sequential, "k={k:?} b={b:?}");
        }
        // b larger than n must reduce identically on both paths.
        let big_b = pk.n() + &BigUint::from(17u64);
        assert_eq!(
            pk.affine(&ca, &BigUint::from(3u64), &big_b),
            pk.add_plain(&pk.mul_plain(&ca, &BigUint::from(3u64)), &big_b)
        );
        // And it decrypts to k·a + b.
        let out =
            kp.private()
                .decrypt(&pk.affine(&ca, &BigUint::from(7u64), &BigUint::from(13u64)));
        assert_eq!(out, BigUint::from(321u64 * 7 + 13));
    }

    #[test]
    fn mul_plain_power_of_two_scalars() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"pow2");
        let a = BigUint::from(5u64);
        let ca = kp.public().encrypt(&a, &mut rng);
        for t in [0u32, 1, 5, 17, 40] {
            let k = BigUint::one() << t as usize;
            let prod = kp.public().mul_plain(&ca, &k);
            assert_eq!(
                kp.private().decrypt(&prod),
                BigUint::from(5u128 << t),
                "k=2^{t}"
            );
        }
    }

    #[test]
    fn slots_per_pack_follows_the_key_size() {
        // A slot that fits the p-leg with 64 guard bits packs on it;
        // one that does not packs on both legs, under n.
        assert_eq!(keypair(512).private().slots_per_pack(98), 1);
        assert_eq!(validation_keypair(1024).private().slots_per_pack(98), 4);
        for (bits, slots) in [(128usize, 1usize), (256, 1), (512, 1), (1024, 4), (2048, 9)] {
            assert_eq!(slots_per_pack(bits / 2, bits, 98), slots, "{bits}-bit key");
            assert_eq!(
                slots_per_pack(bits / 2, bits, 0),
                1,
                "a zero-width slot packs alone"
            );
            assert_eq!(slots_per_pack(bits / 2, bits, bits), 1);
        }
    }

    #[test]
    fn decrypt_packed_errors_on_what_it_can_see() {
        // 1024-bit key, 98-bit slots: four per pack on the 512-bit p-leg,
        // 120 guard bits.
        let kp = validation_keypair(1024);
        let (pk, w) = (kp.public(), 98usize);
        let mut rng = HashDrbg::new(b"packed-bounds");
        let enc = |v: &BigUint, rng: &mut HashDrbg| pk.encrypt(v, rng);
        let top = BigUint::one() << w;
        let small = BigUint::from(5u64);
        let sk = kp.private();
        assert!(sk.short_leg(w).is_some());
        assert_eq!(sk.crt.p_leg.prime.bit_length() - 4 * w, 120);
        // A top slot at 2^w overflows its pack: typed, never a panic.
        let cts: Vec<Ciphertext> = [&top, &small, &small, &small, &small]
            .iter()
            .map(|v| enc(v, &mut rng))
            .collect();
        assert!(matches!(
            sk.decrypt_packed(&cts, w),
            Err(CryptoError::MessageTooLarge {
                modulus_bits: 1024,
                ..
            })
        ));
        // So does the top slot of the second pack, alone in it.
        let cts: Vec<Ciphertext> = [&small, &small, &small, &small, &top]
            .iter()
            .map(|v| enc(v, &mut rng))
            .collect();
        assert!(sk.decrypt_packed(&cts, w).is_err());
        // A lower slot at 2^w carries into the slot above it unseen:
        // (0, 2^w) packs to 2^w, which is (1, 0). The bound is the
        // caller's to enforce.
        let cts = [enc(&BigUint::zero(), &mut rng), enc(&top, &mut rng)];
        assert_eq!(
            sk.decrypt_packed(&cts, w),
            Ok(vec![BigUint::one(), BigUint::zero()])
        );
        // An empty batch decrypts to nothing.
        assert_eq!(sk.decrypt_packed(&[], w), Ok(vec![]));
    }

    #[test]
    fn bounded_decryptions_take_one_leg_only_where_the_guard_fits() {
        // 1024 bits: |p| = 512 ≥ 128 + 64. 256 bits: |p| = 128, both legs.
        assert!(validation_keypair(1024).private().short_leg(128).is_some());
        let toy = keypair(256);
        assert!(toy.private().short_leg(127).is_none());
        assert!(validation_keypair(128).private().short_leg(127).is_none());
        // Either way, in-bound plaintexts decrypt as `decrypt` does.
        for kp in [validation_keypair(1024), &toy, validation_keypair(128)] {
            let (pk, sk) = (kp.public(), kp.private());
            let mut rng = HashDrbg::new(b"bounded-paths");
            // The largest plaintext of each bound that the key holds.
            let wide = pk.bits() > 128;
            let top = if wide {
                u128::MAX
            } else {
                (pk.n() - &BigUint::one()).to_u128().expect("128-bit n")
            };
            for v in [0u128, 1, 1 << 64, top] {
                let c = pk.encrypt(&BigUint::from(v), &mut rng);
                assert_eq!(sk.decrypt_u128(&c), Ok(v));
            }
            let edge = if wide { i128::MAX } else { i128::MAX >> 1 };
            for v in [0i128, 1, -1, edge, -edge] {
                let c = pk.encrypt(&pk.encode_i128(v), &mut rng);
                assert_eq!(sk.decrypt_i128(&c), Ok(v), "v={v}");
            }
        }
    }

    #[test]
    fn a_corrupted_ciphertext_is_a_typed_error_on_one_leg() {
        // A valid unit of Z_{n²}* that no one encrypted decrypts to a
        // value uniform mod p: above 2^128, and above i128 either side
        // of p/2, but for odds of about 2^−64 — never a panic.
        let kp = validation_keypair(1024);
        let (pk, sk) = (kp.public(), kp.private());
        let mut rng = HashDrbg::new(b"one-leg-corrupt");
        let good = pk.encrypt(&BigUint::from(77u64), &mut rng);
        for trial in 0..8u64 {
            let flipped = good.as_biguint() ^ &(BigUint::one() << (trial as usize * 97 % 2000));
            let mangled = [
                Ciphertext::from_biguint(BigUint::random_coprime(pk.n_squared(), &mut rng)),
                Ciphertext::from_biguint(flipped),
            ];
            for c in &mangled {
                let c = Ciphertext::from_biguint(c.as_biguint() % pk.n_squared());
                assert!(matches!(
                    sk.decrypt_u128(&c),
                    Err(CryptoError::MessageTooLarge {
                        modulus_bits: 1024,
                        ..
                    })
                ));
                assert!(matches!(
                    sk.decrypt_i128(&c),
                    Err(CryptoError::MessageTooLarge { .. })
                ));
            }
        }
        // So is a plaintext a peer encrypts above the bound on purpose.
        let c = pk.encrypt(&(BigUint::one() << 128), &mut rng);
        assert!(sk.decrypt_u128(&c).is_err());
        assert!(sk.decrypt_i128(&c).is_err());
        assert_eq!(sk.decrypt_u128(&good), Ok(77));
    }

    #[test]
    fn seal_matches_the_montgomery_product() {
        // rn + n·(m·rn mod n) ≡ (1 + m·n)·rn mod n², bit for bit, for
        // messages across the space and randomizers off the lane.
        for kp in [validation_keypair(128), validation_keypair(1024)] {
            let pk = kp.public();
            let mut rng = HashDrbg::new(b"seal");
            let n = pk.n();
            for m in [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from(u64::MAX),
                n >> 1,
                n - &BigUint::one(),
                BigUint::random_below(n, &mut rng),
            ] {
                for rn in [
                    pk.draw_randomizer(&mut rng),
                    pk.n_squared() - &BigUint::one(),
                ] {
                    let gm = (BigUint::one() + &m * n) % pk.n_squared();
                    assert_eq!(pk.seal(&m, &rn).0, pk.mont().mul(&gm, &rn), "m={m:?}");
                }
            }
        }
    }

    #[test]
    fn distinct_keys_incompatible() {
        // Decrypting under the wrong key must not return the plaintext.
        let kp1 = keypair(64);
        let mut rng = HashDrbg::new(b"cross");
        let kp2 = Keypair::generate(64, &mut rng);
        let m = BigUint::from(77u64);
        let c = kp1.public().encrypt(&m, &mut rng);
        // Reduce into kp2's space first so decrypt is well-defined.
        let c2 = Ciphertext::from_biguint(c.as_biguint() % kp2.public().n_squared());
        assert_ne!(kp2.private().decrypt(&c2), m);
    }
}
