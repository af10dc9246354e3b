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
//! once on first use. The same cell pattern caches the window recoding
//! of the encryption exponent `n` ([`ExpDigits`]), so every `r^n` of a
//! randomizer batch shares one recode walk. [`PrivateKey`] retains the
//! prime factors `p`/`q` (when available) and decrypts via two
//! half-width exponentiations mod `p²`/`q²` with Garner recombination —
//! ~2.3–3.1× the classic full-width `c^λ mod n²` path at the paper's
//! key sizes (measured in `BENCH_crypto.json`), bit-identical output.
//! The owner's knowledge of `p`/`q` also accelerates the *encryption*
//! side: [`PrivateKey::precompute_randomizers_crt`] computes each pool
//! randomizer `r^n mod n²` as two half-width exponentiations with the
//! same Garner recombination — bit-identical to
//! [`PublicKey::precompute_randomizers`] under the same DRBG stream.
//! Fused chains (`mul_plain` + `add_plain`) run through
//! [`PublicKey::affine`], one pass through the Montgomery domain.

use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_bignum::{BigUint, ExpDigits, Montgomery, PowScratch};

use crate::error::CryptoError;

/// A Paillier public key (`n`, with cached `n²` and a shared, lazily
/// (re)built Montgomery context for `Z_{n²}`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PublicKey {
    n: BigUint,
    n2: BigUint,
    /// Shared across clones; skipped by serde and rebuilt exactly once
    /// on first use after a round-trip.
    #[serde(skip)]
    mont_n2: Arc<OnceLock<Montgomery>>,
    /// Window recoding of the encryption exponent `n` — every `r^n`
    /// under this key shares it instead of recoding per call. Same
    /// lifecycle as the Montgomery context.
    #[serde(skip)]
    n_digits: Arc<OnceLock<ExpDigits>>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for PublicKey {}

/// Builds the shared-context cell with the context already present (the
/// keygen path, where `n²` is at hand anyway).
fn preloaded(m: Montgomery) -> Arc<OnceLock<Montgomery>> {
    let cell = OnceLock::new();
    let _ = cell.set(m);
    Arc::new(cell)
}

/// Precomputed constants for CRT decryption under one prime `r`: the
/// half-width Montgomery context for `r²`, the exponent `r−1` (with its
/// window recoding, shared across a whole decryption batch), and
/// `h_r = L_r(g^{r−1} mod r²)^{-1} mod r`.
#[derive(Debug)]
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

    /// [`CrtLeg::decrypt`] on batch-shared working storage.
    fn decrypt_scratch(&self, c: &BigUint, scratch: &mut PowScratch) -> BigUint {
        let x = self.mont_r2.modpow_scratch(c, &self.r1_digits, scratch);
        (&l_function(&x, &self.prime) * &self.h) % &self.prime
    }

    /// Scratch sized for this leg's decryption exponent.
    fn scratch(&self) -> PowScratch {
        self.mont_r2.pow_scratch(&self.r1_digits)
    }
}

/// The full CRT context: both decryption legs plus Garner constants for
/// the two recombination levels the key owner uses — `p^{-1} mod q`
/// (plaintexts, mod `n`) and `p²^{-1} mod q²` (owner-side encryption
/// randomizers, mod `n²`) — and the recoding of the encryption exponent
/// `n` shared by both `r^n` legs.
#[derive(Debug)]
struct CrtContext {
    p_leg: CrtLeg,
    q_leg: CrtLeg,
    p_inv_q: BigUint,
    /// `p²` and `p²^{-1} mod q²`: Garner over the ciphertext space.
    p2: BigUint,
    p2_inv_q2: BigUint,
    /// Window recoding of `n` (modulus-independent: one recode serves
    /// the `mod p²` and `mod q²` legs alike).
    n_digits: ExpDigits,
}

impl CrtContext {
    fn build(p: &BigUint, q: &BigUint, n: &BigUint) -> Option<CrtContext> {
        let p2 = p * p;
        let q2 = q * q;
        Some(CrtContext {
            p_leg: CrtLeg::build(p, n)?,
            q_leg: CrtLeg::build(q, n)?,
            p_inv_q: p.mod_inverse(q)?,
            p2_inv_q2: p2.mod_inverse(&q2)?,
            p2,
            n_digits: ExpDigits::recode(n),
        })
    }

    /// Decrypts to the canonical representative in `[0, n)` via Garner:
    /// `m = m_p + p·((m_q − m_p)·p^{-1} mod q)`.
    fn decrypt(&self, c: &BigUint) -> BigUint {
        let mp = self.p_leg.decrypt(c);
        let mq = self.q_leg.decrypt(c);
        self.garner(mp, mq)
    }

    /// [`CrtContext::decrypt`] on batch-shared leg scratches.
    fn decrypt_scratch(&self, c: &BigUint, sp: &mut PowScratch, sq: &mut PowScratch) -> BigUint {
        let mp = self.p_leg.decrypt_scratch(c, sp);
        let mq = self.q_leg.decrypt_scratch(c, sq);
        self.garner(mp, mq)
    }

    fn garner(&self, mp: BigUint, mq: BigUint) -> BigUint {
        let q = &self.q_leg.prime;
        let mp_mod_q = &mp % q;
        let u = (&((q + &mq) - &mp_mod_q) * &self.p_inv_q) % q;
        mp + &u * &self.p_leg.prime
    }

    /// Owner-side encryption exponentiation: `r^n mod n²` via two
    /// half-width exponentiations mod `p²` / `q²` and Garner
    /// recombination — the same group element the full-width
    /// [`Montgomery::modpow`] would produce, at roughly half the cost
    /// (quarter-cost multiplications, two legs).
    fn pow_n(&self, r: &BigUint, sp: &mut PowScratch, sq: &mut PowScratch) -> BigUint {
        let xp = self.p_leg.mont_r2.modpow_scratch(r, &self.n_digits, sp);
        let xq = self.q_leg.mont_r2.modpow_scratch(r, &self.n_digits, sq);
        let q2 = self.q_leg.mont_r2.modulus();
        let xp_mod_q2 = &xp % q2;
        let u = (&((q2 + &xq) - &xp_mod_q2) * &self.p2_inv_q2) % q2;
        xp + &u * &self.p2
    }

    /// Leg scratches sized for the encryption exponent `n`.
    fn pow_n_scratches(&self) -> (PowScratch, PowScratch) {
        (
            self.p_leg.mont_r2.pow_scratch(&self.n_digits),
            self.q_leg.mont_r2.pow_scratch(&self.n_digits),
        )
    }
}

/// `L(x) = (x − 1) / m` — exact by construction for valid inputs.
fn l_function(x: &BigUint, m: &BigUint) -> BigUint {
    (x - &BigUint::one()) / m
}

/// A Paillier private key (`λ = lcm(p-1, q-1)`, `μ = λ^{-1} mod n`),
/// optionally retaining the prime factors for CRT decryption.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrivateKey {
    lambda: BigUint,
    mu: BigUint,
    public: PublicKey,
    /// Prime factors of `n`. Keys serialized by the pre-CRT format (or
    /// deliberately stripped) carry `None` and decrypt via the classic
    /// full-width path — same plaintexts, just slower.
    #[serde(default)]
    p: Option<BigUint>,
    #[serde(default)]
    q: Option<BigUint>,
    /// Lazily built CRT context, shared across clones. The outer
    /// `Option` is the build result: `None` means "factors unavailable
    /// or degenerate — use the classic path forever".
    #[serde(skip)]
    crt: Arc<OnceLock<Option<CrtContext>>>,
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

/// A precomputed encryption randomizer: `r^n mod n²` for a fresh uniform
/// `r ∈ Z_n*`.
///
/// Computing `r^n mod n²` is the dominant cost of a Paillier encryption
/// (one full-width modular exponentiation); the masked message factor
/// `1 + m·n` costs a single multiplication. Randomizers therefore can be
/// batch-generated *off the critical path* and consumed one per
/// encryption — same ciphertext distribution, amortized hot path. Each
/// randomizer is bound to the key it was generated under and must be
/// used **at most once** (reuse links ciphertexts of the same party).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Randomizer {
    rn: BigUint,
}

impl Randomizer {
    /// The raw precomputed group element `r^n mod n²`.
    pub fn as_biguint(&self) -> &BigUint {
        &self.rn
    }
}

impl Keypair {
    /// Generates a key pair with an `n` of exactly `n_bits` bits.
    ///
    /// `n_bits` is the *key size* reported in the paper's evaluation
    /// (512/1024/2048). Primes `p`, `q` are `n_bits/2`-bit random primes
    /// regenerated until `gcd(pq, (p-1)(q-1)) = 1` and `n` has full width.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits < 16` (too small for the `L`-function arithmetic
    /// and any meaningful message space).
    pub fn generate<R: Rng + ?Sized>(n_bits: usize, rng: &mut R) -> Keypair {
        assert!(n_bits >= 16, "paillier keys below 16 bits are unusable");
        loop {
            let p = BigUint::gen_prime(n_bits / 2, rng);
            let q = BigUint::gen_prime(n_bits.div_ceil(2), rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_length() != n_bits {
                continue;
            }
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
            let n2 = &n * &n;
            let mont = match Montgomery::new(n2.clone()) {
                Some(m) => m,
                None => continue, // unreachable: n² of two odd primes is odd
            };
            let public = PublicKey {
                mont_n2: preloaded(mont),
                n_digits: Arc::new(OnceLock::new()),
                n,
                n2,
            };
            let private = PrivateKey {
                lambda,
                mu,
                public: public.clone(),
                p: Some(p),
                q: Some(q),
                crt: Arc::new(OnceLock::new()),
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

    /// Splits into `(public, private)`.
    pub fn into_parts(self) -> (PublicKey, PrivateKey) {
        (self.public, self.private)
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

    /// The shared window recoding of the encryption exponent `n` —
    /// computed once per key (per clone family), reused by every
    /// randomizer exponentiation.
    fn n_digits(&self) -> &ExpDigits {
        self.n_digits.get_or_init(|| ExpDigits::recode(&self.n))
    }

    /// Reconstructs a public key from its modulus — exactly what
    /// deserializing `{n, n²}` produces: the Montgomery context is
    /// rebuilt lazily on first use.
    ///
    /// # Errors
    ///
    /// [`CryptoError::KeyMismatch`] if `n` is not an odd value `> 1`
    /// (every valid Paillier modulus is).
    pub fn from_modulus(n: BigUint) -> Result<PublicKey, CryptoError> {
        if n.is_even() || n.is_one() || n.is_zero() {
            return Err(CryptoError::KeyMismatch);
        }
        let n2 = &n * &n;
        Ok(PublicKey {
            n,
            n2,
            mont_n2: Arc::new(OnceLock::new()),
            n_digits: Arc::new(OnceLock::new()),
        })
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

    /// Encrypts `m ∈ [0, n)`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLarge`] if `m >= n`.
    pub fn try_encrypt<R: Rng + ?Sized>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<Ciphertext, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::MessageTooLarge {
                message_bits: m.bit_length(),
                modulus_bits: self.n.bit_length(),
            });
        }
        let r = BigUint::random_coprime(&self.n, rng);
        let mont = self.mont();
        // (1 + m·n) · r^n mod n² — the exponent recoding of `n` is
        // shared across every encryption under this key.
        let gm = (BigUint::one() + m * &self.n) % &self.n2;
        let rn = mont.modpow_recoded(&r, self.n_digits());
        Ok(Ciphertext(mont.mul(&gm, &rn)))
    }

    /// Precomputes `count` encryption randomizers (`r^n mod n²`).
    ///
    /// This is the batchable, off-critical-path part of encryption; pair
    /// with [`PublicKey::try_encrypt_with`] on the hot path.
    pub fn precompute_randomizers<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<Randomizer> {
        let mont = self.mont();
        let digits = self.n_digits();
        let mut scratch = mont.pow_scratch(digits);
        (0..count)
            .map(|_| {
                let r = BigUint::random_coprime(&self.n, rng);
                Randomizer {
                    rn: mont.modpow_scratch(&r, digits, &mut scratch),
                }
            })
            .collect()
    }

    /// Encrypts `m ∈ [0, n)` consuming a precomputed randomizer.
    ///
    /// Produces exactly the ciphertext [`PublicKey::try_encrypt`] would
    /// have produced with the randomizer's underlying `r`, at the cost of
    /// one modular multiplication instead of a modular exponentiation.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLarge`] if `m >= n`.
    pub fn try_encrypt_with(
        &self,
        m: &BigUint,
        randomizer: &Randomizer,
    ) -> Result<Ciphertext, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::MessageTooLarge {
                message_bits: m.bit_length(),
                modulus_bits: self.n.bit_length(),
            });
        }
        let gm = (BigUint::one() + m * &self.n) % &self.n2;
        Ok(Ciphertext(self.mont().mul(&gm, &randomizer.rn)))
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
    /// invertibility is `gcd(c mod n, n) = 1`: Euclid at half the width.
    pub fn validate_ciphertext(&self, c: &Ciphertext) -> Result<(), CryptoError> {
        if c.0.is_zero() || c.0 >= self.n2 || !(&c.0 % &self.n).gcd(&self.n).is_one() {
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

    /// The lazily built CRT context: `Some` when the prime factors are
    /// retained and valid, `None` on legacy (factorless) keys.
    fn crt(&self) -> Option<&CrtContext> {
        self.crt
            .get_or_init(|| match (&self.p, &self.q) {
                (Some(p), Some(q)) => CrtContext::build(p, q, &self.public.n),
                _ => None,
            })
            .as_ref()
    }

    /// `true` when decryption runs on the CRT fast path.
    pub fn has_crt(&self) -> bool {
        self.crt().is_some()
    }

    /// Drops the retained prime factors — exactly the state of a key
    /// deserialized from the pre-CRT format. Every decryption then takes
    /// the classic full-width path (same plaintexts).
    #[must_use]
    pub fn without_crt(&self) -> PrivateKey {
        PrivateKey {
            lambda: self.lambda.clone(),
            mu: self.mu.clone(),
            public: self.public.clone(),
            p: None,
            q: None,
            crt: Arc::new(OnceLock::new()),
        }
    }

    /// Decrypts to the canonical representative in `[0, n)`.
    ///
    /// Runs two half-width exponentiations mod `p²`/`q²` with Garner
    /// recombination when the prime factors are available, and falls
    /// back to [`PrivateKey::decrypt_classic`] otherwise. Both paths
    /// return bit-identical plaintexts.
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        match self.crt() {
            Some(crt) => crt.decrypt(&c.0),
            None => self.decrypt_classic(c),
        }
    }

    /// The classic full-width decryption `L(c^λ mod n²) · μ mod n` —
    /// the pre-CRT kernel, kept for factorless keys and as the
    /// reference the benches and equivalence proptests compare against.
    pub fn decrypt_classic(&self, c: &Ciphertext) -> BigUint {
        let pk = &self.public;
        let x = pk.mont().modpow(&c.0, &self.lambda);
        (&l_function(&x, &pk.n) * &self.mu) % &pk.n
    }

    /// Precomputes `count` encryption randomizers (`r^n mod n²`) on the
    /// key owner's CRT fast lane: each exponentiation runs as two
    /// half-width legs mod `p²` / `q²` with Garner recombination.
    ///
    /// Draws the underlying `r` values exactly as
    /// [`PublicKey::precompute_randomizers`] does, so under the same
    /// DRBG stream the two paths emit **bit-identical** randomizers —
    /// this is a fast lane, not a different distribution. Factorless
    /// keys fall back to the public-key path (same output, full-width
    /// cost).
    pub fn precompute_randomizers_crt<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Vec<Randomizer> {
        let crt = match self.crt() {
            Some(crt) => crt,
            None => return self.public.precompute_randomizers(count, rng),
        };
        let n = &self.public.n;
        let (p, q) = (&crt.p_leg.prime, &crt.q_leg.prime);
        let (mut sp, mut sq) = crt.pow_n_scratches();
        (0..count)
            .map(|_| {
                // The owner's coprimality test: for n = p·q,
                // gcd(r, n) = 1 ⟺ p ∤ r ∧ q ∤ r — the same accept/reject
                // sequence as `random_coprime` (bit-identical stream
                // consumption), with two half-width divisions in place
                // of a full Euclid walk.
                let r = loop {
                    let candidate = BigUint::random_below(n, rng);
                    if !candidate.is_zero()
                        && !(&candidate % p).is_zero()
                        && !(&candidate % q).is_zero()
                    {
                        break candidate;
                    }
                };
                Randomizer {
                    rn: crt.pow_n(&r, &mut sp, &mut sq),
                }
            })
            .collect()
    }

    /// Decrypts a batch to canonical representatives in `[0, n)`.
    ///
    /// A convenience for the aggregation fan-ins (Protocol 4 ratios,
    /// coupling totals and claims) that decrypt many ciphertexts under
    /// one key back to back. The CRT exponent recodings are shared
    /// across the whole batch (cached in the key's CRT context), and
    /// batches of at least four full-size ciphertexts are split over
    /// the machine's cores with scoped threads — decryption is
    /// deterministic and chunking preserves order, so the output is
    /// bit-identical at any core count, and a batch is never slower
    /// than the per-item path beyond spawn noise.
    pub fn decrypt_batch(&self, cts: &[Ciphertext]) -> Vec<BigUint> {
        // One chunk's worth of work, on chunk-local scratches (window
        // tables + ladder buffers allocated once per chunk, not once
        // per exponentiation).
        let run_chunk = |part: &[Ciphertext]| -> Vec<BigUint> {
            match self.crt() {
                Some(crt) => {
                    let (mut sp, mut sq) = (crt.p_leg.scratch(), crt.q_leg.scratch());
                    part.iter()
                        .map(|c| crt.decrypt_scratch(&c.0, &mut sp, &mut sq))
                        .collect()
                }
                None => {
                    let pk = &self.public;
                    let digits = ExpDigits::recode(&self.lambda);
                    let mut scratch = pk.mont().pow_scratch(&digits);
                    part.iter()
                        .map(|c| {
                            let x = pk.mont().modpow_scratch(&c.0, &digits, &mut scratch);
                            (&l_function(&x, &pk.n) * &self.mu) % &pk.n
                        })
                        .collect()
                }
            }
        };
        let workers = if cts.len() >= 4 && self.public.bits() >= 512 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(cts.len())
        } else {
            1
        };
        if workers <= 1 {
            return run_chunk(cts);
        }
        // Touch the lazily built CRT context before fanning out so the
        // workers share one build instead of racing to create it.
        let _ = self.crt();
        let chunk = cts.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = cts
                .chunks(chunk)
                .map(|part| scope.spawn(move || run_chunk(part)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("decrypt batch worker panicked"))
                .collect()
        })
    }

    /// Decrypts and decodes the balanced signed encoding.
    ///
    /// Values in `[0, n/2)` are non-negative; values in `(n/2, n)` map to
    /// negatives.
    ///
    /// # Panics
    ///
    /// Panics if the decoded magnitude exceeds `i128` (indicates protocol
    /// misuse, not data-dependent behaviour).
    pub fn decrypt_i128(&self, c: &Ciphertext) -> i128 {
        self.decode_i128(self.decrypt(c))
    }

    /// Batch variant of [`PrivateKey::decrypt_i128`].
    ///
    /// # Panics
    ///
    /// As [`PrivateKey::decrypt_i128`].
    pub fn decrypt_i128_batch(&self, cts: &[Ciphertext]) -> Vec<i128> {
        self.decrypt_batch(cts)
            .into_iter()
            .map(|m| self.decode_i128(m))
            .collect()
    }

    /// Decodes the balanced signed encoding of an already-decrypted `m`.
    fn decode_i128(&self, m: BigUint) -> i128 {
        let half = &self.public.n >> 1;
        if m <= half {
            i128::try_from(m.to_u128().expect("fits i128")).expect("fits i128")
        } else {
            let mag = &self.public.n - &m;
            -i128::try_from(mag.to_u128().expect("fits i128")).expect("fits i128")
        }
    }
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
            assert_eq!(kp.private().decrypt_i128(&c), v, "v={v}");
        }
    }

    #[test]
    fn signed_homomorphic_sum_crosses_zero() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"signed-sum");
        let pk = kp.public();
        let c1 = pk.encrypt(&pk.encode_i128(100), &mut rng);
        let c2 = pk.encrypt(&pk.encode_i128(-250), &mut rng);
        let sum = pk.add_ciphertexts(&c1, &c2);
        assert_eq!(kp.private().decrypt_i128(&sum), -150);
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

    /// Old and new validation predicates agree on `c`.
    fn assert_validation_agrees(pk: &PublicKey, c: BigUint) {
        let c = Ciphertext::from_biguint(c);
        assert_eq!(
            pk.validate_ciphertext(&c),
            pk.validate_ciphertext_reference(&c),
            "c={c:?}"
        );
    }

    #[test]
    fn half_width_validation_rejects_multiples_of_the_factors() {
        let kp = keypair(128);
        let (pk, sk) = (kp.public(), kp.private());
        let (p, q) = (sk.p.clone().expect("p"), sk.q.clone().expect("q"));
        let (n, n2) = (pk.n().clone(), pk.n_squared().clone());
        for c in [
            p.clone(),
            q.clone(),
            &p * &q,
            n.clone(),
            (&p * &BigUint::from(0xDEAD_BEEF_1234_5678u64)) % &n2,
            (&(&q * &n) + &q) % &n2,
            &n2 - &p,
            &n2 - &BigUint::one(),
            BigUint::zero(),
            n2.clone(),
            &n2 + &BigUint::one(),
        ] {
            assert_validation_agrees(pk, c);
        }
        // Every listed non-unit in range is rejected — not merely agreed on.
        for c in [p.clone(), q, n, &n2 - &p] {
            assert!(pk
                .validate_ciphertext(&Ciphertext::from_biguint(c))
                .is_err());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn half_width_validation_matches_reference(
            limbs in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..=5),
            k in proptest::prelude::any::<u64>(),
        ) {
            static KP: std::sync::OnceLock<Keypair> = std::sync::OnceLock::new();
            let kp = KP.get_or_init(|| keypair(128));
            let pk = kp.public();
            // Random values on both sides of n² …
            assert_validation_agrees(pk, BigUint::from_limbs(limbs));
            // … and random multiples of each factor inside the range.
            for f in [&kp.private().p, &kp.private().q] {
                let f = f.as_ref().expect("generated keys keep their factors");
                assert_validation_agrees(pk, (f * &BigUint::from(k)) % pk.n_squared());
            }
        }
    }

    #[test]
    fn crt_matches_classic_decrypt() {
        let kp = keypair(128);
        let sk = kp.private();
        assert!(sk.has_crt(), "generated keys retain their factors");
        let legacy = sk.without_crt();
        assert!(!legacy.has_crt());
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
            assert_eq!(crt, legacy.decrypt(&c), "legacy path m={m:?}");
            assert_eq!(crt, m);
        }
    }

    #[test]
    fn crt_signed_edges_roundtrip() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"crt-signed");
        for v in [i128::from(i64::MAX), -i128::from(i64::MAX), 1, -1, 0] {
            let c = kp.public().encrypt(&kp.public().encode_i128(v), &mut rng);
            assert_eq!(kp.private().decrypt_i128(&c), v);
            assert_eq!(kp.private().without_crt().decrypt_i128(&c), v);
        }
    }

    #[test]
    fn decrypt_batch_matches_singles() {
        let kp = keypair(128);
        let mut rng = HashDrbg::new(b"batch");
        let ms: Vec<BigUint> = (0u64..7).map(|i| BigUint::from(i * 1000 + 3)).collect();
        let cts: Vec<Ciphertext> = ms
            .iter()
            .map(|m| kp.public().encrypt(m, &mut rng))
            .collect();
        assert_eq!(kp.private().decrypt_batch(&cts), ms);
        let signed: Vec<Ciphertext> = [5i128, -5, 0]
            .iter()
            .map(|&v| kp.public().encrypt(&kp.public().encode_i128(v), &mut rng))
            .collect();
        assert_eq!(kp.private().decrypt_i128_batch(&signed), vec![5, -5, 0]);
        // The factorless path batches too.
        assert_eq!(kp.private().without_crt().decrypt_batch(&cts), ms);
    }

    #[test]
    fn rebuilt_public_key_encrypts_bit_identically() {
        // from_modulus is exactly what a serde round-trip produces: the
        // same ciphertext bits must come out of the rebuilt key.
        let kp = keypair(128);
        let pk = kp.public();
        let rebuilt = PublicKey::from_modulus(pk.n().clone()).expect("valid modulus");
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
        assert!(PublicKey::from_modulus(BigUint::from(10u64)).is_err());
        assert!(PublicKey::from_modulus(BigUint::one()).is_err());
    }

    #[test]
    fn montgomery_context_is_shared_and_rebuilt_once() {
        // Clones borrow one context; a rebuilt key materializes its
        // context exactly once and every later op reuses that pointer.
        let kp = keypair(96);
        let pk = kp.public();
        let clone = pk.clone();
        assert!(std::ptr::eq(pk.mont(), clone.mont()), "clones share");
        let rebuilt = PublicKey::from_modulus(pk.n().clone()).expect("valid");
        let first = rebuilt.mont() as *const Montgomery;
        let again = rebuilt.mont() as *const Montgomery;
        assert_eq!(first, again, "lazy rebuild happens once");
        assert!(std::ptr::eq(rebuilt.mont(), rebuilt.clone().mont()));
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
    fn owner_crt_randomizers_bit_identical() {
        // Same DRBG stream through the owner-CRT lane and the classic
        // public-key lane: identical randomizers, identical ciphertexts.
        let kp = keypair(128);
        let mut rng_pk = HashDrbg::new(b"owner-lane");
        let via_pk = kp.public().precompute_randomizers(5, &mut rng_pk);
        let mut rng_sk = HashDrbg::new(b"owner-lane");
        let via_sk = kp.private().precompute_randomizers_crt(5, &mut rng_sk);
        assert_eq!(via_pk, via_sk);
        // A factorless key silently falls back to the public path.
        let mut rng_legacy = HashDrbg::new(b"owner-lane");
        let via_legacy = kp
            .private()
            .without_crt()
            .precompute_randomizers_crt(5, &mut rng_legacy);
        assert_eq!(via_pk, via_legacy);
        // And the randomizers work.
        let m = BigUint::from(99u64);
        let c = kp.public().try_encrypt_with(&m, &via_sk[0]).expect("enc");
        assert_eq!(kp.private().decrypt(&c), m);
    }

    #[test]
    fn decrypt_batch_parallel_threshold_is_bit_identical() {
        // A batch big enough (and a key wide enough) to take the
        // threaded path must return exactly what singles return, in
        // order.
        let kp = keypair(512);
        let mut rng = HashDrbg::new(b"par-batch");
        let ms: Vec<BigUint> = (0u64..9).map(|i| BigUint::from(i * 77 + 5)).collect();
        let cts: Vec<Ciphertext> = ms
            .iter()
            .map(|m| kp.public().encrypt(m, &mut rng))
            .collect();
        assert_eq!(kp.private().decrypt_batch(&cts), ms);
        assert_eq!(kp.private().without_crt().decrypt_batch(&cts), ms);
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
