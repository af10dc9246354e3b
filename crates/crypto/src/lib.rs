//! Cryptographic building blocks for the Private Energy Market (PEM).
//!
//! The ICDCS 2020 paper constructs its protocols from two primitives
//! (Section IV-A): the additively homomorphic **Paillier cryptosystem**
//! and **garbled circuits** for light-weight secure comparison. This crate
//! provides Paillier plus everything the garbled-circuit layer
//! (`pem-circuit`) needs underneath:
//!
//! * [`sha256()`] — FIPS 180-4 SHA-256, used as the garbling cipher, the KDF
//!   and the ledger hash,
//! * [`drbg::HashDrbg`] — a deterministic, seedable random generator
//!   implementing [`rand::RngCore`] for reproducible experiments,
//! * [`paillier`] — key generation, encryption, decryption and the
//!   homomorphic operations (`Enc(a)·Enc(b) = Enc(a+b)`, `Enc(a)^k = Enc(ka)`),
//! * [`ot`] — batched 1-out-of-n oblivious transfer (Chou–Orlandi,
//!   semi-honest model), on edwards25519 at the paper profiles and on a
//!   toy `Z_p*` group for fast tests,
//! * [`ed25519`] — the edwards25519 group those transfers run on.
//!
//! # Example
//!
//! ```
//! use pem_crypto::paillier::Keypair;
//! use pem_crypto::drbg::HashDrbg;
//! use pem_bignum::BigUint;
//!
//! let mut rng = HashDrbg::from_seed_label(b"docs", 0);
//! let kp = Keypair::generate(128, &mut rng);
//! let (pk, sk) = (kp.public(), kp.private());
//! let a = pk.encrypt(&BigUint::from(20u64), &mut rng);
//! let b = pk.encrypt(&BigUint::from(22u64), &mut rng);
//! let sum = pk.add_ciphertexts(&a, &b);
//! assert_eq!(sk.decrypt(&sum), BigUint::from(42u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drbg;
pub mod ed25519;
pub mod error;
pub mod ot;
pub mod paillier;
pub mod sha256;

pub use error::CryptoError;
pub use sha256::{sha256, Sha256};

use pem_bignum::BigUint;

/// Bit length of a short secret exponent, a function of the modulus
/// size alone: `min(2λ, bits)` for the security level `λ` the size
/// stands for (≤1024 → 80, ≤2048 → 112, ≤3072 → 128, above → 192) — 160
/// bits at 1024-bit moduli, 224 at 2048, 128 on 128-bit toy keys. The
/// one width table: Paillier's randomizer exponents (`h_s^x`, over the
/// key size) and the OT batch's `a`, `bᵢ` (over `p`'s size) both read it.
pub fn short_exponent_bits(bits: usize) -> usize {
    let lambda = match bits {
        0..=1024 => 80,
        1025..=2048 => 112,
        2049..=3072 => 128,
        _ => 192,
    };
    bits.min(2 * lambda)
}

/// A secret exponent uniform in `[1, 2^bits)`: a fixed number of draws
/// from `rng`, no rejection loop (the `2^-bits` zero draw maps to 1).
fn short_exponent<R: rand::Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    let x = BigUint::random_bits(bits, rng);
    if x.is_zero() {
        BigUint::one()
    } else {
        x
    }
}
