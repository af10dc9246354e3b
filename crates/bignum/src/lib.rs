//! Arbitrary-precision unsigned integers for the PEM framework.
//!
//! This crate provides [`BigUint`] and exactly the number theory that
//! Paillier encryption, homomorphic folding and decryption, and the
//! oblivious-transfer group arithmetic run on:
//!
//! * ring arithmetic (`+ - * / %`, shifts, bit operations) with Karatsuba
//!   multiplication and Knuth Algorithm D division,
//! * modular exponentiation through a Montgomery context ([`Montgomery`])
//!   for odd moduli with a generic fallback,
//! * GCD (Lehmer) and the modular inverse (unsigned Euclid),
//! * Miller–Rabin primality testing ([`is_prime`]) and the key
//!   generator's prime draw,
//! * uniform random sampling below a bound,
//! * decimal formatting, parsing in radix 2–36, and serde support.
//!
//! The representation is a little-endian vector of `u64` limbs with the
//! invariant that the most significant limb is non-zero (the empty vector
//! encodes zero).
//!
//! # Example
//!
//! ```
//! use pem_bignum::BigUint;
//!
//! # fn main() -> Result<(), pem_bignum::ParseBigIntError> {
//! let a: BigUint = "123456789012345678901234567890".parse()?;
//! let b = BigUint::from(42u64);
//! assert_eq!((&a * &b) % &a, BigUint::zero());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod biguint;
mod convert;
mod error;
mod fmt;
mod modular;
mod montgomery;
mod ops;
mod prime;
mod random;
mod serde_impl;

pub use biguint::BigUint;
pub use error::ParseBigIntError;
pub use montgomery::{ExpDigits, FixedBasePow, Montgomery};
/// The telemetry counter registry the kernel counters here
/// (`crypto/modpow`, …) live in, for kernels built on this crate's
/// integers elsewhere (the edwards25519 arithmetic of `pem-crypto`) to
/// count beside them.
pub use pem_telemetry::{register_counter, Counter};
pub use prime::is_prime;
