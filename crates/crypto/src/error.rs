//! Error types for cryptographic operations.

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A plaintext did not fit the Paillier message space, or a decrypted
    /// one did not fit the signed integer it decodes to.
    MessageTooLarge {
        /// Bit length of the offending message.
        message_bits: usize,
        /// Bit length of the modulus `n`.
        modulus_bits: usize,
    },
    /// A ciphertext was not a valid element of `Z_{n^2}*`.
    InvalidCiphertext,
    /// A key was malformed (e.g. mismatched modulus between operands).
    KeyMismatch,
    /// An oblivious-transfer message failed validation.
    InvalidOtMessage(&'static str),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::MessageTooLarge {
                message_bits,
                modulus_bits,
            } => write!(
                f,
                "message of {message_bits} bits out of range for paillier modulus of \
                 {modulus_bits} bits"
            ),
            CryptoError::InvalidCiphertext => write!(f, "ciphertext outside Z_{{n^2}}*"),
            CryptoError::KeyMismatch => write!(f, "operands encrypted under different keys"),
            CryptoError::InvalidOtMessage(what) => {
                write!(f, "invalid oblivious transfer message: {what}")
            }
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CryptoError::MessageTooLarge {
            message_bits: 130,
            modulus_bits: 128,
        };
        assert!(e.to_string().contains("130"));
        assert!(CryptoError::InvalidOtMessage("bad group element")
            .to_string()
            .contains("bad group element"));
    }
}
