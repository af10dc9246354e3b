//! Error types for circuit construction and secure evaluation.

use std::error::Error;
use std::fmt;

use pem_crypto::CryptoError;

/// Errors from circuit evaluation or the two-party comparison protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CircuitError {
    /// Supplied input bits do not match the circuit's declared width.
    InputWidthMismatch {
        /// What the circuit expects.
        expected: usize,
        /// What was provided.
        got: usize,
    },
    /// A garbled message was inconsistent (wrong table count, label count…).
    MalformedGarbling(&'static str),
    /// The underlying oblivious transfer failed.
    Ot(CryptoError),
    /// An output label matched neither of the garbler's output hashes:
    /// some input label or table row was not the one garbled.
    OutputNotAuthentic {
        /// Position of the output wire.
        output: usize,
    },
    /// A hardwired garbler input is an operand of an AND gate: its public
    /// label would be hashed in the clear.
    GarblerInputFeedsAnd {
        /// The garbler input wire.
        wire: usize,
    },
    /// A value exceeded the comparison circuit's bit width.
    ValueTooWide {
        /// Bits available in the circuit.
        width: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InputWidthMismatch { expected, got } => {
                write!(f, "expected {expected} input bits, got {got}")
            }
            CircuitError::MalformedGarbling(what) => write!(f, "malformed garbling: {what}"),
            CircuitError::Ot(e) => write!(f, "oblivious transfer failed: {e}"),
            CircuitError::OutputNotAuthentic { output } => {
                write!(f, "output {output} label is not one the garbler produced")
            }
            CircuitError::GarblerInputFeedsAnd { wire } => {
                write!(
                    f,
                    "garbler input {wire} feeds an AND gate, so it cannot be hardwired"
                )
            }
            CircuitError::ValueTooWide { width } => {
                write!(f, "value does not fit in {width}-bit comparison circuit")
            }
        }
    }
}

impl Error for CircuitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CircuitError::Ot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for CircuitError {
    fn from(e: CryptoError) -> Self {
        CircuitError::Ot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CircuitError::InputWidthMismatch {
            expected: 8,
            got: 4,
        };
        assert!(e.to_string().contains("8"));
        let ot = CircuitError::from(CryptoError::InvalidOtMessage("x"));
        assert!(ot.source().is_some());
    }
}
