//! Error type for the PEM protocols.

use std::error::Error;
use std::fmt;

use pem_circuit::CircuitError;
use pem_crypto::CryptoError;
use pem_market::MarketError;
use pem_net::NetError;

/// Errors from running the PEM protocols.
#[derive(Debug)]
#[non_exhaustive]
pub enum PemError {
    /// Cryptographic failure (Paillier, OT).
    Crypto(CryptoError),
    /// Garbled-circuit failure.
    Circuit(CircuitError),
    /// Network / codec failure.
    Net(NetError),
    /// Market-model validation failure.
    Market(MarketError),
    /// A quantized value exceeded its headroom.
    Quantization {
        /// What overflowed.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Configuration inconsistency (e.g. zero agents, comparison width too
    /// small for the population).
    Config(String),
    /// A protocol-level invariant was violated (e.g. empty coalition where
    /// one is required).
    Protocol(&'static str),
}

impl PemError {
    /// Whether re-running the window could plausibly succeed.
    ///
    /// Only a message that was lost, duplicated or withheld is an
    /// artifact of *this execution*: an empty mailbox
    /// ([`NetError::Empty`] — also what a window waiting on a withheld
    /// message ends in) or a replayed frame — a second one from an
    /// expected sender, or one left unread at the end of the round
    /// ([`NetError::Unread`]) — can clear on a retry over a healthy
    /// fabric. Everything else is fatal. A frame
    /// that fails to decode, a ciphertext or garbling that fails
    /// validation, a frame from a party its receiver does not expect and
    /// a violated protocol invariant mean a peer sent something
    /// malformed — a retry would burn the budget on the same hostile
    /// input —
    /// and addressing, configuration, quantization and market-model
    /// errors are properties of the inputs that re-running reproduces
    /// exactly.
    ///
    /// The match names every variant, so a new one must be classified
    /// here.
    pub fn is_retryable(&self) -> bool {
        match self {
            PemError::Net(e) => match e {
                NetError::Empty { .. } | NetError::Unread { .. } => true,
                NetError::Decode { .. }
                | NetError::UnknownParty { .. }
                | NetError::SelfSend { .. }
                | NetError::PartyCountMismatch { .. } => false,
            },
            PemError::Crypto(_)
            | PemError::Circuit(_)
            | PemError::Protocol(_)
            | PemError::Config(_)
            | PemError::Quantization { .. }
            | PemError::Market(_) => false,
        }
    }
}

impl fmt::Display for PemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PemError::Crypto(e) => write!(f, "crypto: {e}"),
            PemError::Circuit(e) => write!(f, "garbled circuit: {e}"),
            PemError::Net(e) => write!(f, "network: {e}"),
            PemError::Market(e) => write!(f, "market: {e}"),
            PemError::Quantization { what, value } => {
                write!(f, "quantization overflow for {what}: {value}")
            }
            PemError::Config(msg) => write!(f, "configuration: {msg}"),
            PemError::Protocol(msg) => write!(f, "protocol invariant violated: {msg}"),
        }
    }
}

impl Error for PemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PemError::Crypto(e) => Some(e),
            PemError::Circuit(e) => Some(e),
            PemError::Net(e) => Some(e),
            PemError::Market(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for PemError {
    fn from(e: CryptoError) -> Self {
        PemError::Crypto(e)
    }
}

impl From<CircuitError> for PemError {
    fn from(e: CircuitError) -> Self {
        PemError::Circuit(e)
    }
}

impl From<NetError> for PemError {
    fn from(e: NetError) -> Self {
        PemError::Net(e)
    }
}

impl From<MarketError> for PemError {
    fn from(e: MarketError) -> Self {
        PemError::Market(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: PemError = CryptoError::InvalidCiphertext.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("crypto"));
        let q = PemError::Quantization {
            what: "net energy",
            value: 1e30,
        };
        assert!(q.source().is_none());
        assert!(q.to_string().contains("net energy"));
    }

    #[test]
    fn only_lost_duplicated_or_withheld_messages_retry() {
        let net = |e: NetError| PemError::Net(e);
        let table = [
            (
                net(NetError::Empty {
                    party: 1,
                    expected: "x",
                }),
                true,
            ),
            (
                net(NetError::Unread {
                    party: 1,
                    label: "x",
                }),
                true,
            ),
            (
                net(NetError::Decode {
                    offset: 0,
                    what: "ciphertext",
                }),
                false,
            ),
            (
                net(NetError::UnknownParty {
                    party: 9,
                    parties: 3,
                }),
                false,
            ),
            (net(NetError::SelfSend { party: 0 }), false),
            (net(NetError::PartyCountMismatch { have: 3, got: 4 }), false),
            (CryptoError::InvalidCiphertext.into(), false),
            (CircuitError::MalformedGarbling("tables").into(), false),
            (PemError::Protocol("invariant"), false),
            (PemError::Config("zero agents".into()), false),
            (
                PemError::Quantization {
                    what: "net energy",
                    value: 1e30,
                },
                false,
            ),
            (
                MarketError::InvalidPriceBand {
                    reason: "p_l > p_h".into(),
                }
                .into(),
                false,
            ),
        ];
        for (err, retryable) in table {
            assert_eq!(err.is_retryable(), retryable, "{err:?}");
        }
    }
}
