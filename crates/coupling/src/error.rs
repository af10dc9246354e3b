//! Error type of the coupling subsystem.

use std::fmt;

use pem_core::PemError;
use pem_crypto::CryptoError;
use pem_net::NetError;

/// Anything that can go wrong while coupling shard markets.
#[derive(Debug)]
pub enum CouplingError {
    /// Invalid coupling configuration or malformed shard positions.
    Config(String),
    /// A cryptographic operation failed (encryption range, key setup).
    Crypto(CryptoError),
    /// The coupling fabric rejected or failed to decode a message.
    Net(NetError),
    /// Grid-key setup failed, or a peer broke a protocol invariant (a
    /// replayed frame or claim, an aggregate or claim outside the
    /// quantized range).
    Pem(PemError),
}

impl fmt::Display for CouplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CouplingError::Config(msg) => write!(f, "coupling configuration: {msg}"),
            CouplingError::Crypto(e) => write!(f, "coupling crypto: {e}"),
            CouplingError::Net(e) => write!(f, "coupling fabric: {e}"),
            CouplingError::Pem(e) => write!(f, "coupling round: {e}"),
        }
    }
}

impl std::error::Error for CouplingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CouplingError::Config(_) => None,
            CouplingError::Crypto(e) => Some(e),
            CouplingError::Net(e) => Some(e),
            CouplingError::Pem(e) => Some(e),
        }
    }
}

impl From<CryptoError> for CouplingError {
    fn from(e: CryptoError) -> CouplingError {
        CouplingError::Crypto(e)
    }
}

impl From<NetError> for CouplingError {
    fn from(e: NetError) -> CouplingError {
        CouplingError::Net(e)
    }
}

impl From<PemError> for CouplingError {
    /// A `pem-core` failure, with the fabric and crypto classes the
    /// shared aggregation fold reports kept in their own variants.
    fn from(e: PemError) -> CouplingError {
        match e {
            PemError::Net(e) => CouplingError::Net(e),
            PemError::Crypto(e) => CouplingError::Crypto(e),
            e => CouplingError::Pem(e),
        }
    }
}
