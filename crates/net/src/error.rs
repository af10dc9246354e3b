//! Error types for the simulated network.

use std::error::Error;
use std::fmt;

/// Errors from sending, receiving or decoding messages.
///
/// Exhaustive on purpose: `pem-core` classifies every variant as
/// retryable or fatal with a wildcard-free match, so a new variant must
/// be classified where it is added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Addressed party does not exist.
    UnknownParty {
        /// The offending party index.
        party: usize,
        /// Number of registered parties.
        parties: usize,
    },
    /// A party tried to send a message to itself.
    SelfSend {
        /// The party.
        party: usize,
    },
    /// A frame `party` did not read: a second frame from a sender it had
    /// already heard under `label`, or one still queued when its window
    /// or round ended.
    Unread {
        /// The party the frame was addressed to.
        party: usize,
        /// The frame's label.
        label: &'static str,
    },
    /// `recv_expect` found an empty mailbox.
    Empty {
        /// The receiving party.
        party: usize,
        /// Label the caller expected.
        expected: &'static str,
    },
    /// A payload failed to decode.
    Decode {
        /// Byte offset of the failure.
        offset: usize,
        /// What was being decoded.
        what: &'static str,
    },
    /// [`crate::NetStats::merge`] over two fabrics of different sizes.
    PartyCountMismatch {
        /// Parties in the stats block being merged into.
        have: usize,
        /// Parties in the block being merged.
        got: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownParty { party, parties } => {
                write!(f, "party {party} out of range (have {parties})")
            }
            NetError::SelfSend { party } => write!(f, "party {party} cannot message itself"),
            NetError::Unread { party, label } => {
                write!(f, "party {party} left a {label:?} frame unread")
            }
            NetError::Empty { party, expected } => {
                write!(
                    f,
                    "party {party} expected {expected:?} but mailbox is empty"
                )
            }
            NetError::Decode { offset, what } => {
                write!(f, "failed to decode {what} at byte {offset}")
            }
            NetError::PartyCountMismatch { have, got } => {
                write!(f, "cannot merge stats of {got} parties into {have}")
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(NetError::UnknownParty {
            party: 9,
            parties: 3
        }
        .to_string()
        .contains("9"));
        assert!(NetError::Empty {
            party: 1,
            expected: "x"
        }
        .to_string()
        .contains("\"x\""));
    }
}
