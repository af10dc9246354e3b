//! Error types for big-integer parsing.

use std::error::Error;
use std::fmt;

/// Error returned when parsing a [`crate::BigUint`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParseErrorKind {
    /// The input contained no digits.
    Empty,
    /// A character was not a valid digit in the requested radix.
    InvalidDigit(char),
    /// The radix was not in `2..=36`.
    InvalidRadix(u32),
}

impl ParseBigIntError {
    pub(crate) fn empty() -> Self {
        ParseBigIntError {
            kind: ParseErrorKind::Empty,
        }
    }

    pub(crate) fn invalid_digit(c: char) -> Self {
        ParseBigIntError {
            kind: ParseErrorKind::InvalidDigit(c),
        }
    }

    pub(crate) fn invalid_radix(radix: u32) -> Self {
        ParseBigIntError {
            kind: ParseErrorKind::InvalidRadix(radix),
        }
    }
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Empty => write!(f, "cannot parse integer from empty string"),
            ParseErrorKind::InvalidDigit(c) => {
                write!(f, "invalid digit {c:?} found in string")
            }
            ParseErrorKind::InvalidRadix(r) => write!(f, "radix {r} not in 2..=36"),
        }
    }
}

impl Error for ParseBigIntError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ParseBigIntError::empty().to_string(),
            "cannot parse integer from empty string"
        );
        assert!(ParseBigIntError::invalid_digit('x')
            .to_string()
            .contains("'x'"));
        assert!(ParseBigIntError::invalid_radix(99)
            .to_string()
            .contains("99"));
    }
}
