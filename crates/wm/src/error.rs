//! Error type for working-memory operations.

use std::fmt;

use crate::WmeId;

/// Errors raised by working-memory operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WmError {
    /// The referenced element does not exist (never inserted or removed).
    NoSuchWme(WmeId),
    /// A delta set referenced the same element in conflicting ways (e.g.
    /// modify after remove).
    ConflictingDelta(WmeId),
}

impl fmt::Display for WmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WmError::NoSuchWme(id) => write!(f, "no such working-memory element: {id}"),
            WmError::ConflictingDelta(id) => {
                write!(f, "delta set references {id} in conflicting ways")
            }
        }
    }
}

impl std::error::Error for WmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            WmError::NoSuchWme(WmeId(3)).to_string(),
            "no such working-memory element: w3"
        );
        assert!(WmError::ConflictingDelta(WmeId(1))
            .to_string()
            .contains("w1"));
    }
}
