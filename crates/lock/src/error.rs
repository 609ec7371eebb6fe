//! Lock-manager errors.

use std::fmt;

use crate::manager::TxnId;

/// Why a lock request or commit failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockError {
    /// The transaction was chosen as a deadlock victim.
    Deadlock(TxnId),
    /// The transaction was doomed by a committing `Wa` holder whose write
    /// overlapped one of its `Rc` locks (Figure 4.3(b)).
    DoomedByWriter {
        /// The doomed reader.
        txn: TxnId,
        /// The committing writer that doomed it.
        by: TxnId,
    },
    /// The request's wait deadline passed. Waits have one only under a
    /// chaos timeout storm ([`crate::FaultPlan::timeout_storm_pm`]);
    /// the transaction stays active and its owner aborts it.
    Timeout(TxnId),
    /// The transaction was force-aborted by the chaos fault injector
    /// (see [`crate::fault`]). Never occurs outside fault-injected
    /// runs; kept distinct so injected failures cannot masquerade as
    /// organic dooms or deadlocks in the abort accounting.
    Injected(TxnId),
    /// Operation on a transaction id that is not active (never begun,
    /// already committed or already aborted).
    NotActive(TxnId),
}

impl LockError {
    /// The transaction the error concerns.
    pub fn txn(&self) -> TxnId {
        match *self {
            LockError::Deadlock(t)
            | LockError::DoomedByWriter { txn: t, .. }
            | LockError::Timeout(t)
            | LockError::Injected(t)
            | LockError::NotActive(t) => t,
        }
    }

    /// `true` for errors that mean "abort and retry" (deadlock victim,
    /// doomed reader or injected fault) rather than a programming error.
    pub fn is_abort(&self) -> bool {
        matches!(
            self,
            LockError::Deadlock(_) | LockError::DoomedByWriter { .. } | LockError::Injected(_)
        )
    }
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Deadlock(t) => write!(f, "transaction {t} aborted: deadlock victim"),
            LockError::DoomedByWriter { txn, by } => {
                write!(
                    f,
                    "transaction {txn} aborted: Rc lock invalidated by committing writer {by}"
                )
            }
            LockError::Timeout(t) => write!(f, "transaction {t}: lock wait timed out"),
            LockError::Injected(t) => {
                write!(f, "transaction {t} aborted: fault injector forced abort")
            }
            LockError::NotActive(t) => write!(f, "transaction {t} is not active"),
        }
    }
}

impl std::error::Error for LockError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let e = LockError::DoomedByWriter {
            txn: TxnId(3),
            by: TxnId(4),
        };
        assert_eq!(e.txn(), TxnId(3));
        assert!(e.is_abort());
        assert!(LockError::Deadlock(TxnId(1)).is_abort());
        assert!(LockError::Injected(TxnId(1)).is_abort());
        assert!(!LockError::Timeout(TxnId(1)).is_abort());
        assert!(!LockError::NotActive(TxnId(1)).is_abort());
        assert_eq!(LockError::Injected(TxnId(5)).txn(), TxnId(5));
    }

    #[test]
    fn display() {
        assert!(LockError::Deadlock(TxnId(2))
            .to_string()
            .contains("deadlock"));
        assert!(LockError::Timeout(TxnId(2))
            .to_string()
            .contains("timed out"));
    }
}
