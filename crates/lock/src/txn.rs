//! Per-transaction state for the sharded lock manager.
//!
//! Each transaction owns one [`TxnState`]: a small mutex-guarded record
//! (status, held locks, the at-most-one resource it waits for) plus a
//! [`WaitSlot`] the transaction parks on while blocked. Decoupling this
//! from the lock table is what lets the table itself be striped — a
//! waiter can be woken (or doomed) by touching only its own slot, never
//! a global lock.
//!
//! Lock ordering discipline (see `manager.rs` for the full picture):
//! a shard lock may be taken before a `TxnState::inner` lock, never the
//! reverse; the `WaitSlot` mutex is a leaf and may be taken under
//! anything.

use std::fmt;
use std::sync::{Condvar, Mutex};

use crate::modeset::ModeMap;
use crate::{LockMode, ResourceId};

/// Transaction identifier. Monotonically increasing: a larger id means a
/// *younger* transaction (deadlock victims are the youngest in the cycle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Lifecycle of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    /// Live; may acquire locks.
    Active,
    /// Marked for death (`by` = committing writer, `None` = deadlock
    /// victim); its next operation auto-aborts it.
    Doomed { by: Option<TxnId> },
    /// Reached its commit point (Figure 4.3's linearization instant).
    Committed,
    /// Rolled back.
    Aborted,
}

/// The mutex-guarded core of a transaction's state.
#[derive(Debug)]
pub(crate) struct TxnInner {
    pub status: Status,
    /// Locks held, mirrored from the shard entries so release visits
    /// only them; in `ResourceId` order.
    pub held: ModeMap<ResourceId>,
    /// The single resource this transaction currently waits for, if any.
    pub waiting_on: Option<(ResourceId, LockMode)>,
}

/// A transaction: guarded core + parking slot.
#[derive(Debug)]
pub(crate) struct TxnState {
    pub inner: Mutex<TxnInner>,
    pub slot: WaitSlot,
}

impl TxnState {
    pub fn new() -> Self {
        TxnState {
            inner: Mutex::new(TxnInner {
                status: Status::Active,
                held: ModeMap::default(),
                waiting_on: None,
            }),
            slot: WaitSlot::new(),
        }
    }
}

/// A one-shot parking slot with a re-armable flag.
///
/// The lost-wakeup-free protocol: the waiter calls [`WaitSlot::arm`]
/// *while still holding the shard lock* in which it enqueued itself;
/// every waker mutates the shard entry under that same shard lock and
/// only then calls [`WaitSlot::signal`]. Any mutation therefore either
/// happened before the waiter's (failed) grantable check — the waiter
/// saw it — or after its enqueue+arm, in which case the signal lands on
/// the armed flag and [`WaitSlot::park`] returns immediately.
#[derive(Debug)]
pub(crate) struct WaitSlot {
    signaled: Mutex<bool>,
    cv: Condvar,
}

impl WaitSlot {
    pub fn new() -> Self {
        WaitSlot {
            signaled: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Clears the flag; subsequent `park` blocks until the next `signal`.
    pub fn arm(&self) {
        *self.signaled.lock().unwrap() = false;
    }

    /// Sets the flag and wakes the parked owner (idempotent).
    pub fn signal(&self) {
        let mut s = self.signaled.lock().unwrap();
        *s = true;
        self.cv.notify_all();
    }

    /// Blocks until signalled (or until a signal already landed).
    pub fn park(&self) {
        let mut s = self.signaled.lock().unwrap();
        while !*s {
            s = self.cv.wait(s).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn signal_before_park_returns_immediately() {
        let slot = WaitSlot::new();
        slot.arm();
        slot.signal();
        slot.park(); // must not block
    }

    #[test]
    fn cross_thread_wakeup() {
        let slot = Arc::new(WaitSlot::new());
        slot.arm();
        let (done, parked) = std::sync::mpsc::channel();
        let s2 = Arc::clone(&slot);
        let h = std::thread::spawn(move || {
            s2.park();
            done.send(()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        slot.signal();
        parked
            .recv_timeout(Duration::from_secs(5))
            .expect("the parked owner was woken");
        h.join().unwrap();
    }
}
