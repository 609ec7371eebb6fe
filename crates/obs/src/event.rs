//! Transaction lifecycle events and the per-worker event ring.
//!
//! Events are the raw material for any consistency or performance
//! analysis of a transactional history (Biswas & Enea's framing): each
//! records *which* transaction did *what*, *when* — with timestamps in
//! nanoseconds from a common per-[`crate::Recorder`] epoch, so merged
//! histories are totally orderable.
//!
//! The crate sits below `dps-lock` and `dps-core` in the dependency
//! order, so events speak in plain integers: `txn` is the numeric
//! transaction id and `resource` an opaque resource key (the lock layer
//! encodes tuple/relation ids into it; see its docs).

/// Why a transaction aborted. The union of lock-manager causes
/// (doomed-by-writer, deadlock), engine causes (stale claim, failed
/// revalidation, RHS evaluation error) and the server's session budget
/// (timeout) — the paper's §5 wasted-work factor `f` decomposed by
/// origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Doomed by a committing `Wa` holder (Figure 4.3(b)).
    Doomed,
    /// Chosen as a deadlock victim.
    Deadlock,
    /// Claim invalidated before/while acquiring condition locks.
    Stale,
    /// Engine-level revalidation failed (policy `Revalidate`).
    Revalidation,
    /// The RHS failed to evaluate (e.g. division by zero).
    EvalError,
    /// A server session's transaction overran its per-session budget
    /// and was rolled back. That is this cause's only source: a lock
    /// wait has no deadline.
    Timeout,
    /// Forced abort injected by the chaos fault injector (never occurs
    /// in production runs; kept separate so injected failures cannot
    /// masquerade as — or pollute the statistics of — organic causes).
    Injected,
    /// MVCC commit-time self-validation failed: the snapshot the claim
    /// was pinned against is no longer current and the instantiation
    /// has left the conflict set. Distinct from [`AbortCause::Stale`]
    /// (pre-execution claim invalidation) and from the legacy
    /// reader-abort causes ([`AbortCause::Doomed`] /
    /// [`AbortCause::Revalidation`]) so stock-vs-MVCC comparisons
    /// cannot silently fold one into the other.
    SnapshotStale,
    /// Elided-commit revalidation failed: a lock-skipping firing of a
    /// provably-commutative rule found one of its matched tuples
    /// changed between claim and commit. Structurally the same check
    /// as [`AbortCause::SnapshotStale`], but kept distinct so the
    /// coordination-avoidance fast path's (rare) retries cannot be
    /// mistaken for MVCC validation failures in A/B comparisons.
    ElisionStale,
}

impl AbortCause {
    /// Every cause, in display order.
    pub const ALL: [AbortCause; 9] = [
        AbortCause::Doomed,
        AbortCause::Deadlock,
        AbortCause::Stale,
        AbortCause::Revalidation,
        AbortCause::EvalError,
        AbortCause::Timeout,
        AbortCause::Injected,
        AbortCause::SnapshotStale,
        AbortCause::ElisionStale,
    ];

    /// Stable machine-readable name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::Doomed => "doomed",
            AbortCause::Deadlock => "deadlock",
            AbortCause::Stale => "stale",
            AbortCause::Revalidation => "revalidation",
            AbortCause::EvalError => "eval_error",
            AbortCause::Timeout => "timeout",
            AbortCause::Injected => "injected",
            AbortCause::SnapshotStale => "snapshot_stale",
            AbortCause::ElisionStale => "elision_stale",
        }
    }

    /// `true` for causes that mean "concurrent transactions collided"
    /// (or chaos made them appear to) — the streak the server's
    /// admission controller closes the door on.
    /// Stale claims, RHS evaluation errors and [`AbortCause::Timeout`]
    /// (a session that overran its transaction budget: a slow or silent
    /// client, not a collision) are not contention.
    /// Snapshot- and elision-stale aborts *are*: with no condition
    /// locks held they are the only remaining signal of genuine write
    /// overlap (the reader-abort channels are structurally zero there).
    pub fn is_contention(self) -> bool {
        match self {
            AbortCause::Doomed
            | AbortCause::Deadlock
            | AbortCause::Revalidation
            | AbortCause::Injected
            | AbortCause::SnapshotStale
            | AbortCause::ElisionStale => true,
            AbortCause::Stale | AbortCause::EvalError | AbortCause::Timeout => false,
        }
    }

    /// Position in [`AbortCause::ALL`] (a dense array index).
    pub fn index(self) -> usize {
        match self {
            AbortCause::Doomed => 0,
            AbortCause::Deadlock => 1,
            AbortCause::Stale => 2,
            AbortCause::Revalidation => 3,
            AbortCause::EvalError => 4,
            AbortCause::Timeout => 5,
            AbortCause::Injected => 6,
            AbortCause::SnapshotStale => 7,
            AbortCause::ElisionStale => 8,
        }
    }
}

/// What happened.
///
/// Emission responsibilities (documented here because the history
/// well-formedness check in [`crate::validate_history`] depends on
/// them): the **lock manager** emits `Begin`, `Grant`, `Block`, `Doom`,
/// `Deadlock` and `Commit`; the **engine** emits the single
/// `Abort { cause, rule }` terminal for every transaction that does
/// not commit (it is the only layer that knows the full cause
/// taxonomy), one `Fire { rule, seq }` per *committed* transaction
/// naming its slot in the global commit sequence, plus `Anomaly`
/// markers for accounting races that should never happen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Transaction began.
    Begin,
    /// A lock was granted.
    Grant {
        /// Opaque resource key (see module docs).
        resource: u64,
        /// Lock-mode name (`"Rc"`, `"Wa"`, `"S"`, …).
        mode: &'static str,
    },
    /// A lock request blocked (first time only per request).
    Block {
        /// Opaque resource key.
        resource: u64,
        /// Lock-mode name.
        mode: &'static str,
        /// The transaction currently holding (or queued ahead on) the
        /// resource that caused the block — the *wait-for edge target*
        /// the analysis layer reconstructs blocking graphs from.
        /// `None` when the lock manager could not name one.
        holder: Option<u64>,
    },
    /// Doomed by a committing writer.
    Doom {
        /// The committing writer's transaction id.
        by: u64,
    },
    /// Doomed as a deadlock victim.
    Deadlock,
    /// Transaction committed (terminal).
    Commit,
    /// The committed firing's place in the global commit sequence:
    /// `seq` is the 0-based position in the engine's trace and `rule`
    /// an interned rule-name id (see [`crate::Recorder::intern_rule`]).
    /// Emitted by the engine immediately after the commit critical
    /// section, so it may trail the `Commit` terminal — the semantic
    /// checker (§3 Theorem 2) pairs them back up.
    Fire {
        /// Interned rule-name id.
        rule: u32,
        /// 0-based position in the global commit sequence.
        seq: u64,
    },
    /// Transaction aborted (terminal), with its cause.
    Abort {
        /// Why.
        cause: AbortCause,
        /// Interned rule-name id of the aborted attempt, as in `Fire`.
        rule: u32,
    },
    /// An accounting anomaly (e.g. an abort call that failed with
    /// something other than the benign auto-abort race).
    Anomaly {
        /// Short static description.
        what: &'static str,
    },
    /// A chaos-layer fault was injected at this point (grant delay,
    /// spurious wakeup, forced abort, RHS stall, …). First-class so
    /// the attribution table can explain *why* a chaos run degraded;
    /// never emitted outside fault-injected runs.
    Fault {
        /// Short static fault-kind name (`grant_delay`, `wal_kill`,
        /// `publish_stall`, …; see `dps_lock::fault`).
        kind: &'static str,
    },
    /// MVCC: the transaction pinned its read snapshot at this commit
    /// sequence number. All of its condition reads observe the
    /// versioned working memory `as_of(seq)`; no `Rc` locks are taken.
    SnapshotPin {
        /// The pinned commit sequence number.
        seq: u64,
    },
    /// MVCC: a condition read of one versioned element. `seq` is the
    /// commit sequence that *created* the version observed — the
    /// reads-from edge (`wr`) raw material for the SI/serializability
    /// polygraph checker.
    VersionRead {
        /// Opaque resource key (see module docs).
        resource: u64,
        /// Commit sequence of the version read (0 = initial WM).
        seq: u64,
    },
    /// MVCC: the committed transaction installed a new version of this
    /// element. `seq` is the installing commit sequence (equal to the
    /// transaction's `Fire` seq + 1; the version-order / `ww` raw
    /// material). Like `Fire`, it trails the `Commit` terminal because
    /// the sequence number only exists after the commit critical
    /// section.
    VersionWrite {
        /// Opaque resource key (see module docs).
        resource: u64,
        /// Installing commit sequence.
        seq: u64,
    },
    /// Durability: the WAL group-commit fsync that made this
    /// transaction's commit durable completed; `seq` is the durable
    /// horizon the flush published. Emitted after the commit critical
    /// section, so it trails the `Commit` terminal like `Fire` does.
    WalSync {
        /// Durable horizon (highest commit seq covered by the fsync).
        seq: u64,
    },
    /// Durability: a checkpoint snapshot was installed at this commit
    /// sequence number (log segments before it become prunable). Also
    /// trails the emitting transaction's terminal.
    Checkpoint {
        /// The checkpointed commit sequence number.
        seq: u64,
    },
    /// Coordination avoidance: this transaction committed through the
    /// lock-elision fast path — zero `R_a`/`W_a` lock-manager traffic,
    /// validated instead by the commit-time tuple-timestamp check.
    /// `resources` counts the lock acquisitions that were skipped.
    /// Emitted after the commit critical section, so like `Fire` it may
    /// trail the `Commit` terminal.
    ElidedCommit {
        /// Number of lock acquisitions the fast path skipped.
        resources: u32,
    },
}

impl EventKind {
    /// `true` for the two terminal kinds (`Commit` / `Abort`).
    pub fn is_terminal(&self) -> bool {
        matches!(self, EventKind::Commit | EventKind::Abort { .. })
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the recorder's epoch (monotonic).
    pub ts: u64,
    /// Numeric transaction id.
    pub txn: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A bounded circular buffer of events. One per worker slot; when full
/// it overwrites the oldest entry and the recorder counts the drop, so
/// recording can never block or grow without bound.
#[derive(Debug)]
pub(crate) struct Ring {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest element (only meaningful once wrapped).
    head: usize,
}

impl Ring {
    pub fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
        }
    }

    /// Pushes an event; returns `true` if an old event was overwritten.
    pub fn push(&mut self, ev: Event) -> bool {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            true
        }
    }

    /// Events in arrival order.
    pub fn iter_ordered(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event {
            ts,
            txn: ts,
            kind: EventKind::Begin,
        }
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut r = Ring::new(3);
        for t in 0..5 {
            let dropped = r.push(ev(t));
            assert_eq!(dropped, t >= 3);
        }
        let got: Vec<u64> = r.iter_ordered().map(|e| e.ts).collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ring_below_capacity_preserves_everything() {
        let mut r = Ring::new(8);
        for t in 0..4 {
            assert!(!r.push(ev(t)));
        }
        let got: Vec<u64> = r.iter_ordered().map(|e| e.ts).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn terminal_kinds() {
        assert!(EventKind::Commit.is_terminal());
        assert!(EventKind::Abort {
            cause: AbortCause::Stale,
            rule: 0
        }
        .is_terminal());
        assert!(!EventKind::Begin.is_terminal());
        assert!(!EventKind::Anomaly { what: "x" }.is_terminal());
        assert!(!EventKind::Fire { rule: 0, seq: 0 }.is_terminal());
        assert!(!EventKind::Block {
            resource: 1,
            mode: "S",
            holder: Some(7)
        }
        .is_terminal());
    }

    #[test]
    fn cause_names_align_with_all() {
        for (i, c) in AbortCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }
}
