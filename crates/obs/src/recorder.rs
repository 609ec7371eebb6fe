//! The [`Recorder`]: the one object the whole stack reports into.
//!
//! Design goals, in order:
//!
//! 1. **Near-zero cost when absent.** Every instrumentation site holds
//!    an `Option<Arc<Recorder>>`; off means one branch on a `None`.
//! 2. **No cross-worker contention when on.** Events go into
//!    per-worker-slot rings (a thread-local slot index assigned on
//!    first use) and phase histograms are relaxed atomics. Recording an
//!    event locks its slot's ring and nothing else.
//! 3. **One record per event.** The rings are the only record: every
//!    count in [`Recorder::report`] — per kind, per abort cause, aborts
//!    per rule — is computed from them on demand, and
//!    [`Recorder::history`] merges them by timestamp. Nothing global
//!    is maintained during the run.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::event::{AbortCause, Event, EventKind, Ring};
use crate::hist::{HistSnapshot, Histogram, Phase};
use crate::report::{ObsReport, RuleRow};

/// Default number of ring slots (worker threads hash onto these; more
/// workers than slots just share).
pub const DEFAULT_SLOTS: usize = 16;

/// Default per-ring capacity in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// The observability recorder. Cheap to share behind an `Arc`; every
/// method takes `&self` and is safe to call from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    rings: Box<[Mutex<Ring>]>,
    hists: [Histogram; Phase::ALL.len()],
    dropped: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::with_capacity(DEFAULT_SLOTS, DEFAULT_RING_CAPACITY)
    }
}

/// Global slot allocator: each OS thread gets a stable slot number on
/// its first record, so a worker's events land in "its" ring.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| match s.get() {
        Some(n) => n,
        None => {
            let n = NEXT_SLOT.fetch_add(1, Relaxed);
            s.set(Some(n));
            n
        }
    })
}

impl Recorder {
    /// Creates a recorder with `slots` rings of `capacity` events each.
    pub fn with_capacity(slots: usize, capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            rings: (0..slots.max(1)).map(|_| Mutex::new(Ring::new(capacity))).collect(),
            hists: std::array::from_fn(|_| Histogram::default()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since this recorder's epoch. Use with
    /// [`Recorder::record_at`] to capture a timestamp inside a critical
    /// section and record the event after releasing it (the lock
    /// manager's doom paths do this so per-transaction timestamp order
    /// matches the real happens-before order).
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Records an event stamped with the current time.
    pub fn record(&self, txn: u64, kind: EventKind) {
        let ts = self.now();
        self.record_at(ts, txn, kind);
    }

    /// Records an event with an explicit timestamp from [`Recorder::now`].
    pub fn record_at(&self, ts: u64, txn: u64, kind: EventKind) {
        let slot = thread_slot() % self.rings.len();
        if self.rings[slot].lock().unwrap().push(Event { ts, txn, kind }) {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Records a phase duration into its histogram.
    pub fn phase(&self, phase: Phase, d: Duration) {
        self.hists[phase.index()].record(d);
    }

    /// A snapshot of one phase histogram.
    pub fn phase_snapshot(&self, phase: Phase) -> HistSnapshot {
        self.hists[phase.index()].snapshot()
    }

    /// Events dropped because a ring wrapped. A non-zero value means
    /// [`Recorder::history`] is incomplete and the counts in
    /// [`Recorder::report`] cover only the retained events (histograms
    /// are unaffected — they never drop).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Merges every per-worker ring into one global history, ordered by
    /// timestamp (ties broken by transaction id, then by event kind
    /// discriminant stability of the sort — `sort_by_key` is stable).
    pub fn history(&self) -> Vec<Event> {
        let mut all: Vec<Event> = Vec::new();
        for ring in self.rings.iter() {
            let ring = ring.lock().unwrap();
            all.extend(ring.iter_ordered().copied());
        }
        all.sort_by_key(|e| (e.ts, e.txn));
        all
    }

    /// Builds the aggregate [`ObsReport`] snapshot: the phase
    /// histograms, and every event count computed in one pass over the
    /// rings (no merge, no sort). The counts cover the retained events;
    /// `dropped_events` says how many were overwritten.
    pub fn report(&self) -> ObsReport {
        let mut rep = ObsReport {
            phases: Phase::ALL
                .iter()
                .map(|&p| (p, self.hists[p.index()].snapshot()))
                .collect(),
            abort_causes: AbortCause::ALL.iter().map(|&c| (c, 0)).collect(),
            dropped_events: self.dropped(),
            ..ObsReport::default()
        };
        let mut by_rule: BTreeMap<u32, u64> = BTreeMap::new();
        for ring in self.rings.iter() {
            for ev in ring.lock().unwrap().iter_ordered() {
                let count = match ev.kind {
                    EventKind::Begin => &mut rep.begins,
                    EventKind::Grant { .. } => &mut rep.grants,
                    EventKind::Block { .. } => &mut rep.blocks,
                    EventKind::Doom { .. } => &mut rep.dooms,
                    EventKind::Deadlock => &mut rep.deadlocks,
                    EventKind::Commit => &mut rep.commits,
                    EventKind::Abort { cause, rule } => {
                        rep.abort_causes[cause.index()].1 += 1;
                        *by_rule.entry(rule).or_default() += 1;
                        &mut rep.aborts
                    }
                    EventKind::Anomaly { .. } => &mut rep.anomalies,
                    EventKind::Fault { .. } => &mut rep.faults,
                    EventKind::SnapshotPin { .. } => &mut rep.snapshot_pins,
                    EventKind::VersionRead { .. } => &mut rep.version_reads,
                    EventKind::VersionWrite { .. } => &mut rep.version_writes,
                    EventKind::WalSync { .. } => &mut rep.wal_syncs,
                    EventKind::Checkpoint { .. } => &mut rep.checkpoints,
                    EventKind::ElidedCommit { .. } => &mut rep.elided_commits,
                };
                *count += 1;
            }
        }
        rep.rules = by_rule.into_iter().map(|(rule, aborted)| RuleRow { rule, aborted }).collect();
        rep
    }
}

/// Checks that a merged history is well-formed:
///
/// * every transaction with any event has exactly one `Begin`, and it
///   is its first event;
/// * every begun transaction ends in **exactly one** terminal
///   (`Commit` or `Abort`), with no events after it (`Anomaly` and
///   `Fault` markers excepted, and the receipts that
///   [trail](EventKind::trails_commit) the `Commit` they describe);
/// * no such receipt appears on a transaction that aborted;
/// * per-transaction timestamps are monotonically non-decreasing;
/// * durability sequencing: `Checkpoint` sequence numbers never go
///   backwards across the merged history, no `WalSync{seq}` reports a
///   durable horizon below the last installed `Checkpoint{seq}` (the
///   checkpoint's rotation already forced durability through its
///   sequence), and one commit records at most one of each;
/// * MVCC sequencing: at most one `SnapshotPin` per transaction, every
///   `VersionRead` follows its transaction's pin and reads at or below
///   the pinned sequence, and every `VersionWrite` installs *above*
///   the pin (a commit's sequence postdates its snapshot).
///
/// Call only when [`Recorder::dropped`] is zero — a wrapped ring loses
/// prefixes, which legitimately breaks these invariants.
pub fn validate_history(events: &[Event]) -> Result<(), String> {
    #[derive(Default)]
    struct TxnCheck {
        begun: bool,
        terminals: u32,
        aborted: bool,
        last_ts: u64,
        events: u32,
        pin: Option<u64>,
        wal_syncs: u32,
        checkpoint: Option<u64>,
    }
    let mut txns: BTreeMap<u64, TxnCheck> = BTreeMap::new();
    // The durable floor: the highest checkpoint installed so far in
    // merged order. Checkpoints only move forward, and no later sync
    // may report a horizon below one.
    let mut last_checkpoint: Option<u64> = None;
    for ev in events {
        let t = txns.entry(ev.txn).or_default();
        if ev.ts < t.last_ts {
            return Err(format!(
                "txn {}: timestamp went backwards ({} -> {})",
                ev.txn, t.last_ts, ev.ts
            ));
        }
        t.last_ts = ev.ts;
        t.events += 1;
        match ev.kind {
            EventKind::Begin => {
                if t.begun {
                    return Err(format!("txn {}: duplicate Begin", ev.txn));
                }
                if t.events != 1 {
                    return Err(format!("txn {}: Begin is not its first event", ev.txn));
                }
                t.begun = true;
            }
            // Markers are exempt from the lifecycle rules: anomalies
            // may trail an abort, and chaos-layer Fault events are
            // commentary on the schedule, not part of the transaction
            // protocol (a forced-abort Fault is recorded concurrently
            // with the victim's own terminal, so it may land on either
            // side of it in the merged order).
            EventKind::Anomaly { .. } | EventKind::Fault { .. } => {}
            // A receipt trails the Commit it describes, so it is exempt
            // from the after-terminal rule — but never legal before
            // Begin or on an abort.
            kind if kind.trails_commit() => {
                if !t.begun {
                    return Err(format!("txn {}: {:?} before Begin", ev.txn, ev.kind));
                }
                if t.aborted {
                    return Err(format!(
                        "txn {}: {:?} on an aborted transaction",
                        ev.txn, ev.kind
                    ));
                }
                match ev.kind {
                    EventKind::Checkpoint { seq } => {
                        if t.checkpoint.is_some() {
                            return Err(format!("txn {}: duplicate Checkpoint", ev.txn));
                        }
                        if last_checkpoint.is_some_and(|c| seq < c) {
                            return Err(format!(
                                "txn {}: Checkpoint seq went backwards ({} -> {seq})",
                                ev.txn,
                                last_checkpoint.unwrap_or(0)
                            ));
                        }
                        last_checkpoint = Some(seq);
                        t.checkpoint = Some(seq);
                    }
                    EventKind::WalSync { seq } => {
                        if t.wal_syncs > 0 {
                            return Err(format!("txn {}: duplicate WalSync", ev.txn));
                        }
                        t.wal_syncs += 1;
                        // A checkpoint's log rotation forces durability
                        // through its sequence, so no later sync can
                        // report a horizon below it.
                        if last_checkpoint.is_some_and(|c| seq < c) {
                            return Err(format!(
                                "txn {}: WalSync horizon {seq} below the last Checkpoint {}",
                                ev.txn,
                                last_checkpoint.unwrap_or(0)
                            ));
                        }
                    }
                    EventKind::VersionWrite { seq, .. } if t.pin.is_some_and(|p| seq <= p) => {
                        return Err(format!(
                            "txn {}: VersionWrite seq {seq} not above the pinned snapshot {}",
                            ev.txn,
                            t.pin.unwrap_or(0)
                        ));
                    }
                    _ => {}
                }
            }
            EventKind::SnapshotPin { seq } => {
                if !t.begun {
                    return Err(format!("txn {}: SnapshotPin before Begin", ev.txn));
                }
                if t.terminals > 0 {
                    return Err(format!("txn {}: SnapshotPin after a terminal event", ev.txn));
                }
                if t.pin.is_some() {
                    return Err(format!("txn {}: duplicate SnapshotPin", ev.txn));
                }
                t.pin = Some(seq);
            }
            EventKind::VersionRead { seq, .. } => {
                if !t.begun {
                    return Err(format!("txn {}: VersionRead before Begin", ev.txn));
                }
                if t.terminals > 0 {
                    return Err(format!("txn {}: VersionRead after a terminal event", ev.txn));
                }
                match t.pin {
                    None => {
                        return Err(format!(
                            "txn {}: VersionRead without a SnapshotPin",
                            ev.txn
                        ))
                    }
                    Some(p) if seq > p => {
                        return Err(format!(
                            "txn {}: VersionRead at seq {seq} above the pinned snapshot {p}",
                            ev.txn
                        ))
                    }
                    Some(_) => {}
                }
            }
            kind => {
                if !t.begun {
                    return Err(format!("txn {}: {kind:?} before Begin", ev.txn));
                }
                if t.terminals > 0 {
                    return Err(format!("txn {}: {kind:?} after a terminal event", ev.txn));
                }
                if kind.is_terminal() {
                    t.terminals += 1;
                    if matches!(kind, EventKind::Abort { .. }) {
                        t.aborted = true;
                    }
                }
            }
        }
    }
    for (txn, t) in &txns {
        if t.begun && t.terminals != 1 {
            return Err(format!(
                "txn {txn}: {} terminal events (expected exactly 1)",
                t.terminals
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ts: u64, txn: u64, kind: EventKind) -> Event {
        Event { ts, txn, kind }
    }

    #[test]
    fn record_and_report_counts() {
        let r = Recorder::default();
        r.record(0, EventKind::Begin);
        r.record(
            0,
            EventKind::Grant {
                resource: 2,
                mode: "Rc",
            },
        );
        r.record(0, EventKind::Commit);
        r.record(1, EventKind::Begin);
        r.record(
            1,
            EventKind::Abort {
                cause: AbortCause::Stale,
                rule: 0,
            },
        );
        let rep = r.report();
        assert_eq!((rep.begins, rep.grants, rep.commits, rep.aborts), (2, 1, 1, 1));
        let cause = |c: AbortCause| rep.abort_causes[c.index()];
        assert_eq!(cause(AbortCause::Stale), (AbortCause::Stale, 1));
        assert_eq!(cause(AbortCause::Doomed), (AbortCause::Doomed, 0));
        assert_eq!(rep.dropped_events, 0);
    }

    #[test]
    fn history_merges_sorted_and_validates() {
        let r = Recorder::default();
        for txn in 0..4u64 {
            r.record(txn, EventKind::Begin);
            r.record(
                txn,
                EventKind::Grant {
                    resource: txn,
                    mode: "Rc",
                },
            );
            r.record(txn, EventKind::Commit);
        }
        let h = r.history();
        assert_eq!(h.len(), 12);
        assert!(h.windows(2).all(|w| w[0].ts <= w[1].ts), "sorted by ts");
        validate_history(&h).unwrap();
    }

    #[test]
    fn cross_thread_recording_is_complete() {
        let r = std::sync::Arc::new(Recorder::default());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..50 {
                        let txn = t * 100 + i;
                        r.record(txn, EventKind::Begin);
                        r.record(txn, EventKind::Commit);
                    }
                });
            }
        });
        let rep = r.report();
        assert_eq!((rep.begins, rep.commits), (400, 400));
        assert_eq!(rep.dropped_events, 0);
        validate_history(&r.history()).unwrap();
    }

    #[test]
    fn overflow_counts_drops() {
        let r = Recorder::with_capacity(1, 4);
        for txn in 0..10 {
            r.record(txn, EventKind::Begin);
        }
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.history().len(), 4);
        let rep = r.report();
        assert_eq!((rep.begins, rep.dropped_events), (4, 6), "counts cover what is retained");
    }

    #[test]
    fn validation_rejects_malformed_histories() {
        // Missing terminal.
        let h = vec![e(0, 1, EventKind::Begin)];
        assert!(validate_history(&h).unwrap_err().contains("terminal"));
        // Double terminal.
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Commit),
            e(
                2,
                1,
                EventKind::Abort {
                    cause: AbortCause::Stale,
                    rule: 0,
                },
            ),
        ];
        assert!(validate_history(&h).is_err());
        // Backwards time.
        let h = vec![e(5, 1, EventKind::Begin), e(3, 1, EventKind::Commit)];
        assert!(validate_history(&h).unwrap_err().contains("backwards"));
        // Event before begin.
        let h = vec![e(0, 1, EventKind::Commit)];
        assert!(validate_history(&h).unwrap_err().contains("before Begin"));
        // Duplicate begin.
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Begin),
            e(2, 1, EventKind::Commit),
        ];
        assert!(validate_history(&h).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn empty_history_is_trivially_valid() {
        validate_history(&[]).unwrap();
    }

    #[test]
    fn abort_without_begin_is_rejected() {
        let h = vec![e(
            0,
            9,
            EventKind::Abort {
                cause: AbortCause::Doomed,
                rule: 0,
            },
        )];
        let err = validate_history(&h).unwrap_err();
        assert!(err.contains("before Begin"), "{err}");
    }

    #[test]
    fn duplicate_commit_is_rejected() {
        let h = vec![
            e(0, 3, EventKind::Begin),
            e(1, 3, EventKind::Commit),
            e(2, 3, EventKind::Commit),
        ];
        let err = validate_history(&h).unwrap_err();
        assert!(err.contains("after a terminal"), "{err}");
    }

    #[test]
    fn cross_slot_timestamp_ties_are_fine() {
        // Two transactions recorded on different worker slots can share
        // identical timestamps; monotonicity is only *per transaction*,
        // and equal timestamps within one transaction are allowed too.
        let h = vec![
            e(5, 1, EventKind::Begin),
            e(5, 2, EventKind::Begin),
            e(5, 1, EventKind::Commit),
            e(5, 2, EventKind::Commit),
        ];
        validate_history(&h).unwrap();
    }

    #[test]
    fn receipts_may_trail_their_commit_but_not_an_abort() {
        let receipts = [
            EventKind::VersionWrite { resource: 3, seq: 1 },
            EventKind::WalSync { seq: 1 },
            EventKind::Checkpoint { seq: 1 },
            EventKind::ElidedCommit { resources: 2 },
        ];
        for receipt in receipts {
            assert!(receipt.trails_commit());
            let h = vec![e(0, 1, EventKind::Begin), e(1, 1, EventKind::Commit), e(2, 1, receipt)];
            validate_history(&h).unwrap();
            let aborted = EventKind::Abort { cause: AbortCause::Stale, rule: 0 };
            let h = vec![e(0, 1, EventKind::Begin), e(1, 1, aborted), e(2, 1, receipt)];
            let err = validate_history(&h).unwrap_err();
            assert!(err.contains("aborted"), "{err}");
            // And never before Begin.
            let h = vec![e(0, 1, receipt)];
            assert!(validate_history(&h).unwrap_err().contains("before Begin"));
        }
        assert!(!EventKind::Commit.trails_commit());
        assert!(!EventKind::Fault { kind: "x" }.trails_commit());
    }

    #[test]
    fn anomaly_markers_do_not_break_validation() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(
                1,
                1,
                EventKind::Abort {
                    cause: AbortCause::Deadlock,
                    rule: 0,
                },
            ),
            e(2, 1, EventKind::Anomaly { what: "late" }),
        ];
        validate_history(&h).unwrap();
    }

    #[test]
    fn wal_sequencing_rules_hold_and_falsify() {
        // A healthy durable history: checkpoint at 8, then syncs at and
        // above the checkpoint.
        let good = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Commit),
            e(2, 1, EventKind::Checkpoint { seq: 8 }),
            e(3, 1, EventKind::WalSync { seq: 8 }),
            e(4, 2, EventKind::Begin),
            e(5, 2, EventKind::Commit),
            e(6, 2, EventKind::WalSync { seq: 9 }),
        ];
        validate_history(&good).unwrap();
        // Corruption 1: a sync horizon below the installed checkpoint.
        let mut bad = good.clone();
        bad[6] = e(6, 2, EventKind::WalSync { seq: 7 });
        let err = validate_history(&bad).unwrap_err();
        assert!(err.contains("below the last Checkpoint"), "{err}");
        // Corruption 2: checkpoints going backwards.
        let bad = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Commit),
            e(2, 1, EventKind::Checkpoint { seq: 16 }),
            e(3, 2, EventKind::Begin),
            e(4, 2, EventKind::Commit),
            e(5, 2, EventKind::Checkpoint { seq: 8 }),
        ];
        let err = validate_history(&bad).unwrap_err();
        assert!(err.contains("Checkpoint seq went backwards"), "{err}");
        // Corruption 3: one commit claiming two syncs (or checkpoints).
        let bad = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Commit),
            e(2, 1, EventKind::WalSync { seq: 1 }),
            e(3, 1, EventKind::WalSync { seq: 2 }),
        ];
        assert!(validate_history(&bad).unwrap_err().contains("duplicate WalSync"));
        let bad = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Commit),
            e(2, 1, EventKind::Checkpoint { seq: 4 }),
            e(3, 1, EventKind::Checkpoint { seq: 8 }),
        ];
        assert!(validate_history(&bad).unwrap_err().contains("duplicate Checkpoint"));
    }

    #[test]
    fn snapshot_sequencing_rules_hold_and_falsify() {
        // A healthy MVCC attempt: pin at 5, read at/below 5, install
        // above 5.
        let good = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::SnapshotPin { seq: 5 }),
            e(2, 1, EventKind::VersionRead { resource: 9, seq: 5 }),
            e(3, 1, EventKind::VersionRead { resource: 10, seq: 3 }),
            e(4, 1, EventKind::Commit),
            e(5, 1, EventKind::VersionWrite { resource: 9, seq: 6 }),
        ];
        validate_history(&good).unwrap();
        // Corruption 1: a read above the pinned snapshot.
        let mut bad = good.clone();
        bad[2] = e(2, 1, EventKind::VersionRead { resource: 9, seq: 6 });
        let err = validate_history(&bad).unwrap_err();
        assert!(err.contains("above the pinned snapshot"), "{err}");
        // Corruption 2: a read with no pin at all.
        let bad = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::VersionRead { resource: 9, seq: 5 }),
            e(2, 1, EventKind::Commit),
        ];
        let err = validate_history(&bad).unwrap_err();
        assert!(err.contains("without a SnapshotPin"), "{err}");
        // Corruption 3: two pins on one transaction.
        let bad = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::SnapshotPin { seq: 5 }),
            e(2, 1, EventKind::SnapshotPin { seq: 6 }),
            e(3, 1, EventKind::Commit),
        ];
        assert!(validate_history(&bad).unwrap_err().contains("duplicate SnapshotPin"));
        // Corruption 4: the installed version does not postdate the pin.
        let mut bad = good;
        bad[5] = e(5, 1, EventKind::VersionWrite { resource: 9, seq: 5 });
        let err = validate_history(&bad).unwrap_err();
        assert!(err.contains("not above the pinned snapshot"), "{err}");
        // And a pin after the terminal is still rejected.
        let bad = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Commit),
            e(2, 1, EventKind::SnapshotPin { seq: 5 }),
        ];
        assert!(validate_history(&bad).unwrap_err().contains("after a terminal"));
    }

    #[test]
    fn rule_tables_accumulate() {
        let r = Recorder::default();
        let (bump, other, session) = (1, 0, u32::MAX);
        r.record(0, EventKind::Abort { cause: AbortCause::Doomed, rule: bump });
        r.record(1, EventKind::Abort { cause: AbortCause::Stale, rule: session });
        r.record(2, EventKind::Abort { cause: AbortCause::Doomed, rule: bump });
        r.record(3, EventKind::Commit);
        r.record(4, EventKind::Abort { cause: AbortCause::Deadlock, rule: other });
        let rep = r.report();
        let rows: Vec<(u32, u64)> = rep.rules.iter().map(|r| (r.rule, r.aborted)).collect();
        assert_eq!(rows, [(other, 1), (bump, 2), (session, 1)], "by rule id; no idle row");
    }
}
