//! History-based semantic-consistency checking — §3's Theorem 2
//! (`ES_M ⊆ ES_single`) as an executable assertion.
//!
//! The check has two halves:
//!
//! 1. **Structural** (this module): pair the commit order with the
//!    history. The order is the engine's commit log, given once: its
//!    txn column names the transaction that took each slot, so slots
//!    are contiguous by construction. What can still be wrong is the
//!    pairing: every committed transaction must hold exactly one slot
//!    and an aborted or unknown one none, and commit-event timestamps
//!    must not decrease along the slots (the lock manager stamps
//!    `Commit` and the engine appends to the log in one hold of the
//!    base mutex, so log order must equal commit order — a violation
//!    means the recorded sequence is not the one the run performed).
//! 2. **Replay** (supplied by the caller): feed the logged firing
//!    sequence through the single-thread engine's execution-graph
//!    oracle (`validate_trace` in `dps-core`, Defs 3.1–3.2). This crate
//!    sits below `dps-core`, so it cannot replay itself; the
//!    [`CheckerReport`] carries the structural verdict and the caller
//!    attaches the replay result via
//!    [`CheckerReport::set_replay_result`]. Both halves must pass for a
//!    [`Verdict::Consistent`].
//!
//! Per Biswas & Enea, the per-transaction histories plus one given
//! commit order are exactly the raw material needed.

use std::collections::BTreeMap;

use super::graph::BlockingGraph;

/// One logged commit whose transaction committed in the history, in
/// slot order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Transaction id.
    pub txn: u64,
    /// 0-based slot in the commit log.
    pub seq: u64,
    /// Commit-event timestamp (ns).
    pub commit_ts: u64,
}

/// Overall verdict of the consistency check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The commit log pairs cleanly with the history and (if replayed)
    /// is a member of `ES_single`.
    Consistent,
    /// A structural error or a replay violation.
    Inconsistent,
}

impl Verdict {
    /// Stable machine-readable name (the CI gate string).
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Consistent => "consistent",
            Verdict::Inconsistent => "inconsistent",
        }
    }
}

/// The checker's findings on one history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckerReport {
    /// Logged commits of committed transactions, in slot order.
    pub commits: Vec<CommitRecord>,
    /// Structural violations (empty on a sound history).
    pub structural_errors: Vec<String>,
    /// `Some(Err(why))` if the caller replayed the sequence through the
    /// single-thread oracle and it violated the execution graph;
    /// `Some(Ok(()))` if the replay succeeded; `None` if not replayed.
    pub replay_result: Option<Result<(), String>>,
}

impl CheckerReport {
    /// Attaches the caller's §3 replay result (see module docs).
    pub fn set_replay_result(&mut self, result: Result<(), String>) {
        self.replay_result = Some(result);
    }

    /// Combined verdict: structural soundness AND (if present) replay
    /// success.
    pub fn verdict(&self) -> Verdict {
        let replay_ok = !matches!(self.replay_result, Some(Err(_)));
        if self.structural_errors.is_empty() && replay_ok {
            Verdict::Consistent
        } else {
            Verdict::Inconsistent
        }
    }
}

/// Pairs the commit log's txn column `txns` (slot `i` committed by
/// `txns[i]`) with `graph`, built from the run's history, and runs
/// every structural check.
pub fn check(graph: &BlockingGraph, txns: &[u64]) -> CheckerReport {
    let mut rep = CheckerReport::default();
    let mut slots: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (seq, &txn) in txns.iter().enumerate() {
        slots.entry(txn).or_default().push(seq);
    }
    for (txn, span) in &graph.spans {
        if span.committed && !slots.contains_key(txn) {
            rep.structural_errors
                .push(format!("commit sequence: txn {txn} committed but holds no slot"));
        }
    }
    for (txn, held) in &slots {
        let committed = graph.spans.get(txn).is_some_and(|s| s.committed);
        if !committed {
            rep.structural_errors.push(format!(
                "commit sequence: slot {} names txn {txn}, which never committed",
                held[0]
            ));
        } else if held.len() > 1 {
            rep.structural_errors.push(format!(
                "commit sequence: txn {txn} holds {} slots {held:?} (expected 1)",
                held.len()
            ));
        }
    }

    rep.commits = txns
        .iter()
        .enumerate()
        .filter_map(|(seq, txn)| {
            let commit_ts = graph.spans.get(txn)?.commit_ts?;
            Some(CommitRecord { txn: *txn, seq: seq as u64, commit_ts })
        })
        .collect();

    // Commit timestamps must be non-decreasing along the slots: the
    // engine holds the base mutex across lm.commit (which stamps the
    // Commit event) and the log append (which takes the slot), so the
    // two orders agree on a faithful recording.
    if let Some(w) = rep.commits.windows(2).find(|w| w[1].commit_ts < w[0].commit_ts) {
        rep.structural_errors.push(format!(
            "commit timestamps disagree with sequence order: seq {} (txn {}) at {}ns \
             precedes seq {} (txn {}) at {}ns",
            w[1].seq, w[1].txn, w[1].commit_ts, w[0].seq, w[0].txn, w[0].commit_ts
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::super::graph::build;
    use super::*;
    use crate::event::{AbortCause, Event, EventKind};

    fn e(ts: u64, txn: u64, kind: EventKind) -> Event {
        Event { ts, txn, kind }
    }

    fn committed(ts0: u64, txn: u64) -> [Event; 2] {
        [e(ts0, txn, EventKind::Begin), e(ts0 + 5, txn, EventKind::Commit)]
    }

    fn checked(h: &[Event], txns: &[u64]) -> CheckerReport {
        check(&build(h), txns)
    }

    #[test]
    fn clean_sequence_is_consistent() {
        let mut h = Vec::new();
        h.extend(committed(0, 10));
        h.extend(committed(10, 11));
        h.extend(committed(20, 12));
        let rep = checked(&h, &[10, 11, 12]);
        assert!(rep.structural_errors.is_empty(), "{:?}", rep.structural_errors);
        assert_eq!(rep.verdict(), Verdict::Consistent);
        assert_eq!(rep.commits.len(), 3);
        assert_eq!((rep.commits[1].txn, rep.commits[1].seq), (11, 1));
    }

    #[test]
    fn replay_failure_flips_the_verdict() {
        let h: Vec<Event> = committed(0, 1).into();
        let mut rep = checked(&h, &[1]);
        assert_eq!(rep.verdict(), Verdict::Consistent);
        rep.set_replay_result(Err("rule not enabled at step 0".into()));
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
    }

    #[test]
    fn a_commit_without_a_slot_is_structural() {
        let h: Vec<Event> = committed(0, 1).into();
        let rep = checked(&h, &[]);
        assert!(rep.structural_errors.iter().any(|e| e.contains("holds no slot")));
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
    }

    #[test]
    fn a_slot_of_an_aborted_or_unknown_txn_is_structural() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Abort { cause: AbortCause::Stale, rule: 0 }),
        ];
        for txn in [1, 99] {
            let rep = checked(&h, &[txn]);
            assert!(
                rep.structural_errors.iter().any(|e| e.contains("never committed")),
                "txn {txn}: {:?}",
                rep.structural_errors
            );
        }
    }

    #[test]
    fn two_slots_of_one_txn_are_structural() {
        let mut h = Vec::new();
        h.extend(committed(0, 1));
        h.extend(committed(10, 2));
        let rep = checked(&h, &[1, 2, 1]);
        assert!(rep.structural_errors.iter().any(|e| e.contains("holds 2 slots")));
    }

    #[test]
    fn out_of_order_commit_timestamps_are_structural() {
        // Slot 0 commits *after* slot 1 in wall time — the injected
        // out-of-order replay of the acceptance criteria.
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(0, 2, EventKind::Begin),
            e(50, 2, EventKind::Commit),
            e(60, 1, EventKind::Commit),
        ];
        let rep = checked(&h, &[1, 2]);
        assert!(
            rep.structural_errors
                .iter()
                .any(|e| e.contains("timestamps disagree")),
            "{:?}",
            rep.structural_errors
        );
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
        assert!(checked(&h, &[2, 1]).structural_errors.is_empty());
    }
}
