//! History-based semantic-consistency checking — §3's Theorem 2
//! (`ES_M ⊆ ES_single`) as an executable assertion.
//!
//! The check has two halves:
//!
//! 1. **Structural** (this module, pure history): recover the commit
//!    order from `Fire { rule, seq }` records and verify it is sound —
//!    every committed transaction carries exactly one `Fire`, no
//!    aborted transaction carries any, the sequence numbers form a
//!    contiguous `0..n` permutation, and commit-event timestamps are
//!    non-decreasing along the sequence (the engine appends to the
//!    trace *inside* the commit critical section, so trace order must
//!    equal commit order — a violation means the parallel run's
//!    recorded firing sequence is not the one it actually performed).
//! 2. **Replay** (supplied by the caller): feed the recovered firing
//!    sequence through the single-thread engine's execution-graph
//!    oracle (`validate_trace` in `dps-core`, Defs 3.1–3.2). This crate
//!    sits below `dps-core`, so it cannot replay itself; the
//!    [`CheckerReport`] carries the structural verdict and the caller
//!    attaches the replay result via
//!    [`CheckerReport::set_replay_result`]. Both halves must pass for a
//!    [`Verdict::Consistent`].
//!
//! Per Biswas & Enea, the per-transaction histories are exactly the
//! raw material needed: no engine cooperation beyond the event stream.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

use super::graph::BlockingGraph;

/// One recovered commit, in sequence order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Transaction id.
    pub txn: u64,
    /// 0-based slot in the global commit sequence.
    pub seq: u64,
    /// Interned rule id (resolve via `Recorder::rule_names`).
    pub rule: u32,
    /// Commit-event timestamp (ns).
    pub commit_ts: u64,
}

/// Overall verdict of the consistency check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Firing sequence recovered cleanly and (if replayed) is a member
    /// of `ES_single`.
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
    /// Recovered commits, sorted by `seq`.
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

    /// The recovered rule-id firing sequence, in commit order.
    pub fn rule_sequence(&self) -> Vec<u32> {
        self.commits.iter().map(|c| c.rule).collect()
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

/// Recovers the commit order from a merged history and runs every
/// structural check. `graph` must be built from the same history.
pub fn check(history: &[Event], graph: &BlockingGraph) -> CheckerReport {
    let mut rep = CheckerReport::default();
    let mut fires: BTreeMap<u64, Vec<(u32, u64, u64)>> = BTreeMap::new(); // txn -> (rule, seq, ts)
    for ev in history {
        if let EventKind::Fire { rule, seq } = ev.kind {
            fires.entry(ev.txn).or_default().push((rule, seq, ev.ts));
        }
    }

    // Pair Fires with terminals.
    for (txn, span) in &graph.spans {
        let txn_fires = fires.get(txn).map_or(&[][..], Vec::as_slice);
        if span.committed {
            match txn_fires.len() {
                0 => rep
                    .structural_errors
                    .push(format!("txn {txn}: committed but has no Fire record")),
                1 => {}
                n => rep
                    .structural_errors
                    .push(format!("txn {txn}: {n} Fire records (expected 1)")),
            }
        } else if !txn_fires.is_empty() {
            rep.structural_errors
                .push(format!("txn {txn}: Fire on a transaction that never committed"));
        }
    }

    // Assemble the sequence.
    let mut commits: Vec<CommitRecord> = Vec::new();
    for (txn, span) in &graph.spans {
        if !span.committed {
            continue;
        }
        if let Some(&(rule, seq, _ts)) = fires.get(txn).and_then(|v| v.first()) {
            commits.push(CommitRecord {
                txn: *txn,
                seq,
                rule,
                commit_ts: span.commit_ts.unwrap_or(span.end_ts),
            });
        }
    }
    commits.sort_by_key(|c| (c.seq, c.txn));

    // Sequence numbers must be the contiguous permutation 0..n.
    for (i, c) in commits.iter().enumerate() {
        if c.seq != i as u64 {
            rep.structural_errors.push(format!(
                "commit sequence broken at position {i}: expected seq {i}, found seq {} (txn {})",
                c.seq, c.txn
            ));
            break;
        }
    }

    // Commit timestamps must be non-decreasing along the sequence: the
    // engine holds the world+ledger locks across lm.commit (which
    // stamps the Commit event) and the trace append (which defines
    // `seq`), so the two orders agree on a faithful recording.
    for w in commits.windows(2) {
        if w[1].commit_ts < w[0].commit_ts {
            rep.structural_errors.push(format!(
                "commit timestamps disagree with sequence order: seq {} (txn {}) at {}ns \
                 precedes seq {} (txn {}) at {}ns",
                w[1].seq, w[1].txn, w[1].commit_ts, w[0].seq, w[0].txn, w[0].commit_ts
            ));
            break;
        }
    }

    rep.commits = commits;
    rep
}

#[cfg(test)]
mod tests {
    use super::super::graph::build;
    use super::*;
    use crate::event::AbortCause;

    fn e(ts: u64, txn: u64, kind: EventKind) -> Event {
        Event { ts, txn, kind }
    }

    fn committed(ts0: u64, txn: u64, rule: u32, seq: u64) -> [Event; 3] {
        [
            e(ts0, txn, EventKind::Begin),
            e(ts0 + 5, txn, EventKind::Commit),
            e(ts0 + 6, txn, EventKind::Fire { rule, seq }),
        ]
    }

    #[test]
    fn clean_sequence_is_consistent() {
        let mut h = Vec::new();
        h.extend(committed(0, 10, 2, 0));
        h.extend(committed(10, 11, 0, 1));
        h.extend(committed(20, 12, 2, 2));
        let rep = check(&h, &build(&h));
        assert!(rep.structural_errors.is_empty(), "{:?}", rep.structural_errors);
        assert_eq!(rep.rule_sequence(), vec![2, 0, 2]);
        assert_eq!(rep.verdict(), Verdict::Consistent);
        assert_eq!(rep.commits[1].txn, 11);
    }

    #[test]
    fn replay_failure_flips_the_verdict() {
        let h: Vec<Event> = committed(0, 1, 0, 0).into();
        let mut rep = check(&h, &build(&h));
        assert_eq!(rep.verdict(), Verdict::Consistent);
        rep.set_replay_result(Err("rule not enabled at step 0".into()));
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
    }

    #[test]
    fn missing_fire_is_structural() {
        let h = vec![e(0, 1, EventKind::Begin), e(1, 1, EventKind::Commit)];
        let rep = check(&h, &build(&h));
        assert!(rep.structural_errors.iter().any(|e| e.contains("no Fire")));
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
    }

    #[test]
    fn fire_on_aborted_txn_is_structural() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Abort { cause: AbortCause::Stale, rule: 0 }),
            e(2, 1, EventKind::Fire { rule: 0, seq: 0 }),
        ];
        let rep = check(&h, &build(&h));
        assert!(rep
            .structural_errors
            .iter()
            .any(|e| e.contains("never committed")));
    }

    #[test]
    fn gap_in_sequence_is_structural() {
        let mut h = Vec::new();
        h.extend(committed(0, 1, 0, 0));
        h.extend(committed(10, 2, 0, 2)); // seq 1 missing
        let rep = check(&h, &build(&h));
        assert!(rep
            .structural_errors
            .iter()
            .any(|e| e.contains("sequence broken")));
    }

    #[test]
    fn out_of_order_commit_timestamps_are_structural() {
        // seq 0 commits *after* seq 1 in wall time — the injected
        // out-of-order replay of the acceptance criteria.
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(0, 2, EventKind::Begin),
            e(50, 2, EventKind::Commit),
            e(51, 2, EventKind::Fire { rule: 0, seq: 1 }),
            e(60, 1, EventKind::Commit),
            e(61, 1, EventKind::Fire { rule: 0, seq: 0 }),
        ];
        let rep = check(&h, &build(&h));
        assert!(
            rep.structural_errors
                .iter()
                .any(|e| e.contains("timestamps disagree")),
            "{:?}",
            rep.structural_errors
        );
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
    }
}
