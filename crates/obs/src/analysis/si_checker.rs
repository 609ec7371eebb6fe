//! Polygraph-based snapshot-isolation / serializability checking over
//! recovered MVCC histories — "search for a cycle" instead of "trust
//! the protocol" (Biswas & Enea's framing).
//!
//! The MVCC engine emits three event kinds beyond the lock-era
//! lifecycle: `SnapshotPin { seq }` (the read snapshot), `VersionRead
//! { resource, seq }` (which committed version each condition read
//! observed — the `wr` reads-from raw material) and `VersionWrite
//! { resource, seq }` (which version each commit installed — the `ww`
//! version-order raw material). [`extract`] recovers one [`SiTxn`]
//! footprint per transaction from a merged history and the commit
//! log's txn column; [`check`] then verifies, on the committed
//! footprints alone:
//!
//! 1. **Snapshot-consistent reads** — every read observed the *latest*
//!    committed version at or below the reader's snapshot (version 0 is
//!    the initial working memory).
//! 2. **First-committer-wins** — no two committed transactions with
//!    overlapping `[snapshot, commit]` intervals installed versions of
//!    the same element.
//! 3. **Version order = commit order** — a transaction's installed
//!    version sequence must agree with its slot in the commit log, so
//!    a swapped version order is caught even when every individual
//!    read looks plausible.
//! 4. **Serializability** — the direct serialization graph over `wr`
//!    (reads-from), `ww` (version order) and `rw` (anti-dependency)
//!    edges must be acyclic. This is the check that catches *write
//!    skew*: two snapshot transactions that each read what the other
//!    wrote produce `rw` edges in both directions — a cycle — while
//!    passing checks 1–3.
//!
//! The checker is deliberately independent of the engine: the
//! falsifiability tests hand-build [`SiTxn`] footprints (and corrupt
//! real histories) to prove it rejects bad executions rather than
//! rubber-stamping whatever the protocol produced.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

use super::checker::Verdict;

/// One transaction's MVCC footprint: what it pinned, read and wrote.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiTxn {
    /// Transaction id.
    pub txn: u64,
    /// Pinned read snapshot (a commit sequence number).
    pub snapshot: u64,
    /// Installing commit sequence, `None` if the transaction aborted
    /// (aborted footprints never enter the polygraph).
    pub commit_seq: Option<u64>,
    /// Its slot in the commit log, if it holds one (cross-checked
    /// against `commit_seq`: the installed version must be `slot + 1`).
    pub slot: Option<u64>,
    /// Condition reads: `(resource, version sequence observed)`.
    pub reads: Vec<(u64, u64)>,
    /// Resources this transaction installed new versions of.
    pub writes: Vec<u64>,
}

/// The SI checker's findings on one history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SiReport {
    /// Committed transactions that entered the polygraph.
    pub committed: usize,
    /// Dependency edges materialised (`wr` + `ww` + `rw`).
    pub edges: usize,
    /// Snapshot-isolation violations (checks 1–3; empty on a clean
    /// history).
    pub violations: Vec<String>,
    /// A dependency cycle, as a transaction-id path, if one exists
    /// (check 4; `None` on a serializable history).
    pub cycle: Option<Vec<u64>>,
}

impl SiReport {
    /// Combined verdict: SI-clean AND serializable.
    pub fn verdict(&self) -> Verdict {
        if self.violations.is_empty() && self.cycle.is_none() {
            Verdict::Consistent
        } else {
            Verdict::Inconsistent
        }
    }
}

/// Recovers per-transaction MVCC footprints from a merged history,
/// each with its slot in the commit log's txn column `log` (slot `i`
/// committed by `log[i]`). Transactions without a `SnapshotPin`
/// (lock-era runs, lock-manager bookkeeping) are skipped, so stock
/// histories yield an empty vector and the SI layer stays silent on
/// them.
pub fn extract(history: &[Event], log: &[u64]) -> Vec<SiTxn> {
    let mut txns: BTreeMap<u64, SiTxn> = BTreeMap::new();
    for ev in history {
        if let EventKind::SnapshotPin { seq } = ev.kind {
            txns.insert(ev.txn, SiTxn { txn: ev.txn, snapshot: seq, ..SiTxn::default() });
        }
    }
    for ev in history {
        let Some(t) = txns.get_mut(&ev.txn) else { continue };
        match ev.kind {
            EventKind::VersionRead { resource, seq } => t.reads.push((resource, seq)),
            EventKind::VersionWrite { resource, seq } => {
                t.commit_seq = Some(seq);
                t.writes.push(resource);
            }
            _ => {}
        }
    }
    for (slot, txn) in log.iter().enumerate() {
        if let Some(t) = txns.get_mut(txn) {
            t.slot = Some(slot as u64);
        }
    }
    txns.into_values().collect()
}

/// Runs every SI and serializability check over a set of footprints.
pub fn check(txns: &[SiTxn]) -> SiReport {
    let mut rep = SiReport::default();
    let committed: Vec<&SiTxn> = txns.iter().filter(|t| t.commit_seq.is_some()).collect();
    rep.committed = committed.len();

    // Check 3: version order must agree with the commit log's order
    // (version seq = slot + 1 by construction).
    for t in &committed {
        if let (Some(cs), Some(fs)) = (t.commit_seq, t.slot) {
            if cs != fs + 1 {
                rep.violations.push(format!(
                    "txn {}: installed version seq {} disagrees with commit slot {} \
                     (expected {})",
                    t.txn,
                    cs,
                    fs,
                    fs + 1
                ));
            }
        }
    }

    // The committed version history per resource: seq -> writer txn.
    // Version 0 is the initial working memory (no writer).
    let mut versions: BTreeMap<u64, BTreeMap<u64, u64>> = BTreeMap::new();
    for t in &committed {
        let seq = t.commit_seq.unwrap();
        for &res in &t.writes {
            if let Some(prev) = versions.entry(res).or_default().insert(seq, t.txn) {
                rep.violations.push(format!(
                    "resource {res}: two transactions ({prev} and {}) installed version {seq}",
                    t.txn
                ));
            }
        }
    }

    // Check 1: every read observed the latest committed version at or
    // below the reader's snapshot.
    for t in &committed {
        for &(res, v) in &t.reads {
            let chain = versions.get(&res);
            let expected = chain
                .map(|c| {
                    c.range(..=t.snapshot)
                        .next_back()
                        .map(|(&s, _)| s)
                        .unwrap_or(0)
                })
                .unwrap_or(0);
            if v != expected {
                rep.violations.push(format!(
                    "txn {}: read version {v} of resource {res} at snapshot {} \
                     (latest committed was {expected})",
                    t.txn, t.snapshot
                ));
            } else if v != 0 && chain.is_none_or(|c| !c.contains_key(&v)) {
                rep.violations.push(format!(
                    "txn {}: read version {v} of resource {res} which no transaction installed",
                    t.txn
                ));
            }
        }
    }

    // Check 2: first-committer-wins. Two committed writers of the same
    // element whose [snapshot, commit] intervals overlap are concurrent
    // under SI; the second to commit should have aborted.
    for (res, chain) in &versions {
        let writers: Vec<(u64, u64)> = chain.iter().map(|(&s, &t)| (s, t)).collect();
        for (i, &(s1, t1)) in writers.iter().enumerate() {
            for &(s2, t2) in &writers[i + 1..] {
                let (sn1, sn2) = (snapshot_of(&committed, t1), snapshot_of(&committed, t2));
                if sn1 < s2 && sn2 < s1 {
                    rep.violations.push(format!(
                        "resource {res}: concurrent writers {t1} (snapshot {sn1}, commit {s1}) \
                         and {t2} (snapshot {sn2}, commit {s2}) — first-committer-wins violated"
                    ));
                }
            }
        }
    }

    // Check 4: the direct serialization graph must be acyclic.
    let index: BTreeMap<u64, usize> = committed.iter().enumerate().map(|(i, t)| (t.txn, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); committed.len()];
    let edge = |adj: &mut Vec<Vec<usize>>, from: u64, to: u64, count: &mut usize| {
        if from == to {
            return;
        }
        if let (Some(&f), Some(&t)) = (index.get(&from), index.get(&to)) {
            if !adj[f].contains(&t) {
                adj[f].push(t);
                *count += 1;
            }
        }
    };
    for chain in versions.values() {
        // ww: version order.
        let writers: Vec<u64> = chain.values().copied().collect();
        for w in writers.windows(2) {
            edge(&mut adj, w[0], w[1], &mut rep.edges);
        }
    }
    for t in &committed {
        for &(res, v) in &t.reads {
            let chain = versions.get(&res);
            // wr: the version's writer happens before its reader.
            if v != 0 {
                if let Some(&writer) = chain.and_then(|c| c.get(&v)) {
                    edge(&mut adj, writer, t.txn, &mut rep.edges);
                }
            }
            // rw: the reader happens before the installer of the *next*
            // version (the anti-dependency edge; the ww chain covers
            // later versions transitively).
            if let Some((_, &next_writer)) =
                chain.and_then(|c| c.range(v + 1..).next()) {
                edge(&mut adj, t.txn, next_writer, &mut rep.edges);
            }
        }
    }
    rep.cycle = find_cycle(&adj).map(|path| {
        path.into_iter().map(|i| committed[i].txn).collect()
    });
    rep
}

/// Convenience: extract + check in one call.
pub fn check_history(history: &[Event], log: &[u64]) -> SiReport {
    check(&extract(history, log))
}

fn snapshot_of(committed: &[&SiTxn], txn: u64) -> u64 {
    committed
        .iter()
        .find(|t| t.txn == txn)
        .map(|t| t.snapshot)
        .unwrap_or(0)
}

/// Iterative three-colour DFS; returns one cycle as a node path.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; adj.len()];
    let mut parent = vec![usize::MAX; adj.len()];
    for start in 0..adj.len() {
        if colour[start] != Colour::White {
            continue;
        }
        // Stack of (node, next-edge-index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        colour[start] = Colour::Grey;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let to = adj[node][*next];
                *next += 1;
                match colour[to] {
                    Colour::White => {
                        colour[to] = Colour::Grey;
                        parent[to] = node;
                        stack.push((to, 0));
                    }
                    Colour::Grey => {
                        // Found a back edge node -> to: walk parents back
                        // to `to` for the cycle path.
                        let mut path = vec![node];
                        let mut cur = node;
                        while cur != to {
                            cur = parent[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    Colour::Black => {}
                }
            } else {
                colour[node] = Colour::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(txn: u64, snapshot: u64, seq: u64, reads: &[(u64, u64)], writes: &[u64]) -> SiTxn {
        SiTxn {
            txn,
            snapshot,
            commit_seq: Some(seq),
            slot: Some(seq - 1),
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    #[test]
    fn serial_history_is_consistent() {
        // T1 reads x@0, writes x (seq 1); T2 at snapshot 1 reads x@1,
        // writes y (seq 2).
        let txns = vec![
            committed(1, 0, 1, &[(10, 0)], &[10]),
            committed(2, 1, 2, &[(10, 1)], &[20]),
        ];
        let rep = check(&txns);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert!(rep.cycle.is_none());
        assert_eq!(rep.verdict(), Verdict::Consistent);
        assert_eq!(rep.committed, 2);
    }

    #[test]
    fn write_skew_is_a_cycle() {
        // The classic: both read {x, y} at snapshot 0, T1 writes x, T2
        // writes y. SI-legal read-wise, but rw edges run both ways.
        let txns = vec![
            committed(1, 0, 1, &[(10, 0), (20, 0)], &[10]),
            committed(2, 0, 2, &[(10, 0), (20, 0)], &[20]),
        ];
        let rep = check(&txns);
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
        let cycle = rep.cycle.expect("write skew must close a cycle");
        assert!(cycle.contains(&1) && cycle.contains(&2), "{cycle:?}");
    }

    #[test]
    fn stale_read_is_a_violation() {
        // T2's snapshot (1) covers T1's write of x, but it read v0.
        let txns = vec![
            committed(1, 0, 1, &[], &[10]),
            committed(2, 1, 2, &[(10, 0)], &[20]),
        ];
        let rep = check(&txns);
        assert!(
            rep.violations.iter().any(|v| v.contains("latest committed")),
            "{:?}",
            rep.violations
        );
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
    }

    #[test]
    fn first_committer_wins_violation_is_caught() {
        // Both pinned snapshot 0 and both installed versions of x.
        let txns = vec![
            committed(1, 0, 1, &[], &[10]),
            committed(2, 0, 2, &[], &[10]),
        ];
        let rep = check(&txns);
        assert!(
            rep.violations.iter().any(|v| v.contains("first-committer-wins")),
            "{:?}",
            rep.violations
        );
    }

    #[test]
    fn version_order_disagreeing_with_commit_order_is_caught() {
        let mut t = committed(1, 0, 5, &[], &[10]);
        t.slot = Some(1); // slot 1 should install version 2, not 5
        let rep = check(&[t]);
        assert!(
            rep.violations.iter().any(|v| v.contains("disagrees with commit slot")),
            "{:?}",
            rep.violations
        );
    }

    #[test]
    fn aborted_footprints_stay_out_of_the_polygraph() {
        let aborted = SiTxn {
            txn: 9,
            snapshot: 0,
            commit_seq: None,
            slot: None,
            reads: vec![(10, 0)],
            writes: vec![],
        };
        let rep = check(&[aborted, committed(1, 0, 1, &[(10, 0)], &[10])]);
        assert_eq!(rep.committed, 1);
        assert_eq!(rep.verdict(), Verdict::Consistent);
    }

    #[test]
    fn extract_recovers_footprints_and_skips_lock_era_txns() {
        use crate::event::Event;
        let e = |ts, txn, kind| Event { ts, txn, kind };
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::SnapshotPin { seq: 0 }),
            e(2, 1, EventKind::VersionRead { resource: 10, seq: 0 }),
            e(3, 1, EventKind::Commit),
            e(5, 1, EventKind::VersionWrite { resource: 10, seq: 1 }),
            // Lock-era transaction: no pin, must be skipped.
            e(6, 2, EventKind::Begin),
            e(7, 2, EventKind::Grant { resource: 10, mode: "Rc" }),
            e(8, 2, EventKind::Commit),
        ];
        let log = [1, 2];
        let txns = extract(&h, &log);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].txn, 1);
        assert_eq!(txns[0].commit_seq, Some(1));
        assert_eq!(txns[0].slot, Some(0));
        assert_eq!(txns[0].reads, vec![(10, 0)]);
        assert_eq!(txns[0].writes, vec![10]);
        assert_eq!(check_history(&h, &log).verdict(), Verdict::Consistent);
        // The log giving txn 1 slot 1 contradicts its version 1.
        let rep = check_history(&h, &[2, 1]);
        assert!(rep.violations.iter().any(|v| v.contains("disagrees with commit slot")));
    }
}
