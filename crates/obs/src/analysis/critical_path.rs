//! Critical-path extraction and the paper-§5 speed-up estimate.
//!
//! §5 bounds dynamic-mode speed-up by three factors: the degree of
//! conflict, the wasted-work fraction `f`, and the execution-time
//! distribution. This module computes all three from the blocking
//! graph:
//!
//! * each transaction is a node weighted by its **busy time** (span
//!   minus lock-wait time);
//! * wait and doom edges impose `holder → waiter` dependencies, kept
//!   only when the holder finished no later than the waiter (ties
//!   broken by txn id) so the graph is a DAG by construction;
//! * the **critical path** is the heaviest dependency chain — the
//!   irreducible serial core of the run. `effective parallelism` =
//!   total busy ÷ critical path; `max speed-up estimate` = *useful*
//!   busy (committed transactions only) ÷ critical path — what a
//!   perfect scheduler could achieve without shortening any firing;
//! * `f` = aborted transactions' busy time ÷ total busy time.

use std::collections::BTreeMap;

use super::graph::BlockingGraph;

/// The critical-path / speed-up summary of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPathReport {
    /// Number of transactions (committed + aborted).
    pub txns: u64,
    /// Wall clock from first Begin to last terminal (ns).
    pub wall_ns: u64,
    /// Σ busy time over every transaction (ns).
    pub total_busy_ns: u64,
    /// Σ busy time over committed transactions (ns).
    pub useful_busy_ns: u64,
    /// Σ busy time over aborted transactions (ns) — the wasted work.
    pub wasted_ns: u64,
    /// §5's `f`: `wasted_ns / total_busy_ns` (0 when nothing ran).
    pub wasted_fraction: f64,
    /// Weight of the heaviest dependency chain (ns).
    pub critical_path_ns: u64,
    /// The transactions on that chain, in dependency order.
    pub critical_path: Vec<u64>,
    /// `total_busy_ns / critical_path_ns` (1.0 when serial).
    pub effective_parallelism: f64,
    /// `useful_busy_ns / critical_path_ns` — the §5 max-speed-up
    /// estimate after discounting wasted work.
    pub max_speedup_estimate: f64,
}

/// Computes the critical path of a blocking graph.
pub fn critical_path(g: &BlockingGraph) -> CriticalPathReport {
    let mut rep = CriticalPathReport {
        txns: g.spans.len() as u64,
        ..Default::default()
    };
    if g.spans.is_empty() {
        return rep;
    }
    let first_begin = g.spans.values().map(|s| s.begin_ts).min().unwrap_or(0);
    let last_end = g.spans.values().map(|s| s.end_ts).max().unwrap_or(0);
    rep.wall_ns = last_end.saturating_sub(first_begin);
    for span in g.spans.values() {
        let busy = span.busy_ns();
        rep.total_busy_ns += busy;
        if span.committed {
            rep.useful_busy_ns += busy;
        } else {
            rep.wasted_ns += busy;
        }
    }
    rep.wasted_fraction = if rep.total_busy_ns > 0 {
        rep.wasted_ns as f64 / rep.total_busy_ns as f64
    } else {
        0.0
    };

    // Dependency edges holder → waiter, deduplicated, restricted to an
    // order that makes the graph acyclic: an edge is kept only if the
    // holder's (end_ts, txn) is strictly less than the waiter's. Wait
    // edges almost always satisfy this (the holder released before the
    // waiter proceeded); the filter only drops edges that would break
    // the DAG, e.g. mutual waits recorded around a deadlock.
    let order_key = |txn: u64| -> (u64, u64) {
        let span = &g.spans[&txn];
        (span.end_ts, txn)
    };
    let mut preds: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for edge in &g.edges {
        let Some(h) = edge.holder else { continue };
        if h == edge.waiter || !g.spans.contains_key(&h) {
            continue;
        }
        if order_key(h) < order_key(edge.waiter) {
            let p = preds.entry(edge.waiter).or_default();
            if !p.contains(&h) {
                p.push(h);
            }
        }
    }

    // Longest-path DP over nodes in (end_ts, txn) order — a valid
    // topological order for the edge set above.
    let mut nodes: Vec<u64> = g.spans.keys().copied().collect();
    nodes.sort_by_key(|&t| order_key(t));
    let mut dist: BTreeMap<u64, u64> = BTreeMap::new();
    let mut parent: BTreeMap<u64, u64> = BTreeMap::new();
    for &n in &nodes {
        let busy = g.spans[&n].busy_ns();
        let mut best: u64 = 0;
        if let Some(ps) = preds.get(&n) {
            for &p in ps {
                let d = dist[&p];
                if d > best {
                    best = d;
                    parent.insert(n, p);
                }
            }
        }
        dist.insert(n, best + busy);
    }
    let (&tail, &len) = dist
        .iter()
        .max_by_key(|&(&t, &d)| (d, std::cmp::Reverse(t)))
        .expect("non-empty");
    rep.critical_path_ns = len;
    let mut path = vec![tail];
    let mut cur = tail;
    while let Some(&p) = parent.get(&cur) {
        path.push(p);
        cur = p;
    }
    path.reverse();
    rep.critical_path = path;
    if rep.critical_path_ns > 0 {
        rep.effective_parallelism = rep.total_busy_ns as f64 / rep.critical_path_ns as f64;
        rep.max_speedup_estimate = rep.useful_busy_ns as f64 / rep.critical_path_ns as f64;
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

    #[test]
    fn serial_chain_has_no_parallelism() {
        // 1 holds, 2 waits its whole life: critical path = busy(1) + busy(2).
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(0, 1, EventKind::Grant { resource: 2, mode: "X" }),
            e(0, 2, EventKind::Begin),
            e(0, 2, EventKind::Block { resource: 2, mode: "X", holder: Some(1) }),
            e(100, 1, EventKind::Commit),
            e(100, 2, EventKind::Grant { resource: 2, mode: "X" }),
            e(200, 2, EventKind::Commit),
        ];
        let rep = critical_path(&build(&h));
        assert_eq!(rep.wall_ns, 200);
        // busy(1) = 100, busy(2) = 200 - 100 blocked = 100.
        assert_eq!(rep.total_busy_ns, 200);
        assert_eq!(rep.critical_path_ns, 200);
        assert_eq!(rep.critical_path, vec![1, 2]);
        assert!((rep.effective_parallelism - 1.0).abs() < 1e-9);
        assert_eq!(rep.wasted_fraction, 0.0);
    }

    #[test]
    fn independent_txns_run_in_parallel() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(0, 2, EventKind::Begin),
            e(100, 1, EventKind::Commit),
            e(100, 2, EventKind::Commit),
        ];
        let rep = critical_path(&build(&h));
        assert_eq!(rep.total_busy_ns, 200);
        assert_eq!(rep.critical_path_ns, 100, "no edges → heaviest single node");
        assert!((rep.effective_parallelism - 2.0).abs() < 1e-9);
    }

    #[test]
    fn aborted_work_is_wasted() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(0, 2, EventKind::Begin),
            e(100, 1, EventKind::Commit),
            e(50, 2, EventKind::Abort { cause: AbortCause::Doomed, rule: 0 }),
        ];
        let rep = critical_path(&build(&h));
        assert_eq!(rep.useful_busy_ns, 100);
        assert_eq!(rep.wasted_ns, 50);
        assert!((rep.wasted_fraction - 50.0 / 150.0).abs() < 1e-9);
        assert!(rep.max_speedup_estimate <= rep.effective_parallelism);
    }

    #[test]
    fn doom_edge_serialises_committer_and_victim() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(0, 2, EventKind::Begin),
            e(60, 2, EventKind::Doom { by: 1 }),
            e(50, 1, EventKind::Commit),
            e(70, 2, EventKind::Abort { cause: AbortCause::Doomed, rule: 0 }),
        ];
        let rep = critical_path(&build(&h));
        // Edge 1 → 2 (1 ended at 50 < 2's 70): path busy(1)+busy(2) = 50+70.
        assert_eq!(rep.critical_path, vec![1, 2]);
        assert_eq!(rep.critical_path_ns, 120);
    }

    #[test]
    fn empty_history_yields_zeroes() {
        let rep = critical_path(&build(&[]));
        assert_eq!(rep.txns, 0);
        assert_eq!(rep.critical_path_ns, 0);
        assert!(rep.critical_path.is_empty());
    }
}
