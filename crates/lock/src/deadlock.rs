//! Cross-shard waits-for deadlock detection.
//!
//! With the lock table striped there is no single mutex under which a
//! globally consistent waits-for graph exists, so detection walks the
//! graph edge by edge: the `blockers` closure reads one transaction's
//! `waiting_on` (its own mutex) and then that one resource's entry (its
//! shard's mutex) — never holding two shard locks at once.
//!
//! The snapshot is therefore *fuzzy*: an edge may be stale by the time
//! the next one is read. The consequences are benign — a genuinely
//! deadlocked cycle is stable (none of its members can make progress,
//! so its edges cannot change until a victim is doomed) and will be
//! found by the last transaction to block; a phantom cycle can at worst
//! doom a transaction that would have proceeded, which is
//! indistinguishable from an ordinary abort-and-retry to the engine.
//! The paper's §4.3 remark applies: the new `Rc` mode "does not
//! introduce new kinds of deadlocks", so the standard machinery —
//! DFS plus youngest-victim selection — carries over unchanged.

use std::collections::HashSet;

use crate::TxnId;

/// Looks for a waits-for cycle through `start`; returns the members.
///
/// `blockers(t)` must return the transactions `t` currently waits for
/// (conflicting holders and earlier conflicting waiters of the resource
/// `t` is blocked on).
///
/// Each transaction is expanded at most once per walk: one explored
/// without reaching `start` cannot reach it by another route either.
/// Without that, a FIFO convoy on one hot lock — waiter *k* blocked by
/// the holder and all *k* earlier waiters, an acyclic graph — costs
/// 2^*k* expansions, each taking a shard mutex.
pub(crate) fn find_cycle(
    start: TxnId,
    blockers: &dyn Fn(TxnId) -> Vec<TxnId>,
) -> Option<Vec<TxnId>> {
    fn dfs(
        node: TxnId,
        start: TxnId,
        path: &mut Vec<TxnId>,
        seen: &mut HashSet<TxnId>,
        blockers: &dyn Fn(TxnId) -> Vec<TxnId>,
    ) -> bool {
        if !path.is_empty() && node == start {
            return true;
        }
        if !seen.insert(node) {
            return false;
        }
        path.push(node);
        for b in blockers(node) {
            if dfs(b, start, path, seen, blockers) {
                return true;
            }
        }
        path.pop();
        false
    }
    let mut path: Vec<TxnId> = Vec::new();
    dfs(start, start, &mut path, &mut HashSet::new(), blockers).then_some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn graph(edges: &[(u64, u64)]) -> impl Fn(TxnId) -> Vec<TxnId> + '_ {
        let mut map: HashMap<u64, Vec<TxnId>> = HashMap::new();
        for &(a, b) in edges {
            map.entry(a).or_default().push(TxnId(b));
        }
        move |t: TxnId| map.get(&t.0).cloned().unwrap_or_default()
    }

    #[test]
    fn two_cycle_found() {
        let g = graph(&[(0, 1), (1, 0)]);
        let cycle = find_cycle(TxnId(0), &g).expect("cycle");
        assert!(cycle.contains(&TxnId(0)) && cycle.contains(&TxnId(1)));
    }

    #[test]
    fn three_cycle_found_from_any_member() {
        let g = graph(&[(0, 1), (1, 2), (2, 0)]);
        for s in 0..3 {
            let cycle = find_cycle(TxnId(s), &g).expect("cycle");
            assert_eq!(cycle.len(), 3);
        }
    }

    #[test]
    fn chain_has_no_cycle() {
        let g = graph(&[(0, 1), (1, 2), (2, 3)]);
        assert!(find_cycle(TxnId(0), &g).is_none());
    }

    #[test]
    fn side_branch_does_not_confuse_dfs() {
        // 0 → {1, 2}; only the 2-branch loops back.
        let g = graph(&[(0, 1), (0, 2), (2, 0)]);
        let cycle = find_cycle(TxnId(0), &g).expect("cycle");
        assert!(cycle.contains(&TxnId(2)));
        assert!(!cycle.contains(&TxnId(1)), "dead branch popped");
    }

    #[test]
    fn fifo_convoy_is_walked_in_linear_expansions() {
        // Waiter k of one hot lock waits for every earlier waiter: a
        // complete DAG, no cycle. Path-only bookkeeping would expand
        // 2^40 nodes here.
        let n = 40u64;
        let edges: Vec<(u64, u64)> = (0..n).flat_map(|k| (0..k).map(move |j| (k, j))).collect();
        let g = graph(&edges);
        let calls = std::cell::Cell::new(0u64);
        let counted = |t: TxnId| {
            calls.set(calls.get() + 1);
            g(t)
        };
        assert!(find_cycle(TxnId(n - 1), &counted).is_none());
        assert_eq!(calls.get(), n, "each transaction expanded exactly once");
    }

    #[test]
    fn self_loop_is_a_cycle() {
        // Cannot happen with real lock tables (a txn never blocks on
        // itself) but the walker must not diverge on it.
        let g = graph(&[(5, 5)]);
        let cycle = find_cycle(TxnId(5), &g).expect("cycle");
        assert_eq!(cycle, vec![TxnId(5)]);
    }
}
