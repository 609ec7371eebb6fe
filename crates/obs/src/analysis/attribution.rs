//! Per-resource contention attribution.
//!
//! Bailis et al. (*Coordination Avoidance in Database Systems*) argue
//! that the first step toward avoiding coordination is knowing **which
//! coordination costs what**. This module folds the blocking graph into
//! a per-resource table: how long requests queued on each resource, how
//! many distinct transactions did the blocking, and how many aborts the
//! resource caused (dooms resolved by intersecting the victim's read
//! grants with the committer's write grants; deadlock aborts charged to
//! the resource the victim was queued on when it was chosen).

use std::collections::{BTreeMap, BTreeSet};

use crate::event::AbortCause;

use super::graph::{BlockingGraph, EdgeKind};

/// One row of the contention table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceContention {
    /// Opaque resource key (the lock layer's tuple/relation encoding).
    pub resource: u64,
    /// Number of blocked lock requests on this resource.
    pub blocks: u64,
    /// Total nanoseconds requests spent queued on it.
    pub blocked_ns: u64,
    /// Distinct transactions observed holding it against a waiter.
    pub distinct_blockers: u64,
    /// Commit-time dooms attributed to this resource: reader aborts,
    /// whether the committer doomed the reader outright or, under policy
    /// `Revalidate`, through the engine's verdict. A doom involving
    /// several contended resources counts once per resource (the
    /// committer invalidated all of them at once), so the column can
    /// sum to more than the run's doom total.
    pub dooms_caused: u64,
    /// Deadlock-victim aborts whose victim was queued on this resource.
    pub deadlock_aborts: u64,
}

/// The read modes a doom victim held (`Rc` under the 3-mode protocol,
/// `S` under 2PL) and the write modes a committer dooms through (a
/// relation's intention write included).
fn is_read_mode(m: &str) -> bool {
    matches!(m, "Rc" | "S")
}
fn is_write_mode(m: &str) -> bool {
    matches!(m, "Wa" | "IWa" | "X" | "IX")
}

/// Builds the per-resource contention table, sorted by `blocked_ns`
/// descending (ties: by resource key).
pub fn contention_table(g: &BlockingGraph) -> Vec<ResourceContention> {
    let mut rows: BTreeMap<u64, ResourceContention> = BTreeMap::new();
    let mut blockers: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();

    for edge in &g.edges {
        let Some(res) = edge.resource else { continue };
        let row = rows.entry(res).or_insert_with(|| ResourceContention {
            resource: res,
            ..Default::default()
        });
        match edge.kind {
            EdgeKind::Wait | EdgeKind::DeadlockWait => {
                row.blocks += 1;
                row.blocked_ns += edge.duration_ns();
                if let Some(h) = edge.holder {
                    blockers.entry(res).or_default().insert(h);
                }
                if edge.kind == EdgeKind::DeadlockWait {
                    row.deadlock_aborts += 1;
                }
            }
            EdgeKind::Doom => {}
        }
    }

    // Doom attribution: victim's read grants ∩ committer's write
    // grants. When the intersection is empty (grants missing from a
    // truncated history), the doom stays unattributed rather than being
    // charged to an invented resource.
    for span in g.spans.values() {
        if !matches!(span.abort_cause, Some(AbortCause::Doomed | AbortCause::Revalidation)) {
            continue;
        }
        let Some(by) = span.doomed_by else { continue };
        let Some(committer) = g.spans.get(&by) else { continue };
        let victim_reads: BTreeSet<u64> = span
            .grants
            .iter()
            .filter(|(_, m)| is_read_mode(m))
            .map(|&(r, _)| r)
            .collect();
        let committer_writes: BTreeSet<u64> = committer
            .grants
            .iter()
            .filter(|(_, m)| is_write_mode(m))
            .map(|&(r, _)| r)
            .collect();
        for &res in committer_writes.intersection(&victim_reads) {
            rows.entry(res)
                .or_insert_with(|| ResourceContention {
                    resource: res,
                    ..Default::default()
                })
                .dooms_caused += 1;
        }
    }

    let mut out: Vec<ResourceContention> = rows
        .into_values()
        .map(|mut row| {
            row.distinct_blockers =
                blockers.get(&row.resource).map_or(0, |s| s.len() as u64);
            row
        })
        .collect();
    out.sort_by(|a, b| {
        b.blocked_ns
            .cmp(&a.blocked_ns)
            .then_with(|| b.dooms_caused.cmp(&a.dooms_caused))
            .then_with(|| a.resource.cmp(&b.resource))
    });
    out
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
    fn waits_aggregate_per_resource() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Grant { resource: 6, mode: "X" }),
            e(2, 2, EventKind::Begin),
            e(3, 2, EventKind::Block { resource: 6, mode: "X", holder: Some(1) }),
            e(8, 1, EventKind::Commit),
            e(9, 2, EventKind::Grant { resource: 6, mode: "X" }),
            e(10, 3, EventKind::Begin),
            e(11, 3, EventKind::Block { resource: 6, mode: "X", holder: Some(2) }),
            e(14, 2, EventKind::Commit),
            e(15, 3, EventKind::Grant { resource: 6, mode: "X" }),
            e(16, 3, EventKind::Commit),
        ];
        let table = contention_table(&build(&h));
        assert_eq!(table.len(), 1);
        let row = &table[0];
        assert_eq!(row.resource, 6);
        assert_eq!(row.blocks, 2);
        assert_eq!(row.blocked_ns, 6 + 4);
        assert_eq!(row.distinct_blockers, 2, "txn 1 and txn 2 each blocked someone");
        assert_eq!(row.dooms_caused, 0);
    }

    #[test]
    fn dooms_attributed_via_grant_intersection() {
        for cause in [AbortCause::Doomed, AbortCause::Revalidation] {
            dooms_attributed_to(cause);
        }
    }

    fn dooms_attributed_to(cause: AbortCause) {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Grant { resource: 6, mode: "Rc" }),
            e(2, 1, EventKind::Grant { resource: 8, mode: "Rc" }),
            e(2, 1, EventKind::Grant { resource: 9, mode: "Rc" }),
            e(3, 2, EventKind::Begin),
            e(4, 2, EventKind::Grant { resource: 8, mode: "Wa" }),
            e(5, 2, EventKind::Grant { resource: 12, mode: "Wa" }),
            e(5, 2, EventKind::Grant { resource: 9, mode: "IWa" }),
            e(6, 1, EventKind::Doom { by: 2 }),
            e(7, 2, EventKind::Commit),
            e(8, 1, EventKind::Abort { cause, rule: 0 }),
        ];
        let table = contention_table(&build(&h));
        // Only tuple 8 and relation 9 (odd keys are relations; its
        // writer holds the intention write) are both read by the victim
        // and written by the committer.
        for res in [8, 9] {
            let row = table.iter().find(|r| r.resource == res).unwrap();
            assert_eq!(row.dooms_caused, 1, "{cause:?}: resource {res}");
        }
        assert!(table.iter().all(|r| [8, 9].contains(&r.resource) || r.dooms_caused == 0));
    }

    #[test]
    fn deadlock_abort_charged_to_queued_resource() {
        let h = vec![
            e(0, 5, EventKind::Begin),
            e(1, 5, EventKind::Block { resource: 2, mode: "X", holder: Some(6) }),
            e(2, 5, EventKind::Deadlock),
            e(3, 5, EventKind::Abort { cause: AbortCause::Deadlock, rule: 0 }),
        ];
        let table = contention_table(&build(&h));
        let row = table.iter().find(|r| r.resource == 2).unwrap();
        assert_eq!(row.deadlock_aborts, 1);
    }
}
