//! Reconstruction of the blocking / wait-for graph from a merged
//! history.
//!
//! Every `Block { resource, mode, holder }` opens a **wait interval**
//! for its transaction; the interval closes at the next `Grant` of the
//! same resource by the same transaction (the wait succeeded) or at the
//! transaction's terminal (the wait was cut short by a doom, deadlock
//! or timeout). `Doom { by }` events add doom edges: the victim's fate
//! depends on the committer. The result is the paper-§5 "degree of
//! conflict" made concrete: who waited for whom, on what, for how long.

use std::collections::BTreeMap;

use crate::event::{AbortCause, Event, EventKind};

/// Why one transaction depended on another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// A lock request queued behind the holder.
    Wait,
    /// The waiter was chosen as a deadlock victim while queued here.
    DeadlockWait,
    /// The source doomed the target at commit time: an `Rc` reader hit
    /// by a committing `Wa` writer, or, under policy `Revalidate`, a
    /// reader the engine's revalidation found invalidated by the
    /// committed writer. Both are lock-manager dooms with a `Doom { by }`
    /// event.
    Doom,
}

/// One edge of the blocking graph: `waiter` depended on `holder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked (or doomed) transaction.
    pub waiter: u64,
    /// The transaction it waited for (`None` on old-shape histories
    /// whose `Block` events predate the holder field).
    pub holder: Option<u64>,
    /// The contended resource key (`None` for doom edges — the doom
    /// event spans the whole commit, not one resource; the attribution
    /// layer resolves it from the grant sets).
    pub resource: Option<u64>,
    /// The requested lock mode (`""` for doom edges).
    pub mode: &'static str,
    /// When the dependency started (Block / Doom timestamp, ns).
    pub start_ts: u64,
    /// When it ended (Grant or terminal timestamp, ns).
    pub end_ts: u64,
    /// What kind of dependency.
    pub kind: EdgeKind,
}

impl WaitEdge {
    /// Duration of the dependency in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ts.saturating_sub(self.start_ts)
    }
}

/// Per-transaction summary extracted alongside the edges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TxnSpan {
    /// First event timestamp (Begin, ns).
    pub begin_ts: u64,
    /// Last lifecycle timestamp (terminal if present, ns): the receipts
    /// that [trail](EventKind::trails_commit) a `Commit` and chaos
    /// `Fault` markers never extend it.
    pub end_ts: u64,
    /// Committed?
    pub committed: bool,
    /// Terminal cause if aborted.
    pub abort_cause: Option<AbortCause>,
    /// Total nanoseconds spent blocked in lock waits.
    pub blocked_ns: u64,
    /// Commit-event timestamp (ns), if committed.
    pub commit_ts: Option<u64>,
    /// The committer that doomed this transaction, if any.
    pub doomed_by: Option<u64>,
    /// Every lock grant `(resource, mode)` observed for this txn.
    pub grants: Vec<(u64, &'static str)>,
}

impl TxnSpan {
    /// Wall-clock span of the transaction in nanoseconds.
    pub fn span_ns(&self) -> u64 {
        self.end_ts.saturating_sub(self.begin_ts)
    }

    /// Span minus lock-wait time: the CPU-busy estimate used as the
    /// node weight in the critical-path analysis.
    pub fn busy_ns(&self) -> u64 {
        self.span_ns().saturating_sub(self.blocked_ns)
    }
}

/// The reconstructed blocking graph.
#[derive(Clone, Debug, Default)]
pub struct BlockingGraph {
    /// Per-transaction spans, keyed by txn id.
    pub spans: BTreeMap<u64, TxnSpan>,
    /// All wait / doom edges, in history order.
    pub edges: Vec<WaitEdge>,
}

/// An in-flight wait interval (Block seen, no Grant/terminal yet).
struct OpenWait {
    resource: u64,
    mode: &'static str,
    holder: Option<u64>,
    start_ts: u64,
    deadlock: bool,
}

/// Builds the blocking graph from a merged, timestamp-sorted history
/// (as produced by [`crate::Recorder::history`]).
pub fn build(history: &[Event]) -> BlockingGraph {
    let mut g = BlockingGraph::default();
    let mut open: BTreeMap<u64, OpenWait> = BTreeMap::new();
    for ev in history {
        let span = g.spans.entry(ev.txn).or_default();
        if span.begin_ts == 0 && matches!(ev.kind, EventKind::Begin) {
            span.begin_ts = ev.ts;
        }
        // Commit receipts trail the terminal; chaos Fault markers are
        // schedule commentary, not transaction work. Neither may
        // extend the span.
        if !ev.kind.trails_commit() && !matches!(ev.kind, EventKind::Fault { .. }) {
            span.end_ts = span.end_ts.max(ev.ts);
        }
        match ev.kind {
            EventKind::Block {
                resource,
                mode,
                holder,
            } => {
                // A new block supersedes any stale open wait (cannot
                // happen in a well-formed history, but be lenient).
                open.insert(
                    ev.txn,
                    OpenWait {
                        resource,
                        mode,
                        holder,
                        start_ts: ev.ts,
                        deadlock: false,
                    },
                );
            }
            EventKind::Grant { resource, mode } => {
                span.grants.push((resource, mode));
                if open.get(&ev.txn).is_some_and(|w| w.resource == resource) {
                    let w = open.remove(&ev.txn).expect("just checked");
                    span.blocked_ns += ev.ts.saturating_sub(w.start_ts);
                    g.edges.push(WaitEdge {
                        waiter: ev.txn,
                        holder: w.holder,
                        resource: Some(w.resource),
                        mode: w.mode,
                        start_ts: w.start_ts,
                        end_ts: ev.ts,
                        kind: if w.deadlock { EdgeKind::DeadlockWait } else { EdgeKind::Wait },
                    });
                }
            }
            EventKind::Doom { by } => {
                span.doomed_by = Some(by);
                g.edges.push(WaitEdge {
                    waiter: ev.txn,
                    holder: Some(by),
                    resource: None,
                    mode: "",
                    start_ts: ev.ts,
                    end_ts: ev.ts,
                    kind: EdgeKind::Doom,
                });
            }
            EventKind::Deadlock => {
                if let Some(w) = open.get_mut(&ev.txn) {
                    w.deadlock = true;
                }
            }
            EventKind::Commit => {
                span.committed = true;
                span.commit_ts = Some(ev.ts);
                close_open_wait(span, &mut g.edges, &mut open, ev.txn, ev.ts);
            }
            EventKind::Abort { cause, .. } => {
                span.abort_cause = Some(cause);
                close_open_wait(span, &mut g.edges, &mut open, ev.txn, ev.ts);
            }
            EventKind::Begin
            | EventKind::Anomaly { .. }
            | EventKind::Fault { .. }
            | EventKind::SnapshotPin { .. }
            | EventKind::VersionRead { .. }
            | EventKind::VersionWrite { .. }
            | EventKind::WalSync { .. }
            | EventKind::Checkpoint { .. }
            | EventKind::ElidedCommit { .. } => {}
        }
    }
    // Any wait still open at end-of-history (ring drop or hung run):
    // close it at its own start so it contributes an edge but no time.
    for (txn, w) in open {
        g.edges.push(WaitEdge {
            waiter: txn,
            holder: w.holder,
            resource: Some(w.resource),
            mode: w.mode,
            start_ts: w.start_ts,
            end_ts: w.start_ts,
            kind: if w.deadlock { EdgeKind::DeadlockWait } else { EdgeKind::Wait },
        });
    }
    g
}

/// Closes a transaction's open wait at its terminal (the wait was cut
/// short — doomed, deadlocked or timed out while queued).
fn close_open_wait(
    span: &mut TxnSpan,
    edges: &mut Vec<WaitEdge>,
    open: &mut BTreeMap<u64, OpenWait>,
    txn: u64,
    ts: u64,
) {
    if let Some(w) = open.remove(&txn) {
        span.blocked_ns += ts.saturating_sub(w.start_ts);
        edges.push(WaitEdge {
            waiter: txn,
            holder: w.holder,
            resource: Some(w.resource),
            mode: w.mode,
            start_ts: w.start_ts,
            end_ts: ts,
            kind: if w.deadlock { EdgeKind::DeadlockWait } else { EdgeKind::Wait },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ts: u64, txn: u64, kind: EventKind) -> Event {
        Event { ts, txn, kind }
    }

    #[test]
    fn wait_interval_closes_on_grant() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Grant { resource: 4, mode: "X" }),
            e(2, 2, EventKind::Begin),
            e(3, 2, EventKind::Block { resource: 4, mode: "X", holder: Some(1) }),
            e(10, 1, EventKind::Commit),
            e(12, 2, EventKind::Grant { resource: 4, mode: "X" }),
            e(20, 2, EventKind::Commit),
        ];
        let g = build(&h);
        let waits: Vec<_> = g.edges.iter().filter(|w| w.kind == EdgeKind::Wait).collect();
        assert_eq!(waits.len(), 1);
        let w = waits[0];
        assert_eq!((w.waiter, w.holder, w.resource), (2, Some(1), Some(4)));
        assert_eq!(w.duration_ns(), 9);
        assert_eq!(g.spans[&2].blocked_ns, 9);
        assert_eq!(g.spans[&2].busy_ns(), 18 - 9, "span 2..20 minus 9ns blocked");
        assert_eq!(g.spans[&1].blocked_ns, 0);
    }

    #[test]
    fn terminal_closes_an_open_wait_and_doom_adds_an_edge() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 2, EventKind::Begin),
            e(2, 2, EventKind::Block { resource: 8, mode: "Wa", holder: Some(1) }),
            e(5, 2, EventKind::Doom { by: 1 }),
            e(6, 2, EventKind::Abort { cause: AbortCause::Doomed, rule: 0 }),
            e(7, 1, EventKind::Commit),
        ];
        let g = build(&h);
        assert_eq!(g.spans[&2].doomed_by, Some(1));
        assert_eq!(g.spans[&2].abort_cause, Some(AbortCause::Doomed));
        assert!(!g.spans[&2].committed);
        let doom = g.edges.iter().find(|w| w.kind == EdgeKind::Doom).unwrap();
        assert_eq!((doom.waiter, doom.holder), (2, Some(1)));
        let wait = g.edges.iter().find(|w| w.kind == EdgeKind::Wait).unwrap();
        assert_eq!(wait.end_ts, 6, "wait cut short by the abort terminal");
        assert_eq!(g.spans[&2].blocked_ns, 4);
    }

    #[test]
    fn deadlock_marks_the_open_wait() {
        let h = vec![
            e(0, 3, EventKind::Begin),
            e(1, 3, EventKind::Block { resource: 2, mode: "X", holder: Some(9) }),
            e(2, 3, EventKind::Deadlock),
            e(3, 3, EventKind::Abort { cause: AbortCause::Deadlock, rule: 0 }),
        ];
        let g = build(&h);
        let edge = g.edges.iter().find(|w| w.kind == EdgeKind::DeadlockWait).unwrap();
        assert_eq!(edge.resource, Some(2));
    }

    #[test]
    fn an_mvcc_span_ends_at_its_commit() {
        // A snapshot commit's VersionWrite is recorded after lm.commit
        // stamped the Commit: it must not stretch the span.
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::SnapshotPin { seq: 0 }),
            e(5, 1, EventKind::Commit),
            e(9, 1, EventKind::VersionWrite { resource: 3, seq: 1 }),
            e(12, 1, EventKind::WalSync { seq: 1 }),
            e(20, 1, EventKind::Fault { kind: "publish_stall" }),
        ];
        let g = build(&h);
        assert_eq!(g.spans[&1].commit_ts, Some(5));
        assert_eq!(g.spans[&1].end_ts, 5);
        assert_eq!(g.spans[&1].span_ns(), 5);
    }
}
