//! Trace analysis: what a merged history *means*.
//!
//! The raw event stream (PR 2) records what happened; this layer
//! explains it, along the three axes the paper's §5 says govern
//! dynamic-mode speed-up:
//!
//! * [`graph`] — the blocking / wait-for graph (who waited for whom,
//!   on what, for how long), reconstructed from `Block{holder}` /
//!   `Doom{by}` / `Grant` events;
//! * [`attribution`] — the per-resource contention table: blocked-ns,
//!   distinct blockers and aborts caused, per resource (the degree of
//!   conflict made visible, in the coordination-attribution spirit of
//!   Bailis et al.);
//! * [`critical_path`](mod@critical_path) — the heaviest dependency
//!   chain, effective parallelism and the wasted-work fraction `f`;
//! * [`checker`] — §3's Theorem 2 (`ES_M ⊆ ES_single`) as an
//!   executable assertion: pair the commit log's order (the txn id of
//!   each slot) with the history, verify it structurally, and let the
//!   caller replay the log through the single-thread oracle;
//! * [`si_checker`] — the polygraph-based snapshot-isolation /
//!   serializability checker over MVCC histories (`SnapshotPin` /
//!   `VersionRead` / `VersionWrite` events): reads-from, version-order
//!   and anti-dependency edges, cycle search, first-committer-wins.
//!   Runs only when a history carries MVCC events; lock-era histories
//!   leave it silent.
//!
//! [`analyze`] runs all of them and [`RunAnalysis::to_json`] emits the
//! per-run body of a `dps-analysis-report-v1` document.

pub mod attribution;
pub mod checker;
pub mod critical_path;
pub mod graph;
pub mod si_checker;

pub use attribution::{contention_table, ResourceContention};
pub use checker::{check, CheckerReport, CommitRecord, Verdict};
pub use critical_path::{critical_path, CriticalPathReport};
pub use graph::{build, BlockingGraph, EdgeKind, TxnSpan, WaitEdge};
pub use si_checker::{SiReport, SiTxn};

use crate::event::Event;
use crate::json::Json;

/// Everything the analysis layer extracts from one run's history.
#[derive(Clone, Debug)]
pub struct RunAnalysis {
    /// The reconstructed blocking graph.
    pub graph: BlockingGraph,
    /// Per-resource contention, sorted by blocked-ns descending.
    pub contention: Vec<ResourceContention>,
    /// Critical path / speed-up factors.
    pub critical: CriticalPathReport,
    /// Commit-log pairing + structural checks (+ replay verdict once
    /// the caller attaches it).
    pub checker: CheckerReport,
    /// SI/serializability polygraph findings; `None` when the history
    /// carries no MVCC events (lock-era runs).
    pub si: Option<SiReport>,
}

/// Runs the full analysis pipeline on a merged history and the run's
/// commit order: `txns[i]` is the txn id the commit log records for
/// slot `i` (`CommitLog::txns` in `dps-core`).
pub fn analyze(history: &[Event], txns: &[u64]) -> RunAnalysis {
    let graph = build(history);
    let contention = contention_table(&graph);
    let critical = critical_path(&graph);
    let checker = check(&graph, txns);
    let si_txns = si_checker::extract(history, txns);
    let si = if si_txns.is_empty() {
        None
    } else {
        Some(si_checker::check(&si_txns))
    };
    RunAnalysis {
        graph,
        contention,
        critical,
        checker,
        si,
    }
}

impl RunAnalysis {
    /// Attaches the caller's §3 replay result to the checker (see
    /// [`checker`] module docs for why replay lives with the caller).
    pub fn set_replay_result(&mut self, result: Result<(), String>) {
        self.checker.set_replay_result(result);
    }

    /// Combined verdict: the §3 checker AND (when the history is an
    /// MVCC one) the SI/serializability polygraph.
    pub fn verdict(&self) -> Verdict {
        let si_ok = self
            .si
            .as_ref()
            .is_none_or(|s| s.verdict() == Verdict::Consistent);
        if self.checker.verdict() == Verdict::Consistent && si_ok {
            Verdict::Consistent
        } else {
            Verdict::Inconsistent
        }
    }

    /// Serializes the analysis as the per-run body of a
    /// `dps-analysis-report-v1` document. `top_contended` caps the
    /// contention table (0 = unlimited).
    pub fn to_json(&self, top_contended: usize) -> Json {
        let committed = self.graph.spans.values().filter(|s| s.committed).count();
        let aborted = self
            .graph
            .spans
            .values()
            .filter(|s| s.abort_cause.is_some())
            .count();
        let txns = Json::Obj(vec![
            ("total".into(), Json::u64(self.graph.spans.len() as u64)),
            ("committed".into(), Json::u64(committed as u64)),
            ("aborted".into(), Json::u64(aborted as u64)),
        ]);
        let rows = if top_contended == 0 {
            &self.contention[..]
        } else {
            &self.contention[..self.contention.len().min(top_contended)]
        };
        let contention = Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("resource".into(), Json::u64(r.resource)),
                        ("blocks".into(), Json::u64(r.blocks)),
                        ("blocked_ns".into(), Json::u64(r.blocked_ns)),
                        ("distinct_blockers".into(), Json::u64(r.distinct_blockers)),
                        ("dooms_caused".into(), Json::u64(r.dooms_caused)),
                        ("deadlock_aborts".into(), Json::u64(r.deadlock_aborts)),
                    ])
                })
                .collect(),
        );
        let c = &self.critical;
        let critical = Json::Obj(vec![
            ("wall_ns".into(), Json::u64(c.wall_ns)),
            ("total_busy_ns".into(), Json::u64(c.total_busy_ns)),
            ("useful_busy_ns".into(), Json::u64(c.useful_busy_ns)),
            ("wasted_ns".into(), Json::u64(c.wasted_ns)),
            ("wasted_fraction".into(), Json::Num(c.wasted_fraction)),
            ("critical_path_ns".into(), Json::u64(c.critical_path_ns)),
            (
                "critical_path_txns".into(),
                Json::Arr(c.critical_path.iter().map(|&t| Json::u64(t)).collect()),
            ),
            (
                "effective_parallelism".into(),
                Json::Num(c.effective_parallelism),
            ),
            (
                "max_speedup_estimate".into(),
                Json::Num(c.max_speedup_estimate),
            ),
        ]);
        let checker = Json::Obj(vec![
            ("commits".into(), Json::u64(self.checker.commits.len() as u64)),
            (
                "structural_errors".into(),
                Json::Arr(
                    self.checker
                        .structural_errors
                        .iter()
                        .map(|e| Json::str(e.clone()))
                        .collect(),
                ),
            ),
            (
                "replay".into(),
                Json::str(match &self.checker.replay_result {
                    None => "not-run",
                    Some(Ok(())) => "consistent",
                    Some(Err(_)) => "inconsistent",
                }),
            ),
            (
                "replay_error".into(),
                match &self.checker.replay_result {
                    Some(Err(e)) => Json::str(e.clone()),
                    _ => Json::Null,
                },
            ),
            ("verdict".into(), Json::str(self.verdict().name())),
        ]);
        let mut doc = vec![
            ("txns".into(), txns),
            ("contention".into(), contention),
            ("critical_path".into(), critical),
            ("checker".into(), checker),
        ];
        if let Some(si) = &self.si {
            doc.push((
                "si_checker".into(),
                Json::Obj(vec![
                    ("committed".into(), Json::u64(si.committed as u64)),
                    ("edges".into(), Json::u64(si.edges as u64)),
                    (
                        "violations".into(),
                        Json::Arr(si.violations.iter().map(|v| Json::str(v.clone())).collect()),
                    ),
                    (
                        "cycle".into(),
                        match &si.cycle {
                            Some(path) => {
                                Json::Arr(path.iter().map(|&t| Json::u64(t)).collect())
                            }
                            None => Json::Null,
                        },
                    ),
                    ("verdict".into(), Json::str(si.verdict().name())),
                ]),
            ));
        }
        Json::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json;

    fn e(ts: u64, txn: u64, kind: EventKind) -> Event {
        Event { ts, txn, kind }
    }

    #[test]
    fn analyze_pipeline_and_json_shape() {
        let h = vec![
            e(0, 1, EventKind::Begin),
            e(1, 1, EventKind::Grant { resource: 4, mode: "X" }),
            e(2, 2, EventKind::Begin),
            e(3, 2, EventKind::Block { resource: 4, mode: "X", holder: Some(1) }),
            e(10, 1, EventKind::Commit),
            e(12, 2, EventKind::Grant { resource: 4, mode: "X" }),
            e(20, 2, EventKind::Commit),
        ];
        let mut a = analyze(&h, &[1, 2]);
        assert_eq!(a.verdict(), Verdict::Consistent);
        let order: Vec<u64> = a.checker.commits.iter().map(|c| c.txn).collect();
        assert_eq!(order, [1, 2]);
        assert_eq!(a.contention.len(), 1);
        a.set_replay_result(Ok(()));
        let doc = json::parse(&a.to_json(0).to_string_pretty()).unwrap();
        assert_eq!(doc.at(&["txns", "total"]).and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.at(&["checker", "verdict"]).and_then(Json::as_str),
            Some("consistent")
        );
        assert_eq!(
            doc.at(&["checker", "replay"]).and_then(Json::as_str),
            Some("consistent")
        );
        assert!(doc
            .at(&["critical_path", "effective_parallelism"])
            .and_then(Json::as_f64)
            .is_some());
        let rows = doc.get("contention").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("resource").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn top_contended_caps_the_table() {
        let mut h = Vec::new();
        for i in 0..5u64 {
            let holder = 100 + i;
            h.push(e(i * 100, holder, EventKind::Begin));
            h.push(e(i * 100 + 1, holder, EventKind::Grant { resource: i, mode: "X" }));
            h.push(e(i * 100 + 2, i, EventKind::Begin));
            h.push(e(
                i * 100 + 3,
                i,
                EventKind::Block { resource: i, mode: "X", holder: Some(holder) },
            ));
            h.push(e(i * 100 + 10, holder, EventKind::Commit));
            h.push(e(i * 100 + 11, i, EventKind::Grant { resource: i, mode: "X" }));
            h.push(e(i * 100 + 12, i, EventKind::Commit));
        }
        let holders: Vec<u64> = (0..5).flat_map(|i| [100 + i, i]).collect();
        let a = analyze(&h, &holders);
        assert_eq!(a.verdict(), Verdict::Consistent);
        assert_eq!(a.contention.len(), 5);
        let doc = a.to_json(2);
        assert_eq!(doc.get("contention").and_then(Json::as_arr).unwrap().len(), 2);
    }
}
