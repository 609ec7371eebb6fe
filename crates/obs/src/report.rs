//! The aggregate report: phase histograms, abort breakdown, event
//! counters and aborts per rule, with a human `Display` and a JSON
//! exporter.

use std::fmt;

use crate::event::AbortCause;
use crate::hist::{HistSnapshot, Phase};
use crate::json::Json;

/// One row of the per-rule abort table. The row is keyed by the rule's
/// id; its name is the rule set's (`RuleSet::id_of` goes the other
/// way), and how often it fired is the commit log's to say.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleRow {
    /// The `rule` of the `Abort` events counted (`RuleId`'s value).
    pub rule: u32,
    /// Aborted attempts.
    pub aborted: u64,
}

/// Sharded-match fan-out tallies: how WM delta batches propagated to
/// the per-shard Rete networks. The dynamic engine's match pipeline
/// keeps them whether or not a [`crate::Recorder`] is attached and
/// reports them as `ParallelReport::fanout`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Published WM delta batches (one per commit).
    pub batches: u64,
    /// Shard×batch Rete applies actually performed.
    pub applies: u64,
    /// Shard×batch pairs a publish did not route to: the shards no
    /// tuple of the batch routes to, which never see it (shards minus
    /// routed shards, summed over batches).
    pub free_advances: u64,
    /// Applies performed by a worker other than the committing one
    /// (idle-worker catch-up stealing); subset of `applies`.
    pub steals: u64,
    /// Match shards in the plan (0 when the pipeline is off).
    pub shards: u64,
    /// Class-connected rule components the plan was laid out from.
    pub components: u64,
    /// Shards that are key partitions of a split component (0 when no
    /// component is key-partitioned).
    pub partitions: u64,
    /// Applies of the busiest shard; over `applies` it is the largest
    /// shard's share of the match work — the partition skew.
    pub max_shard_applies: u64,
}

/// Point-in-time aggregate snapshot of a [`crate::Recorder`]. Every
/// count is a count of the retained events of one kind (or cause, or
/// rule); `dropped_events` says how many events the rings overwrote.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsReport {
    /// Latency histograms per phase, in [`Phase::ALL`] order.
    pub phases: Vec<(Phase, HistSnapshot)>,
    /// Abort counts per cause, in [`AbortCause::ALL`] order (they sum
    /// to `aborts`: each `Abort` event carries exactly one cause).
    pub abort_causes: Vec<(AbortCause, u64)>,
    /// `Begin` events.
    pub begins: u64,
    /// `Grant` events.
    pub grants: u64,
    /// `Block` events.
    pub blocks: u64,
    /// `Doom` events (writer-doomed readers).
    pub dooms: u64,
    /// `Deadlock` events (deadlock-victim dooms).
    pub deadlocks: u64,
    /// `Commit` events.
    pub commits: u64,
    /// `Abort` events.
    pub aborts: u64,
    /// `Anomaly` markers (should be 0 on a healthy run).
    pub anomalies: u64,
    /// `Fault` markers injected by the chaos layer (0 outside
    /// fault-injected runs).
    pub faults: u64,
    /// `SnapshotPin` events (MVCC read-snapshot pins; 0 outside MVCC
    /// runs).
    pub snapshot_pins: u64,
    /// `VersionRead` events (MVCC versioned condition reads).
    pub version_reads: u64,
    /// `VersionWrite` events (MVCC version installs at commit).
    pub version_writes: u64,
    /// `WalSync` events (durability fsync completions; 0 when
    /// durability is off).
    pub wal_syncs: u64,
    /// `Checkpoint` events (durability checkpoint installs).
    pub checkpoints: u64,
    /// `ElidedCommit` events (lock-elision fast-path commits; 0 when
    /// elision is off or no rule proved commutative).
    pub elided_commits: u64,
    /// Events lost to ring overwrites (history incomplete if non-zero).
    pub dropped_events: u64,
    /// Per-rule rows, sorted by rule id: each rule's `Abort` events.
    pub rules: Vec<RuleRow>,
}

impl ObsReport {
    /// The snapshot for one phase.
    pub fn phase(&self, phase: Phase) -> Option<&HistSnapshot> {
        self.phases.iter().find(|(p, _)| *p == phase).map(|(_, h)| h)
    }

    /// Exports the report as a JSON tree (hand the result to
    /// [`Json::to_string_pretty`] or embed it into a larger document).
    pub fn to_json(&self) -> Json {
        let phases = Json::Obj(
            self.phases
                .iter()
                .map(|(p, h)| {
                    (
                        p.name().to_owned(),
                        Json::Obj(vec![
                            ("count".into(), Json::u64(h.count)),
                            ("p50_ns".into(), Json::u64(h.p50())),
                            ("p95_ns".into(), Json::u64(h.p95())),
                            ("p99_ns".into(), Json::u64(h.p99())),
                            ("max_ns".into(), Json::u64(h.max)),
                            ("mean_ns".into(), Json::u64(h.mean())),
                            ("sum_ns".into(), Json::u64(h.sum)),
                        ]),
                    )
                })
                .collect(),
        );
        let causes = Json::Obj(
            self.abort_causes
                .iter()
                .map(|(c, n)| (c.name().to_owned(), Json::u64(*n)))
                .collect(),
        );
        let events = Json::Obj(vec![
            ("begins".into(), Json::u64(self.begins)),
            ("grants".into(), Json::u64(self.grants)),
            ("blocks".into(), Json::u64(self.blocks)),
            ("dooms".into(), Json::u64(self.dooms)),
            ("deadlocks".into(), Json::u64(self.deadlocks)),
            ("commits".into(), Json::u64(self.commits)),
            ("aborts".into(), Json::u64(self.aborts)),
            ("anomalies".into(), Json::u64(self.anomalies)),
            ("faults".into(), Json::u64(self.faults)),
            ("snapshot_pins".into(), Json::u64(self.snapshot_pins)),
            ("version_reads".into(), Json::u64(self.version_reads)),
            ("version_writes".into(), Json::u64(self.version_writes)),
            ("wal_syncs".into(), Json::u64(self.wal_syncs)),
            ("checkpoints".into(), Json::u64(self.checkpoints)),
            ("elided_commits".into(), Json::u64(self.elided_commits)),
            ("dropped".into(), Json::u64(self.dropped_events)),
        ]);
        let rules = Json::Arr(
            self.rules
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("rule".into(), Json::u64(u64::from(r.rule))),
                        ("aborted".into(), Json::u64(r.aborted)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema".into(), Json::str("dps-obs-report-v1")),
            ("phases".into(), phases),
            ("abort_causes".into(), causes),
            ("events".into(), events),
            ("rules".into(), rules),
        ])
    }
}

impl fmt::Display for ObsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "observability report")?;
        writeln!(
            f,
            "  events: {} begin, {} grant, {} block, {} doom, {} deadlock, {} commit, {} abort{}{}",
            self.begins,
            self.grants,
            self.blocks,
            self.dooms,
            self.deadlocks,
            self.commits,
            self.aborts,
            if self.anomalies > 0 {
                format!(", {} ANOMALIES", self.anomalies)
            } else {
                String::new()
            },
            if self.dropped_events > 0 {
                format!(" ({} dropped)", self.dropped_events)
            } else {
                String::new()
            },
        )?;
        if self.faults > 0 {
            writeln!(f, "  chaos: {} injected fault(s)", self.faults)?;
        }
        if self.snapshot_pins > 0 {
            writeln!(
                f,
                "  mvcc: {} snapshot pin(s), {} version read(s), {} version write(s)",
                self.snapshot_pins, self.version_reads, self.version_writes
            )?;
        }
        if self.wal_syncs > 0 || self.checkpoints > 0 {
            writeln!(
                f,
                "  durability: {} wal sync(s), {} checkpoint(s)",
                self.wal_syncs, self.checkpoints
            )?;
        }
        if self.elided_commits > 0 {
            writeln!(
                f,
                "  coordination avoidance: {} lock-elided commit(s)",
                self.elided_commits
            )?;
        }
        writeln!(f, "  latency (per phase):")?;
        for (p, h) in &self.phases {
            writeln!(f, "    {:<9} {h}", p.name())?;
        }
        writeln!(f, "  aborts by cause (total {}):", self.aborts)?;
        for (c, n) in &self.abort_causes {
            if *n > 0 {
                writeln!(f, "    {:<12} {n}", c.name())?;
            }
        }
        if !self.rules.is_empty() {
            writeln!(f, "  aborts per rule id:")?;
            for r in &self.rules {
                writeln!(f, "    {:<12} {}", r.rule, r.aborted)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::Recorder;

    #[test]
    fn json_export_has_required_shape() {
        let r = Recorder::default();
        r.phase(Phase::LockWait, std::time::Duration::from_micros(3));
        r.phase(Phase::Commit, std::time::Duration::from_micros(7));
        r.record(
            0,
            crate::EventKind::Abort {
                cause: AbortCause::EvalError,
                rule: 3,
            },
        );
        let rep = r.report();
        let parsed = json::parse(&rep.to_json().to_string_pretty()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("dps-obs-report-v1")
        );
        for phase in ["lock_wait", "lhs_eval", "rhs_act", "commit"] {
            for key in ["count", "p50_ns", "p95_ns", "p99_ns", "max_ns"] {
                assert!(
                    parsed.at(&["phases", phase, key]).and_then(Json::as_u64).is_some(),
                    "missing phases.{phase}.{key}"
                );
            }
        }
        assert_eq!(
            parsed.at(&["abort_causes", "eval_error"]).and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(parsed.at(&["events", "aborts"]).and_then(Json::as_u64), Some(1));
        let rules = parsed.get("rules").and_then(Json::as_arr).unwrap();
        assert_eq!(rules[0].get("rule").and_then(Json::as_u64), Some(3));
        assert_eq!(rules[0].get("aborted").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn display_renders_all_sections() {
        let r = Recorder::default();
        r.record(0, crate::EventKind::Begin);
        r.record(0, crate::EventKind::Commit);
        r.record(1, crate::EventKind::Begin);
        r.record(1, crate::EventKind::Abort { cause: AbortCause::Stale, rule: 7 });
        let text = r.report().to_string();
        for needle in ["events:", "latency", "lock_wait", "aborts per rule id", "    7 "] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn cause_counts_match_abort_events() {
        let r = Recorder::default();
        for cause in AbortCause::ALL {
            r.record(7, crate::EventKind::Abort { cause, rule: 0 });
        }
        let rep = r.report();
        assert_eq!(rep.aborts, AbortCause::ALL.len() as u64);
        assert!(rep.abort_causes.iter().all(|&(_, n)| n == 1), "{:?}", rep.abort_causes);
        assert!(rep.to_string().contains(&format!("(total {})", rep.aborts)));
    }
}
