//! One law suite, every concurrency-control strategy.
//!
//! The engine runs a transaction under one of a small closed set of
//! strategies (`crates/core/src/strategy.rs`; DESIGN.md §7 has the
//! strategy × step table). Each strategy is one stated guarantee — in
//! the vocabulary of "Algebraic Laws for Weak Consistency", one
//! refinement of the same serial specification — so the same laws must
//! hold of all of them, and this file checks them from one table
//! instead of keeping a per-policy copy of each test:
//!
//! rows = { `two_phase`, `rc_ra_wa/abort_readers`,
//! `rc_ra_wa/revalidate`, `mvcc_snapshot`, `elided` }
//! × shapes = { `counters`, `hot_tuple`, `negated`, `doom_storm`,
//! `partitioned` }
//!
//! Laws, checked for every cell:
//!
//! 1. the run drains to the shape's closed-form working memory;
//! 2. `validate_trace` accepts the commit sequence (§3, `ES_M ⊆
//!    ES_single`);
//! 3. nothing leaks: `held_locks() == 0 ∧ snapshot_pins() == 0`;
//! 4. the abort books balance: the engine's per-cause counters, the
//!    event stream's `Abort{cause}` terminals and the lock manager's
//!    abort total are the same number;
//! 5. a strategy that holds no condition locks has no reader aborts
//!    (`doomed + revalidation == 0` under `mvcc_snapshot`, and under
//!    `elided` where the shape's rules are provably commutative);
//! 6. an elided run never enters the lock table: zero grants, zero
//!    blocks, every skipped request booked — and a shape the commute
//!    analysis cannot prove keeps the full §4 protocol (zero skips);
//! 7. a relation is written under its protocol's intention write (`IX`,
//!    `IWa`), never the full `X`/`Wa`, so writers of one class share it.
//!
//! The inline per-policy tests this replaces (`crates/core/src/
//! parallel.rs`, before PR 13) map to cells as follows:
//! `parallel_counters_drain_correctly` → `rc_ra_wa/abort_readers ×
//! counters`; `two_phase_protocol_also_correct` → `two_phase ×
//! counters`; `revalidate_policy_correct` → `rc_ra_wa/revalidate ×
//! counters`; `mvcc_counters_drain_correctly` → `mvcc_snapshot ×
//! counters`; `elided_run_drains_with_zero_lock_acquisitions` →
//! `elided × counters`; `contended_writes_serialize_correctly` →
//! `rc_ra_wa/abort_readers × hot_tuple`;
//! `mvcc_contended_writes_serialize_correctly` → `mvcc_snapshot ×
//! hot_tuple`; `negated_condition_uses_relation_escalation` →
//! `rc_ra_wa/abort_readers × negated`;
//! `mvcc_negated_conditions_stay_sound` → `mvcc_snapshot × negated`;
//! `mvcc_under_doom_storm_has_zero_reader_aborts` → `mvcc_snapshot ×
//! doom_storm`.

use dbps::engine::semantics::validate_trace;
use dbps::engine::{ParallelConfig, ParallelEngine, ParallelReport, WorkModel};
use dbps::lock::{res_of_key, ConflictPolicy, FaultPlan, Protocol, ResourceId};
use dbps::obs::EventKind;
use dbps::rules::RuleSet;
use dbps::wm::{Value, WmeData, WorkingMemory};
use dps_bench::analysis::abort_count;

/// One strategy row: a name and the configuration that selects it.
struct Row {
    name: &'static str,
    protocol: Protocol,
    policy: ConflictPolicy,
    elide_locks: bool,
}

const ROWS: [Row; 5] = [
    Row {
        name: "two_phase",
        protocol: Protocol::TwoPhase,
        policy: ConflictPolicy::AbortReaders,
        elide_locks: false,
    },
    Row {
        name: "rc_ra_wa/abort_readers",
        protocol: Protocol::RcRaWa,
        policy: ConflictPolicy::AbortReaders,
        elide_locks: false,
    },
    Row {
        name: "rc_ra_wa/revalidate",
        protocol: Protocol::RcRaWa,
        policy: ConflictPolicy::Revalidate,
        elide_locks: false,
    },
    Row {
        name: "mvcc_snapshot",
        protocol: Protocol::RcRaWa,
        policy: ConflictPolicy::MvccSnapshot,
        elide_locks: false,
    },
    Row {
        name: "elided",
        protocol: Protocol::RcRaWa,
        policy: ConflictPolicy::AbortReaders,
        elide_locks: true,
    },
];

/// One workload shape: its rules, initial WM, the knobs that make it
/// contend, and its closed-form outcome.
struct Shape {
    name: &'static str,
    rules: &'static str,
    wm: fn() -> WorkingMemory,
    work_us: u64,
    fault: Option<fn(u64) -> FaultPlan>,
    /// Whether the commute analysis proves every rule elidable (law 6
    /// checks the engine agrees).
    commutes: bool,
    /// Law 1: the closed-form result.
    drained: fn(&ParallelReport, &WorkingMemory, &str),
}

const BUMP: &str = "(p bump (cell ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))";

fn six_cells() -> WorkingMemory {
    let mut wm = WorkingMemory::new();
    for _ in 0..6 {
        wm.insert(WmeData::new("cell").with("n", 3i64));
    }
    wm
}

fn cells_drained(report: &ParallelReport, wm: &WorkingMemory, cell: &str) {
    assert_eq!(report.commits, 18, "{cell}: 6 cells × 3 bumps");
    for c in wm.class_iter("cell") {
        assert_eq!(c.get("n"), Some(&Value::Int(0)), "{cell}");
    }
}

const SHAPES: [Shape; 5] = [
    // Independent counters: no two firings share a tuple.
    Shape {
        name: "counters",
        rules: BUMP,
        wm: six_cells,
        work_us: 0,
        fault: None,
        commutes: true,
        drained: cells_drained,
    },
    // Every firing reads and modifies one shared accumulator: the worst
    // case for dooms and for snapshot staleness alike.
    Shape {
        name: "hot_tuple",
        rules: "(p apply (delta ^v <d>) (acc ^total <t>)
                  --> (remove 1) (modify 2 ^total (+ <t> <d>)))",
        wm: || {
            let mut wm = WorkingMemory::new();
            for i in 1..=10i64 {
                wm.insert(WmeData::new("delta").with("v", i));
            }
            wm.insert(WmeData::new("acc").with("total", 0i64));
            wm
        },
        work_us: 200,
        fault: None,
        // The `remove` of a matched class defeats the static proof.
        commutes: false,
        drained: |report, wm, cell| {
            assert_eq!(report.commits, 10, "{cell}");
            let acc = wm.class_iter("acc").next().expect("accumulator survives");
            assert_eq!(acc.get("total"), Some(&Value::Int(55)), "{cell}: 1 + … + 10");
            assert_eq!(wm.class_iter("delta").count(), 0, "{cell}");
        },
    },
    // `quiet` requires no alarm; `raise` creates one. Either order is a
    // valid serial execution; soundness rests on the relation-level
    // escalation for the negated CE (locks) or the commit-time
    // class-write check (snapshots).
    Shape {
        name: "negated",
        rules: "(p quiet (go) -(alarm) --> (remove 1) (make calm))
                (p raise (trigger) --> (remove 1) (make alarm))",
        wm: || {
            let mut wm = WorkingMemory::new();
            wm.insert(WmeData::new("go"));
            wm.insert(WmeData::new("trigger"));
            wm
        },
        work_us: 0,
        fault: None,
        commutes: false,
        drained: |report, wm, cell| {
            // raise always commits; quiet commits only if it ran first.
            assert!((1..=2).contains(&report.commits), "{cell}");
            assert_eq!(wm.class_iter("alarm").count(), 1, "{cell}");
            let quiet_fired = report.trace.names().contains(&"quiet");
            assert_eq!(wm.class_iter("calm").count(), usize::from(quiet_fired), "{cell}");
        },
    },
    // The chaos plan built to maximise dooms (forced aborts, RHS
    // stalls, grant delays) over the counters.
    Shape {
        name: "doom_storm",
        rules: BUMP,
        wm: six_cells,
        work_us: 100,
        fault: Some(FaultPlan::doom_storm),
        commutes: true,
        drained: cells_drained,
    },
    // One hot rule over a key-partitioned component: `charge` joins
    // `task ^res` to `tally ^id`, so at the default 8 match shards the
    // four tallies sit on different shards and every strategy's claim
    // validation, revalidation and commit-time membership test runs
    // against the partition the claim was scanned from.
    Shape {
        name: "partitioned",
        rules: "(p charge (task ^res <r> ^state todo) (tally ^id <r> ^count <c>)
                  --> (modify 1 ^state done) (modify 2 ^count (+ <c> 1)))",
        wm: || {
            let mut wm = WorkingMemory::new();
            for r in 0..4i64 {
                wm.insert(WmeData::new("tally").with("id", r).with("count", 0i64));
            }
            for t in 0..24i64 {
                wm.insert(WmeData::new("task").with("res", t % 4).with("state", "todo"));
            }
            wm
        },
        work_us: 100,
        fault: None,
        // `^state done` is an absolute write.
        commutes: false,
        drained: |report, wm, cell| {
            assert_eq!(report.commits, 24, "{cell}");
            assert_eq!(report.fanout.partitions, 8, "{cell}: the component must be split");
            for tally in wm.class_iter("tally") {
                assert_eq!(tally.get("count"), Some(&Value::Int(6)), "{cell}: 24 tasks / 4");
            }
        },
    },
];

#[test]
fn every_strategy_obeys_every_law_on_every_shape() {
    for shape in &SHAPES {
        let rules = RuleSet::parse(shape.rules).expect("shape rules parse");
        for row in &ROWS {
            let cell = format!("{} × {}", row.name, shape.name);
            let initial = (shape.wm)();
            let mut engine = ParallelEngine::new(
                &rules,
                initial.clone(),
                ParallelConfig {
                    protocol: row.protocol,
                    policy: row.policy,
                    elide_locks: row.elide_locks,
                    workers: 4,
                    work: match shape.work_us {
                        0 => WorkModel::None,
                        us => WorkModel::FixedMicros(us),
                    },
                    fault: shape.fault.map(|plan| plan(42)),
                    observe: true,
                    ..Default::default()
                },
            );
            let report = engine.run();
            let final_wm = engine.final_wm();

            // Law 1: closed-form outcome.
            (shape.drained)(&report, &final_wm, &cell);
            // Law 2: the §3 oracle.
            validate_trace(&rules, &initial, &report.trace)
                .unwrap_or_else(|v| panic!("{cell}: §3 replay rejected: {v}"));
            // Law 3: nothing leaks.
            assert_eq!(engine.held_locks(), 0, "{cell}: locks leaked");
            assert_eq!(engine.snapshot_pins(), 0, "{cell}: snapshot pins leaked");
            // Law 4: three independent abort books, one number.
            let obs = engine.observer().expect("observe: true").report();
            let aborts = report.aborts;
            for &(cause, n) in &obs.abort_causes {
                assert_eq!(n, abort_count(&aborts, cause), "{cell}: {cause:?} in {aborts:?}");
            }
            assert_eq!(report.lock_stats.aborts, aborts.total(), "{cell}: {aborts:?}");
            assert_eq!(obs.anomalies, 0, "{cell}");
            if let Some(faults) = report.fault_stats {
                assert_eq!(aborts.injected, faults.forced_aborts, "{cell}");
            }
            // Law 5: no condition locks ⇒ no reader aborts.
            let elides = row.elide_locks && shape.commutes;
            if elides || row.policy == ConflictPolicy::MvccSnapshot {
                assert_eq!(aborts.reader_aborts(), 0, "{cell}: {aborts:?}");
            }
            // Law 6: elision is all or nothing per component.
            let locks = report.lock_stats;
            if elides {
                assert_eq!((locks.grants, locks.blocks), (0, 0), "{cell}: lock table entered");
                assert!(locks.elided > 0, "{cell}: skips unbooked");
                assert_eq!(obs.elided_commits, report.commits as u64, "{cell}: one receipt each");
            } else {
                assert_eq!(locks.elided, 0, "{cell}: skip without a commute proof");
                assert!(locks.grants > 0, "{cell}: §4 protocol idle");
            }
            // Law 7: relation writes are intention writes.
            let relation_grants: Vec<&str> = engine
                .observer()
                .expect("observe: true")
                .history()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Grant { resource, mode }
                        if matches!(res_of_key(resource), ResourceId::Relation(_)) =>
                    {
                        Some(mode)
                    }
                    _ => None,
                })
                .collect();
            assert!(
                relation_grants.iter().all(|m| !matches!(*m, "X" | "Wa")),
                "{cell}: a full write on a relation: {relation_grants:?}"
            );
            let intention = row.protocol.relation_write().name();
            assert_eq!(
                relation_grants.contains(&intention),
                !elides,
                "{cell}: every shape writes a class, under {intention} unless elided"
            );
        }
    }
}
