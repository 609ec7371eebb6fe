//! Observability + abort-accounting regression tests.
//!
//! Three invariants this file pins down (each was violated, or
//! unverifiable, before the `dps-obs` layer landed):
//!
//! 1. an RHS evaluation error increments **only** the `eval_error`
//!    counter (it used to be folded into `stale`);
//! 2. the engine's per-cause abort counters sum to the lock manager's
//!    abort total — the two layers' books balance;
//! 3. the merged observability history is well-formed: every transaction
//!    begins before anything else, ends with exactly one terminal
//!    (commit xor abort), and its timestamps are monotone.

use dbps::engine::{ParallelConfig, ParallelEngine, WorkModel};
use dps_bench::analysis::abort_count;
use dbps::lock::ConflictPolicy;
use dbps::obs::validate_history;
use dbps::rules::RuleSet;
use dbps::wm::{WmeData, WorkingMemory};

/// A workload whose every RHS fails to evaluate (division by zero).
fn eval_error_workload() -> (RuleSet, WorkingMemory) {
    let rules =
        RuleSet::parse("(p boom (cell ^n <n>) --> (modify 1 ^n (/ <n> 0)))").unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("cell").with("n", 1i64));
    (rules, wm)
}

/// Heavy Rc–Wa conflict: many deltas folded into one shared accumulator
/// with simulated RHS work, so dooms actually occur.
fn contended_workload(deltas: i64) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p apply (delta ^v <d>) (acc ^total <t>)
           --> (remove 1) (modify 2 ^total (+ <t> <d>)))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    for i in 1..=deltas {
        wm.insert(WmeData::new("delta").with("v", i));
    }
    wm.insert(WmeData::new("acc").with("total", 0i64));
    (rules, wm)
}

#[test]
fn eval_error_increments_only_its_own_counter() {
    let (rules, wm) = eval_error_workload();
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            workers: 2,
            observe: true,
            ..Default::default()
        },
    );
    let report = engine.run();
    assert_eq!(report.commits, 0, "the only rule can never commit");
    assert_eq!(report.aborts.eval_error, 1, "one refracted eval failure");
    assert_eq!(report.aborts.stale, 0, "eval errors no longer masquerade as stale");
    assert_eq!(report.aborts.doomed, 0);
    assert_eq!(report.aborts.deadlock, 0);
    assert_eq!(report.aborts.revalidation, 0);
    assert_eq!(report.aborts.timeout, 0);
    assert_eq!(report.aborts.total(), 1);
    // The observability stream agrees, down to the per-rule table.
    let rec = engine.observer().expect("observe: true");
    let obs = rec.report();
    assert_eq!(
        obs.abort_causes
            .iter()
            .find(|(c, _)| c.name() == "eval_error")
            .map(|(_, n)| *n),
        Some(1)
    );
    assert_eq!(obs.aborts, 1);
    let boom = rules.id_of("boom").expect("boom is a rule").0;
    let row = obs.rules.iter().find(|r| r.rule == boom).expect("rule row");
    assert_eq!(row.aborted, 1);
    assert!(!report.trace.names().contains(&"boom"), "boom never fired");
}

#[test]
fn engine_and_lock_manager_abort_books_balance() {
    // Aggregate over several contended runs (conflict is scheduling-
    // dependent) under both commit-time policies.
    for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::Revalidate] {
        for _ in 0..3 {
            let (rules, wm) = contended_workload(8);
            let mut engine = ParallelEngine::new(
                &rules,
                wm,
                ParallelConfig {
                    policy,
                    workers: 4,
                    work: WorkModel::FixedMicros(200),
                    observe: true,
                    ..Default::default()
                },
            );
            let report = engine.run();
            assert_eq!(report.commits, 8, "{policy:?}");
            assert_eq!(
                report.aborts.total(),
                report.lock_stats.aborts,
                "{policy:?}: engine abort causes {:?} must sum to the lock manager's {}",
                report.aborts,
                report.lock_stats.aborts
            );
            // The obs event stream is the third, independent book, cause
            // by cause.
            let obs = engine.observer().expect("observe: true").report();
            for &(cause, n) in &obs.abort_causes {
                assert_eq!(n, abort_count(&report.aborts, cause), "{policy:?}: {cause:?}");
            }
            assert_eq!(obs.aborts, report.aborts.total(), "{policy:?}");
            assert_eq!(obs.commits, report.commits as u64, "{policy:?}");
            assert_eq!(obs.anomalies, 0, "{policy:?}");
        }
    }
}

#[test]
fn merged_history_is_well_formed() {
    let (rules, wm) = contended_workload(10);
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            workers: 4,
            work: WorkModel::FixedMicros(200),
            observe: true,
            ..Default::default()
        },
    );
    let report = engine.run();
    assert_eq!(report.commits, 10);
    let rec = engine.observer().expect("observe: true");
    assert_eq!(rec.dropped(), 0, "ring capacity suffices for this run");
    let history = rec.history();
    assert!(!history.is_empty());
    validate_history(&history).expect("begin-first, one terminal, monotone timestamps");
    // Terminals match the engine's own accounting.
    let commits = history
        .iter()
        .filter(|e| matches!(e.kind, dbps::obs::EventKind::Commit))
        .count();
    let aborts = history
        .iter()
        .filter(|e| matches!(e.kind, dbps::obs::EventKind::Abort { .. }))
        .count();
    assert_eq!(commits, report.commits);
    assert_eq!(aborts as u64, report.aborts.total());
}

#[test]
fn observe_off_attaches_no_recorder() {
    let (rules, wm) = contended_workload(4);
    let mut engine = ParallelEngine::new(&rules, wm, ParallelConfig::default());
    let report = engine.run();
    assert_eq!(report.commits, 4);
    assert!(engine.observer().is_none(), "observe defaults to off");
}
