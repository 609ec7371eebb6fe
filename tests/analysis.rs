//! End-to-end tests for the trace-analysis layer: a real dynamic-engine
//! run under **both** lock protocols is analyzed from its event history
//! and its commit log, and the §3-Theorem-2 checker must (a) pass on
//! the genuine run, (b) flag an *injected* out-of-order replay as
//! `inconsistent`, and (c) flag a corrupted commit log — a teleported
//! txn id, two slots' txn ids swapped — as a structural error: the
//! oracle is falsifiable, not a rubber stamp.

use dbps::engine::semantics::validate_trace;
use dbps::engine::{Firing, ParallelConfig, ParallelEngine, ParallelReport, WorkModel};
use dbps::lock::{ConflictPolicy, Protocol};
use dbps::obs::analysis::{analyze, RunAnalysis};
use dbps::obs::{validate_history, Recorder, Verdict};
use dbps::rules::RuleSet;
use dbps::wm::{WmeData, WorkingMemory};
use std::sync::Arc;

/// Heavy Rc–Wa conflict: `deltas` pending deltas all folded into one
/// shared accumulator. Every firing modifies the accumulator, so the
/// commit order is *strict*: replaying any two adjacent firings swapped
/// must fail (the second references a working-memory state the first
/// has not yet produced).
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

/// Runs the contended workload instrumented and returns everything the
/// analysis loop needs.
fn run(protocol: Protocol) -> (RuleSet, WorkingMemory, ParallelReport, Arc<Recorder>) {
    let (rules, wm) = contended_workload(16);
    let initial = wm.clone();
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            protocol,
            policy: ConflictPolicy::AbortReaders,
            workers: 4,
            work: WorkModel::FixedMicros(200),
            observe: true,
            ..Default::default()
        },
    );
    let report = engine.run();
    assert_eq!(report.commits, 16, "{protocol:?}: lost commits");
    let rec = engine.observer().expect("observe: true").clone();
    assert_eq!(rec.dropped(), 0);
    (rules, initial, report, rec)
}

/// The commit log's txn column: slot `i` committed by the `i`-th.
fn txns(report: &ParallelReport) -> Vec<u64> {
    report.trace.firings.txns().collect()
}

/// The full analysis loop as `dps-bench` runs it, minus the printing.
fn analyzed(
    rules: &RuleSet,
    initial: &WorkingMemory,
    report: &ParallelReport,
    rec: &Recorder,
) -> RunAnalysis {
    let history = rec.history();
    validate_history(&history).expect("merged history well-formed");
    let mut analysis = analyze(&history, &txns(report));
    analysis.set_replay_result(
        validate_trace(rules, initial, &report.trace).map_err(|v| v.to_string()),
    );
    analysis
}

#[test]
fn both_protocols_analyze_consistent_end_to_end() {
    for protocol in [Protocol::RcRaWa, Protocol::TwoPhase] {
        let (rules, initial, report, rec) = run(protocol);
        let analysis = analyzed(&rules, &initial, &report, &rec);

        // Checker: consistent, with every commit of the history paired
        // with one slot of the log.
        assert_eq!(analysis.verdict(), Verdict::Consistent, "{protocol:?}");
        assert!(analysis.checker.structural_errors.is_empty(), "{protocol:?}");
        assert_eq!(analysis.checker.commits.len(), report.commits, "{protocol:?}");
        let committed = analysis.graph.spans.values().filter(|s| s.committed).count();
        assert_eq!(committed, report.commits, "{protocol:?}");

        // The log names the rules it fired, one record per commit.
        assert_eq!(report.trace.names(), vec!["apply"; report.commits], "{protocol:?}");

        // Critical-path accounting is internally consistent.
        let c = &analysis.critical;
        assert_eq!(c.useful_busy_ns + c.wasted_ns, c.total_busy_ns, "{protocol:?}");
        assert!(c.critical_path_ns <= c.total_busy_ns, "{protocol:?}");
        assert!((0.0..=1.0).contains(&c.wasted_fraction), "{protocol:?}");
        assert!(!c.critical_path.is_empty(), "{protocol:?}");
        assert!(c.effective_parallelism >= 1.0 - 1e-9, "{protocol:?}");
    }
}

#[test]
fn injected_out_of_order_replay_is_flagged_inconsistent() {
    let (rules, initial, mut report, rec) = run(Protocol::RcRaWa);
    let logged = txns(&report);

    // Swap two adjacent firings: every firing of the accumulator
    // workload reads the previous firing's output, so the swapped
    // sequence is *not* a member of ES_single.
    let mut firings: Vec<Firing> = report.trace.iter().collect();
    firings.swap(0, 1);
    report.trace = firings.into_iter().collect();
    let replay = validate_trace(&rules, &initial, &report.trace);
    assert!(replay.is_err(), "swapped commit order must fail §3 replay");

    let history = rec.history();
    let mut analysis = analyze(&history, &logged);
    assert!(
        analysis.checker.structural_errors.is_empty(),
        "the event stream and the txn column are untouched"
    );
    analysis.set_replay_result(replay.map_err(|v| v.to_string()));
    assert_eq!(analysis.verdict(), Verdict::Inconsistent);
}

#[test]
fn teleported_txn_id_is_a_structural_error() {
    let (_, _, report, rec) = run(Protocol::RcRaWa);
    let history = rec.history();

    // Teleport one slot's txn id far away: the log now names a
    // transaction that never committed, and one that did holds no slot.
    let mut txns = txns(&report);
    txns[3] = 1_000_000;

    let analysis = analyze(&history, &txns);
    assert_eq!(analysis.verdict(), Verdict::Inconsistent);
    assert!(
        analysis
            .checker
            .structural_errors
            .iter()
            .any(|e| e.contains("sequence")),
        "expected a broken-sequence diagnostic, got {:?}",
        analysis.checker.structural_errors
    );
}

#[test]
fn swapped_commit_sequence_slots_are_a_structural_error() {
    let (_, _, report, rec) = run(Protocol::RcRaWa);
    let history = rec.history();

    // Swap the txn ids of the first and last slots. Every committed
    // transaction still holds exactly one slot, but the commit
    // timestamps now disagree with the claimed order — the checker's
    // timestamp cross-check (commit order == log order, both under the
    // engine's commit critical section) must catch it.
    let mut txns = txns(&report);
    assert!(txns.len() >= 2);
    let last = txns.len() - 1;
    txns.swap(0, last);

    let analysis = analyze(&history, &txns);
    assert_eq!(analysis.verdict(), Verdict::Inconsistent);
    assert!(
        analysis
            .checker
            .structural_errors
            .iter()
            .any(|e| e.contains("sequence order")),
        "expected a sequence-order diagnostic, got {:?}",
        analysis.checker.structural_errors
    );
}
