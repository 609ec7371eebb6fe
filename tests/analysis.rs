//! End-to-end tests for the trace-analysis layer: a real dynamic-engine
//! run under **both** lock protocols is analyzed from its event history
//! alone, and the §3-Theorem-2 checker must (a) pass on the genuine
//! run, (b) flag an *injected* out-of-order replay as `inconsistent`,
//! and (c) flag a corrupted commit sequence as a structural error —
//! the oracle is falsifiable, not a rubber stamp.

use dbps::engine::semantics::validate_trace;
use dbps::engine::{Firing, ParallelConfig, ParallelEngine, ParallelReport, WorkModel};
use dbps::lock::{ConflictPolicy, Protocol};
use dbps::obs::analysis::{analyze, RunAnalysis};
use dbps::obs::{validate_history, Event, EventKind, Recorder, Verdict};
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

/// The full analysis loop as `dps-bench` runs it, minus the printing.
fn analyzed(
    rules: &RuleSet,
    initial: &WorkingMemory,
    report: &ParallelReport,
    rec: &Recorder,
) -> RunAnalysis {
    let history = rec.history();
    validate_history(&history).expect("merged history well-formed");
    let mut analysis = analyze(&history);
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

        // Checker: consistent, with the full commit sequence recovered
        // from the event stream alone.
        assert_eq!(analysis.verdict(), Verdict::Consistent, "{protocol:?}");
        assert!(analysis.checker.structural_errors.is_empty(), "{protocol:?}");
        assert_eq!(analysis.checker.commits.len(), report.commits, "{protocol:?}");

        // The recovered rule sequence names the same rules as the trace.
        let names = rec.rule_names();
        let recovered: Vec<&str> = analysis
            .checker
            .rule_sequence()
            .iter()
            .map(|&id| names[id as usize].as_str())
            .collect();
        assert_eq!(recovered, report.trace.names(), "{protocol:?}");

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

    // Swap two adjacent firings: every firing of the accumulator
    // workload reads the previous firing's output, so the swapped
    // sequence is *not* a member of ES_single.
    let mut firings: Vec<Firing> = report.trace.iter().collect();
    firings.swap(0, 1);
    report.trace = firings.into_iter().collect();
    let replay = validate_trace(&rules, &initial, &report.trace);
    assert!(replay.is_err(), "swapped commit order must fail §3 replay");

    let history = rec.history();
    let mut analysis = analyze(&history);
    assert!(
        analysis.checker.structural_errors.is_empty(),
        "the event stream itself is untouched"
    );
    analysis.set_replay_result(replay.map_err(|v| v.to_string()));
    assert_eq!(analysis.verdict(), Verdict::Inconsistent);
}

#[test]
fn corrupted_fire_seq_is_a_structural_error() {
    let (_, _, _, rec) = run(Protocol::RcRaWa);
    let mut history: Vec<Event> = rec.history();

    // Teleport one Fire record to a far-away slot: the recovered
    // sequence is no longer contiguous.
    let fire = history
        .iter_mut()
        .find(|e| matches!(e.kind, EventKind::Fire { .. }))
        .expect("instrumented run records Fire events");
    if let EventKind::Fire { rule, .. } = fire.kind {
        fire.kind = EventKind::Fire { rule, seq: 1_000_000 };
    }

    let analysis = analyze(&history);
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
    let (_, _, _, rec) = run(Protocol::RcRaWa);
    let mut history: Vec<Event> = rec.history();

    // Swap the seq payloads of the first and last Fire records. The set
    // of slots stays contiguous, but the commit timestamps now disagree
    // with the claimed order — the checker's timestamp cross-check
    // (commit order == trace-append order, both under the engine's
    // commit critical section) must catch it.
    let fires: Vec<usize> = history
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, EventKind::Fire { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(fires.len() >= 2);
    let (a, b) = (fires[0], *fires.last().unwrap());
    let (ka, kb) = (history[a].kind, history[b].kind);
    if let (EventKind::Fire { rule: ra, seq: sa }, EventKind::Fire { rule: rb, seq: sb }) =
        (ka, kb)
    {
        assert_ne!(sa, sb);
        history[a].kind = EventKind::Fire { rule: ra, seq: sb };
        history[b].kind = EventKind::Fire { rule: rb, seq: sa };
    }

    let analysis = analyze(&history);
    assert_eq!(analysis.verdict(), Verdict::Inconsistent);
    assert!(!analysis.checker.structural_errors.is_empty());
}
