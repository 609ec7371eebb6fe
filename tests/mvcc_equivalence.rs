//! MVCC equivalence and falsifiability, end to end.
//!
//! The seed-loop property test drives the streaming false-conflict
//! workload through every conflict policy (lock-based `AbortReaders` /
//! `Revalidate` and the snapshot-read `MvccSnapshot`) at match-shard
//! counts {1, 2, 8}, under a seeded doom-storm fault plan so schedules
//! actually differ between runs. Every run must drain, replay through
//! the §3 Theorem-2 oracle, and converge to the *same* final working
//! memory — and the MVCC runs must do it with zero condition-read
//! aborts while their histories pass the SI/serializability polygraph.
//!
//! The falsifiability half mirrors `tests/analysis.rs` for the SI
//! checker: a genuine MVCC history passes, and targeted corruptions —
//! a version read that observed a version nobody installed, and two
//! transactions' installed version sequences swapped — are rejected.

use std::collections::BTreeMap;

use dbps::engine::semantics::validate_trace;
use dbps::engine::{ParallelConfig, ParallelEngine, WorkModel};
use dbps::lock::{res_of_key, ConflictPolicy, FaultPlan, Protocol, ResourceId};
use dbps::obs::analysis::si_checker;
use dbps::obs::{validate_history, Event, EventKind, Verdict};
use dbps::rules::RuleSet;
use dbps::wm::{WmeData, WorkingMemory};
use dps_bench::workloads;

/// Class → multiset of (attr, value) rows, ignoring ids and timestamps:
/// the order-independent fingerprint of a working memory.
fn fingerprint(wm: &WorkingMemory) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for w in wm.iter() {
        let row: Vec<String> = w
            .data
            .attrs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.entry(w.class().to_string())
            .or_default()
            .push(row.join(","));
    }
    for rows in out.values_mut() {
        rows.sort();
    }
    out
}

#[test]
fn every_policy_and_shard_count_converges_under_chaos() {
    let (guards, g_steps, producers, p_steps) = (4usize, 3i64, 4usize, 3i64);
    let expected = guards * g_steps as usize + producers * p_steps as usize;
    for seed in [1u64, 42, 0xBEEF] {
        let (rules, wm) = workloads::false_conflict_stream(guards, g_steps, producers, p_steps);
        let mut fingerprints = Vec::new();
        for policy in [
            ConflictPolicy::AbortReaders,
            ConflictPolicy::Revalidate,
            ConflictPolicy::MvccSnapshot,
        ] {
            for shards in [1usize, 2, 8] {
                let label = format!("seed {seed:#x} / {policy:?} / {shards} shards");
                let mut engine = ParallelEngine::new(
                    &rules,
                    wm.clone(),
                    ParallelConfig {
                        protocol: Protocol::RcRaWa,
                        policy,
                        workers: 4,
                        match_shards: shards,
                        work: WorkModel::FixedMicros(50),
                        fault: Some(FaultPlan::doom_storm(seed)),
                        observe: true,
                        ..Default::default()
                    },
                );
                let report = engine.run();
                assert_eq!(report.commits, expected, "{label}: lost commits");
                validate_trace(&rules, &wm, &report.trace)
                    .unwrap_or_else(|v| panic!("{label}: §3 replay rejected: {v}"));
                let rec = engine.observer().expect("observe: true");
                let history = rec.history();
                validate_history(&history)
                    .unwrap_or_else(|e| panic!("{label}: malformed history: {e}"));
                if policy == ConflictPolicy::MvccSnapshot {
                    assert_eq!(
                        report.aborts.reader_aborts(),
                        0,
                        "{label}: condition-read aborts under MVCC"
                    );
                    let si = si_checker::check_history(&history);
                    assert_eq!(
                        si.verdict(),
                        Verdict::Consistent,
                        "{label}: SI polygraph rejected a genuine run: {:?} {:?}",
                        si.violations,
                        si.cycle
                    );
                    assert_eq!(si.committed, expected, "{label}: polygraph lost commits");
                }
                fingerprints.push((label, fingerprint(&engine.final_wm())));
            }
        }
        for pair in fingerprints.windows(2) {
            assert_eq!(
                pair[0].1, pair[1].1,
                "final states diverge between {} and {}",
                pair[0].0, pair[1].0
            );
        }
    }
}

/// One instrumented MVCC run of the streaming workload (no faults) and
/// its merged event history.
fn mvcc_history() -> (usize, Vec<Event>) {
    let (rules, wm) = workloads::false_conflict_stream(3, 4, 3, 4);
    let expected = 3 * 4 + 3 * 4;
    let mut engine = ParallelEngine::new(
        &rules,
        wm.clone(),
        ParallelConfig {
            protocol: Protocol::RcRaWa,
            policy: ConflictPolicy::MvccSnapshot,
            workers: 4,
            work: WorkModel::FixedMicros(50),
            observe: true,
            ..Default::default()
        },
    );
    let report = engine.run();
    assert_eq!(report.commits, expected);
    validate_trace(&rules, &wm, &report.trace).unwrap();
    let rec = engine.observer().expect("observe: true");
    (expected, rec.history())
}

#[test]
fn genuine_mvcc_history_passes_the_polygraph() {
    let (expected, history) = mvcc_history();
    let rep = si_checker::check_history(&history);
    assert_eq!(rep.committed, expected);
    assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    assert!(rep.cycle.is_none(), "{:?}", rep.cycle);
    assert_eq!(rep.verdict(), Verdict::Consistent);
}

#[test]
fn phantom_version_read_is_rejected() {
    let (_, mut history) = mvcc_history();
    // Claim some condition read observed a version nobody installed:
    // the snapshot-consistency check must flag it.
    let read = history
        .iter_mut()
        .find(|e| matches!(e.kind, EventKind::VersionRead { .. }))
        .expect("MVCC run records version reads");
    if let EventKind::VersionRead { resource, .. } = read.kind {
        read.kind = EventKind::VersionRead {
            resource,
            seq: 999_999,
        };
    }
    let rep = si_checker::check_history(&history);
    assert_eq!(rep.verdict(), Verdict::Inconsistent);
    assert!(
        !rep.violations.is_empty(),
        "a phantom read must surface as an SI violation"
    );
}

#[test]
fn swapped_version_install_order_is_rejected() {
    let (_, mut history) = mvcc_history();
    // Swap the installed version sequences of two different committed
    // transactions, as if the engine had interchanged their installs.
    // Each now disagrees with its own commit slot (version = fire + 1),
    // so the version-order cross-check must reject.
    let writes: Vec<usize> = history
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, EventKind::VersionWrite { .. }))
        .map(|(i, _)| i)
        .collect();
    let (a, b) = (writes[0], *writes.last().unwrap());
    assert_ne!(
        history[a].txn, history[b].txn,
        "corruption needs two distinct writers"
    );
    let (ka, kb) = (history[a].kind, history[b].kind);
    if let (
        EventKind::VersionWrite { resource: ra, seq: sa },
        EventKind::VersionWrite { resource: rb, seq: sb },
    ) = (ka, kb)
    {
        assert_ne!(sa, sb);
        history[a].kind = EventKind::VersionWrite { resource: ra, seq: sb };
        history[b].kind = EventKind::VersionWrite { resource: rb, seq: sa };
    }
    let rep = si_checker::check_history(&history);
    assert_eq!(rep.verdict(), Verdict::Inconsistent);
    assert!(
        rep.violations
            .iter()
            .any(|v| v.contains("disagrees with commit slot") || v.contains("latest committed")),
        "expected a version-order diagnostic, got {:?}",
        rep.violations
    );
}

/// One transaction of an MVCC history, projected onto what the SI
/// checker reads: its `SnapshotPin` seq, its `VersionRead`s and its
/// `VersionWrite`s, each as `(tuple id, seq)` in event order.
type Footprint = (u64, Vec<(u64, u64)>, Vec<(u64, u64)>);

/// The committed transactions' footprints, in commit (`Fire`) order.
fn footprints(history: &[Event]) -> Vec<Footprint> {
    let tuple = |resource: u64| match res_of_key(resource) {
        ResourceId::Tuple(id) => id,
        other => panic!("a version event on {other:?}"),
    };
    let mut by_txn: BTreeMap<u64, (Option<u64>, Footprint)> = BTreeMap::new();
    for e in history {
        let (fire, (pin, reads, writes)) = by_txn.entry(e.txn).or_default();
        match e.kind {
            EventKind::Fire { seq, .. } => *fire = Some(seq),
            EventKind::SnapshotPin { seq } => *pin = seq,
            EventKind::VersionRead { resource, seq } => reads.push((tuple(resource), seq)),
            EventKind::VersionWrite { resource, seq } => writes.push((tuple(resource), seq)),
            EventKind::Abort { .. } => panic!("one worker aborted txn {}", e.txn),
            _ => {}
        }
    }
    let mut committed: Vec<(u64, Footprint)> = by_txn
        .into_values()
        .filter_map(|(fire, fp)| Some((fire?, fp)))
        .collect();
    committed.sort_by_key(|(fire, _)| *fire);
    committed.into_iter().map(|(_, fp)| fp).collect()
}

/// The exact MVCC history of a one-worker run over a modify, a make, a
/// remove and a negated CE: which snapshot each transaction pinned,
/// which version of each matched tuple it read, and which versions it
/// installed. A resumed engine numbers the same history from its own
/// start, so both runs give the same projection.
#[test]
fn one_worker_mvcc_history_is_pinned_exactly() {
    let rules = RuleSet::parse(
        "(p tick (cell ^n { > 0 <n> }) -(stop) --> (modify 1 ^n (- <n> 1)) (make mark ^at <n>))
         (p last (cell ^n 0) -(stop) --> (make stop))
         (p sweep (stop) (mark ^at <a>) --> (remove 2))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("cell").with("n", 2i64));
    wm.insert(WmeData::new("mark").with("at", 9i64));
    // Tuples 0 (the cell) and 1 (a mark) are the start memory, version
    // 0; tick modifies the cell in place and makes marks 2 and 3, last
    // makes stop 4, and sweep removes each mark after reading stop.
    let expected: Vec<Footprint> = vec![
        (0, vec![(0, 0)], vec![(0, 1), (2, 1)]),
        (1, vec![(0, 1)], vec![(0, 2), (3, 2)]),
        (2, vec![(0, 2)], vec![(4, 3)]),
        (3, vec![(4, 3), (1, 0)], vec![(1, 4)]),
        (4, vec![(4, 3), (2, 1)], vec![(2, 5)]),
        (5, vec![(4, 3), (3, 2)], vec![(3, 6)]),
    ];
    for base_seq in [0u64, 100] {
        let mut engine = ParallelEngine::resume(
            &rules,
            wm.clone(),
            base_seq,
            ParallelConfig {
                policy: ConflictPolicy::MvccSnapshot,
                workers: 1,
                match_shards: 1,
                observe: true,
                ..Default::default()
            },
        );
        let report = engine.run();
        validate_trace(&rules, &wm, &report.trace).unwrap();
        let history = engine.observer().expect("observe: true").history();
        assert_eq!(
            si_checker::check_history(&history).verdict(),
            Verdict::Consistent
        );
        assert_eq!(footprints(&history), expected, "base_seq {base_seq}");
    }
}
