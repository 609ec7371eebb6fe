//! Coordination avoidance, end to end: lock-elided batch commit must be
//! an *unobservable* optimisation.
//!
//! The matrix test drives the commute-stream workload (self-commuting
//! counter decrements plus make-only event emitters — every component
//! proves commutative) across three seeded workload shapes × match-shard
//! counts {1, 2, 8} × elision {off, on}, under a seeded doom-storm fault
//! plan so schedules actually differ. Every run must drain, replay
//! through the §3 Theorem-2 oracle, and converge to the *same* final
//! working memory; the elided runs must additionally acquire **zero**
//! locks — no grants, no blocks, every skip booked in
//! `LockStats::elided` — on the resources the analysis proved out.
//!
//! The falsifiability half re-runs both gate probes from
//! [`dps_bench::commute`] in-tree: a deliberately misclassified
//! non-commutative pair (judgment forced, validation bypassed) must be
//! *rejected* by the oracle, and swapping two firings in a recorded
//! trace must be rejected for the non-commutative pair but accepted for
//! genuinely disjoint commutative firings.

use std::collections::BTreeMap;

use dbps::engine::semantics::validate_trace;
use dbps::engine::{ParallelConfig, ParallelEngine, WorkModel};
use dbps::lock::{FaultPlan, Protocol};
use dbps::obs::{validate_history, TelemetryConfig};
use dbps::rete::ShardPlan;
use dbps::wm::WorkingMemory;
use dps_bench::commute::{probe_misclassification, probe_swapped_order};
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
fn elision_is_unobservable_across_seeds_and_shards() {
    for seed in [7u64, 42, 0xC0DE] {
        // The workload itself is deterministic, so the seed varies both
        // its shape and the doom-storm schedule perturbation.
        let counters = 3 + (seed % 3) as usize;
        let makers = 2 + (seed % 2) as usize;
        let (c_steps, m_steps) = (4i64, 3i64);
        let expected = counters * c_steps as usize + makers * m_steps as usize;
        let (rules, wm) = workloads::commute_stream(counters, c_steps, makers, m_steps);
        let mut fingerprints = Vec::new();
        for shards in [1usize, 2, 8] {
            for elide in [false, true] {
                let label = format!(
                    "seed {seed:#x} / {shards} shards / elide {}",
                    if elide { "on" } else { "off" }
                );
                let mut engine = ParallelEngine::new(
                    &rules,
                    wm.clone(),
                    ParallelConfig {
                        protocol: Protocol::RcRaWa,
                        workers: 4,
                        match_shards: shards,
                        work: WorkModel::FixedMicros(50),
                        fault: Some(FaultPlan::doom_storm(seed)),
                        observe: true,
                        elide_locks: elide,
                        ..Default::default()
                    },
                );
                let report = engine.run();
                assert_eq!(report.commits, expected, "{label}: lost commits");
                validate_trace(&rules, &wm, &report.trace)
                    .unwrap_or_else(|v| panic!("{label}: §3 replay rejected: {v}"));
                let rec = engine.observer().expect("observe: true");
                validate_history(&rec.history())
                    .unwrap_or_else(|e| panic!("{label}: malformed history: {e}"));
                if elide {
                    // Every component of commute_stream proves
                    // commutative, so the run must never touch the lock
                    // manager's grant path: zero acquisitions, zero
                    // blocks, all traffic booked as skips.
                    assert_eq!(report.lock_stats.grants, 0, "{label}: lock acquired");
                    assert_eq!(report.lock_stats.blocks, 0, "{label}: lock blocked");
                    assert!(report.lock_stats.elided > 0, "{label}: skips unbooked");
                } else {
                    assert_eq!(report.lock_stats.elided, 0, "{label}: skip without elision");
                    assert!(report.lock_stats.grants > 0, "{label}: §4 protocol idle");
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

#[test]
fn elision_with_nothing_elidable_elides_nothing() {
    // `charge` sets `^state done` absolutely, so it does not commute
    // with itself and no rule elides: every firing takes the §4 locks
    // and no transaction validates against a snapshot.
    let (rules, wm) = workloads::shared_resources(128, 4);
    let config = ParallelConfig {
        elide_locks: true,
        telemetry: Some(TelemetryConfig::default()),
        ..Default::default()
    };
    let plan = ShardPlan::new(&rules, config.match_shards);
    assert_eq!(plan.elidable_count(), 0, "precondition: nothing to elide");
    let mut engine = ParallelEngine::new(&rules, wm, config);
    let report = engine.run();
    assert!(report.commits >= 64);
    assert_eq!(report.lock_stats.elided, 0);
}

#[test]
fn misclassified_commutativity_is_rejected_by_the_oracle() {
    // Force the judgment to call a non-commutative pair commutative AND
    // bypass commit-time validation: the manufactured lost updates must
    // be caught by the §3 replay. If this probe ever *passes* the
    // oracle, either the oracle or the elision protocol has a hole.
    assert!(
        probe_misclassification(8, 200),
        "oracle accepted a deliberately misclassified elided run"
    );
}

#[test]
fn swapped_firing_order_distinguishes_commutative_pairs() {
    // Trace-level check that the commutativity judgment tracks real
    // reorderability: swapping two adjacent firings of the
    // non-commutative pair must break replay, while swapping two
    // disjoint counter decrements must not.
    let (noncommutative_rejected, commutative_accepted) = probe_swapped_order();
    assert!(
        noncommutative_rejected,
        "oracle accepted a swapped non-commutative pair"
    );
    assert!(
        commutative_accepted,
        "oracle rejected a swapped pair the judgment proves commutative"
    );
}
