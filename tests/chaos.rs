//! Integration tests for the chaos layer: seeded fault plans must
//! never cost consistency (the robustness version of Theorem 2), the
//! checker must be falsifiable, and a transaction doomed mid-RHS must
//! stop before its next action and release its locks exactly once.

use dbps::engine::semantics::validate_trace;
use dbps::engine::{ParallelConfig, ParallelEngine, WorkModel};
use dbps::lock::{
    ConflictPolicy, FaultPlan, LockError, LockManager, LockMode, Protocol, ResourceId,
};
use dbps::obs::Verdict;
use dps_bench::chaos::{chaos_run, injection_accounted, ChaosSpec};
use dps_bench::workloads;

/// S2 seed-loop property: every named fault plan, across seeds and
/// both conflict policies, yields a run that drains its workload and
/// replays consistently through the §3 oracle — the injector may cost
/// throughput, never correctness.
#[test]
fn every_fault_plan_and_seed_replays_consistently() {
    for (plan_name, ctor) in FaultPlan::NAMED {
        for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::Revalidate] {
            for seed in [0xC0FF_EE01_u64, 0x5EED_0002] {
                let run = chaos_run(ChaosSpec {
                    plan: plan_name,
                    fault: ctor(seed),
                    policy,
                    workers: 4,
                    tasks: 12,
                    resources: 2,
                    work_us: 50,
                });
                assert!(
                    run.passes(),
                    "plan {plan_name} / {policy:?} / seed {seed:#x}: \
                     commits={} verdict={:?} errors={:?} replay={:?}",
                    run.report.commits,
                    run.verdict(),
                    run.errors,
                    run.replay
                );
                assert!(
                    injection_accounted(&run),
                    "every injected fault must surface as an Injected abort, \
                     never masquerade as an organic cause"
                );
            }
        }
    }
}

/// S2 falsifiability: corrupting the recorded commit ordering (the
/// commit log's first slot names a transaction that never began, so
/// rejection is guaranteed) must be *rejected* by the checker. If this
/// test fails the oracle is a rubber stamp and the property test above
/// proves nothing.
#[test]
fn corrupted_commit_sequence_is_rejected() {
    let seed = 0xBAD_5EED;
    let run = chaos_run(ChaosSpec {
        plan: "corrupted",
        fault: FaultPlan {
            corrupt_commit_log: true,
            ..FaultPlan::quiet(seed)
        },
        policy: ConflictPolicy::AbortReaders,
        workers: 4,
        tasks: 12,
        resources: 2,
        work_us: 0,
    });
    assert_eq!(run.verdict(), Verdict::Inconsistent);
    assert!(
        run.errors.iter().any(|e| e.contains("never committed")),
        "rejection must come with a concrete structural error: {:?}",
        run.errors
    );
    assert!(!run.passes());
}

/// S3, lock level: a reader doomed by a committing writer surfaces
/// `DoomedByWriter` from `check`, its abort releases the locks exactly
/// once (a second abort/check is `NotActive`), and the released
/// resource is immediately grantable to a newcomer.
#[test]
fn doomed_reader_releases_locks_exactly_once() {
    let lm = LockManager::new(ConflictPolicy::AbortReaders);
    let res = ResourceId::Tuple(7);
    let reader = lm.begin();
    let writer = lm.begin();
    lm.lock(reader, res, LockMode::Rc).unwrap();
    lm.lock(writer, res, LockMode::Wa).unwrap();

    // Commit-time dooming (Figure 4.3(b)).
    let outcome = lm.commit(writer).unwrap();
    assert_eq!(outcome.doomed_readers, vec![reader]);

    // The doomed-poll seam the engine uses mid-RHS. Surfacing the doom
    // IS the abort: the `Doomed → Aborted` flip and the lock release
    // happen in one critical section, exactly once.
    match lm.check(reader) {
        Err(LockError::DoomedByWriter { txn, by }) => {
            assert_eq!((txn, by), (reader, writer));
        }
        other => panic!("expected DoomedByWriter, got {other:?}"),
    }

    // A second poll is a benign no-op (the held set was already
    // drained), and an explicit abort cannot release again: the
    // accounting ran exactly once.
    assert!(lm.check(reader).is_ok());
    assert!(!lm.is_active(reader));
    assert!(matches!(lm.abort(reader), Err(LockError::NotActive(_))));

    // The lock really was released (once): nothing is held, and an X
    // grant succeeds now.
    assert_eq!(lm.held_locks(), 0);
    let late = lm.begin();
    lm.lock(late, res, LockMode::X).unwrap();
}

/// S3, engine level: under a doom-storm plan with a non-trivial RHS,
/// workers are doomed *mid-RHS* (the stall seam widens the window) and
/// the doomed poll stops them before the action phase — so the final
/// trace still replays consistently and every task still drains.
#[test]
fn doomed_mid_rhs_stops_before_next_action() {
    let seed = 0xD00F_u64;
    let (rules, wm) = workloads::shared_resources(16, 1);
    let initial = wm.clone();
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            protocol: Protocol::RcRaWa,
            policy: ConflictPolicy::AbortReaders,
            workers: 4,
            work: WorkModel::FixedMicros(200),
            fault: Some(FaultPlan::doom_storm(seed)),
            // The test exists to see dooms land mid-RHS: every claim
            // scan on the one shard the hot tally lives on.
            match_shards: 1,
            ..Default::default()
        },
    );
    let report = engine.run();
    assert_eq!(report.commits, 16, "every task drains despite the storm");
    let aborts = report.aborts;
    assert!(
        aborts.doomed + aborts.revalidation + aborts.injected > 0,
        "the storm must actually doom workers mid-flight: {aborts:?}"
    );
    let stats = report.fault_stats.expect("fault plan attaches stats");
    assert!(stats.rhs_stalls > 0, "mid-RHS stall seam must fire");
    // The §3 oracle: had any doomed worker slipped its action through,
    // replay would observe the phantom write and reject.
    validate_trace(&rules, &initial, &report.trace)
        .expect("doomed workers must stop before their next action");
}
