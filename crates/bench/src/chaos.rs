//! Chaos gate: fault-injected dynamic-engine runs that must still
//! replay consistently.
//!
//! The gate's claim is the robustness version of Theorem 2: *under any
//! seeded [`FaultPlan`]* — grant delays, spurious wakeups, forced
//! aborts, mid-RHS stalls — every run that survives to quiescence
//! still drains its whole workload and its commit sequence still
//! replays through the single-thread oracle (`ES_M ⊆
//! ES_single`). [`gate`] runs the sweep (named plans × conflict
//! policies, MVCC snapshot reads included, × worker counts), plus:
//!
//! * a **falsifiability probe**: the same pipeline with
//!   [`FaultPlan::corrupt_commit_log`] set must be *rejected* by the
//!   checker (the log's first slot names a transaction that never
//!   began, and the one that took it holds none), proving the oracle
//!   can actually fail;
//! * the **one doom book** under `Revalidate`, summed over its legs:
//!   no reader aborts as `doomed` (the lock manager dooms nobody on its
//!   own there), and no leg has more `revalidation` aborts than lock
//!   dooms (every verdict is a lock-manager doom).

use dps_core::{ParallelConfig, WorkModel};
use dps_lock::{ConflictPolicy, FaultPlan, Protocol};
use dps_obs::json::Json;
use dps_obs::Verdict;

use crate::analysis::{certified_run, policy_name, Leg};
use crate::harness::ReportArgs;
use crate::report::{Op, Report};
use crate::workloads;

/// The policies the chaos sweep crosses with every fault plan: both
/// lock-based commit rules plus the MVCC snapshot read path.
pub const SWEEP_POLICIES: [ConflictPolicy; 3] = [
    ConflictPolicy::AbortReaders,
    ConflictPolicy::Revalidate,
    ConflictPolicy::MvccSnapshot,
];

/// Shape of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Label of the fault plan (one of [`FaultPlan::NAMED`], or
    /// "corrupted" for the falsifiability probe).
    pub plan: &'static str,
    /// The fault plan itself.
    pub fault: FaultPlan,
    /// Commit-time `Rc`–`Wa` policy.
    pub policy: ConflictPolicy,
    /// Worker threads.
    pub workers: usize,
    /// Tasks in the `shared_resources` workload (= expected commits).
    pub tasks: usize,
    /// Shared tallies (contention knob).
    pub resources: usize,
    /// Simulated RHS cost (an I/O-bound sleep), microseconds.
    pub work_us: u64,
}

/// Runs one chaos spec as a certified leg keyed `plan/policy/wN`, with
/// the injection counters attached.
pub fn chaos_run(spec: ChaosSpec) -> Leg {
    let (rules, wm) = workloads::shared_resources(spec.tasks, spec.resources);
    let leg = certified_run(
        &rules,
        wm,
        ParallelConfig {
            protocol: Protocol::RcRaWa,
            policy: spec.policy,
            workers: spec.workers,
            work: WorkModel::FixedMicros(spec.work_us),
            observe: true,
            fault: Some(spec.fault),
            stop: dps_server::shutdown::installed(),
            ..Default::default()
        },
    )
    .named(
        format!(
            "{}/{}/w{}",
            spec.plan,
            policy_name(spec.policy),
            spec.workers
        ),
        spec.tasks,
    );
    let faults = leg.report.fault_stats.unwrap_or_default();
    leg.with("faults_injected", Json::u64(faults.total()))
        .with("forced_aborts", Json::u64(faults.forced_aborts))
}

/// Every forced abort the injector drew surfaced as an `injected`
/// abort — never masquerading as an organic cause, never lost.
pub fn injection_accounted(leg: &Leg) -> bool {
    leg.report.aborts.injected == leg.report.fault_stats.unwrap_or_default().forced_aborts
}

/// The chaos gate (flags: `--quick --json --workers N --seed S`).
pub fn gate(args: &ReportArgs) -> Report {
    let quick = args.quick();
    let workers = args.flag_u64("--workers").unwrap_or(8) as usize;
    let seed = args.flag_u64("--seed").unwrap_or(0xD1CE_2026);
    let worker_counts: Vec<usize> = if quick {
        vec![workers]
    } else {
        vec![2, workers]
    };
    let (tasks, resources, work_us) = if quick { (24, 3, 100) } else { (48, 4, 150) };
    eprintln!(
        "chaos gate: {} plans x {} policies x {:?} workers, {tasks} tasks over \
         {resources} tallies, {work_us}us RHS, seed {seed:#x}",
        FaultPlan::NAMED.len(),
        SWEEP_POLICIES.len(),
        worker_counts
    );
    let mut report = Report::new(
        "chaos",
        vec![
            ("seed", Json::u64(seed)),
            ("workers", Json::u64(workers as u64)),
            ("tasks", Json::u64(tasks as u64)),
            ("resources", Json::u64(resources as u64)),
            ("work_us", Json::u64(work_us)),
        ],
    );

    // ---- the sweep ----
    let (mut unaccounted, mut mvcc_reader_aborts) = (0u64, 0u64);
    let (mut revalidate_doomed, mut revalidation_undoomed) = (0u64, 0u64);
    for (plan, ctor) in FaultPlan::NAMED {
        for policy in SWEEP_POLICIES {
            for &w in &worker_counts {
                let leg = chaos_run(ChaosSpec {
                    plan,
                    fault: ctor(seed),
                    policy,
                    workers: w,
                    tasks,
                    resources,
                    work_us,
                });
                unaccounted += u64::from(!injection_accounted(&leg));
                report.leg(&leg);
                let (aborts, dooms) = (leg.report.aborts, leg.report.lock_stats.dooms);
                match policy {
                    ConflictPolicy::MvccSnapshot => mvcc_reader_aborts += aborts.reader_aborts(),
                    ConflictPolicy::Revalidate => {
                        revalidate_doomed += aborts.doomed;
                        revalidation_undoomed += aborts.revalidation.saturating_sub(dooms);
                    }
                    ConflictPolicy::AbortReaders => {}
                }
            }
        }
    }

    // ---- falsifiability probe ----
    // The log's first slot names a transaction that never began, so
    // rejection is guaranteed, not probabilistic.
    let corrupted = chaos_run(ChaosSpec {
        plan: "corrupted",
        fault: FaultPlan {
            corrupt_commit_log: true,
            ..FaultPlan::quiet(seed)
        },
        policy: ConflictPolicy::AbortReaders,
        workers: workers.min(4),
        tasks,
        resources,
        work_us: 0,
    });
    eprintln!("  {}", corrupted.line());
    report.probe(
        "corrupted_commit_sequence",
        true,
        corrupted.verdict() == Verdict::Inconsistent,
    );
    report.gate(
        "corrupted.structural_errors",
        corrupted.errors.len() as f64,
        Op::Gt,
        0.0,
    );

    report.equal("legs_with_unaccounted_injected_aborts", unaccounted, 0);
    report.equal("mvcc_snapshot.reader_aborts", mvcc_reader_aborts, 0);
    report.equal("revalidate.doomed_aborts", revalidate_doomed, 0);
    report.equal(
        "revalidate.revalidation_aborts_without_a_doom",
        revalidation_undoomed,
        0,
    );
    report
}
