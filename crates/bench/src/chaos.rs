//! Chaos gate: fault-injected dynamic-engine runs that must still
//! replay consistently.
//!
//! The gate's claim is the robustness version of Theorem 2: *under any
//! seeded [`FaultPlan`]* — grant delays, spurious wakeups, forced
//! aborts, mid-RHS stalls, timeout storms — every run that survives to
//! quiescence still drains its whole workload and its commit sequence
//! still replays through the single-thread oracle (`ES_M ⊆
//! ES_single`). [`gate`] runs the sweep (named plans × conflict
//! policies, MVCC snapshot reads included, × worker counts), plus:
//!
//! * a **falsifiability probe**: the same pipeline with
//!   [`FaultPlan::corrupt_fire_seq`] set and an odd commit count must
//!   be *rejected* by the checker (the low-bit flip breaks `0..n`
//!   contiguity of the recovered sequence), proving the oracle can
//!   actually fail;
//! * a **governor A/B**: the doom-storm plan with the adaptive retry
//!   governor off vs on, so the report carries the degradation story
//!   (throughput, aborts, wasted work) for experiment XS.3, and the ON
//!   leg's sampled timeline for XS.7.

use dps_core::{GovernorConfig, ParallelConfig, WorkModel};
use dps_lock::{ConflictPolicy, FaultPlan, Protocol};
use dps_match::DEFAULT_MATCH_SHARDS;
use dps_obs::json::Json;
use dps_obs::{TelemetryConfig, Verdict};

use crate::analysis::{certified_run, counters, policy_name, Leg};
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
    /// Simulated RHS cost, microseconds.
    pub work_us: u64,
    /// `true`: CPU-bound RHS ([`WorkModel::BusyMicros`] — aborted work
    /// costs wall-clock on an oversubscribed machine); `false`:
    /// I/O-bound ([`WorkModel::FixedMicros`], a sleep).
    pub busy: bool,
    /// Adaptive retry governor (`None`: off).
    pub governor: Option<GovernorConfig>,
    /// Attach the live-telemetry sampler (default tick).
    pub telemetry: bool,
    /// Match shards. `shared_resources` is key-partitionable, so past 1
    /// its tallies match on separate shards: the sweep takes the
    /// default (faults must be survived on that layout too), a leg
    /// there to *observe* a doom storm takes 1.
    pub match_shards: usize,
}

/// Runs one chaos spec as a certified leg keyed `plan/policy/wN`, with
/// the injection and governor counters attached.
pub fn chaos_run(spec: ChaosSpec) -> Leg {
    let (rules, wm) = workloads::shared_resources(spec.tasks, spec.resources);
    let leg = certified_run(
        &rules,
        wm,
        ParallelConfig {
            protocol: Protocol::RcRaWa,
            policy: spec.policy,
            workers: spec.workers,
            work: if spec.busy {
                WorkModel::BusyMicros(spec.work_us)
            } else {
                WorkModel::FixedMicros(spec.work_us)
            },
            observe: true,
            fault: Some(spec.fault),
            governor: spec.governor,
            telemetry: spec.telemetry.then(TelemetryConfig::default),
            match_shards: spec.match_shards,
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
    let governor = leg.report.governor.map_or(Json::Null, |g| {
        counters(&[
            ("escalations", g.escalations),
            ("serializations", g.serializations),
            ("deescalations", g.deescalations),
            ("backoffs", g.backoffs),
        ])
    });
    leg.with("faults_injected", Json::u64(faults.total()))
        .with("forced_aborts", Json::u64(faults.forced_aborts))
        .with("governor", governor)
}

/// Every forced abort the injector drew surfaced as an `injected`
/// abort — never masquerading as an organic cause, never lost.
pub fn injection_accounted(leg: &Leg) -> bool {
    leg.report.aborts.injected == leg.report.fault_stats.unwrap_or_default().forced_aborts
}

/// The governor configuration the chaos sweep runs with: aggressive
/// enough to engage under the injected storms, conservative enough to
/// stay silent on the quiet plan.
pub fn sweep_governor(seed: u64) -> GovernorConfig {
    GovernorConfig {
        backoff_base_us: 30,
        backoff_cap_us: 1_000,
        storm_window: 16,
        storm_threshold_pm: 450,
        escalate_after: 3,
        starvation_bound: 5,
        cooldown_commits: 8,
        seed,
    }
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
    let mut survivor = |report: &mut Report, leg: Leg| {
        unaccounted += u64::from(!injection_accounted(&leg));
        report.leg(&leg);
        leg
    };
    for (plan, ctor) in FaultPlan::NAMED {
        for policy in SWEEP_POLICIES {
            for &w in &worker_counts {
                let leg = survivor(
                    &mut report,
                    chaos_run(ChaosSpec {
                        plan,
                        fault: ctor(seed),
                        policy,
                        workers: w,
                        tasks,
                        resources,
                        work_us,
                        busy: false,
                        governor: Some(sweep_governor(seed)),
                        telemetry: false,
                        match_shards: DEFAULT_MATCH_SHARDS,
                    }),
                );
                if policy == ConflictPolicy::MvccSnapshot {
                    mvcc_reader_aborts += leg.report.aborts.reader_aborts();
                }
            }
        }
    }

    // ---- falsifiability probe ----
    // Odd task count: flipping the low bit of the last recovered slot
    // always breaks 0..n contiguity, so rejection is guaranteed, not
    // probabilistic.
    let corrupted = chaos_run(ChaosSpec {
        plan: "corrupted",
        fault: FaultPlan {
            corrupt_fire_seq: true,
            ..FaultPlan::quiet(seed)
        },
        policy: ConflictPolicy::AbortReaders,
        workers: workers.min(4),
        tasks: tasks | 1,
        resources,
        work_us: 0,
        busy: false,
        governor: None,
        telemetry: false,
        match_shards: DEFAULT_MATCH_SHARDS,
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

    // ---- governor A/B on the doom storm (XS.3) ----
    // The governor's target regime is §5's bad corner: a *hot spot*
    // (every task charges one tally) with an *expensive* RHS, under a
    // forced-abort storm — each doom throws away the full RHS cost, so
    // wasted work dominates and backing off / escalating pays. (The
    // sweep above covers the cheap-RHS regime, where the governor is
    // expected to stay roughly neutral.) The RHS must be expensive
    // relative to the engine's fixed per-commit overhead (matcher
    // re-derivation, condvar handoff): the governor trades parallel
    // redundancy for serial certainty, which only pays when each
    // thrown-away attempt burns real processor time.
    let ab_work_us = if quick { 800 } else { 2_500 };
    // Hot-spot tuning: small backoff (the hot spot is already
    // throughput-bound, long sleeps only add latency), a tight
    // starvation bound so the serial fallback engages within a few
    // doomed retries, and a long cooldown so it sticks for the rest of
    // the storm.
    let ab_governor = GovernorConfig {
        backoff_base_us: 10,
        backoff_cap_us: 150,
        storm_window: 8,
        storm_threshold_pm: 300,
        escalate_after: 2,
        starvation_bound: 2,
        cooldown_commits: 64,
        seed,
    };
    // The governor-ON leg carries the live-telemetry sampler: its
    // timeline (escalations, serial-fallback occupancy, backoff level
    // against the commit/abort rates) is the report's.
    let mut ab = |key: &str, governor: Option<GovernorConfig>| {
        let mut leg = chaos_run(ChaosSpec {
            plan: "doom_storm",
            fault: FaultPlan::doom_storm(seed),
            policy: ConflictPolicy::AbortReaders,
            workers,
            tasks,
            resources: 1,
            work_us: ab_work_us,
            busy: true,
            telemetry: governor.is_some(),
            governor,
            // The A/B measures what a doom storm on one hot spot costs
            // with and without the governor: keep every worker's claim
            // scan on the one shard where the storm is.
            match_shards: 1,
        });
        leg.key = key.into();
        survivor(&mut report, leg)
    };
    ab("governor_ab/off", None);
    let on = ab("governor_ab/on", Some(ab_governor));
    report.timeline_of(&on);

    report.equal("legs_with_unaccounted_injected_aborts", unaccounted, 0);
    report.equal("mvcc_snapshot.reader_aborts", mvcc_reader_aborts, 0);
    report
}
