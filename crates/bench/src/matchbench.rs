//! Match-shard gate: shard-count sweep for the sharded match pipeline.
//!
//! The `match_heavy` workload (independent fan-out groups, make-only
//! RHSs, zero data conflict) lists every instantiation from the start
//! and each until it fires (a fired one stays satisfied; refraction
//! unlists it), with one published batch per commit: the workload
//! that exercises every part of the sharded pipeline (inboxes,
//! catch-up, free advances, steals).
//!
//! The sweep holds workers fixed at 8 and varies `match_shards` over
//! {1, 2, 4, 8}; every run is a certified leg, must stay abort-free and
//! must publish one batch per commit. A final instrumented run at the
//! maximum shard count captures the `match_apply` latency histogram,
//! the fan-out counters (batches / applies / free-advances / steals)
//! and the report's timeline, and an `mvcc` leg runs max shards under
//! `ConflictPolicy::MvccSnapshot` — the snapshot read path must keep
//! the pipeline abort-free on this conflict-free workload. Each leg's
//! time is reported, not gated: how fast the shards make the engine is
//! the `e2e` benchmark's `engine_match` workload.
//!
//! One more certified pair covers the plan's second level:
//! `shared_resources` is a single component whose one rule joins on a
//! key, so at max shards its tallies spread over key partitions and at
//! 1 shard they do not. The pair is gated on the layout having been
//! split and on both layouts reaching the same final working memory;
//! `components`, `partitions` and the busiest shard's applies ride in
//! every leg's `fanout` counters, so partition skew is visible.

use dps_core::ParallelConfig;
use dps_lock::ConflictPolicy;
use dps_obs::json::Json;
use dps_obs::{Phase, TelemetryConfig};
use dps_wm::WorkingMemory;

use crate::analysis::{certified_run, counters, obs_identities, policy_name, Leg};
use crate::harness::ReportArgs;
use crate::report::{Op, Report};
use crate::workloads;

const WORKERS: usize = 8;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One certified `match_heavy` run keyed `policy/sN` (`…/observed`
/// when instrumented), its fan-out counters attached. `observe` turns
/// on the recorder and the telemetry sampler.
fn one_run(
    groups: usize,
    pairs: usize,
    shards: usize,
    observe: bool,
    policy: ConflictPolicy,
) -> Leg {
    let (rules, wm) = workloads::match_heavy(groups, pairs);
    let cfg = ParallelConfig {
        workers: WORKERS,
        match_shards: shards,
        observe,
        policy,
        telemetry: observe.then(TelemetryConfig::default),
        stop: dps_server::shutdown::installed(),
        ..Default::default()
    };
    let key = format!(
        "{}/s{shards}{}",
        policy_name(policy),
        if observe { "/observed" } else { "" }
    );
    with_fanout(certified_run(&rules, wm, cfg).named(key, groups * pairs))
}

/// Attaches a leg's fan-out counters, the plan's shape and the busiest
/// shard's applies (over `applies`: the partition skew) included.
fn with_fanout(leg: Leg) -> Leg {
    let f = leg.report.fanout;
    leg.with(
        "fanout",
        counters(&[
            ("shards", f.shards),
            ("components", f.components),
            ("partitions", f.partitions),
            ("batches", f.batches),
            ("applies", f.applies),
            ("max_shard_applies", f.max_shard_applies),
            ("free_advances", f.free_advances),
            ("steals", f.steals),
        ]),
    )
}

/// One certified `shared_resources` run keyed `partitioned/sN` — one
/// rule, `resources` join keys — and its final-WM fingerprint.
fn keyed_run(tasks: usize, resources: usize, shards: usize) -> (Leg, u64) {
    let (rules, wm) = workloads::shared_resources(tasks, resources);
    let cfg = ParallelConfig {
        workers: WORKERS,
        match_shards: shards,
        stop: dps_server::shutdown::installed(),
        ..Default::default()
    };
    let leg = certified_run(&rules, wm, cfg).named(format!("partitioned/s{shards}"), tasks);
    let digest = fingerprint(&leg.final_wm);
    let leg = with_fanout(leg).with("final_wm_fingerprint", Json::str(format!("{digest:016x}")));
    (leg, digest)
}

/// Order-independent FNV-1a digest of a working memory's tuple
/// contents (ids and timestamps, which depend on the schedule, left
/// out).
fn fingerprint(wm: &WorkingMemory) -> u64 {
    let mut lines: Vec<String> = wm.iter().map(|w| format!("{:?}\n", w.data)).collect();
    lines.sort_unstable();
    lines
        .iter()
        .flat_map(|l| l.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The match-shard gate (flags: `--quick --json`).
pub fn gate(args: &ReportArgs) -> Report {
    let (groups, pairs) = if args.quick() { (32, 32) } else { (64, 64) };
    let max_shards = SHARD_COUNTS[SHARD_COUNTS.len() - 1];
    eprintln!("Match-shard sweep: match_heavy({groups}, {pairs}), {WORKERS} workers");
    let mut report = Report::new(
        "matchbench",
        vec![
            ("groups", Json::u64(groups as u64)),
            ("pairs", Json::u64(pairs as u64)),
            ("workers", Json::u64(WORKERS as u64)),
        ],
    );
    let run = |shards, observe, policy| one_run(groups, pairs, shards, observe, policy);
    let mut legs: Vec<Leg> = Vec::new();
    let mut add = |report: &mut Report, leg: Leg| {
        report.leg(&leg);
        legs.push(leg);
    };
    for shards in SHARD_COUNTS {
        add(&mut report, run(shards, false, ConflictPolicy::AbortReaders));
    }
    // Instrumented run at max shards: the match_apply histogram and the
    // fan-out counters must be internally consistent.
    let observed = run(max_shards, true, ConflictPolicy::AbortReaders);
    let obs = observed.obs.clone().expect("observed leg");
    eprintln!(
        "\nobservability (instrumented, {} shards):\n{obs}",
        observed.report.fanout.shards
    );
    add(&mut report, observed.with("observability", obs.to_json()));
    // MVCC leg at max shards: the snapshot read path must leave this
    // conflict-free workload exactly as abort-free as the stock locks
    // do.
    add(&mut report, run(max_shards, false, ConflictPolicy::MvccSnapshot));
    let observed = &legs[SHARD_COUNTS.len()];
    report.timeline_of(observed);

    report.equal(
        "aborts_on_the_conflict_free_workload",
        legs.iter().map(|l| l.report.aborts.total()).sum(),
        0,
    );
    report.equal(
        "legs_not_publishing_one_batch_per_commit",
        legs.iter()
            .filter(|l| l.report.fanout.batches != l.report.commits as u64)
            .count() as u64,
        0,
    );
    obs_identities(&mut report, observed);
    let apply_samples = obs.phase(Phase::MatchApply).map_or(0, |h| h.count);
    report.gate(
        "observed.match_apply_samples",
        apply_samples as f64,
        Op::Gt,
        0.0,
    );
    let f = observed.report.fanout;
    report.gate("observed.plan_shards", f.shards as f64, Op::Ge, 2.0);
    report.gate("observed.applies", f.applies as f64, Op::Gt, 0.0);
    report.gate(
        "observed.free_advances",
        f.free_advances as f64,
        Op::Gt,
        0.0,
    );

    // The plan's second level: one rule, `resources` join keys, at 1
    // shard and split over max shards.
    let (tasks, resources) = if args.quick() { (256, 8) } else { (1024, 8) };
    let (mono, mono_wm) = keyed_run(tasks, resources, 1);
    let (split, split_wm) = keyed_run(tasks, resources, max_shards);
    report.leg(&mono);
    report.leg(&split);
    let plan = split.report.fanout;
    report.equal(
        "partitioned.plan_partitions",
        plan.partitions,
        max_shards as u64,
    );
    report.equal(
        "partitioned.mono_plan_partitions",
        mono.report.fanout.partitions,
        0,
    );
    report.holds(
        "partitioned.final_wm_matches_monolithic",
        split_wm == mono_wm,
    );
    report
}
