//! Coordination-avoidance A/B gate: the full §4 locking protocol
//! versus the lock-elision fast path for provably-commutative firings.
//!
//! The gate's claim is the tentpole property of the commute matrix
//! ([`dps_rules::analysis::commutes`] folded per class-component by the
//! shard planner): on a workload where **every** rule is provably
//! commutative — [`workloads::commute_stream`], counter bumps plus
//! disjoint makes, every access of which the locking protocol puts
//! through the lock table — the `elide_locks` engine
//!
//! * acquires **zero** locks (grants *and* blocks are zero; every skip
//!   is booked in `LockStats::elided` and receipted per commit as an
//!   `ElidedCommit` event),
//! * shows **zero blocked-ns** in the per-resource contention table
//!   (no wait moved anywhere else), while
//! * both legs still drain to the exact expected commit count and
//!   replay through the §3 single-thread oracle, with well-formed
//!   histories.
//!
//! What elision buys in time is not gated here: a ratio of two short
//! legs is a measurement for the `e2e` benchmark, not a certificate.
//!
//! Two **falsifiability probes** keep the oracle honest. First, a
//! deliberately *misclassified* non-commutative pair
//! ([`workloads::misclassified_pair`]) is forced through the fast path
//! with commit validation bypassed
//! ([`ParallelConfig::elide_misclassify`]) — the manufactured lost
//! update must be *rejected* by serial replay, proving the gate can
//! fail and that commit-time validation (not luck) is what makes
//! elision safe. Second, at the trace level: swapping two adjacent
//! firings of the non-commutative pair must be rejected, while swapping
//! two adjacent firings of commutative rules on disjoint tuples must be
//! accepted — the oracle distinguishes real reordering freedom from
//! fake. [`gate`] runs both legs and the probes and declares the gates.

use dps_core::semantics::validate_trace;
use dps_core::{Firing, ParallelConfig, WorkModel};
use dps_lock::Protocol;
use dps_obs::json::Json;
use dps_obs::TelemetryConfig;
use dps_rules::RuleSet;
use dps_wm::WorkingMemory;

use crate::analysis::{certified_run, counters, Leg};
use crate::harness::ReportArgs;
use crate::report::{Op, Report};
use crate::workloads;

/// Shape of the A/B measurement (both legs share it).
#[derive(Clone, Debug)]
pub struct CommuteSpec {
    /// Report provenance (the workload itself is deterministic; the
    /// seed shapes the matrix variants in `tests/commute.rs`).
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Match shards.
    pub match_shards: usize,
    /// Counters in [`workloads::commute_stream`].
    pub counters: usize,
    /// Decrements per counter.
    pub c_steps: i64,
    /// Make-producers in the workload.
    pub makers: usize,
    /// Makes per producer.
    pub m_steps: i64,
    /// Simulated RHS cost, microseconds ([`WorkModel::BusyMicros`] —
    /// the paper's CPU-bound RHS, so firings overlap in the locking
    /// leg's lock table).
    pub work_us: u64,
}

impl CommuteSpec {
    /// Expected commits: every counter and every producer drains.
    pub fn expected_commits(&self) -> usize {
        self.counters * self.c_steps as usize + self.makers * self.m_steps as usize
    }
}

/// `ElidedCommit` receipts in an observed leg's history.
pub fn elided_commits(leg: &Leg) -> u64 {
    leg.obs.as_ref().map_or(0, |o| o.elided_commits)
}

/// Total nanoseconds an observed leg spent queued on locks, summed
/// over the contention table.
pub fn blocked_ns(leg: &Leg) -> u64 {
    leg.analysis.as_ref().map_or(0, |a| a.contention.iter().map(|r| r.blocked_ns).sum())
}

/// Runs one leg of the A/B, keyed `locked` or `elided`: the measured
/// axis is lock traffic, so the leg carries its receipts, blocked time
/// and the top of its contention table.
pub fn commute_leg(spec: &CommuteSpec, elide: bool) -> Leg {
    let (rules, wm) =
        workloads::commute_stream(spec.counters, spec.c_steps, spec.makers, spec.m_steps);
    let leg = certified_run(
        &rules,
        wm,
        ParallelConfig {
            protocol: Protocol::RcRaWa,
            workers: spec.workers,
            match_shards: spec.match_shards,
            work: WorkModel::BusyMicros(spec.work_us),
            observe: true,
            elide_locks: elide,
            telemetry: Some(TelemetryConfig::default()),
            stop: dps_server::shutdown::installed(),
            ..Default::default()
        },
    )
    .named(if elide { "elided" } else { "locked" }, spec.expected_commits());
    let contention = Json::Arr(
        leg.analysis
            .iter()
            .flat_map(|a| a.contention.iter().take(8))
            .map(|r| {
                counters(&[
                    ("resource", r.resource),
                    ("blocks", r.blocks),
                    ("blocked_ns", r.blocked_ns),
                    ("dooms_caused", r.dooms_caused),
                ])
            })
            .collect(),
    );
    let (receipts, blocked) = (elided_commits(&leg), blocked_ns(&leg));
    leg.with("elided_commits", Json::u64(receipts))
        .with("blocked_ns", Json::u64(blocked))
        .with("contention", contention)
}

/// Falsifiability probe 1: the **misclassified pair**. The
/// non-commutative [`workloads::misclassified_pair`] rules are forced
/// through the fast path with commit validation bypassed; with real
/// concurrency the `tag` rule commits deltas materialised from tuples
/// `dec` already replaced — lost updates. Returns `true` iff the §3
/// serial-replay oracle *rejected* the run (the probe's pass
/// condition). The commit cap bounds the run: lost updates can
/// resurrect counter values, so the drain target itself is unreliable
/// here — which is exactly the corruption the oracle exists to catch.
pub fn probe_misclassification(workers: usize, work_us: u64) -> bool {
    let (rules, wm) = workloads::misclassified_pair(1, 64);
    let config = ParallelConfig {
        protocol: Protocol::RcRaWa,
        workers,
        work: WorkModel::BusyMicros(work_us),
        max_commits: 512,
        elide_locks: true,
        elide_misclassify: true,
        stop: dps_server::shutdown::installed(),
        ..Default::default()
    };
    certified_run(&rules, wm, config).replay.is_err()
}

/// Falsifiability probe 2, trace level: swapped delta order. Returns
/// `(noncommutative_rejected, commutative_accepted)`:
///
/// * a serial run of the non-commutative pair on **one** cell, with its
///   first two firings swapped, must be *rejected* — the second firing
///   was matched on a tuple the first one produced;
/// * a serial run of commutative bumps on **two disjoint** cells, with
///   its two firings swapped, must be *accepted* — both instantiations
///   exist in the initial conflict set, so either order replays.
pub fn probe_swapped_order() -> (bool, bool) {
    let swapped_replay = |rules: &RuleSet, wm: WorkingMemory| {
        let serial = ParallelConfig { workers: 1, ..Default::default() };
        let leg = certified_run(rules, wm.clone(), serial);
        assert!(leg.replay.is_ok(), "unswapped serial trace replays");
        let mut firings: Vec<Firing> = leg.report.trace.iter().collect();
        assert!(firings.len() >= 2, "serial run fires at least twice");
        firings.swap(0, 1);
        validate_trace(rules, &wm, &firings.into_iter().collect())
    };
    let (rules, wm) = workloads::misclassified_pair(1, 2);
    let noncommutative_rejected = swapped_replay(&rules, wm).is_err();
    let (rules, wm) = workloads::counters(2, 1);
    let commutative_accepted = swapped_replay(&rules, wm).is_ok();
    (noncommutative_rejected, commutative_accepted)
}

/// The coordination-avoidance gate (flags: `--quick --json --workers N
/// --seed S`):
///
/// * the elided leg acquires **zero** locks (no grants, no blocks,
///   every skip booked, every commit receipted) and its contention
///   table shows **zero blocked-ns**; the locking leg really locks;
/// * both legs drain and replay through the §3 oracle;
/// * both falsifiability probes hold.
pub fn gate(args: &ReportArgs) -> Report {
    let quick = args.quick();
    let workers = args.flag_u64("--workers").unwrap_or(8) as usize;
    let seed = args.flag_u64("--seed").unwrap_or(0xC0_2026);
    let (counters, c_steps, makers, m_steps, work_us) =
        if quick { (8, 8, 4, 8, 200) } else { (16, 16, 8, 16, 50) };
    let spec =
        CommuteSpec { seed, workers, match_shards: 8, counters, c_steps, makers, m_steps, work_us };
    eprintln!(
        "commute gate: commute_stream({counters}x{c_steps}, {makers}x{m_steps}), \
         {workers} workers, {work_us}us busy RHS"
    );
    let mut report = Report::new(
        "commute",
        vec![
            ("seed", Json::u64(seed)),
            ("workload", Json::str("commute_stream")),
            ("counters", Json::u64(counters as u64)),
            ("counter_steps", Json::u64(c_steps as u64)),
            ("makers", Json::u64(makers as u64)),
            ("maker_steps", Json::u64(m_steps as u64)),
            ("work_us", Json::u64(work_us)),
            ("workers", Json::u64(workers as u64)),
            ("match_shards", Json::u64(spec.match_shards as u64)),
        ],
    );
    let locked = commute_leg(&spec, false);
    report.leg(&locked);
    let elided = commute_leg(&spec, true);
    report.leg(&elided);
    // The elided leg's sampled series: `lock.elided` climbing while
    // `lock.grants` stays flat is the timeline's A/B evidence.
    report.timeline_of(&elided);

    let misclassified = probe_misclassification(workers, if quick { 150 } else { 300 });
    report.probe("forced_misclassification", true, misclassified);
    let (noncommutative_rejected, commutative_accepted) = probe_swapped_order();
    report.probe("swapped_noncommutative_order", true, noncommutative_rejected);
    report.probe("swapped_commutative_order", false, !commutative_accepted);

    let (l, e) = (&locked.report.lock_stats, &elided.report.lock_stats);
    report.equal("elided.lock_grants", e.grants, 0);
    report.equal("elided.lock_blocks", e.blocks, 0);
    report.gate("elided.lock_elided", e.elided as f64, Op::Gt, 0.0);
    report.equal("elided.receipts_match_commits", elided_commits(&elided), elided.report.commits as u64);
    report.equal("elided.blocked_ns", blocked_ns(&elided), 0);
    report.gate("locked.lock_grants", l.grants as f64, Op::Gt, 0.0);
    report.equal("locked.lock_elided", l.elided, 0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_probes_hold() {
        let (noncomm, comm) = probe_swapped_order();
        assert!(noncomm, "swapped non-commutative order must be rejected");
        assert!(comm, "swapped disjoint commutative order must be accepted");
    }

    #[test]
    fn misclassification_probe_is_rejected() {
        assert!(
            probe_misclassification(8, 200),
            "forced misclassification must surface as an oracle violation"
        );
    }

    #[test]
    fn quick_ab_clears_the_structural_gates() {
        // A scaled-down version of what `gate commute` runs in CI:
        // every gate must hold at any size.
        let spec = CommuteSpec {
            seed: 0xC0,
            workers: 4,
            match_shards: 2,
            counters: 4,
            c_steps: 4,
            makers: 2,
            m_steps: 4,
            work_us: 100,
        };
        let locked = commute_leg(&spec, false);
        let elided = commute_leg(&spec, true);
        assert!(locked.passes() && elided.passes(), "both legs drain + replay");
        let (l, e) = (&locked.report.lock_stats, &elided.report.lock_stats);
        assert!(
            e.grants == 0
                && e.blocks == 0
                && e.elided > 0
                && elided_commits(&elided) == elided.report.commits as u64,
            "grants {} blocks {} elided {} receipts {}",
            e.grants,
            e.blocks,
            e.elided,
            elided_commits(&elided)
        );
        assert_eq!(blocked_ns(&elided), 0);
        assert!(l.grants > 0, "locking leg actually locks");
        assert_eq!(l.elided, 0, "locking leg never skips");
    }
}
