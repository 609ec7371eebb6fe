//! MVCC A/B gate: stock lock-based `R_c` versus snapshot condition
//! reads, under the doom-storm chaos plan.
//!
//! The gate's claim is the tentpole property of the MVCC read path:
//! on the workload *built* to maximise reader dooms — relation-level
//! false conflicts under [`FaultPlan::doom_storm`] — the
//! [`ConflictPolicy::MvccSnapshot`] engine
//!
//! * records **zero condition-read aborts** (no dooms, no revalidation
//!   failures: nobody holds a condition lock, so a committing writer
//!   has nobody to kill), and
//! * throws away **strictly less work** than stock `AbortReaders`
//!   (the §5 wasted-work fraction `f`), while
//! * every surviving run still replays through the §3 single-thread
//!   oracle *and* its recorded snapshot/version events reconstruct into
//!   a consistent SI/serializability polygraph
//!   ([`dps_obs::analysis::si_checker`]).
//!
//! The workload is [`workloads::false_conflict_stream`]: guards count
//! down while watching for the *absence* of alarms in their own zone
//! (negated CE → relation-level `Rc`), producers stream alarms into a
//! zone nobody watches. Both sides advance by `modify`, so fresh
//! recency keeps their claims interleaved for the whole run. Under
//! `AbortReaders` every overlapping producer commit dooms the live
//! guards — pure waste, since no guard's condition is actually
//! invalidated; under MVCC the guards take no locks, their commit-time
//! self-validation finds them intact, and they commit untouched.
//! Injection parity holds: the MVCC leg draws the *same* seeded
//! forced-abort decisions on its would-be condition resources (via the
//! lock manager's chaos seam) that the stock leg draws when locking
//! them, so the A/B compares protocols, not injection surface areas.
//!
//! Two **falsifiability probes** keep the SI checker honest: a
//! hand-built write-skew history and a swapped version order must both
//! be *rejected* — a polygraph that accepts anything proves nothing.
//! [`gate`] runs both legs and the probes and declares the gates.

use dps_core::{ParallelConfig, WorkModel};
use dps_lock::{ConflictPolicy, FaultPlan, Protocol};
use dps_obs::analysis::si_checker::{self, SiReport, SiTxn};
use dps_obs::json::Json;
use dps_obs::{TelemetryConfig, Verdict};

use crate::analysis::{certified_run, policy_name, Leg};
use crate::harness::ReportArgs;
use crate::report::{Op, Report};
use crate::workloads;

/// Shape of the A/B measurement (both legs share it).
#[derive(Clone, Debug)]
pub struct MvccSpec {
    /// Seed for the doom-storm fault plan.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Guards in [`workloads::false_conflict_stream`].
    pub guards: usize,
    /// Countdown steps per guard.
    pub g_steps: i64,
    /// Alarm producers in the workload.
    pub producers: usize,
    /// Countdown steps (= alarms) per producer.
    pub p_steps: i64,
    /// Simulated RHS cost, microseconds ([`WorkModel::BusyMicros`] —
    /// aborted work burns real processor time, so `f` is honest).
    pub work_us: u64,
}

impl MvccSpec {
    /// Expected commits: every guard and every producer counts all the
    /// way down.
    pub fn expected_commits(&self) -> usize {
        self.guards * self.g_steps as usize + self.producers * self.p_steps as usize
    }

    /// The §5 wasted-work fraction `f` = wasted / (useful + wasted) of
    /// a leg, with useful = commits × RHS cost.
    pub fn wasted_fraction(&self, leg: &Leg) -> f64 {
        let wasted_ms = leg.report.wasted_work.as_secs_f64() * 1e3;
        let useful_ms = leg.report.commits as f64 * self.work_us as f64 / 1e3;
        wasted_ms / (useful_ms + wasted_ms).max(1e-9)
    }
}

/// Snapshot pins recorded in an observed leg's history.
pub fn snapshot_pins(leg: &Leg) -> u64 {
    leg.obs.as_ref().map_or(0, |o| o.snapshot_pins)
}

/// Runs one leg of the A/B under `policy`. Both legs carry the
/// telemetry sampler, so the snapshot-pin gauges compare policy to
/// policy.
pub fn mvcc_leg(spec: &MvccSpec, policy: ConflictPolicy) -> Leg {
    let (rules, wm) =
        workloads::false_conflict_stream(spec.guards, spec.g_steps, spec.producers, spec.p_steps);
    let leg = certified_run(
        &rules,
        wm,
        ParallelConfig {
            protocol: Protocol::RcRaWa,
            policy,
            workers: spec.workers,
            work: WorkModel::BusyMicros(spec.work_us),
            observe: true,
            fault: Some(FaultPlan::doom_storm(spec.seed)),
            telemetry: Some(TelemetryConfig::default()),
            // `guard` joins `watch ^id` to `alarm ^zone`, so the rules
            // are key-partitionable and the default layout would put
            // the guards on separate match shards. The A/B is about
            // what relation-level dooms cost the readers, so both legs
            // keep every claim scan on one shard — the layout the
            // stock leg's reader aborts were sized on.
            match_shards: 1,
            stop: dps_server::shutdown::installed(),
            ..Default::default()
        },
    )
    .named(policy_name(policy), spec.expected_commits());
    let (f, pins) = (spec.wasted_fraction(&leg), snapshot_pins(&leg));
    leg.with("wasted_fraction", Json::num(f)).with("snapshot_pins", Json::u64(pins))
}

/// Falsifiability probe 1: a textbook **write skew** — two snapshot
/// transactions read each other's write and commit blind. SI admits
/// it; the serializability polygraph must find the `rw`/`rw` cycle
/// and reject.
pub fn probe_write_skew() -> SiReport {
    let txns = vec![
        SiTxn {
            txn: 1,
            snapshot: 0,
            commit_seq: Some(1),
            slot: Some(0),
            reads: vec![(10, 0), (20, 0)],
            writes: vec![10],
        },
        SiTxn {
            txn: 2,
            snapshot: 0,
            commit_seq: Some(2),
            slot: Some(1),
            reads: vec![(10, 0), (20, 0)],
            writes: vec![20],
        },
    ];
    si_checker::check(&txns)
}

/// Falsifiability probe 2: a **swapped version order** — the version
/// store claims installation sequences that disagree with the commit
/// slots (as if two commits' versions were interchanged). The checker
/// must flag the disagreement.
pub fn probe_version_order() -> SiReport {
    let txns = vec![
        SiTxn {
            txn: 1,
            snapshot: 0,
            commit_seq: Some(2),
            slot: Some(0),
            reads: vec![(10, 0)],
            writes: vec![10],
        },
        SiTxn {
            txn: 2,
            snapshot: 2,
            commit_seq: Some(1),
            slot: Some(1),
            reads: vec![(10, 2)],
            writes: vec![10],
        },
    ];
    si_checker::check(&txns)
}

/// The MVCC gate (flags: `--quick --json --workers N --seed S`):
///
/// * the MVCC leg records **zero** condition-read aborts;
/// * its wasted-work fraction `f` is **strictly below** stock;
/// * both legs drain and replay through the §3 oracle;
/// * the MVCC history passes the SI/serializability polygraph and
///   pinned at least one snapshot per commit;
/// * both falsifiability probes are rejected by that polygraph.
pub fn gate(args: &ReportArgs) -> Report {
    let workers = args.flag_u64("--workers").unwrap_or(8) as usize;
    let seed = args.flag_u64("--seed").unwrap_or(0x51AB_2026);
    let (guards, g_steps, producers, p_steps, work_us) =
        if args.quick() { (6, 4, 6, 4, 300) } else { (8, 8, 8, 8, 800) };
    let spec = MvccSpec { seed, workers, guards, g_steps, producers, p_steps, work_us };
    eprintln!(
        "mvcc gate: false_conflict_stream({guards}x{g_steps}, {producers}x{p_steps}), \
         doom_storm seed {seed:#x}, {workers} workers, {work_us}us busy RHS"
    );
    let mut report = Report::new(
        "mvcc",
        vec![
            ("seed", Json::u64(seed)),
            ("plan", Json::str("doom_storm")),
            ("workload", Json::str("false_conflict_stream")),
            ("guards", Json::u64(guards as u64)),
            ("guard_steps", Json::u64(g_steps as u64)),
            ("producers", Json::u64(producers as u64)),
            ("producer_steps", Json::u64(p_steps as u64)),
            ("work_us", Json::u64(work_us)),
            ("workers", Json::u64(workers as u64)),
        ],
    );
    let stock = mvcc_leg(&spec, ConflictPolicy::AbortReaders);
    report.leg(&stock);
    let mvcc = mvcc_leg(&spec, ConflictPolicy::MvccSnapshot);
    report.leg(&mvcc);
    // The MVCC leg's sampled series: snapshot-pin occupancy and pin lag
    // are only non-trivial on this leg.
    report.timeline_of(&mvcc);

    let rejected = |r: &SiReport| r.verdict() == Verdict::Inconsistent;
    report.probe("write_skew", true, rejected(&probe_write_skew()));
    report.probe("swapped_version_order", true, rejected(&probe_version_order()));

    report.equal("mvcc.reader_aborts", mvcc.report.aborts.reader_aborts(), 0);
    report.gate(
        "mvcc.wasted_fraction_below_stock",
        spec.wasted_fraction(&mvcc),
        Op::Lt,
        spec.wasted_fraction(&stock),
    );
    report.holds("mvcc.si_consistent", mvcc.si() == Some(Verdict::Consistent));
    report.gate(
        "mvcc.snapshot_pins_cover_commits",
        snapshot_pins(&mvcc) as f64,
        Op::Ge,
        mvcc.report.commits as f64,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_skew_probe_is_rejected() {
        let rep = probe_write_skew();
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
        assert!(rep.cycle.is_some(), "write skew must surface as a cycle");
    }

    #[test]
    fn version_order_probe_is_rejected() {
        let rep = probe_version_order();
        assert_eq!(rep.verdict(), Verdict::Inconsistent);
        assert!(
            !rep.violations.is_empty(),
            "swapped version order must surface as violations"
        );
    }

    #[test]
    fn quick_ab_clears_the_structural_gates() {
        // A scaled-down version of what the `mvcc` binary runs in CI:
        // the false-conflict storm, both legs.
        let spec = MvccSpec {
            seed: 0xAB,
            workers: 4,
            guards: 4,
            g_steps: 3,
            producers: 4,
            p_steps: 3,
            work_us: 300,
        };
        let stock = mvcc_leg(&spec, ConflictPolicy::AbortReaders);
        let mv = mvcc_leg(&spec, ConflictPolicy::MvccSnapshot);
        assert!(stock.passes() && mv.passes(), "both legs drain + replay");
        let aborts = mv.report.aborts;
        assert_eq!(
            aborts.reader_aborts(),
            0,
            "MVCC leg doomed {} / revalidated {}",
            aborts.doomed,
            aborts.revalidation
        );
        assert_eq!(mv.si(), Some(Verdict::Consistent), "MVCC history passes the polygraph");
        // Every commit pinned exactly one snapshot at claim validation;
        // aborted attempts pin at most one (injected aborts drawn at
        // the condition phase die before reaching the pin).
        let (pins, commits) = (snapshot_pins(&mv), mv.report.commits as u64);
        assert!(
            pins >= commits && pins <= commits + aborts.total(),
            "pins {pins} outside [commits {commits}, commits + aborts {}]",
            commits + aborts.total()
        );
    }
}
