//! Crash-recovery gate: kill-point × policy sweep over the durable
//! engine, every recovered state replayed through the §3 oracle.
//!
//! The gate's claim is the tentpole property of the durability layer:
//! whatever commit the process dies at — record dropped before the
//! fsync, record torn mid-frame on disk, record durable and *then*
//! death — [`dps_wm::recover`] reconstructs **exactly the durable
//! commit prefix** of the run, never a half-applied batch and never a
//! panic. Concretely, for every swept run:
//!
//! * recovery succeeds and reports a durable horizon `w ≤` the
//!   in-memory commit count, positioned consistently with the kill
//!   site (`w == kill` after an after-fsync death, `w < kill`
//!   otherwise, torn tail reported iff the tear was injected);
//! * the recovered working memory is **byte-identical** (via
//!   `encode_snapshot`) to a single-thread replay of the run's first
//!   `w` trace firings, and that truncated trace passes
//!   [`validate_trace`] — the §3 Theorem 2 condition applied to the
//!   durable prefix;
//! * a **resumed** engine over the recovered state drains the rest of
//!   the workload (`w + resumed commits == expected`), its trace
//!   replays from the recovered state, and a *second* recovery of the
//!   resumed incarnation's log lands on the drained fixpoint.
//!
//! A **falsifiability probe** keeps the recovery path honest: flipping
//! one byte inside a mid-log record must make recovery *fail* with a
//! corruption error (a torn-tail rule that silently truncates interior
//! damage would "recover" garbage). And a **durable leg** runs
//! `match_heavy` with the WAL on and no kill point: group commit must
//! group (fewer fsyncs than appends, piggybacked syncs observed) and the
//! log must recover to the run's final state. What durability costs in
//! time is the `e2e` benchmark's `session_zipf` workload, which runs
//! with the WAL on.
//!
//! [`gate`] runs the sweep, the probe and the durable leg and declares
//! the gates, the `checkpoint + redo == horizon` identity included.

use std::fs;
use std::path::{Path, PathBuf};

use dps_core::semantics::validate_trace;
use dps_core::{DurabilityConfig, ParallelConfig, ParallelEngine, Trace};
use dps_lock::{ConflictPolicy, FaultPlan, Protocol, WalKillSite};
use dps_obs::json::Json;
use dps_obs::TelemetryConfig;
use dps_rules::RuleSet;
use dps_wm::{recover, WorkingMemory};

use crate::analysis::{certified_run, policy_name, Leg};
use crate::harness::ReportArgs;
use crate::report::{Op, Report};
use crate::workloads;

/// Shape of the sweep.
#[derive(Clone, Debug)]
pub struct RecoverySpec {
    /// Seed for the fault plans (the kill point itself is
    /// deterministic; the seed feeds any companion injection).
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Scaled-down sweep for `--quick` / tests.
    pub quick: bool,
}

/// One workload leg of the sweep.
struct WorkloadSpec {
    name: &'static str,
    build: fn(bool) -> (RuleSet, WorkingMemory),
    expected: fn(bool) -> usize,
    /// Checkpoint cadence for this leg (0 = never) — one leg runs with
    /// checkpoints so recovery exercises the snapshot + log-suffix
    /// path, one without so it replays the whole log.
    checkpoint_interval: u64,
}

const WORKLOADS: [WorkloadSpec; 2] = [
    WorkloadSpec {
        name: "counters",
        build: |quick| {
            if quick {
                workloads::counters(3, 3)
            } else {
                workloads::counters(4, 3)
            }
        },
        expected: |quick| if quick { 9 } else { 12 },
        checkpoint_interval: 4,
    },
    WorkloadSpec {
        name: "shared_resources",
        build: |quick| {
            if quick {
                workloads::shared_resources(6, 2)
            } else {
                workloads::shared_resources(8, 2)
            }
        },
        expected: |quick| if quick { 6 } else { 8 },
        checkpoint_interval: 0,
    },
];

/// The policies the sweep crosses with every kill site: the stock
/// lock-based read path and the MVCC snapshot read path (their commit
/// critical sections stage WAL records identically; the sweep proves
/// recovery is policy-agnostic).
pub const POLICIES: [ConflictPolicy; 2] =
    [ConflictPolicy::AbortReaders, ConflictPolicy::MvccSnapshot];

/// One kill-point run: the first incarnation as a certified leg, and
/// where recovery landed. Every check that fails below is pushed onto
/// the leg's structural errors, so the leg certifies iff the whole run
/// — die, recover, oracle the prefix, resume, re-recover — held.
#[derive(Clone, Debug)]
pub struct RecoveryRun {
    /// The first incarnation (it drains: the dead WAL never blocks the
    /// run), keyed `workload/policy/site@kill`.
    pub leg: Leg,
    /// Where the process "died".
    pub site: WalKillSite,
    /// The commit sequence number the kill fired at.
    pub kill_commit: u64,
    /// Durable horizon recovery landed on.
    pub durable_seq: u64,
    /// Checkpoint the recovery started from (0 = genesis).
    pub checkpoint_seq: u64,
    /// Redo records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Recovery found (and truncated) a torn tail.
    pub torn_tail: bool,
    /// Recovery succeeded.
    pub recovered: bool,
    /// Durable horizon is consistent with the kill site.
    pub site_ok: bool,
    /// Truncated trace passed §3 *and* its serial replay is
    /// byte-identical to the recovered working memory.
    pub prefix_oracle: bool,
    /// Resumed engine drained the remainder, replayed consistently,
    /// and re-recovered to the fixpoint.
    pub resumed: bool,
}

impl RecoveryRun {
    /// The leg with the recovery coordinates attached.
    fn into_leg(self) -> Leg {
        self.leg
            .with("kill_site", Json::str(self.site.name()))
            .with("kill_commit", Json::u64(self.kill_commit))
            .with("durable_seq", Json::u64(self.durable_seq))
            .with("checkpoint_seq", Json::u64(self.checkpoint_seq))
            .with("replayed", Json::u64(self.replayed))
            .with("torn_tail", Json::Bool(self.torn_tail))
    }
}

/// Serially replays the first `w` firings of `trace` from `initial`,
/// checking §3 selectability of every step (Theorem 2 on the durable
/// prefix), and returns the replayed state.
fn serial_prefix(
    rules: &RuleSet,
    initial: &WorkingMemory,
    trace: &Trace,
    w: usize,
) -> Result<WorkingMemory, String> {
    if w > trace.len() {
        return Err(format!("durable horizon {w} exceeds trace length {}", trace.len()));
    }
    let prefix: Trace = trace.iter().take(w).collect();
    validate_trace(rules, initial, &prefix).map_err(|v| format!("prefix oracle: {v}"))?;
    let mut wm = initial.clone();
    for (i, firing) in prefix.iter().enumerate() {
        wm.apply(&firing.delta)
            .map_err(|e| format!("prefix replay at commit #{i}: {e}"))?;
    }
    Ok(wm)
}

/// Byte-identity of two working memories (via `encode_snapshot`).
fn same_state(a: &WorkingMemory, b: &WorkingMemory) -> Result<bool, String> {
    let bytes = |wm: &WorkingMemory| wm.encode_snapshot().map_err(|e| format!("snapshot encode: {e}"));
    Ok(bytes(a)? == bytes(b)?)
}

/// One kill-point run end-to-end: run → die → recover → oracle the
/// prefix → resume → drain → re-recover. `dir` is created fresh and
/// removed on success (left behind for post-mortems on failure).
fn kill_point_run(
    spec: &RecoverySpec,
    workload: &WorkloadSpec,
    policy: ConflictPolicy,
    site: WalKillSite,
    kill_commit: u64,
    dir: PathBuf,
) -> RecoveryRun {
    let _ = fs::remove_dir_all(&dir);
    let (rules, wm) = (workload.build)(spec.quick);
    let expected = (workload.expected)(spec.quick);
    let initial = wm.clone();

    // ---- first incarnation: run into the kill point ----
    let durability = DurabilityConfig {
        dir: dir.clone(),
        checkpoint_interval: workload.checkpoint_interval,
    };
    let config = |fault| ParallelConfig {
        protocol: Protocol::RcRaWa,
        policy,
        workers: spec.workers,
        durability: Some(durability.clone()),
        stop: dps_server::shutdown::installed(),
        fault,
        ..Default::default()
    };
    let kill = FaultPlan {
        seed: spec.seed,
        wal_kill_commit: kill_commit,
        wal_kill_site: site,
        ..Default::default()
    };
    let key = format!("{}/{}/{}@{kill_commit}", workload.name, policy_name(policy), site.name());
    let mut run = RecoveryRun {
        leg: certified_run(&rules, wm, config(Some(kill))).named(key, expected),
        site,
        kill_commit,
        durable_seq: 0,
        checkpoint_seq: 0,
        replayed: 0,
        torn_tail: false,
        recovered: false,
        site_ok: false,
        prefix_oracle: false,
        resumed: false,
    };

    // ---- recovery ----
    let rec = match recover(&dir) {
        Ok(rec) => rec,
        Err(e) => {
            run.leg.errors.push(format!("recover: {e}"));
            return run;
        }
    };
    run.recovered = true;
    run.durable_seq = rec.last_seq;
    run.checkpoint_seq = rec.checkpoint_seq;
    run.replayed = rec.replayed;
    run.torn_tail = rec.torn_tail;

    // The durable horizon must sit where the kill semantics put it:
    // after-fsync death keeps exactly the killed commit; both
    // pre-fsync deaths lose it (and the torn variant must be *seen*
    // as torn — the tear lands in the final segment by construction).
    run.site_ok = match site {
        WalKillSite::AfterSync => rec.last_seq == kill_commit,
        WalKillSite::AfterPublish => rec.last_seq < kill_commit,
        WalKillSite::TornTail => rec.last_seq < kill_commit && rec.torn_tail,
    };
    if !run.site_ok {
        run.leg.errors.push(format!(
            "site {}: durable_seq {} vs kill {kill_commit}, torn {}",
            site.name(),
            rec.last_seq,
            rec.torn_tail
        ));
    }

    // ---- §3 oracle on the durable prefix + byte-identity ----
    let prefix = serial_prefix(&rules, &initial, &run.leg.report.trace, rec.last_seq as usize);
    match prefix.and_then(|serial| same_state(&serial, &rec.wm)) {
        Ok(true) => run.prefix_oracle = true,
        Ok(false) => run.leg.errors.push(format!(
            "recovered state diverges from the serial replay of the first {} firings",
            rec.last_seq
        )),
        Err(e) => run.leg.errors.push(e),
    }

    // ---- resume: drain the remainder over the recovered state ----
    let mut resumed = ParallelEngine::resume(&rules, rec.wm.clone(), rec.last_seq, config(None));
    let report2 = resumed.run();
    let total = rec.last_seq + report2.commits as u64;
    if total != expected as u64 {
        run.leg.errors.push(format!(
            "resume drained {} on top of {} (total {total} != {expected})",
            report2.commits, rec.last_seq
        ));
    } else if let Err(v) = validate_trace(&rules, &rec.wm, &report2.trace) {
        run.leg.errors.push(format!("resumed-run oracle: {v}"));
    } else {
        // The second incarnation's log must recover to the fixpoint.
        match recover(&dir).map_err(|e| format!("re-recover: {e}")).and_then(|rec2| {
            Ok(same_state(&resumed.final_wm(), &rec2.wm)? && rec2.last_seq == expected as u64)
        }) {
            Ok(true) => run.resumed = true,
            Ok(false) => run
                .leg
                .errors
                .push(format!("re-recovery missed seq {expected} or landed on a diverging state")),
            Err(e) => run.leg.errors.push(e),
        }
    }

    if run.leg.passes() {
        let _ = fs::remove_dir_all(&dir);
    }
    run
}

/// The full sweep: workloads × policies × kill sites × kill commits.
pub fn sweep(spec: &RecoverySpec, scratch: &Path) -> Vec<RecoveryRun> {
    let mut runs = Vec::new();
    let mut idx = 0usize;
    for workload in &WORKLOADS {
        let expected = (workload.expected)(spec.quick) as u64;
        let kills: Vec<u64> = if spec.quick {
            vec![2, expected - 1]
        } else {
            vec![2, expected / 2, expected - 1]
        };
        for policy in POLICIES {
            for site in WalKillSite::ALL {
                for &kill in &kills {
                    let dir = scratch.join(format!("run-{idx}"));
                    idx += 1;
                    runs.push(kill_point_run(spec, workload, policy, site, kill, dir));
                }
            }
        }
    }
    runs
}

/// Falsifiability probe: a clean durable run whose log then suffers a
/// one-byte flip in a **mid-log** record. The torn-tail rule only
/// forgives damage at the very end of the final segment; interior
/// corruption must make recovery fail. Returns `Ok(true)` iff recovery
/// rejected the mangled log.
pub fn probe_corrupt_record(scratch: &Path) -> Result<bool, String> {
    let dir = scratch.join("probe-corrupt");
    let _ = fs::remove_dir_all(&dir);
    let (rules, wm) = workloads::counters(2, 3);
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            // No checkpoints: one segment holds the whole log.
            durability: Some(DurabilityConfig { dir: dir.clone(), checkpoint_interval: 0 }),
            ..Default::default()
        },
    );
    let report = engine.run();
    if report.commits != 6 {
        return Err(format!("probe run drained {}/6", report.commits));
    }
    recover(&dir).map_err(|e| format!("probe pre-recovery failed: {e}"))?;
    let segment = fs::read_dir(&dir)
        .map_err(|e| format!("probe readdir: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .ok_or("probe: no wal segment found")?;
    let mut bytes = fs::read(&segment).map_err(|e| format!("probe read: {e}"))?;
    // Segment header is 13 bytes, each frame is [len u32][crc u32]
    // [payload]; flip a byte inside the *first* record's payload —
    // with 6 records behind it, this is interior damage, not a tail.
    let at = 13 + 8 + 2;
    if bytes.len() <= at + 16 {
        return Err(format!("probe: segment unexpectedly small ({} bytes)", bytes.len()));
    }
    bytes[at] ^= 0xFF;
    fs::write(&segment, &bytes).map_err(|e| format!("probe write: {e}"))?;
    let rejected = recover(&dir).is_err();
    let _ = fs::remove_dir_all(&dir);
    Ok(rejected)
}

/// The durable leg, keyed `match_heavy/durable`: `match_heavy` with
/// the WAL and group commit on and no kill point. Its log must recover
/// to exactly its in-memory final state, and it carries the telemetry
/// sampler so the report's timeline shows the `wal.*` series under
/// load.
fn durable_leg(spec: &RecoverySpec, scratch: &Path) -> Leg {
    let (groups, pairs) = if spec.quick { (16, 16) } else { (48, 32) };
    let expected = groups * pairs;
    let dir = scratch.join("durable");
    let _ = fs::remove_dir_all(&dir);
    let (rules, wm) = workloads::match_heavy(groups, pairs);
    let config = ParallelConfig {
        workers: spec.workers,
        durability: Some(DurabilityConfig { dir: dir.clone(), checkpoint_interval: 0 }),
        telemetry: Some(TelemetryConfig::default()),
        stop: dps_server::shutdown::installed(),
        ..Default::default()
    };
    let mut leg = certified_run(&rules, wm, config).named("match_heavy/durable", expected);
    let intact = recover(&dir).map_err(|e| format!("durable-leg recovery: {e}")).and_then(|rec| {
        Ok(same_state(&rec.wm, &leg.final_wm)? && rec.last_seq == expected as u64)
    });
    match intact {
        Ok(true) => {}
        Ok(false) => leg.errors.push("durable-leg recovery diverged from the final state".into()),
        Err(e) => leg.errors.push(e),
    }
    let _ = fs::remove_dir_all(&dir);
    leg
}

/// The crash-recovery gate (flags: `--quick --json --workers N --seed S`):
///
/// * every kill-point run (dropped / torn / post-fsync death) recovers
///   to the durable commit prefix — §3-oracle-validated and
///   byte-identical to a serial replay of that prefix — with
///   `checkpoint + redo == horizon`;
/// * every durable horizon sits where its kill site put it;
/// * every resumed engine drains the remainder and re-recovers to the
///   fixpoint;
/// * the falsifiability probe — one flipped byte in a mid-log record —
///   makes recovery *fail*;
/// * the durable `match_heavy` leg recovers to its final state, with
///   group commit actually grouping (fewer fsyncs than appends,
///   piggybacked syncs observed).
pub fn gate(args: &ReportArgs) -> Report {
    let workers = args.flag_u64("--workers").unwrap_or(8) as usize;
    let seed = args.flag_u64("--seed").unwrap_or(0xD0_2026);
    let spec = RecoverySpec { seed, workers, quick: args.quick() };
    let scratch = std::env::temp_dir().join(format!("dps-recovery-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).expect("scratch dir under the system temp dir");
    eprintln!("recovery gate: kill-point sweep, seed {seed:#x}, {workers} workers");
    let mut report = Report::new(
        "recovery",
        vec![("seed", Json::u64(seed)), ("workers", Json::u64(workers as u64))],
    );

    let runs = sweep(&spec, &scratch);
    let failing = |f: fn(&RecoveryRun) -> bool| runs.iter().filter(|r| !f(r)).count() as u64;
    report.equal("runs_not_recovered", failing(|r| r.recovered), 0);
    report.equal("runs_off_their_kill_site", failing(|r| r.site_ok), 0);
    report.equal("runs_failing_prefix_oracle", failing(|r| r.prefix_oracle), 0);
    report.equal("runs_not_resumed", failing(|r| r.resumed), 0);
    report.equal(
        "runs_where_checkpoint_plus_redo_is_not_horizon",
        failing(|r| r.checkpoint_seq + r.replayed == r.durable_seq),
        0,
    );
    for run in runs {
        report.leg(&run.into_leg());
    }

    let rejected = probe_corrupt_record(&scratch).unwrap_or_else(|e| {
        eprintln!("  probe: setup failed — {e}");
        false
    });
    report.probe("corrupt_mid_log_record", true, rejected);

    let durable = durable_leg(&spec, &scratch);
    report.leg(&durable);
    // The durable leg's sampled series: WAL pending bytes, fsync counts
    // and the piggyback ratio over time.
    report.timeline_of(&durable);
    let wal = durable.report.wal.unwrap_or_default();
    report.gate("wal.appends", wal.appends as f64, Op::Gt, 0.0);
    report.gate("wal.fsyncs_below_appends", wal.fsyncs as f64, Op::Lt, wal.appends as f64);
    report.gate("wal.piggybacked", wal.piggybacked as f64, Op::Gt, 0.0);
    let _ = fs::remove_dir_all(&scratch);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dps-recovery-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn quick_sweep_clears_every_per_run_check() {
        let spec = RecoverySpec { seed: 0x7E57, workers: 4, quick: true };
        let dir = scratch("sweep");
        let runs = sweep(&spec, &dir);
        assert_eq!(runs.len(), 2 * 2 * 3 * 2, "workloads x policies x sites x kills");
        for r in &runs {
            assert!(r.leg.passes(), "{}: {:?} {:?}", r.leg.key, r.leg.errors, r.leg.replay);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_log_record_is_rejected() {
        let dir = scratch("probe");
        assert_eq!(probe_corrupt_record(&dir), Ok(true));
        let _ = fs::remove_dir_all(&dir);
    }
}
