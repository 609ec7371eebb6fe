//! The one certified leg: run a `ParallelEngine` workload, then certify
//! its commit sequence against single-thread execution semantics
//! (`ES_M ⊆ ES_single`, §3 Theorem 2).
//!
//! Every gate does the same thing after the engine stops — because the
//! engine's version order *is* its commit sequence, certification is
//! one polynomial procedure ("On the Complexity of Checking
//! Transactional Consistency", PAPERS.md) — so it lives here once:
//! [`certify`] validates the merged event history (when the run was
//! observed), pairs it with the commit order the engine's commit log
//! gives once (the txn id of each slot), replays the log through the §3
//! oracle (`validate_trace`) and carries the SI/serializability
//! polygraph's verdict. [`certified_run`] is construct → time → certify
//! and is what `chaos`, `mvcc`, `commute`, `analyze`, `matchbench`,
//! `recovery` and `repro` call; `loadgen`, whose engine sits behind a
//! `Server`, calls [`certify`] on it. [`Leg::to_json`] is the only leg
//! encoder and [`aborts_json`] the only abort-cause one. A leg's time
//! is an observation: no gate compares it.
//!
//! The obs crate sits below `dps-core` and can only check a history
//! *structurally*; the replay, and reading the log's txn column, are
//! what it cannot do, which is why they are here.
//!
//! The module also owns the `analyze` gate ([`gate`]): both lock
//! protocols on a contended workload, each leg explained (contention
//! table, critical path, wasted-work `f`), its event stream checked
//! against the engine's books, and certified.

use std::time::Instant;

use dps_core::semantics::validate_trace;
use dps_core::{AbortStats, ParallelConfig, ParallelEngine, ParallelReport, WorkModel};
use dps_lock::{res_of_key, ConflictPolicy, Protocol};
use dps_obs::analysis::{analyze, RunAnalysis, Verdict};
use dps_obs::json::Json;
use dps_obs::{validate_history, AbortCause, ObsReport, Phase, TimelineDoc};
use dps_rules::RuleSet;
use dps_wm::WorkingMemory;

use crate::harness::ReportArgs;
use crate::report::{Op, Report};
use crate::workloads;

/// Stable name for a lock protocol (leg key and CLI label).
pub fn protocol_name(p: Protocol) -> &'static str {
    match p {
        Protocol::TwoPhase => "2pl",
        Protocol::RcRaWa => "rc_ra_wa",
    }
}

/// Stable name for a conflict policy (leg key and CLI label).
pub fn policy_name(p: ConflictPolicy) -> &'static str {
    match p {
        ConflictPolicy::AbortReaders => "abort_readers",
        ConflictPolicy::Revalidate => "revalidate",
        ConflictPolicy::MvccSnapshot => "mvcc_snapshot",
    }
}

/// The engine's count of one abort cause.
pub fn abort_count(a: &AbortStats, cause: AbortCause) -> u64 {
    match cause {
        AbortCause::Doomed => a.doomed,
        AbortCause::Deadlock => a.deadlock,
        AbortCause::Stale => a.stale,
        AbortCause::Revalidation => a.revalidation,
        AbortCause::EvalError => a.eval_error,
        AbortCause::Timeout => a.timeout,
        AbortCause::Injected => a.injected,
        AbortCause::SnapshotStale => a.snapshot_stale,
        AbortCause::ElisionStale => a.elision_stale,
    }
}

/// A JSON object of named counters.
pub fn counters(pairs: &[(&str, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|&(k, v)| (k.to_owned(), Json::u64(v)))
            .collect(),
    )
}

/// The per-cause abort block: every [`AbortCause`] by name, and `total`.
pub fn aborts_json(a: &AbortStats) -> Json {
    let mut causes: Vec<(String, Json)> = AbortCause::ALL
        .iter()
        .map(|&c| (c.name().to_owned(), Json::u64(abort_count(a, c))))
        .collect();
    causes.push(("total".into(), Json::u64(a.total())));
    Json::Obj(causes)
}

/// One engine run and everything certification found out about it.
#[derive(Clone, Debug)]
pub struct Leg {
    /// Identity of the measurement within its report.
    pub key: String,
    /// Commits the workload must drain to, when the caller knows.
    pub expected: Option<usize>,
    /// Wall-clock seconds of `engine.run()` alone.
    pub secs: f64,
    /// The engine's own report (commits, aborts, trace, lock / fan-out /
    /// fault / WAL counters).
    pub report: ParallelReport,
    /// Working memory the run ended in.
    pub final_wm: WorkingMemory,
    /// Aggregate obs snapshot, when the run was observed.
    pub obs: Option<ObsReport>,
    /// Trace analysis of the history (replay result attached), when the
    /// run was observed.
    pub analysis: Option<RunAnalysis>,
    /// Structural errors: history validation, the commit log's pairing
    /// with the history, plus whatever the owning gate adds.
    pub errors: Vec<String>,
    /// §3 replay of the engine's trace through the single-thread oracle.
    pub replay: Result<(), String>,
    /// Sampled timeline, when the run carried the telemetry sampler.
    pub timeline: Option<TimelineDoc>,
    /// Gate-specific members appended to the leg's JSON object.
    pub extra: Vec<(String, Json)>,
}

/// Certifies a finished run of `engine` (see the module docs). Never
/// panics on an inconsistent outcome — falsifiability probes *want*
/// one; the verdict is the caller's to judge.
pub fn certify(
    rules: &RuleSet,
    initial: &WorkingMemory,
    engine: &ParallelEngine,
    report: ParallelReport,
    secs: f64,
) -> Leg {
    let replay = validate_trace(rules, initial, &report.trace).map_err(|v| v.to_string());
    let mut errors: Vec<String> = Vec::new();
    let (mut obs, mut analysis) = (None, None);
    if let Some(rec) = engine.observer() {
        let history = rec.history();
        if let Err(e) = validate_history(&history) {
            errors.push(format!("history: {e}"));
        }
        if rec.dropped() > 0 {
            errors.push(format!(
                "{} events dropped: ring too small to analyze",
                rec.dropped()
            ));
        }
        let txns: Vec<u64> = report.trace.firings.txns().collect();
        let mut a = analyze(&history, &txns);
        errors.extend(a.checker.structural_errors.iter().cloned());
        a.set_replay_result(replay.clone());
        obs = Some(rec.report());
        analysis = Some(a);
    }
    Leg {
        key: String::new(),
        expected: None,
        secs,
        final_wm: engine.final_wm(),
        obs,
        analysis,
        errors,
        replay,
        timeline: engine.telemetry().map(|t| t.doc()),
        extra: Vec::new(),
        report,
    }
}

/// Runs `rules` over `wm` under `config` to quiescence and certifies
/// the run. Only `engine.run()` is inside the timed section.
pub fn certified_run(rules: &RuleSet, wm: WorkingMemory, config: ParallelConfig) -> Leg {
    let initial = wm.clone();
    let mut engine = ParallelEngine::new(rules, wm, config);
    let t0 = Instant::now();
    let report = engine.run();
    let secs = t0.elapsed().as_secs_f64();
    certify(rules, &initial, &engine, report, secs)
}

impl Leg {
    /// Names the leg and sets its drain target.
    pub fn named(mut self, key: impl Into<String>, expected: usize) -> Self {
        self.key = key.into();
        self.expected = Some(expected);
        self
    }

    /// The SI/serializability polygraph's verdict, when the history
    /// carried snapshot events (`None` on lock-based runs).
    pub fn si(&self) -> Option<Verdict> {
        self.analysis
            .as_ref()
            .and_then(|a| a.si.as_ref())
            .map(|s| s.verdict())
    }

    /// Folded verdict: structural + §3 replay + SI.
    pub fn verdict(&self) -> Verdict {
        if self.errors.is_empty() && self.replay.is_ok() && self.si() != Some(Verdict::Inconsistent)
        {
            Verdict::Consistent
        } else {
            Verdict::Inconsistent
        }
    }

    /// `true` iff the leg drained (when it has a target) and certified.
    pub fn passes(&self) -> bool {
        self.expected.is_none_or(|e| e == self.report.commits)
            && self.verdict() == Verdict::Consistent
    }

    /// Commits per wall-clock second.
    pub fn throughput(&self) -> f64 {
        self.report.commits as f64 / self.secs.max(1e-9)
    }

    /// Appends a gate-specific member to the leg's JSON object.
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.extra.push((key.to_owned(), value));
        self
    }

    /// One-line human summary.
    pub fn line(&self) -> String {
        let r = &self.report;
        format!(
            "[{}] {}{} commits in {:.1}ms ({:.0}/s), {} aborts, checker {}{}",
            self.key,
            r.commits,
            self.expected.map_or(String::new(), |e| format!("/{e}")),
            self.secs * 1e3,
            self.throughput(),
            r.aborts.total(),
            self.verdict().name(),
            self.si()
                .map_or(String::new(), |v| format!(", si {}", v.name())),
        )
    }

    /// The leg's object in a report's `legs[]`.
    pub fn to_json(&self) -> Json {
        let r = &self.report;
        let mut fields = vec![
            ("key".into(), Json::str(self.key.clone())),
            ("commits".into(), Json::u64(r.commits as u64)),
            (
                "expected_commits".into(),
                self.expected.map_or(Json::Null, |e| Json::u64(e as u64)),
            ),
            ("secs".into(), Json::num(self.secs)),
            ("throughput".into(), Json::num(self.throughput())),
            ("aborts".into(), aborts_json(&r.aborts)),
            (
                "wasted_ms".into(),
                Json::num(r.wasted_work.as_secs_f64() * 1e3),
            ),
            (
                "locks".into(),
                counters(&[
                    ("grants", r.lock_stats.grants),
                    ("blocks", r.lock_stats.blocks),
                    ("dooms", r.lock_stats.dooms),
                    ("elided", r.lock_stats.elided),
                ]),
            ),
            (
                "checker".into(),
                Json::Obj(vec![
                    (
                        "structural_errors".into(),
                        Json::u64(self.errors.len() as u64),
                    ),
                    (
                        "replay".into(),
                        Json::str(if self.replay.is_ok() {
                            "consistent"
                        } else {
                            "violation"
                        }),
                    ),
                    (
                        "si".into(),
                        self.si().map_or(Json::Null, |v| Json::str(v.name())),
                    ),
                    ("verdict".into(), Json::str(self.verdict().name())),
                ]),
            ),
        ];
        fields.extend(self.extra.iter().cloned());
        Json::Obj(fields)
    }

    /// Human-readable trace-analysis summary of an observed leg.
    pub fn print_analysis(&self) {
        let Some(analysis) = &self.analysis else {
            return;
        };
        let c = &analysis.critical;
        eprintln!(
            "  critical path : {:.2}ms over {} txns (wall {:.2}ms)",
            c.critical_path_ns as f64 / 1e6,
            c.critical_path.len(),
            c.wall_ns as f64 / 1e6
        );
        eprintln!(
            "  parallelism   : effective {:.2}x, max-speed-up estimate {:.2}x",
            c.effective_parallelism, c.max_speedup_estimate
        );
        eprintln!(
            "  wasted work f : {:.4} ({:.2}ms of {:.2}ms busy)",
            c.wasted_fraction,
            c.wasted_ns as f64 / 1e6,
            c.total_busy_ns as f64 / 1e6
        );
        if analysis.contention.is_empty() {
            eprintln!("  contention    : none observed");
        } else {
            eprintln!(
                "  contention    : {:<18} {:>7} {:>12} {:>9} {:>6} {:>9}",
                "resource", "blocks", "blocked", "blockers", "dooms", "deadlocks"
            );
            for r in analysis.contention.iter().take(8) {
                eprintln!(
                    "                  {:<18} {:>7} {:>11.2}ms {:>9} {:>6} {:>9}",
                    format!("{}", res_of_key(r.resource)),
                    r.blocks,
                    r.blocked_ns as f64 / 1e6,
                    r.distinct_blockers,
                    r.dooms_caused,
                    r.deadlock_aborts
                );
            }
        }
    }
}

/// `shared_resources(tasks, resources)` under `protocol` with
/// observability on: the leg `analyze` explains, its full trace
/// analysis attached as the `analysis` member and its `dps-obs-report-v1`
/// document as `observability`.
pub fn contended_leg(
    protocol: Protocol,
    workers: usize,
    tasks: usize,
    resources: usize,
    work_us: u64,
) -> Leg {
    let (rules, wm) = workloads::shared_resources(tasks, resources);
    let leg = certified_run(
        &rules,
        wm,
        ParallelConfig {
            protocol,
            policy: ConflictPolicy::AbortReaders,
            workers,
            work: WorkModel::FixedMicros(work_us),
            observe: true,
            // `charge` is key-partitionable: at the default layout the
            // claim scans' shard affinity would steer workers onto
            // different tallies and thin the lock contention this leg
            // is there to record and explain. One shard keeps it.
            match_shards: 1,
            stop: dps_server::shutdown::installed(),
            ..Default::default()
        },
    )
    .named(
        format!("contended/{}/w{workers}", protocol_name(protocol)),
        tasks,
    );
    let analysis = leg.analysis.as_ref().expect("observed leg").to_json(16);
    let obs = leg.obs.as_ref().expect("observed leg").to_json();
    leg.with("analysis", analysis).with("observability", obs)
}

/// Declares the accounting identities of an observed leg's trace
/// analysis: busy time splits into useful + wasted, the critical path
/// fits inside it, and the derived ratios are sane.
pub fn analysis_identities(report: &mut Report, leg: &Leg) {
    let c = &leg.analysis.as_ref().expect("observed leg").critical;
    let k = &leg.key;
    report.equal(
        format!("{k}.useful_plus_wasted_is_busy"),
        c.useful_busy_ns + c.wasted_ns,
        c.total_busy_ns,
    );
    for (name, observed, op, bound) in [
        (
            "critical_path_within_busy",
            c.critical_path_ns as f64,
            Op::Le,
            c.total_busy_ns as f64,
        ),
        ("wasted_fraction", c.wasted_fraction, Op::Le, 1.0),
        (
            "effective_parallelism",
            c.effective_parallelism,
            Op::Ge,
            0.0,
        ),
        ("max_speedup_estimate", c.max_speedup_estimate, Op::Ge, 0.0),
    ] {
        report.gate(format!("{k}.{name}"), observed, op, bound);
    }
}

/// Declares the accounting identities of an observed leg's event
/// stream: every phase histogram has ordered percentiles, every
/// per-cause abort count is the engine's own, no accounting anomaly was
/// recorded, the commit path was sampled, and every `Block` event
/// produced exactly one lock-wait sample.
pub fn obs_identities(report: &mut Report, leg: &Leg) {
    let obs = leg.obs.as_ref().expect("observed leg");
    let k = &leg.key;
    let unordered = obs
        .phases
        .iter()
        .filter(|(_, h)| !(h.p50() <= h.p95() && h.p95() <= h.p99() && h.p99() <= h.max))
        .count();
    report.equal(
        format!("{k}.obs.phases_with_unordered_percentiles"),
        unordered as u64,
        0,
    );
    let mismatched_causes = obs
        .abort_causes
        .iter()
        .filter(|&&(cause, n)| n != abort_count(&leg.report.aborts, cause))
        .count();
    report.equal(format!("{k}.obs.aborts_match_engine"), mismatched_causes as u64, 0);
    report.equal(format!("{k}.obs.anomalies"), obs.anomalies, 0);
    let samples = |p: Phase| obs.phase(p).map_or(0, |h| h.count);
    report.gate(
        format!("{k}.obs.commit_samples"),
        samples(Phase::Commit) as f64,
        Op::Gt,
        0.0,
    );
    report.equal(
        format!("{k}.obs.lock_wait_samples_match_blocks"),
        samples(Phase::LockWait),
        obs.blocks,
    );
}

/// The `analyze` gate: both lock protocols on a contended workload
/// (several hot tallies, so the contention table has rows and the
/// critical path is non-trivial), every leg explained, its event-stream
/// and trace-analysis identities declared, and certified.
pub fn gate(args: &ReportArgs) -> Report {
    let workers = args.flag_u64("--workers").unwrap_or(8) as usize;
    let (tasks, resources, work_us) = if args.quick() {
        (64, 4, 100)
    } else {
        (192, 8, 200)
    };
    eprintln!(
        "trace analysis: {tasks} tasks over {resources} shared tallies, \
         {work_us}µs simulated RHS, {workers} workers"
    );
    let mut report = Report::new(
        "analyze",
        vec![
            ("tasks", Json::u64(tasks as u64)),
            ("resources", Json::u64(resources as u64)),
            ("work_us", Json::u64(work_us)),
            ("workers", Json::u64(workers as u64)),
        ],
    );
    for protocol in [Protocol::RcRaWa, Protocol::TwoPhase] {
        let leg = contended_leg(protocol, workers, tasks, resources, work_us);
        report.leg(&leg);
        leg.print_analysis();
        obs_identities(&mut report, &leg);
        analysis_identities(&mut report, &leg);
    }
    report
}
