//! One workload, start to finish: repeated set-ups, the untraced
//! measured phase (every end-to-end number), output checks, and — when
//! asked — the traced phase plus the replay probes (every per-layer
//! number).

use std::path::{Path, PathBuf};
use std::time::Instant;

use dps_core::semantics::validate_trace;
use dps_core::{ParallelConfig, ParallelEngine, ParallelReport, Trace};
use dps_lock::ConflictPolicy;
use dps_obs::{ObsReport, Phase};
use dps_rules::RuleSet;
use dps_wm::WorkingMemory;

use crate::engine::{self, EngineRun, EngineSpec};
use crate::gen::{self, MIXED_MIX, ZIPF_MIX};
use crate::probe;
use crate::session::{self, SessionRun, SessionSpec};
use crate::span::{self, Budget, Name};
use crate::spec::{Sizes, Workload, LAYERS, SETUP_REPEATS};
use crate::stats::{median, percentile};
use crate::{Shape, WORK_DIR};

/// A reported value with its sample count (`n == 0`: a plain count or
/// ratio, not a sampled timing).
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a timing; 0 for counts and ratios.
    pub n: u64,
}

/// Everything one workload run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Which workload.
    pub workload: Workload,
    /// End-to-end metrics (untraced phase), applicable ones only.
    pub e2e: Vec<Value>,
    /// Per-layer metrics (traced phase + probes); empty when untraced.
    pub layers: Vec<Value>,
    /// Counters that must repeat exactly for equal `(seed, size)`.
    pub exact: Vec<(&'static str, u64)>,
    /// Order-independent hash of the final working-memory content.
    pub fingerprint: u64,
    /// Logical operations attempted (transactions / expected firings).
    pub attempted: u64,
    /// Logical operations that never completed.
    pub failed: u64,
    /// Seconds of the measured window.
    pub measured_s: f64,
    /// Seconds of warm-up before it (0 on `engine_*`); in no metric.
    pub warmup_s: f64,
    /// Output-check failures; empty means correct.
    pub failures: Vec<String>,
    /// Human-readable per-transaction budget (traced session runs).
    pub budget: Vec<String>,
}

/// Run parameters shared by every workload.
pub struct Params {
    /// Thread budget.
    pub shape: Shape,
    /// Generator seed.
    pub seed: u64,
    /// Nominal size, milliseconds (`--seconds × 1000`).
    pub millis: u64,
    /// Also run the traced phase and the probes?
    pub traced: bool,
    /// Also replay every trace through the §3 oracle (`e2e check`)?
    pub validate: bool,
}

fn session_spec(w: Workload) -> SessionSpec {
    match w {
        Workload::SessionZipf => SessionSpec {
            mix: ZIPF_MIX,
            policy: ConflictPolicy::AbortReaders,
            durable: true,
            invoke: true,
        },
        _ => SessionSpec {
            mix: MIXED_MIX,
            policy: ConflictPolicy::MvccSnapshot,
            durable: false,
            invoke: false,
        },
    }
}

/// Order-independent content fingerprint: FNV-1a over the sorted
/// `class{attrs}` lines. Ids and timestamps depend on commit order and
/// are deliberately left out.
pub fn fingerprint(wm: &WorkingMemory) -> u64 {
    let mut lines: Vec<String> = wm.iter().map(|w| format!("{:?}", w.data)).collect();
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Collector {
    workload: Workload,
    e2e: Vec<Value>,
    failures: Vec<String>,
}

impl Collector {
    /// Records an end-to-end metric; a timing that lacks the samples
    /// to be reported is a failure on a full-size run.
    fn put(&mut self, name: &'static str, value: Option<f64>, n: u64, require: bool) {
        let spec = crate::spec::e2e(name).expect("known metric");
        debug_assert!((spec.applies)(self.workload));
        match value {
            Some(v) => self.e2e.push(Value {
                name,
                value: v,
                unit: spec.unit,
                n,
            }),
            None if require => self
                .failures
                .push(format!("{name}: too few samples (n = {n})")),
            None => {}
        }
    }

    /// The traced phase ran the same seed: its own checks must pass, it
    /// must end in the same WM content as the untraced phase, and (in
    /// `check`) its trace must pass the §3 replay too.
    #[allow(clippy::too_many_arguments)]
    fn check_traced(
        &mut self,
        p: &Params,
        untraced_fp: u64,
        rules: &RuleSet,
        failures: &[String],
        initial: &WorkingMemory,
        final_wm: &WorkingMemory,
        report: &ParallelReport,
    ) {
        self.failures
            .extend(failures.iter().map(|f| format!("traced: {f}")));
        if fingerprint(final_wm) != untraced_fp {
            self.failures
                .push("same seed, different final WM content (traced vs untraced)".into());
        }
        if p.validate {
            oracle(rules, initial, &report.trace, "traced", &mut self.failures);
        }
    }
}

/// Runs `workload` and returns its outcome.
pub fn run_workload(workload: Workload, p: &Params) -> Outcome {
    std::fs::create_dir_all(WORK_DIR).expect("work dir is creatable");
    if workload.is_session() {
        run_session(workload, p)
    } else {
        run_engine(workload, p)
    }
}

/// Set-ups are timed half before and half after the measured phase:
/// the box changes speed in episodes a few seconds long, and one window
/// would sample one episode. This is the first half — at least
/// `SETUP_REPEATS / 2` set-ups, and more of a cheap one (until a
/// quarter second is spent, at most 50), so that a 3 ms set-up's median
/// is as steady as a 400 ms one's.
fn setups_before(mut one: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut times = Vec::new();
    while times.len() < SETUP_REPEATS / 2 || (times.len() < 50 && times.iter().sum::<f64>() < 0.25)
    {
        times.push(one(times.len()));
    }
    times
}

/// The run's own set-up, then as many again as before it.
fn setups_after(times: &mut Vec<f64>, own: f64, one: impl FnMut(usize) -> f64) {
    let before = times.len();
    times.push(own);
    times.extend((before + 1..=2 * before).map(one));
}

fn wal_dir(tag: &str) -> PathBuf {
    Path::new(WORK_DIR).join(format!("wal-{}-{tag}", std::process::id()))
}

fn run_session(workload: Workload, p: &Params) -> Outcome {
    let spec = session_spec(workload);
    let rules = gen::session_rules();
    let sizes = Sizes::for_millis(p.millis);
    let total = if workload == Workload::SessionZipf {
        sizes.zipf_txns
    } else {
        sizes.mixed_txns
    };
    let full = p.millis >= 1000 * crate::spec::DEFAULT_SECONDS;
    let dir = |tag: &str| spec.durable.then(|| wal_dir(tag));

    let setup_only = |i: usize| {
        let tag = format!("s{i}");
        let r = session::run(&spec, &p.shape, p.seed, total, false, false, dir(&tag));
        cleanup(r.wal_dir.as_deref());
        r.setup_s
    };
    let mut setups = setups_before(setup_only);
    let run = session::run(&spec, &p.shape, p.seed, total, false, true, dir("run"));
    // Read before anything else allocates: later set-ups, the recovery
    // and the traced phase are the benchmark's memory, not the run's.
    let rss_mb = peak_rss_mb();
    setups_after(&mut setups, run.setup_s, setup_only);

    let mut c = Collector {
        workload,
        e2e: Vec::new(),
        failures: run.failures.clone(),
    };
    let txns: u64 = run.committed.iter().sum();
    c.put(
        "setup_s",
        Some(median(&mut setups)),
        setups.len() as u64,
        true,
    );
    c.put(
        "txn_per_s",
        Some(txns as f64 / run.txn_window_s),
        txns,
        true,
    );
    let n = run.lat_us.len() as u64;
    c.put("txn_p50_us", percentile(&run.lat_us, 0.50), n, full);
    c.put("txn_p99_us", percentile(&run.lat_us, 0.99), n, full);
    if spec.invoke {
        let n = run.react_us.len() as u64;
        c.put("react_p50_us", percentile(&run.react_us, 0.50), n, full);
        c.put("react_p95_us", percentile(&run.react_us, 0.95), n, full);
    }
    c.put(
        "firings_per_s",
        Some(run.fired as f64 / run.fire_window_s),
        run.fired,
        true,
    );
    let ok = 1.0 - run.failed_attempts as f64 / run.attempts.max(1) as f64;
    c.put("ok_share", Some(ok), run.attempts, true);
    if let Some(wal) = &run.report.wal {
        let commits = wal.appends.max(1);
        c.put(
            "wal_bytes_per_commit",
            Some(wal.bytes_written as f64 / commits as f64),
            commits,
            true,
        );
    }
    if let Some(d) = &run.wal_dir {
        // Recovery only reads the directory, so it repeats.
        let times: Result<Vec<f64>, String> = (0..SETUP_REPEATS)
            .map(|_| recover_s(&rules, d, &run.final_wm, &spec, &p.shape))
            .collect();
        match times {
            Ok(mut t) => c.put("recover_s", Some(median(&mut t)), t.len() as u64, true),
            Err(e) => c.failures.push(e),
        }
    }
    if p.validate {
        oracle(
            &rules,
            &run.initial_wm,
            &run.report.trace,
            "untraced",
            &mut c.failures,
        );
    }
    let fp = fingerprint(&run.final_wm);
    let mut exact = vec![
        ("committed", txns),
        ("parallel.commits", run.report.commits as u64),
        ("wal.appends", run.report.wal.map_or(0, |w| w.appends)),
    ];
    let (measured_s, warmup_s) = (run.txn_window_s, run.warmup_s);
    let attempted = txns + run.gave_up;
    let gave_up = run.gave_up;
    cleanup(run.wal_dir.as_deref());

    c.put("peak_rss_mb", Some(rss_mb), 1, true);
    let (mut layers, mut budget) = (Vec::new(), Vec::new());
    if p.traced {
        let e2e_now = c.e2e.clone();
        let untraced_tps = txns as f64 / run.txn_window_s;
        drop(run);
        let traced = session::run(&spec, &p.shape, p.seed, total, true, true, dir("traced"));
        c.check_traced(
            p,
            fp,
            &rules,
            &traced.failures,
            &traced.initial_wm,
            &traced.final_wm,
            &traced.report,
        );
        exact.push(("traced.parallel.commits", traced.report.commits as u64));
        let (l, b) = session_layers(
            workload,
            &spec,
            p,
            total,
            &traced,
            untraced_tps,
            &e2e_now,
            &mut c.failures,
        );
        layers = l;
        budget = b;
        write_spans(workload, &traced.spans);
        cleanup(traced.wal_dir.as_deref());
    }
    Outcome {
        workload,
        e2e: c.e2e,
        layers,
        exact,
        fingerprint: fp,
        attempted,
        failed: gave_up,
        measured_s,
        warmup_s,
        failures: c.failures,
        budget,
    }
}

fn cleanup(dir: Option<&Path>) {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn write_spans(workload: Workload, spans: &[span::Span]) {
    let path = Path::new(WORK_DIR).join(format!("{}.spans.tsv", workload.name()));
    let result = std::fs::File::create(&path)
        .map(std::io::BufWriter::new)
        .and_then(|mut f| {
            span::write_tsv(spans, &mut f).and_then(|()| std::io::Write::flush(&mut f))
        });
    if let Err(e) = result {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// `dps_wm::recover` + `ParallelEngine::resume` until the engine is
/// ready, seconds; the recovered WM must equal the final WM.
fn recover_s(
    rules: &RuleSet,
    dir: &Path,
    final_wm: &WorkingMemory,
    spec: &SessionSpec,
    shape: &Shape,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let rec = dps_wm::recover(dir).map_err(|e| format!("recover: {e}"))?;
    let same = rec.wm.iter().eq(final_wm.iter());
    let engine = ParallelEngine::resume(
        rules,
        rec.wm,
        rec.last_seq,
        ParallelConfig {
            policy: spec.policy,
            workers: shape.workers,
            max_commits: usize::MAX,
            service: true,
            ..ParallelConfig::default()
        },
    );
    let s = t0.elapsed().as_secs_f64();
    drop(engine);
    if same {
        Ok(s)
    } else {
        Err("recovered WM differs from the final WM".into())
    }
}

fn oracle(
    rules: &RuleSet,
    initial: &WorkingMemory,
    trace: &Trace,
    tag: &str,
    failures: &mut Vec<String>,
) {
    if let Err(v) = validate_trace(rules, initial, trace) {
        failures.push(format!(
            "{tag}: §3 replay rejected commit {}: {}",
            v.at, v.message
        ));
    }
}

fn run_engine(workload: Workload, p: &Params) -> Outcome {
    let sizes = Sizes::for_millis(p.millis);
    let spec = match workload {
        Workload::EngineMatch => EngineSpec::Match(sizes.matching),
        _ => EngineSpec::Contend(sizes.contend),
    };
    let setup_only = |_| engine::setup_only(&spec, &p.shape, p.seed);
    let mut setups = setups_before(setup_only);
    let run = engine::run(&spec, &p.shape, p.seed, false);
    let rss_mb = peak_rss_mb();
    setups_after(&mut setups, run.setup_s, setup_only);

    let mut c = Collector {
        workload,
        e2e: Vec::new(),
        failures: run.failures.clone(),
    };
    let expected = spec.expected_commits();
    let commits = run.report.commits as u64;
    let wall = run.report.wall.as_secs_f64();
    c.put(
        "setup_s",
        Some(median(&mut setups)),
        setups.len() as u64,
        true,
    );
    c.put("firings_per_s", Some(commits as f64 / wall), commits, true);
    c.put(
        "ok_share",
        Some(commits.min(expected) as f64 / expected as f64),
        expected,
        true,
    );
    if p.validate {
        oracle(
            &run.rules,
            &run.initial_wm,
            &run.report.trace,
            "untraced",
            &mut c.failures,
        );
    }
    let fp = fingerprint(&run.final_wm);
    let mut exact = vec![
        ("committed", commits),
        ("parallel.commits", commits),
        ("wal.appends", 0),
    ];
    c.put("peak_rss_mb", Some(rss_mb), 1, true);

    let mut layers = Vec::new();
    if p.traced {
        let untraced_fps = commits as f64 / wall;
        drop(run);
        let traced = engine::run(&spec, &p.shape, p.seed, true);
        c.check_traced(
            p,
            fp,
            &traced.rules,
            &traced.failures,
            &traced.initial_wm,
            &traced.final_wm,
            &traced.report,
        );
        exact.push(("traced.parallel.commits", traced.report.commits as u64));
        layers = engine_layers(p, &traced, untraced_fps, &mut c.failures);
    }
    Outcome {
        workload,
        e2e: c.e2e,
        layers,
        exact,
        fingerprint: fp,
        attempted: expected,
        failed: expected.saturating_sub(commits),
        measured_s: wall,
        warmup_s: 0.0,
        failures: c.failures,
        budget: Vec::new(),
    }
}

/// Name → value map under construction; finished against [`LAYERS`] so
/// every listed metric is present (0 where the workload has none).
struct Layers(Vec<(&'static str, f64, u64)>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        self.put_n(name, value, 0);
    }

    fn put_n(&mut self, name: &'static str, value: f64, n: u64) {
        debug_assert!(
            LAYERS.iter().any(|l| l.name == name),
            "unlisted layer metric {name}"
        );
        self.0.push((name, value, n));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    fn finish(self) -> Vec<Value> {
        LAYERS
            .iter()
            .map(|l| {
                let (value, n) = self
                    .0
                    .iter()
                    .find(|(name, ..)| *name == l.name)
                    .map_or((0.0, 0), |(_, v, n)| (*v, *n));
                Value {
                    name: l.name,
                    value,
                    unit: l.unit,
                    n,
                }
            })
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counters every workload has: `core.parallel`, `core.pipeline`,
/// `lock.manager`, `wm.wal`, plus the observe-histogram percentiles.
fn common_layers(
    l: &mut Layers,
    report: &ParallelReport,
    obs: Option<&ObsReport>,
    final_wm: &WorkingMemory,
    version_records: Option<u64>,
    workers: usize,
    threads: usize,
) {
    let wall = report.wall.as_secs_f64();
    let worker_s = wall * workers as f64;
    let a = &report.aborts;
    let commits = report.commits as f64;
    l.put("parallel.commits", commits);
    l.put(
        "parallel.abort_ratio",
        ratio(a.total() as f64, commits + a.total() as f64),
    );
    l.put("parallel.aborts_doomed", a.doomed as f64);
    l.put("parallel.aborts_deadlock", a.deadlock as f64);
    l.put("parallel.aborts_stale", a.stale as f64);
    l.put("parallel.aborts_snapshot_stale", a.snapshot_stale as f64);
    l.put(
        "parallel.wasted_work_share",
        ratio(report.wasted_work.as_secs_f64(), worker_s),
    );
    let f = &report.fanout;
    l.put("pipeline.batches", f.batches as f64);
    l.put(
        "pipeline.applies_per_batch",
        ratio(f.applies as f64, f.batches as f64),
    );
    l.put(
        "pipeline.free_advance_share",
        ratio(f.free_advances as f64, (f.free_advances + f.applies) as f64),
    );
    l.put(
        "pipeline.steal_share",
        ratio(f.steals as f64, f.applies as f64),
    );
    let s = &report.lock_stats;
    l.put(
        "lock.grants_per_commit",
        ratio(s.grants as f64, s.commits as f64),
    );
    l.put("lock.block_ratio", ratio(s.blocks as f64, s.grants as f64));
    l.put("lock.dooms", s.dooms as f64);
    l.put("lock.deadlocks", s.deadlocks as f64);
    l.put("lock.elided", s.elided as f64);
    l.put("wm.live_tuples", final_wm.len() as f64);
    l.put("version.records", version_records.unwrap_or(0) as f64);
    if let Some(w) = &report.wal {
        l.put("wal.appends", w.appends as f64);
        l.put("wal.fsyncs", w.fsyncs as f64);
        l.put(
            "wal.commits_per_fsync",
            ratio(w.synced_records as f64, w.fsyncs as f64),
        );
        l.put(
            "wal.piggyback_share",
            ratio(w.piggybacked as f64, (w.piggybacked + w.fsyncs) as f64),
        );
        l.put("wal.checkpoints", w.checkpoints as f64);
    }
    if let Some(obs) = obs {
        let mut phase = |ph: Phase, p50: &'static str, p99: Option<&'static str>| {
            if let Some(h) = obs.phase(ph) {
                l.put_n(p50, h.p50() as f64 / 1e3, h.count);
                if let Some(p99) = p99 {
                    l.put_n(p99, h.p99() as f64 / 1e3, h.count);
                }
            }
        };
        phase(Phase::LhsEval, "parallel.lhs_eval_us_p50", None);
        phase(Phase::RhsAct, "parallel.rhs_act_us_p50", None);
        phase(
            Phase::Commit,
            "parallel.commit_us_p50",
            Some("parallel.commit_us_p99"),
        );
        phase(
            Phase::MatchApply,
            "pipeline.match_apply_us_p50",
            Some("pipeline.match_apply_us_p99"),
        );
        phase(
            Phase::LockWait,
            "lock.wait_us_p50",
            Some("lock.wait_us_p99"),
        );
        // In-run time shares. Only workers run claimed transactions;
        // match work and lock waits also happen on the server's
        // handler threads, so those two are shares of all `threads`.
        let spent = |phases: &[Phase], thread_s: f64| {
            let ns: u64 = phases
                .iter()
                .filter_map(|ph| obs.phase(*ph))
                .map(|h| h.sum)
                .sum();
            ratio(ns as f64 / 1e9, thread_s)
        };
        // Outside any claimed transaction: claim scan, catch-up of
        // stolen match work, parked at quiescence.
        let in_txn = spent(&[Phase::LhsEval, Phase::RhsAct, Phase::Commit], worker_s);
        l.put("parallel.outside_txn_share", (1.0 - in_txn).max(0.0));
        let thread_s = wall * threads as f64;
        l.put(
            "pipeline.match_apply_share",
            spent(&[Phase::MatchApply], thread_s),
        );
        l.put("lock.wait_share", spent(&[Phase::LockWait], thread_s));
    }
}

/// Replay probes every workload shares (`wm.store`, `match.rete`,
/// `lock.manager`, `wm.version`, `wm.wal`) and their time shares.
/// `threads` is how many threads did the run's commit-path work.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    l: &mut Layers,
    rules: &RuleSet,
    initial: &WorkingMemory,
    final_wm: &WorkingMemory,
    report: &ParallelReport,
    policy: ConflictPolicy,
    threads: usize,
    failures: &mut Vec<String>,
) {
    let dir = report.wal.is_some().then(|| wal_dir("probe"));
    let r = probe::replay(
        rules,
        initial,
        &report.trace,
        final_wm,
        policy,
        dir.as_deref(),
    );
    cleanup(dir.as_deref());
    if !r.reproduces_final {
        failures
            .push("traced: replaying the recorded deltas does not reproduce the final WM".into());
    }
    let n = r.commits;
    l.put_n("wm.apply_ns_per_commit", r.ns_per_commit(r.apply), n);
    l.put_n("rete.apply_us_per_batch", r.ns_per_commit(r.rete) / 1e3, n);
    l.put(
        "rete.right_activations_per_batch",
        ratio(r.activations.0 as f64, n as f64),
    );
    l.put(
        "rete.left_activations_per_batch",
        ratio(r.activations.1 as f64, n as f64),
    );
    l.put("rete.tokens", r.tokens as f64);
    l.put("rete.conflict_set_len", r.conflict_set_len as f64);
    l.put_n("lock.acquire_ns", r.ns_per_commit(r.lock), n);
    if policy == ConflictPolicy::MvccSnapshot {
        l.put_n("version.record_ns_per_commit", r.ns_per_commit(r.record), n);
        let (t, lookups) = r.as_of;
        l.put_n(
            "version.as_of_ns",
            ratio(t.as_nanos() as f64, lookups as f64),
            lookups,
        );
    }
    if report.wal.is_some() {
        l.put_n("wal.append_ns_per_commit", r.ns_per_commit(r.append), n);
        l.put_n("wal.sync_us", r.sync_us, n.min(probe::SYNC_CAP as u64));
    }
    // Probe-time shares: each layer's uncontended service time over the
    // whole trace, as a share of the probed layers' sum.
    let totals = [
        ("probe.rete_share", r.rete),
        ("probe.lock_share", r.lock),
        ("probe.wm_share", r.apply),
        ("probe.version_share", r.record),
        ("probe.wal_share", r.append),
    ];
    let sum: f64 = totals.iter().map(|(_, t)| t.as_secs_f64()).sum();
    for (name, t) in totals {
        l.put(name, ratio(t.as_secs_f64(), sum));
    }
    // Uncontended service time is a lower bound on what the run's
    // threads spent; a sum beyond their wall time means a probe does
    // not measure what the run did.
    let thread_s = report.wall.as_secs_f64() * threads as f64;
    if sum > thread_s {
        failures.push(format!(
            "probes: {sum:.2} s of service time in a run of {thread_s:.2} thread-seconds"
        ));
    }
}

fn engine_layers(
    p: &Params,
    traced: &EngineRun,
    untraced_fps: f64,
    failures: &mut Vec<String>,
) -> Vec<Value> {
    let mut l = Layers(Vec::new());
    let wall = traced.report.wall.as_secs_f64();
    common_layers(
        &mut l,
        &traced.report,
        traced.obs.as_ref(),
        &traced.final_wm,
        traced.version_records,
        p.shape.workers,
        p.shape.workers,
    );
    replay_layers(
        &mut l,
        &traced.rules,
        &traced.initial_wm,
        &traced.final_wm,
        &traced.report,
        ConflictPolicy::AbortReaders,
        p.shape.workers,
        failures,
    );
    let traced_fps = traced.report.commits as f64 / wall;
    l.put(
        "obs.trace_overhead_share",
        ratio(untraced_fps - traced_fps, untraced_fps),
    );
    l.finish()
}

#[allow(clippy::too_many_arguments)]
fn session_layers(
    workload: Workload,
    spec: &SessionSpec,
    p: &Params,
    total: usize,
    traced: &SessionRun,
    untraced_tps: f64,
    e2e: &[Value],
    failures: &mut Vec<String>,
) -> (Vec<Value>, Vec<String>) {
    let mut l = Layers(Vec::new());
    let rules = gen::session_rules();
    common_layers(
        &mut l,
        &traced.report,
        traced.obs.as_ref(),
        &traced.final_wm,
        traced.version_records,
        p.shape.workers,
        p.shape.workers + p.shape.clients,
    );
    if let Some(w) = &traced.report.wal {
        l.put_n(
            "wal.fsync_us_mean",
            ratio(traced.fsync_ns as f64 / 1e3, w.fsyncs as f64),
            w.fsyncs,
        );
    }
    replay_layers(
        &mut l,
        &rules,
        &traced.initial_wm,
        &traced.final_wm,
        &traced.report,
        spec.policy,
        p.shape.workers + p.shape.clients,
        failures,
    );

    let txns: u64 = traced.committed.iter().sum();
    l.put("admission.admitted", traced.stats.admission.admitted as f64);
    l.put("admission.shed", traced.stats.admission.shed_total() as f64);
    l.put(
        "admission.admit_ns",
        probe::admit_ns(session::admission_config()),
    );
    l.put(
        "wire.bytes_per_txn",
        ratio(traced.wire_bytes as f64, txns as f64),
    );

    let prefix = (total / p.shape.clients).min(probe::SESSION_CAP);
    let stream = gen::session_stream(&spec.mix, p.seed, 0, prefix);
    let (enc, dec, frames_per_txn) = probe::wire(&stream, &traced.final_wm);
    l.put("wire.encode_ns_per_frame", enc);
    l.put("wire.decode_ns_per_frame", dec);
    let core = probe::core_session(&rules, &traced.initial_wm, spec.policy, &stream);
    l.put("core_session.begin_us_p50", core.begin_us);
    l.put("core_session.insert_us_p50", core.insert_us);
    l.put("core_session.query_us_p50", core.query_us);
    l.put("core_session.commit_us_p50", core.commit_us);

    let b = Budget::of(&traced.spans);
    let p50 = |v: &[f64]| percentile(v, 0.5).unwrap_or(0.0);
    let slot = |n: Name| Name::CALLS.iter().position(|c| *c == n).expect("call kind");
    let call = |n: Name| &b.call_us[slot(n)];
    for (name, metric) in [
        (Name::Begin, "session.begin_us_p50"),
        (Name::Insert, "session.insert_us_p50"),
        (Name::Query, "session.query_us_p50"),
        (Name::Commit, "session.commit_us_p50"),
    ] {
        l.put_n(metric, p50(call(name)), call(name).len() as u64);
    }
    l.put_n(
        "session.commit_us_p99",
        percentile(call(Name::Commit), 0.99).unwrap_or(0.0),
        call(Name::Commit).len() as u64,
    );
    l.put_n(
        "session.invoke_us_p50",
        p50(&traced.react_us),
        traced.react_us.len() as u64,
    );
    l.put_n(
        "session.client_self_us_p50",
        p50(&b.self_us),
        b.self_us.len() as u64,
    );
    let traced_tps = txns as f64 / traced.txn_window_s;
    l.put(
        "obs.trace_overhead_share",
        ratio(untraced_tps - traced_tps, untraced_tps),
    );

    // Per-transaction budget: the median transaction as the client
    // saw it (its spans, which add up) against what its work costs
    // uncontended (probes); the rest is coordination.
    let mut lines = Vec::new();
    if let Some(pooled) = &b.pooled {
        let parts = pooled.parts_us;
        let seen: f64 = parts.iter().sum();
        // The traced spans must explain the latency the untraced phase
        // measured.
        let untraced_p50 = e2e
            .iter()
            .find(|v| v.name == "txn_p50_us")
            .map_or(0.0, |v| v.value);
        l.put("budget.spans_us", seen);
        l.put("budget.coverage", ratio(seen, untraced_p50));
        let [deltas, reads, notes] = pooled.mix;
        let core_us = core.begin_us
            + core.commit_us
            + (deltas + notes) * core.insert_us
            + (reads + notes) * core.query_us;
        l.put(
            "server.overhead_us_per_txn",
            parts[..span::PARTS - 1].iter().sum::<f64>() - core_us,
        );
        let wire_us = frames_per_txn * (enc + dec) / 1e3;
        let admit_us = l.get("admission.admit_ns") / 1e3;
        let wal_us = l.get("wal.append_ns_per_commit") / 1e3
            + ratio(l.get("wal.fsync_us_mean"), l.get("wal.commits_per_fsync"));
        let service = parts[span::PARTS - 1] + wire_us + admit_us + core_us + wal_us;
        let coordination = (seen - service).max(0.0);
        l.put("budget.coordination_share", ratio(coordination, seen));

        lines.push(format!(
            "per-transaction budget of {} (traced run, µs); coverage = the median transaction ÷ untraced txn_p50_us",
            workload.name()
        ));
        let total: usize = b.kinds.iter().map(|(_, k)| k.n).sum();
        for (kind, k) in &b.kinds {
            let [begin, insert, query, remove, commit, own] = k.parts_us;
            lines.push(format!(
                "  {kind:<6} {:>5.1}% n={:<7} p50 {:>8.1} = begin {begin:.1} + insert {insert:.1} + query {query:.1} + remove {remove:.1} + commit {commit:.1} + client self {own:.1}",
                100.0 * k.n as f64 / total as f64,
                k.n,
                k.p50_us
            ));
        }
        lines.push(format!(
            "  the median transaction      {seen:>8.1}  (all kinds pooled: {:.0}% delta, {:.0}% read, {:.0}% note)",
            100.0 * deltas,
            100.0 * reads,
            100.0 * notes
        ));
        lines.push(format!(
            "  − client self time          {:>8.1}",
            parts[span::PARTS - 1]
        ));
        lines.push(format!("  − server.wire service       {wire_us:>8.1}  ({frames_per_txn:.1} frames × (encode + decode))"));
        lines.push(format!("  − server.admission service  {admit_us:>8.1}"));
        lines.push(format!(
            "  − core.session service      {core_us:>8.1}  (begin {:.1}, insert {:.1}, query {:.1}, commit {:.1}; one thread, no server, no WAL)",
            core.begin_us, core.insert_us, core.query_us, core.commit_us
        ));
        lines.push(format!(
            "  − wm.wal service            {wal_us:>8.1}  (append + mean fsync ÷ commits per fsync)"
        ));
        lines.push(format!(
            "  = coordination              {coordination:>8.1}  ({:.1}%: hand-offs, lock waits, base-mutex waits, group-commit waits)",
            100.0 * ratio(coordination, seen)
        ));
    } else {
        failures.push("traced: too few transactions for a budget".into());
    }

    for v in e2e {
        if let Some(spec) = LAYERS
            .iter()
            .find(|s| s.name.strip_prefix("e2e.") == Some(v.name))
        {
            l.put_n(spec.name, v.value, v.n);
        }
    }

    (l.finish(), lines)
}
