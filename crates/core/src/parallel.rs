//! The dynamic approach (§4.2–4.3): multiple execution threads running
//! production RHSs as transactions under a lock protocol.
//!
//! Architecture (one instance of the paper's Figure 4.1/4.2 pipeline per
//! worker thread):
//!
//! 1. **claim** — pick an unclaimed, unrefracted instantiation from the
//!    shared conflict set;
//! 2. **condition locks** — acquire `Rc` (or `S`) locks on the matched
//!    WMEs, plus *relation-level* `Rc` locks for negated condition
//!    elements (the paper's escalation for negative dependence), then
//!    re-validate the claim under those locks;
//! 3. **execute** — simulate the RHS work (configurable per-rule
//!    duration), polling for dooms so an invalidated production stops
//!    early;
//! 4. **action locks** — acquire `Ra`/`Wa` (or `S`/`X`) locks for the
//!    buffered effects;
//! 5. **commit** — atomically: lock-manager commit (which applies the
//!    `Rc`–`Wa` rule of Figure 4.3), apply the delta to working memory,
//!    drive the matcher, append to the trace. Under
//!    [`ConflictPolicy::Revalidate`] the engine re-checks each affected
//!    reader's instantiation against the new conflict set and dooms only
//!    those actually invalidated — the paper's cheaper-abort alternative.
//!
//! ## MVCC condition reads
//!
//! Under [`ConflictPolicy::MvccSnapshot`] phase 2 changes shape
//! entirely: the condition read set takes **no locks**. Claim
//! validation instead pins a *snapshot* — the newest fully published
//! commit sequence — and validates the matched WMEs against the
//! pipeline's versioned store ([`dps_wm::VersionedStore`], fed by the
//! same delta log that drives the match shards). Because a production's
//! RHS only ever reads its own instantiation (bindings + matched WMEs,
//! never live WM), nothing after validation depends on current state,
//! so a committing writer has nobody to doom: the Figure 4.3 commit
//! rule degenerates to a no-op and *reader aborts vanish structurally*.
//! The price is paid at commit: under the base mutex the committer
//! re-validates its own read set (latest versions still carry the
//! matched timestamps; no negated class written past the snapshot —
//! with an exact conflict-set membership fallback), aborting itself
//! with [`AbortStats::snapshot_stale`] on genuine overlap. Validity at
//! the commit point is exactly what the §3 serial-replay oracle needs,
//! so MVCC traces replay unchanged; the recorded snapshot-pin /
//! version-read / version-write events additionally feed the SI &
//! serializability polygraph checker in `dps-obs`.
//!
//! ## Shared-state decomposition
//!
//! The engine's mutable state was formerly one `Mutex<Shared>`, then a
//! `Mutex<World>` (WM + one monolithic matcher) beside the scheduler's
//! ledger — every claim scan and every commit still serialised on the
//! single matcher. The matcher is now the **sharded match pipeline**
//! ([`crate::pipeline`]):
//!
//! * **`WmBase`** (`Mutex`) — the authoritative WM + commit sequence
//!   counter; the commit critical section shrinks to lock-manager
//!   commit + WM delta apply + publishing the change batch;
//! * **match shards** (one `Mutex` each) — per-component Rete networks
//!   with their own conflict-set slice and refraction slice, caught up
//!   from the sequence-numbered delta log by committers fanning out and
//!   by idle claim scans stealing pending shard×batch work;
//! * **`Ledger`** (`Mutex` + `Condvar`) — claims, engine dooms,
//!   in-flight count and termination flags; the scheduler's state.
//!   Doom-polling during simulated RHS work touches *only* this (and
//!   the lock manager), never any matcher;
//! * **`Metrics`** (atomics) + **trace** (`Mutex<Trace>`) — counters and
//!   the commit log.
//!
//! Lock order: base → shard → log → ledger → trace (any subsequence is
//! fine; never in reverse). The condvar is tied to the ledger; waiters
//! hold nothing else while sleeping.
//!
//! Every committed sequence is recorded as a [`Trace`];
//! [`crate::semantics::validate_trace`] checks it against `ES_single`
//! (Definition 3.2) — the property the paper proves as Theorem 2 (and
//! extends to the improved scheme in §4.3).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

use dps_lock::{
    res_key, ConflictPolicy, FaultInjector, FaultPlan, FaultStats, LockManager, LockMode, Protocol,
    ResourceId, TxnId, WalKillSite,
};
use dps_match::{InstKey, Instantiation, Matcher, DEFAULT_MATCH_SHARDS};
use dps_obs::{
    EventKind as ObsEvent, FanoutStats, Phase, Recorder, Telemetry, TelemetryConfig, TickHist,
};
use dps_rules::{instantiate_actions, RuleSet};
use dps_wm::wal::KillMode;
use dps_wm::{Atom, DurableWm, WalError, WalStats, WorkingMemory};

use crate::governor::{Governor, GovernorConfig, GovernorStats};
use crate::pipeline::MatchPipeline;
use crate::{Firing, Footprint, Trace};

/// Simulated per-production RHS duration — stands in for the "full-
/// fledged database query" the paper expects an RHS to be.
#[derive(Clone, Debug, Default)]
pub enum WorkModel {
    /// RHS costs nothing beyond its real computation.
    #[default]
    None,
    /// Every rule *sleeps* for this many microseconds: models an
    /// I/O-bound RHS that occupies the worker but not a processor.
    FixedMicros(u64),
    /// Per-rule durations (microseconds); absent rules cost nothing.
    PerRuleMicros(HashMap<Atom, u64>),
    /// Every rule *spins* for this many microseconds: models the
    /// paper's CPU-bound "full-fledged database query". Unlike the
    /// sleeping models, aborted work under this model genuinely
    /// consumed a processor — on an oversubscribed machine the §5
    /// wasted-work fraction `f` is paid in wall-clock, which is what
    /// makes doom storms expensive and the retry governor measurable.
    BusyMicros(u64),
}

impl WorkModel {
    fn duration(&self, rule: &Atom) -> Duration {
        match self {
            WorkModel::None => Duration::ZERO,
            WorkModel::FixedMicros(us) | WorkModel::BusyMicros(us) => Duration::from_micros(*us),
            WorkModel::PerRuleMicros(m) => Duration::from_micros(m.get(rule).copied().unwrap_or(0)),
        }
    }

    /// `true` when simulated work occupies a processor (spin) rather
    /// than just the worker (sleep).
    fn is_busy(&self) -> bool {
        matches!(self, WorkModel::BusyMicros(_))
    }
}

/// Burns exactly `n` iterations of real processor work. The body is a
/// data-dependent LCG the optimiser cannot elide (the accumulator is
/// black-boxed), so `n` iterations cost the same cycle count whether
/// or not the thread gets descheduled halfway through.
fn spin_iters(n: u64) {
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..n {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
        std::hint::spin_loop();
    }
    std::hint::black_box(acc);
}

/// Spin iterations per microsecond, calibrated once per process.
///
/// [`WorkModel::BusyMicros`] must burn *iterations*, not elapsed time:
/// an elapsed-based spin lets a descheduled worker make "progress" by
/// the wall clock, which on an oversubscribed machine silently turns
/// CPU-bound work back into free work — and with it, the wasted-work
/// fraction `f` of §5 back into a no-op.
fn spin_iters_per_us() -> u64 {
    static CAL: OnceLock<u64> = OnceLock::new();
    *CAL.get_or_init(|| {
        spin_iters(50_000); // warm-up
        const N: u64 = 2_000_000;
        let t0 = Instant::now();
        spin_iters(N);
        let us = t0.elapsed().as_micros().max(1) as u64;
        (N / us).max(1)
    })
}

/// Configuration of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Lock protocol: 2PL baseline or the improved `Rc`/`Ra`/`Wa`.
    pub protocol: Protocol,
    /// Commit-time `Rc`–`Wa` policy (only meaningful for `RcRaWa`).
    pub policy: ConflictPolicy,
    /// Worker threads (`N_p`).
    pub workers: usize,
    /// Simulated RHS cost.
    pub work: WorkModel,
    /// Commit cap (guards non-terminating systems).
    pub max_commits: usize,
    /// `R_c` lock escalation (§4.3: "the `R_c` locks can be escalated
    /// for performance reasons. In the extreme case, a `R_c` lock may
    /// lock an entire relation"). `Some(t)`: when an instantiation
    /// matched more than `t` tuples of one class, lock the whole
    /// relation instead of the tuples (`Some(0)` = always escalate);
    /// `None`: never escalate. Escalation trades lock-manager traffic
    /// for *false conflicts* — quantified by experiment X7.
    pub rc_escalation: Option<usize>,
    /// Stripe count of the engine's lock table. The default
    /// ([`dps_lock::DEFAULT_SHARDS`]) spreads lock traffic over
    /// independent mutexes; `1` collapses to a single-mutex (centralised)
    /// table — the pre-sharding layout, kept as a knob so the scaling
    /// sweep can measure exactly what the striping buys.
    pub lock_shards: usize,
    /// Lock-wait timeout forwarded to the lock manager (`None`:
    /// deadlock detection alone handles stuck waits). Timed-out
    /// attempts abort with [`AbortStats::timeout`].
    pub lock_timeout: Option<Duration>,
    /// Observability: when `true` the engine attaches a
    /// [`dps_obs::Recorder`] and emits the full transaction-lifecycle
    /// event stream, phase latency histograms and per-rule tables
    /// (retrieve via [`ParallelEngine::observer`]). When `false` every
    /// instrumentation site costs one branch on a `None`.
    pub observe: bool,
    /// Chaos: a seeded [`FaultPlan`] threaded through the lock manager
    /// and the engine's RHS loop (see [`dps_lock::fault`]). `None` (the
    /// default) keeps every injection seam a single branch on a `None`
    /// — zero-cost when disabled.
    pub fault: Option<FaultPlan>,
    /// Adaptive retry governor (see [`crate::governor`]): bounded
    /// backoff on contention aborts, doom-storm detection with
    /// per-resource escalation to pessimistic 2PL modes, and a serial
    /// fallback past the starvation bound. `None` disables it.
    pub governor: Option<GovernorConfig>,
    /// Match shards: the rule partition's class-connected components
    /// are folded onto at most this many independently-locked Rete
    /// networks (clamped to the component count; `1` collapses to the
    /// monolithic pre-pipeline layout — the recovery knob `matchbench`
    /// measures). See [`crate::pipeline`].
    pub match_shards: usize,
    /// Durability: when set, every commit's change batch is staged
    /// into a file-backed group-commit WAL under the base mutex and
    /// fsynced (piggybacked) before the worker moves on, with periodic
    /// checkpoint snapshots; [`dps_wm::recover`] +
    /// [`ParallelEngine::resume`] rebuild and continue after a crash.
    /// `None` (the default) keeps the commit path free of any
    /// durability cost — one branch on a `None`, like `observe` and
    /// `fault`.
    pub durability: Option<DurabilityConfig>,
    /// Live telemetry: when set, the engine registers atomic probes for
    /// every subsystem (commit/abort rates, lock waits, delta-log
    /// depth, WAL backlog, governor state) on a
    /// [`dps_obs::Telemetry`] registry and runs its background sampler
    /// for the duration of [`ParallelEngine::run`] (retrieve via
    /// [`ParallelEngine::telemetry`]). Same zero-cost seam as
    /// `observe`: the hot path pays nothing — probes read the same
    /// atomics the end-of-run report reads; only the sampler thread
    /// works.
    pub telemetry: Option<TelemetryConfig>,
    /// Cooperative stop flag for graceful drain: when the flag flips to
    /// `true` (a signal handler, a server shutdown, a watchdog) workers
    /// stop claiming new work, finish their in-flight commits, and
    /// [`ParallelEngine::run`] exits through the normal quiescence path
    /// — final WAL flush, telemetry stop — so an interrupted run never
    /// leaves a torn WAL tail. `None` (the default) costs one branch.
    pub stop: Option<Arc<AtomicBool>>,
    /// Service mode: at quiescence, workers *park* on the engine
    /// condvar instead of terminating, waiting for external session
    /// commits ([`ParallelEngine::external_commit`]) to feed new WM
    /// changes — the multi-session server's front-door mode. The run
    /// then only ends via [`ParallelEngine::request_stop`] (or the
    /// [`ParallelConfig::stop`] flag, or halt / the commit cap).
    pub service: bool,
    /// Coordination avoidance (Bailis et al.): when `true`, a claimed
    /// firing of a rule the shard planner proved commutative with every
    /// rule that can run concurrently (`ShardPlan::elidable` — the
    /// static commute matrix over its class-connected component) skips
    /// `LockManager` acquisition for **all** of its resources and
    /// commits through the `ElidedCommit` protocol instead: snapshot
    /// pinned at claim, per-matched-WME version check at claim, and
    /// commit-time self-validation under the base mutex (the PR 6
    /// backward-OCC skeleton), aborting with
    /// [`AbortStats::elision_stale`] on the rare conflict. Rules the
    /// matrix could not prove — and every rule sharing their component
    /// — keep the full §4 protocol, so lock-holding and lock-skipping
    /// firings never meet on a resource.
    pub elide_locks: bool,
    /// Falsifiability knob (gates and tests only — never production):
    /// treats *every* rule as provably-commutative and **bypasses** the
    /// elided commit-time validation. With a genuinely non-commutative
    /// pair this manufactures a lost update, which the §3 serial-replay
    /// oracle must reject — proving the gate can fail. Meaningful only
    /// with [`ParallelConfig::elide_locks`]; commit-time validation
    /// alone would keep even a misclassified run correct, which is why
    /// the probe must switch it off to expose the misclassification.
    pub elide_misclassify: bool,
}

/// Configuration of the durability layer ([`ParallelConfig::durability`]).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the checkpoints and WAL segments.
    pub dir: std::path::PathBuf,
    /// Take a checkpoint (snapshot + log rotation + prune) every this
    /// many commits. `0` = never checkpoint (one segment grows
    /// forever); useful for tests that want the whole log.
    pub checkpoint_interval: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default checkpoint cadence.
    pub fn at(dir: impl Into<std::path::PathBuf>) -> Self {
        DurabilityConfig { dir: dir.into(), checkpoint_interval: 4096 }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            protocol: Protocol::RcRaWa,
            policy: ConflictPolicy::AbortReaders,
            workers: 4,
            work: WorkModel::None,
            max_commits: 100_000,
            rc_escalation: None,
            lock_shards: dps_lock::DEFAULT_SHARDS,
            lock_timeout: None,
            observe: false,
            fault: None,
            governor: None,
            match_shards: DEFAULT_MATCH_SHARDS,
            durability: None,
            telemetry: None,
            stop: None,
            service: false,
            elide_locks: false,
            elide_misclassify: false,
        }
    }
}

/// Abort counters, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbortStats {
    /// Doomed by a committing writer (Figure 4.3(b)).
    pub doomed: u64,
    /// Deadlock victims.
    pub deadlock: u64,
    /// Claim invalidated before/while acquiring condition locks.
    ///
    /// Historical note: this counter used to also absorb RHS evaluation
    /// errors; those now have their own [`AbortStats::eval_error`]
    /// counter, so `stale` means exactly what its name says.
    pub stale: u64,
    /// Revalidation failed (policy `Revalidate`).
    pub revalidation: u64,
    /// RHS evaluation failed (e.g. division by zero); the
    /// instantiation is refracted so it is never retried.
    pub eval_error: u64,
    /// A lock wait exceeded [`ParallelConfig::lock_timeout`].
    pub timeout: u64,
    /// Force-aborted by the chaos fault injector
    /// ([`ParallelConfig::fault`]). Always zero outside fault-injected
    /// runs — injected failures never masquerade as organic causes.
    pub injected: u64,
    /// Commit-time snapshot validation failed
    /// ([`ConflictPolicy::MvccSnapshot`] only): a concurrent commit
    /// overwrote this transaction's read set between its pinned
    /// snapshot and its commit point. The MVCC analogue of a write
    /// conflict — *not* a reader abort (no committing writer ever dooms
    /// an MVCC reader), and deliberately distinct from
    /// [`AbortStats::stale`] (pre-execution claim invalidation) so
    /// legacy reader aborts can never be silently folded into it.
    pub snapshot_stale: u64,
    /// Elided commit-time validation failed
    /// ([`ParallelConfig::elide_locks`] only): a lock-skipping firing
    /// of a provably-commutative rule found a matched tuple changed
    /// between claim and commit (e.g. two rules bumping the same cell —
    /// deltas are materialised to absolute values at RHS evaluation, so
    /// a stale apply would be a lost update). Structurally the same
    /// check as [`AbortStats::snapshot_stale`], counted separately so
    /// elision A/B comparisons cannot fold the two together.
    pub elision_stale: u64,
}

impl AbortStats {
    /// Total aborts (sum over every cause counter).
    pub fn total(&self) -> u64 {
        self.doomed
            + self.deadlock
            + self.stale
            + self.revalidation
            + self.eval_error
            + self.timeout
            + self.injected
            + self.snapshot_stale
            + self.elision_stale
    }

    /// Aborts of *condition readers* — productions killed because of
    /// what they read, not what they wrote: Figure 4.3(b) dooms plus
    /// engine-level revalidation failures. The counters the MVCC read
    /// path is designed to drive to zero.
    pub fn reader_aborts(&self) -> u64 {
        self.doomed + self.revalidation
    }
}

/// Result of [`ParallelEngine::run`].
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// Productions committed.
    pub commits: usize,
    /// Aborts by cause.
    pub aborts: AbortStats,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Simulated work thrown away by aborts (the §5 `f` factor's
    /// numerator).
    pub wasted_work: Duration,
    /// The commit sequence.
    pub trace: Trace,
    /// `true` if a `halt` action ended the run.
    pub halted: bool,
    /// Aggregate lock-manager statistics for the run.
    pub lock_stats: dps_lock::LockStats,
    /// Injection counters, when a [`ParallelConfig::fault`] plan was
    /// attached.
    pub fault_stats: Option<FaultStats>,
    /// Governor counters, when a [`ParallelConfig::governor`] was
    /// attached.
    pub governor: Option<GovernorStats>,
    /// Sharded-match fan-out tallies (batches published, shard×batch
    /// applies, free epoch advances, stolen catch-ups; maintained with
    /// or without [`ParallelConfig::observe`]).
    pub fanout: FanoutStats,
    /// WAL counters, when [`ParallelConfig::durability`] was attached
    /// (appends/fsyncs/piggybacks — the group-commit evidence).
    pub wal: Option<WalStats>,
}

/// Scheduler state: who has claimed what, who is doomed at engine
/// level, and the run's termination flags. The engine condvar is tied
/// to this mutex. (Refraction lives on the match shards — it is a
/// per-shard slice now, not global scheduler state.)
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    claimed: HashSet<InstKey>,
    pub(crate) claims_by_txn: HashMap<TxnId, InstKey>,
    /// Readers doomed by engine-level revalidation.
    pub(crate) engine_doomed: HashSet<TxnId>,
    pub(crate) inflight: usize,
    halted: bool,
    pub(crate) done: bool,
}

/// Run counters, updated lock-free.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    commits: AtomicUsize,
    doomed: AtomicU64,
    deadlock: AtomicU64,
    stale: AtomicU64,
    revalidation: AtomicU64,
    eval_error: AtomicU64,
    timeout: AtomicU64,
    injected: AtomicU64,
    snapshot_stale: AtomicU64,
    elision_stale: AtomicU64,
    wasted_nanos: AtomicU64,
}

impl Metrics {
    fn abort_stats(&self) -> AbortStats {
        AbortStats {
            doomed: self.doomed.load(Relaxed),
            deadlock: self.deadlock.load(Relaxed),
            stale: self.stale.load(Relaxed),
            revalidation: self.revalidation.load(Relaxed),
            eval_error: self.eval_error.load(Relaxed),
            timeout: self.timeout.load(Relaxed),
            injected: self.injected.load(Relaxed),
            snapshot_stale: self.snapshot_stale.load(Relaxed),
            elision_stale: self.elision_stale.load(Relaxed),
        }
    }

    pub(crate) fn count_abort(&self, cause: &AbortCause) {
        match cause {
            AbortCause::Doomed => self.doomed.fetch_add(1, Relaxed),
            AbortCause::Deadlock => self.deadlock.fetch_add(1, Relaxed),
            AbortCause::Stale => self.stale.fetch_add(1, Relaxed),
            AbortCause::Revalidation => self.revalidation.fetch_add(1, Relaxed),
            AbortCause::EvalError => self.eval_error.fetch_add(1, Relaxed),
            AbortCause::Timeout => self.timeout.fetch_add(1, Relaxed),
            AbortCause::Injected => self.injected.fetch_add(1, Relaxed),
            AbortCause::SnapshotStale => self.snapshot_stale.fetch_add(1, Relaxed),
            AbortCause::ElisionStale => self.elision_stale.fetch_add(1, Relaxed),
        };
    }
}

/// The dynamic-approach parallel engine. See the module docs.
///
/// Field visibility: `pub(crate)` where the external-session layer
/// ([`crate::session`]) shares the commit machinery.
pub struct ParallelEngine {
    rules: RuleSet,
    pub(crate) config: ParallelConfig,
    /// Class → relation-resource id mapping. Seeded at build with every
    /// class any rule mentions; external session inserts may introduce
    /// *new* classes at run time, so the map allocates ids on demand
    /// behind an `RwLock` (reads stay a shared lock on the hot path).
    class_ids: RwLock<HashMap<Atom, u32>>,
    /// Piece (b): the authoritative WM (commit critical section) plus
    /// the per-shard match networks and the delta log between them.
    /// `Arc`'d (like `metrics`, `lm` and the governor) so telemetry
    /// probes — `'static` closures on the sampler thread — can read
    /// its atomics after borrowing rules forbid a plain reference.
    pub(crate) pipeline: Arc<MatchPipeline>,
    /// Piece (a): claims + termination; condvar lives here.
    pub(crate) ledger: Mutex<Ledger>,
    pub(crate) cv: Condvar,
    /// Piece (c): commit log and counters.
    pub(crate) trace: Mutex<Trace>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) lm: Arc<LockManager>,
    /// Observability sink ([`ParallelConfig::observe`]); shared with the
    /// lock manager. `None` ⇒ every instrumentation site is one branch.
    pub(crate) obs: Option<Arc<Recorder>>,
    /// Chaos injector ([`ParallelConfig::fault`]); shared with the lock
    /// manager. `None` ⇒ every seam is one branch.
    pub(crate) injector: Option<Arc<FaultInjector>>,
    /// Adaptive retry governor ([`ParallelConfig::governor`]).
    governor: Option<Arc<Governor>>,
    /// Durability layer ([`ParallelConfig::durability`]): checkpoint +
    /// group-commit WAL. `None` ⇒ the commit path pays one branch.
    pub(crate) durable: Option<Arc<DurableWm>>,
    /// Live-telemetry registry + sampler ([`ParallelConfig::telemetry`]).
    telemetry: Option<Arc<Telemetry>>,
    /// Internal stop latch ([`ParallelEngine::request_stop`]); OR'd with
    /// the external [`ParallelConfig::stop`] flag in [`Self::capped`].
    stop: AtomicBool,
    /// External session commits threaded through the engine (kept out
    /// of [`Metrics::commits`], which counts rule firings and gates the
    /// commit cap).
    pub(crate) external_commits: AtomicU64,
}

enum WorkerStep {
    Worked,
    Finished,
}

impl ParallelEngine {
    /// Creates the engine over an initial working memory.
    pub fn new(rules: &RuleSet, wm: WorkingMemory, config: ParallelConfig) -> Self {
        Self::build(rules, wm, 0, config)
    }

    /// Creates the engine over a **recovered** working memory, resuming
    /// the commit sequence at `last_seq + 1` (see [`dps_wm::recover`]).
    /// With [`ParallelConfig::durability`] set, a fresh checkpoint is
    /// cut at `last_seq` so the new log suffix starts clean (this also
    /// retires any torn tail left by the crash).
    pub fn resume(
        rules: &RuleSet,
        wm: WorkingMemory,
        last_seq: u64,
        config: ParallelConfig,
    ) -> Self {
        Self::build(rules, wm, last_seq, config)
    }

    fn build(rules: &RuleSet, wm: WorkingMemory, base_seq: u64, config: ParallelConfig) -> Self {
        // The durability layer snapshots `wm` before the pipeline takes
        // ownership of it (checkpoint-at-base: recovery never needs log
        // records older than `base_seq`).
        let durable = config.durability.as_ref().map(|d| {
            Arc::new(
                DurableWm::create(&d.dir, &wm, base_seq)
                    .expect("durability dir initialises"),
            )
        });
        // Only MVCC snapshots and elided firings ever read a version.
        let versioned =
            matches!(config.policy, ConflictPolicy::MvccSnapshot) || config.elide_locks;
        let pipeline =
            MatchPipeline::new_at(rules, wm, config.match_shards, base_seq, versioned);
        let mut class_ids = HashMap::new();
        for (_, rule) in rules.iter() {
            for cond in &rule.conditions {
                let next = class_ids.len() as u32;
                class_ids.entry(cond.ce().class.clone()).or_insert(next);
            }
            for action in &rule.actions {
                if let dps_rules::Action::Make { class, .. } = action {
                    let next = class_ids.len() as u32;
                    class_ids.entry(class.clone()).or_insert(next);
                }
            }
        }
        let obs = config.observe.then(|| Arc::new(Recorder::default()));
        if let Some(obs) = &obs {
            obs.set_match_shards(pipeline.shards() as u64);
        }
        let injector = config
            .fault
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let governor = config
            .governor
            .clone()
            .map(|cfg| Arc::new(Governor::new(cfg)));
        let pipeline = Arc::new(pipeline);
        let metrics = Arc::new(Metrics::default());
        let telemetry = config.telemetry.clone().map(|t| Arc::new(Telemetry::new(t)));
        let wait_hist = telemetry.as_ref().map(|_| Arc::new(TickHist::default()));
        let lm = Arc::new(
            LockManager::builder()
                .policy(config.policy)
                .shards(config.lock_shards)
                .timeout(config.lock_timeout)
                .obs(obs.clone())
                .fault(injector.clone())
                .wait_hist(wait_hist.clone())
                .build(),
        );
        if let Some(tel) = &telemetry {
            Self::register_probes(
                tel,
                &metrics,
                &lm,
                &pipeline,
                governor.as_ref(),
                durable.as_ref(),
                wait_hist,
            );
        }
        ParallelEngine {
            rules: rules.clone(),
            class_ids: RwLock::new(class_ids),
            lm,
            config,
            pipeline,
            ledger: Mutex::new(Ledger::default()),
            cv: Condvar::new(),
            trace: Mutex::new(Trace::default()),
            metrics,
            obs,
            injector,
            governor,
            durable,
            telemetry,
            stop: AtomicBool::new(false),
            external_commits: AtomicU64::new(0),
        }
    }

    /// Registers every engine series on the telemetry registry. Each
    /// probe is a lock-free read over `Arc`'d atomics — the same cells
    /// the end-of-run [`ParallelReport`] reads, which is what makes
    /// tick-integrated totals reconcile exactly with the event-ring
    /// aggregates. No probe ever takes an engine lock (see the
    /// lock-order note in [`dps_obs::timeline`]).
    // The `[(&str, fn(..) -> u64); N]` annotations are what coerce the
    // per-series closures to plain fn pointers so each loop body stays
    // monomorphic; aliasing them per component would obscure, not help.
    #[allow(clippy::type_complexity)]
    fn register_probes(
        tel: &Arc<Telemetry>,
        metrics: &Arc<Metrics>,
        lm: &Arc<LockManager>,
        pipeline: &Arc<MatchPipeline>,
        governor: Option<&Arc<Governor>>,
        durable: Option<&Arc<DurableWm>>,
        wait_hist: Option<Arc<TickHist>>,
    ) {
        // Engine: commit + abort-by-cause counters (per-tick first
        // differences are the rates) and wasted work.
        let m = Arc::clone(metrics);
        tel.counter("engine.commits", move || m.commits.load(Relaxed) as u64);
        let causes: [(&str, fn(&Metrics) -> u64); 10] = [
            ("engine.aborts.doomed", |m| m.doomed.load(Relaxed)),
            ("engine.aborts.deadlock", |m| m.deadlock.load(Relaxed)),
            ("engine.aborts.stale", |m| m.stale.load(Relaxed)),
            ("engine.aborts.revalidation", |m| m.revalidation.load(Relaxed)),
            ("engine.aborts.eval_error", |m| m.eval_error.load(Relaxed)),
            ("engine.aborts.timeout", |m| m.timeout.load(Relaxed)),
            ("engine.aborts.injected", |m| m.injected.load(Relaxed)),
            ("engine.aborts.snapshot_stale", |m| {
                m.snapshot_stale.load(Relaxed)
            }),
            ("engine.aborts.elision_stale", |m| {
                m.elision_stale.load(Relaxed)
            }),
            ("engine.wasted_ns", |m| m.wasted_nanos.load(Relaxed)),
        ];
        for (name, read) in causes {
            let m = Arc::clone(metrics);
            tel.counter(name, move || read(&m));
        }
        // Lock manager: counter snapshot is pure atomic loads; the wait
        // histogram drains into lock.wait.{count,p50_ns,p99_ns,max_ns}.
        let stats: [(&str, fn(dps_lock::LockStats) -> u64); 5] = [
            ("lock.grants", |s| s.grants),
            ("lock.blocks", |s| s.blocks),
            ("lock.dooms", |s| s.dooms),
            ("lock.deadlocks", |s| s.deadlocks),
            ("lock.elided", |s| s.elided),
        ];
        for (name, read) in stats {
            let l = Arc::clone(lm);
            tel.counter(name, move || read(l.stats()));
        }
        if let Some(hist) = wait_hist {
            tel.hist("lock.wait", hist);
        }
        // Match pipeline: fan-out counters plus the backlog gauges.
        let fanout: [(&str, fn(FanoutStats) -> u64); 4] = [
            ("pipeline.batches", |s| s.batches),
            ("pipeline.applies", |s| s.applies),
            ("pipeline.free_advances", |s| s.free_advances),
            ("pipeline.steals", |s| s.steals),
        ];
        for (name, read) in fanout {
            let p = Arc::clone(pipeline);
            tel.counter(name, move || read(p.fanout_stats()));
        }
        let gauges: [(&str, fn(&MatchPipeline) -> u64); 6] = [
            ("pipeline.log_depth", MatchPipeline::log_depth),
            ("pipeline.cursor_lag", MatchPipeline::max_cursor_lag),
            ("pipeline.version_records", MatchPipeline::version_records),
            ("pipeline.gc_floor_lag", MatchPipeline::gc_floor_lag),
            ("pipeline.snapshot_pins", MatchPipeline::pin_count),
            ("pipeline.pin_lag", MatchPipeline::oldest_pin_lag),
        ];
        for (name, read) in gauges {
            let p = Arc::clone(pipeline);
            tel.gauge(name, move || read(&p));
        }
        // Governor: cumulative transitions plus the current regime.
        if let Some(g) = governor {
            let counters: [(&str, fn((u64, u64, u64, u64)) -> u64); 4] = [
                ("governor.escalations", |c| c.0),
                ("governor.serializations", |c| c.1),
                ("governor.deescalations", |c| c.2),
                ("governor.backoffs", |c| c.3),
            ];
            for (name, read) in counters {
                let g = Arc::clone(g);
                tel.counter(name, move || read(g.counters()));
            }
            let gauges: [(&str, fn(&Governor) -> u64); 3] = [
                ("governor.escalated_now", Governor::escalated_now),
                ("governor.serialized_now", Governor::serialized_now),
                ("governor.backoff_us", Governor::last_backoff_us),
            ];
            for (name, read) in gauges {
                let g = Arc::clone(g);
                tel.gauge(name, move || read(&g));
            }
        }
        // WAL: group-commit evidence (pending backlog, fsync count +
        // cumulative latency, piggyback numerator/denominator).
        if let Some(d) = durable {
            let counters: [(&str, fn(WalStats) -> u64); 5] = [
                ("wal.appends", |s| s.appends),
                ("wal.fsyncs", |s| s.fsyncs),
                ("wal.synced_records", |s| s.synced_records),
                ("wal.piggybacked", |s| s.piggybacked),
                ("wal.checkpoints", |s| s.checkpoints),
            ];
            for (name, read) in counters {
                let d = Arc::clone(d);
                tel.counter(name, move || read(d.writer().stats()));
            }
            let d2 = Arc::clone(d);
            tel.counter("wal.fsync_ns", move || d2.writer().fsync_nanos());
            let d3 = Arc::clone(d);
            tel.gauge("wal.pending_bytes", move || d3.writer().pending_bytes());
        }
    }

    /// The observability recorder, when [`ParallelConfig::observe`] is
    /// set (shared with the engine's lock manager). Snapshot it with
    /// [`Recorder::report`] or merge its event rings with
    /// [`Recorder::history`].
    pub fn observer(&self) -> Option<&Arc<Recorder>> {
        self.obs.as_ref()
    }

    pub(crate) fn relation_resource(&self, class: &Atom) -> ResourceId {
        if let Some(id) = self.class_ids.read().unwrap().get(class) {
            return ResourceId::Relation(*id);
        }
        // New class (an external session insert): allocate an id on
        // demand. `entry` re-checks under the write lock, so two racing
        // allocators agree.
        let mut map = self.class_ids.write().unwrap();
        let next = map.len() as u32;
        ResourceId::Relation(*map.entry(class.clone()).or_insert(next))
    }

    /// Runs the system to quiescence with `config.workers` threads.
    pub fn run(&mut self) -> ParallelReport {
        self.run_shared()
    }

    /// [`Self::run`] through a shared reference, for callers that keep
    /// using the engine concurrently while it runs — the server holds
    /// `&self` on its session-handler threads (external transactions)
    /// while one scoped thread sits in `run_shared`. Not re-entrant:
    /// one run at a time.
    pub fn run_shared(&self) -> ParallelReport {
        let start = Instant::now();
        if let Some(tel) = &self.telemetry {
            tel.start();
        }
        let workers = self.config.workers.max(1);
        std::thread::scope(|scope| {
            for idx in 0..workers {
                scope.spawn(move || self.worker_loop(idx));
            }
        });
        // Quiescence flush: the baton flusher only guarantees eventual
        // durability while commits keep arriving; make the final tail
        // durable here so a clean shutdown recovers completely.
        if let Some(durable) = &self.durable {
            if !durable.writer().is_dead() {
                let _ = durable.writer().flush();
            }
        }
        // Stop the sampler after the flush: its forced final sample
        // anchors every counter series at the run total, which is the
        // reconciliation invariant the cross-validation tests check.
        if let Some(tel) = &self.telemetry {
            tel.stop();
        }
        // Leak audit: a drained run holds nothing. Every lock-release
        // and pin-release path is a drop-guard precisely so these hold
        // even through panicking RHSs and severed sessions (external
        // transactions are resolved by the server before it stops the
        // engine).
        debug_assert_eq!(self.pipeline.pin_count(), 0, "snapshot pins leaked");
        debug_assert_eq!(self.lm.held_locks(), 0, "locks leaked past drain");
        let wall = start.elapsed();
        let halted = self.ledger.lock().unwrap().halted;
        ParallelReport {
            commits: self.metrics.commits.load(Relaxed),
            aborts: self.metrics.abort_stats(),
            wall,
            wasted_work: Duration::from_nanos(self.metrics.wasted_nanos.load(Relaxed)),
            trace: self.trace.lock().unwrap().clone(),
            halted,
            lock_stats: self.lm.stats(),
            fault_stats: self.injector.as_ref().map(|inj| inj.stats()),
            governor: self.governor.as_ref().map(|g| g.stats()),
            fanout: self.pipeline.fanout_stats(),
            wal: self.durable.as_ref().map(|d| d.writer().stats()),
        }
    }

    /// The durability layer, when [`ParallelConfig::durability`] is set
    /// (checkpoint directory + group-commit WAL writer).
    pub fn durable(&self) -> Option<&Arc<DurableWm>> {
        self.durable.as_ref()
    }

    /// The live-telemetry registry, when [`ParallelConfig::telemetry`]
    /// is set. After [`ParallelEngine::run`] the sampler has stopped
    /// and [`Telemetry::doc`] yields the run's `dps-timeline-v1`
    /// document.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// A snapshot of the current working memory (after `run`, the final
    /// state).
    pub fn final_wm(&self) -> WorkingMemory {
        self.pipeline.base.lock().unwrap().wm.clone()
    }

    /// Locks currently held in the engine's lock table (see
    /// [`LockManager::held_locks`]) — the disconnect-chaos gate's leak
    /// probe: zero after every drain.
    pub fn held_locks(&self) -> u64 {
        self.lm.held_locks()
    }

    /// Snapshot pins currently registered on the match pipeline — the
    /// other half of the leak probe.
    pub fn snapshot_pins(&self) -> u64 {
        self.pipeline.pin_count()
    }

    /// The chaos injector, when [`ParallelConfig::fault`] is set. The
    /// server consults it for the session-level disconnect sites
    /// (`drop_mid_claim` / `drop_mid_rhs` / `slowloris`).
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// External session commits threaded through this engine so far.
    pub fn external_commit_count(&self) -> u64 {
        self.external_commits.load(Relaxed)
    }

    /// Rule-firing commits so far — the running total a service-mode
    /// `Invoke` reports once the engine has quiesced.
    pub fn rule_commit_count(&self) -> u64 {
        self.metrics.commits.load(Relaxed) as u64
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            match self.worker_step(worker) {
                WorkerStep::Worked => {}
                WorkerStep::Finished => return,
            }
        }
    }

    /// `true` when the run may not claim more work (halt seen, the
    /// commit cap reached, or a stop was requested). `commits` only
    /// changes under the ledger lock, so reads under that lock are
    /// exact.
    fn capped(&self, ledger: &Ledger) -> bool {
        ledger.halted
            || self.metrics.commits.load(Relaxed) >= self.config.max_commits
            || self.stop_requested()
    }

    /// `true` once a graceful drain has been requested — via
    /// [`Self::request_stop`] or the external [`ParallelConfig::stop`]
    /// flag (typically flipped by a signal handler).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Relaxed)
            || self
                .config
                .stop
                .as_ref()
                .is_some_and(|s| s.load(Relaxed))
    }

    /// Requests a graceful drain: workers stop claiming, finish their
    /// in-flight work, and [`Self::run`] exits through the final WAL
    /// flush. Safe from any thread (the server's shutdown path, a
    /// signal handler's helper thread).
    pub fn request_stop(&self) {
        self.stop.store(true, Relaxed);
        self.kick();
    }

    /// Wakes every parked worker to re-examine the world — used after
    /// flipping an external stop flag the engine cannot observe flip.
    /// Locking the ledger (empty critical section) before the notify
    /// orders the wake against the claim gate's check-then-wait.
    pub fn kick(&self) {
        drop(self.ledger.lock().unwrap());
        self.cv.notify_all();
    }

    /// One claim→execute→commit attempt (or a wait / exit decision).
    ///
    /// The claim scan walks the match shards starting at `worker`'s own
    /// rotation offset (workers fan out over different shards instead
    /// of racing down the same conflict-set prefix). Each shard is
    /// first caught up to the watermark — idle claim scans *steal* the
    /// pending shard×batch match work — then scanned skipping the
    /// shard's refraction slice; the ledger is only taken lazily at the
    /// first unrefracted candidate, so the (quadratic) refracted-prefix
    /// skip runs on shard-local state alone.
    fn worker_step(&self, worker: usize) -> WorkerStep {
        let claim = loop {
            // ---- gate: termination / halt / commit cap ----
            {
                let mut ledger = self.ledger.lock().unwrap();
                if ledger.done {
                    return WorkerStep::Finished;
                }
                if self.capped(&ledger) {
                    if ledger.inflight == 0 {
                        ledger.done = true;
                        drop(ledger);
                        self.cv.notify_all();
                        return WorkerStep::Finished;
                    }
                    let _g = self.cv.wait(ledger).unwrap();
                    continue;
                }
            }
            // ---- scan the shards at a fixed watermark ----
            let w = self.pipeline.watermark();
            let shards = self.pipeline.shards();
            let mut saw_claimed = false;
            let mut found: Option<Instantiation> = None;
            'shards: for off in 0..shards {
                let s = (worker + off) % shards;
                let mut state = self.pipeline.shard_state(s);
                self.pipeline
                    .catch_up(s, w, &mut state, true, self.obs.as_deref());
                // Lock order: shard → ledger. The guard is acquired at
                // the first candidate that survives the refraction skip
                // and held for the rest of this shard's scan.
                let mut ledger: Option<MutexGuard<'_, Ledger>> = None;
                for inst in state.rete.conflict_set().iter() {
                    let key = inst.key();
                    if state.refracted.contains(&key) {
                        continue;
                    }
                    let led = ledger.get_or_insert_with(|| self.ledger.lock().unwrap());
                    if led.done || self.capped(led) {
                        break 'shards; // re-gate at the loop top
                    }
                    if led.claimed.contains(&key) {
                        saw_claimed = true;
                        continue;
                    }
                    led.claimed.insert(key);
                    led.inflight += 1;
                    found = Some(inst.clone());
                    break 'shards;
                }
            }
            match found {
                Some(inst) => break inst,
                None => {
                    let mut ledger = self.ledger.lock().unwrap();
                    if ledger.done {
                        return WorkerStep::Finished;
                    }
                    // Sound termination: zero candidates across every
                    // shard at watermark `w`, nothing in flight, and no
                    // commit advanced the watermark since the scan began
                    // (commits bump the watermark *before* decrementing
                    // `inflight`, both before their condvar notify, so
                    // this re-check cannot miss one).
                    if !self.capped(&ledger)
                        && !saw_claimed
                        && ledger.inflight == 0
                        && self.pipeline.watermark() == w
                    {
                        if self.config.service {
                            // Service mode: quiescence is idleness, not
                            // termination — park until an external
                            // session commit publishes new WM state (or
                            // a stop request arrives). The timeout is a
                            // lost-wakeup safety net only.
                            let (g, _) = self
                                .cv
                                .wait_timeout(ledger, Duration::from_millis(10))
                                .unwrap();
                            drop(g);
                            continue;
                        }
                        ledger.done = true;
                        drop(ledger);
                        self.cv.notify_all();
                        return WorkerStep::Finished;
                    }
                    if ledger.inflight > 0 {
                        let _g = self.cv.wait(ledger).unwrap();
                    }
                    // else: the watermark moved (or a claimed key was
                    // released) — rescan immediately.
                }
            }
        };
        self.execute_claim(claim);
        WorkerStep::Worked
    }

    /// Runs one claimed instantiation as a transaction.
    fn execute_claim(&self, inst: Instantiation) {
        let key = inst.key();
        let rule = self.rules.get(inst.rule).expect("known rule").clone();
        // Serial fallback (governor step 3): a rule past its starvation
        // bound runs alone. The guard is strictly outermost — acquired
        // before `begin`/any lock request, dropped after commit/abort —
        // so it can never appear inside a lock-manager waits-for cycle
        // (a waiter on this mutex holds no locks yet).
        let _serial = self
            .governor
            .as_ref()
            .and_then(|g| g.serial_guard(rule.name.as_str()));
        let txn = self.lm.begin();
        self.ledger
            .lock()
            .unwrap()
            .claims_by_txn
            .insert(txn, key.clone());
        // Unwind guard: if anything below panics (an injected RHS
        // panic, a bug in an action evaluator), the transaction's locks
        // are released and its claim unclaimed as the unwind passes
        // through — a panicking worker must never leak locks, pins
        // (PinGuard handles those) or a wedged claim that deadlocks the
        // survivors. Disarmed on both ordinary exits, which do their
        // own (fuller) bookkeeping.
        let mut guard = ClaimGuard { engine: self, txn, key: key.clone(), armed: true };
        let mut worked = Duration::ZERO;
        let mut touched: Vec<u64> = Vec::new();
        let outcome = self.try_execute(txn, &inst, &rule, &mut worked, &mut touched);
        guard.armed = false;
        drop(guard);
        match outcome {
            Ok(()) => {
                if let Some(obs) = &self.obs {
                    obs.rule_fired(rule.name.as_str());
                }
                if let Some(g) = &self.governor {
                    g.on_commit(rule.name.as_str(), txn.0, self.obs.as_deref());
                }
            }
            Err(cause) => {
                // Abort path: release locks, unclaim, account. The lock
                // manager may already have auto-aborted the transaction
                // when it surfaced a doom/deadlock/timeout (`NotActive`
                // here is that benign race); anything else would mean
                // locks were leaked, so it is asserted in debug builds
                // and flagged in the event stream in release builds.
                match self.lm.abort(txn) {
                    Ok(()) | Err(dps_lock::LockError::NotActive(_)) => {}
                    Err(e) => {
                        debug_assert!(false, "abort of {txn:?} failed: {e:?}");
                        if let Some(obs) = &self.obs {
                            obs.record(txn.0, ObsEvent::Anomaly { what: "abort-failed" });
                        }
                    }
                }
                if let Some(obs) = &self.obs {
                    obs.record(txn.0, ObsEvent::Abort { cause: cause.to_obs() });
                    obs.rule_aborted(rule.name.as_str());
                }
                self.metrics.count_abort(&cause);
                self.metrics
                    .wasted_nanos
                    .fetch_add(worked.as_nanos() as u64, Relaxed);
                if matches!(cause, AbortCause::EvalError) {
                    // Permanently skip this instantiation: refract it on
                    // its rule's shard *before* unclaiming below, so no
                    // scanner can re-claim it in between (shard → ledger
                    // respects the lock order).
                    let s = self.pipeline.plan().shard_of(key.rule);
                    self.pipeline
                        .shard_state(s)
                        .refracted
                        .insert(key.clone());
                }
                let mut ledger = self.ledger.lock().unwrap();
                ledger.engine_doomed.remove(&txn);
                ledger.claims_by_txn.remove(&txn);
                ledger.claimed.remove(&key);
                ledger.inflight -= 1;
                drop(ledger);
                self.cv.notify_all();
                // Governor feedback + backoff (steps 1–2): contention
                // aborts earn a bounded, jittered retry delay and feed
                // the storm detector; stale claims and eval errors are
                // not contention and skip it. The sleep happens with no
                // lock held (ledger dropped, locks released).
                if let Some(g) = &self.governor {
                    if cause.is_contention() {
                        let delay = g.on_contention_abort(
                            rule.name.as_str(),
                            &touched,
                            txn.0,
                            self.obs.as_deref(),
                        );
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                    }
                }
            }
        }
    }

    /// Lock mode for a resource, accounting for governor escalation:
    /// an escalated resource uses the pessimistic 2PL mode (`S`/`X`)
    /// instead of the optimistic production mode — the cross-protocol
    /// rows of [`dps_lock::compatible`] make any read/write mix
    /// incompatible, so escalated resources block instead of dooming.
    pub(crate) fn governed_mode(
        &self,
        res: ResourceId,
        optimistic: LockMode,
        pessimistic: LockMode,
    ) -> LockMode {
        match &self.governor {
            Some(g) if g.is_escalated(res_key(res)) => pessimistic,
            _ => optimistic,
        }
    }

    /// Engine-level revalidation (policy `Revalidate`): doom only the
    /// affected readers whose claimed instantiation the commit at `seq`
    /// actually invalidated. Claims are snapshotted under the ledger,
    /// checked against caught-up shards, and dooms re-verified against
    /// the *same* claim (shard → ledger order throughout; the caller
    /// holds the base mutex, so a doomed reader cannot be mid-commit).
    /// Shared by the rule commit path and external session commits.
    pub(crate) fn revalidate_readers(
        &self,
        readers: &[TxnId],
        seq: u64,
        obs: Option<&Recorder>,
    ) {
        let claims: Vec<(TxnId, InstKey)> = {
            let ledger = self.ledger.lock().unwrap();
            readers
                .iter()
                .filter_map(|r| ledger.claims_by_txn.get(r).map(|k| (*r, k.clone())))
                .collect()
        };
        for (reader, k) in claims {
            let s = self.pipeline.plan().shard_of(k.rule);
            let still_valid = {
                let mut state = self.pipeline.shard_state(s);
                self.pipeline.catch_up(s, seq, &mut state, false, obs);
                state.rete.conflict_set().contains(&k)
            };
            if !still_valid {
                let mut ledger = self.ledger.lock().unwrap();
                if ledger.claims_by_txn.get(&reader) == Some(&k) {
                    ledger.engine_doomed.insert(reader);
                }
            }
        }
    }

    fn try_execute(
        &self,
        txn: TxnId,
        inst: &Instantiation,
        rule: &dps_rules::Rule,
        worked: &mut Duration,
        touched: &mut Vec<u64>,
    ) -> Result<(), AbortCause> {
        let key = inst.key();
        let proto = self.config.protocol;
        let mvcc = matches!(self.config.policy, ConflictPolicy::MvccSnapshot);
        // Coordination avoidance: a rule the shard planner's static
        // commute matrix proved safe skips the lock manager entirely
        // and self-validates at commit (`ElidedCommit`). The decision
        // is per *component*, never per rule — either every rule that
        // can race on a class elides, or none does — so the §4
        // lock-order argument is undisturbed for the locking rules:
        // they never meet an elided firing on any resource.
        let elide = self.config.elide_locks
            && (self.config.elide_misclassify || self.pipeline.plan().elidable(key.rule));
        // OCC-style validation applies to both MVCC and elided firings;
        // they differ only in the abort cause they surface.
        let occ = mvcc || elide;
        let mut elided_skips: u32 = 0;
        // Phase clocks (None when observability is off). Samples are
        // recorded only when a phase completes; the lock-wait histogram
        // (recorded inside the lock manager) covers the blocked tails of
        // phases that abort mid-lock.
        let t_lhs = self.obs.as_ref().map(|_| Instant::now());

        // ---- condition (LHS) locks ----
        // Per-class tuple groups, so Rc escalation can promote a group
        // to one relation-level lock. The set is computed in every
        // mode; under MVCC it is not locked — it is the injection and
        // attribution surface only.
        let mut cond_resources: Vec<ResourceId> = Vec::new();
        let mut by_class: HashMap<&Atom, Vec<ResourceId>> = HashMap::new();
        for w in &inst.wmes {
            by_class
                .entry(&w.data.class)
                .or_default()
                .push(ResourceId::Tuple(w.id.0));
        }
        for (class, tuples) in by_class {
            match self.config.rc_escalation {
                Some(threshold) if tuples.len() > threshold => {
                    cond_resources.push(self.relation_resource(class));
                }
                _ => cond_resources.extend(tuples),
            }
        }
        for class in Footprint::negated_classes(rule) {
            cond_resources.push(self.relation_resource(class));
        }
        cond_resources.sort_unstable();
        cond_resources.dedup();
        // Contention attribution for the governor: the condition-read
        // set is the doom channel (`Rc` holders are who a committing
        // `Wa` kills) — and under MVCC the blame set of snapshot-stale
        // aborts — so these are the keys a storm escalates.
        touched.extend(cond_resources.iter().map(|r| res_key(*r)));
        if elide {
            // Lock-elision fast path: no `Rc` acquisition at all. The
            // skip is still *booked* per resource (stats attribution
            // and the chaos seam a lock request would have passed
            // through), so fault-injected A/B runs compare protocols
            // rather than injection surface areas.
            for res in &cond_resources {
                self.lm.elide(txn, *res).map_err(classify)?;
            }
            elided_skips += cond_resources.len() as u32;
        } else if !mvcc {
            for res in &cond_resources {
                let mode = self.governed_mode(*res, proto.condition_read(), LockMode::S);
                self.lm.lock(txn, *res, mode).map_err(classify)?;
            }
        } else {
            // No locks — but the chaos seam a lock request would have
            // passed through still fires, per resource, so fault-
            // injected A/B runs compare protocols rather than
            // injection surface areas.
            for res in &cond_resources {
                self.lm.inject_read(txn, *res).map_err(classify)?;
            }
        }

        // ---- re-validate the claim ----
        //
        // Lock-based modes: under the read locks. The watermark is read
        // under the base mutex, so every publish ≤ `w` is complete; the
        // shard is pinned to at least `w` before the membership check.
        // Any *later* commit that could invalidate this claim
        // necessarily conflicts with the `Rc` locks just acquired
        // (tuple `Wa`, or relation `Wa` vs our negated-class relation
        // `Rc`), so the lock manager dooms us — a stale shard view can
        // never carry a claim to commit.
        //
        // MVCC: pin a snapshot `w` instead (under the base mutex, so
        // `w` is a fully published prefix and the pin is registered
        // before any later GC floor computation can pass it). The
        // membership check at `w` plays the same role, but nothing
        // prevents later commits from invalidating the claim — that is
        // caught by commit-time self-validation, not here. The pin
        // floors version GC for the duration of the attempt; each
        // matched WME's version-at-snapshot is recorded for the SI
        // checker.
        let (_pin, snapshot) = {
            // Elided firings run the same snapshot-pin protocol as MVCC
            // (the PR 6 backward-OCC skeleton): with no locks held,
            // claim freshness is guaranteed by validation, not mutual
            // exclusion.
            let w = if occ {
                let base = self.pipeline.base.lock().unwrap();
                let w = base.next_seq - 1;
                self.pipeline.pin_snapshot(w);
                w
            } else {
                self.pipeline.base.lock().unwrap().next_seq - 1
            };
            let pin = occ.then(|| PinGuard {
                pipeline: &self.pipeline,
                snap: w,
            });
            if occ {
                if let Some(obs) = &self.obs {
                    obs.record(txn.0, ObsEvent::SnapshotPin { seq: w });
                }
            }
            let s = self.pipeline.plan().shard_of(key.rule);
            let mut state = self.pipeline.shard_state(s);
            self.pipeline
                .catch_up(s, w, &mut state, true, self.obs.as_deref());
            if !state.rete.conflict_set().contains(&key) {
                return Err(AbortCause::Stale);
            }
            drop(state);
            if occ {
                // Snapshot reads: every matched WME must be live at `w`
                // with exactly the matched timestamp (instantiation
                // identity includes timestamps, so a version mismatch
                // means the claim refers to a different era of the
                // tuple). Record the version sequence each read
                // observed — the reads-from edges of the SI polygraph.
                let versions = self.pipeline.versions();
                for wme in &inst.wmes {
                    match versions.version_at(wme.id, w) {
                        Some(v)
                            if v.state
                                .as_ref()
                                .is_some_and(|s| s.timestamp == wme.timestamp) =>
                        {
                            if let Some(obs) = &self.obs {
                                obs.record(
                                    txn.0,
                                    ObsEvent::VersionRead {
                                        resource: res_key(ResourceId::Tuple(wme.id.0)),
                                        seq: v.seq,
                                    },
                                );
                            }
                        }
                        _ if mvcc => return Err(AbortCause::SnapshotStale),
                        _ => return Err(AbortCause::ElisionStale),
                    }
                }
            }
            let ledger = self.ledger.lock().unwrap();
            if ledger.engine_doomed.contains(&txn) {
                return Err(AbortCause::Revalidation);
            }
            (pin, w)
        };
        let t_rhs = match (&self.obs, t_lhs) {
            (Some(obs), Some(t)) => {
                obs.phase(Phase::LhsEval, t.elapsed());
                Some(Instant::now())
            }
            _ => None,
        };

        // ---- simulated RHS work, polling for dooms ----
        // Note: polling touches only the lock manager and the ledger,
        // never the world — busy workers do not serialise the matcher.
        let budget = self.config.work.duration(&rule.name);
        if !budget.is_zero() {
            let busy = self.config.work.is_busy();
            let slice = Duration::from_micros(50).min(budget);
            let slice_us = slice.as_micros().max(1) as u64;
            // Busy mode completes a *quota of slices*, not a wall-clock
            // budget: on an oversubscribed machine the wall clock keeps
            // running while a worker is descheduled, and an elapsed
            // check would hand it that time as free work.
            let slices = (budget.as_micros().max(1) as u64).div_ceil(slice_us);
            let t0 = Instant::now();
            let mut step: u64 = 0;
            while if busy { step < slices } else { t0.elapsed() < budget } {
                if busy {
                    // CPU-bound RHS: burn one doom-poll slice of
                    // calibrated iterations.
                    spin_iters(slice_us * spin_iters_per_us());
                } else {
                    std::thread::sleep(slice);
                }
                step += 1;
                // Chaos seam: a seeded mid-RHS stall widens the window
                // in which a committing writer dooms this worker — the
                // doomed-poll below must still catch it before the next
                // action step. Stall time counts as worked (wasted on
                // abort).
                if let Some(inj) = &self.injector {
                    inj.rhs_stall(txn, step, self.obs.as_deref());
                }
                // Busy wasted work is the CPU actually burned (slices
                // completed), not elapsed time — a descheduled worker
                // wastes nothing while it isn't running.
                *worked = if busy {
                    Duration::from_micros(slice_us * step)
                } else {
                    t0.elapsed()
                };
                self.lm.check(txn).map_err(classify)?;
                let ledger = self.ledger.lock().unwrap();
                if ledger.engine_doomed.contains(&txn) {
                    return Err(AbortCause::Revalidation);
                }
            }
            *worked = budget;
        }

        // ---- compute the delta ----
        // Chaos seam: an injected RHS *panic* — unlike a stall or a
        // forced abort, the unwind must pass through the PinGuard and
        // ClaimGuard, which the leak-regression tests verify releases
        // every lock and snapshot pin.
        if let Some(inj) = &self.injector {
            if inj.rhs_panic(txn, 0, self.obs.as_deref()) {
                panic!("injected RHS panic (chaos plan rhs_panic_pm)");
            }
        }
        let (delta, halt) = instantiate_actions(rule, &inst.bindings, &inst.wmes)
            .map_err(|_| AbortCause::EvalError)?;

        // ---- action (RHS) locks ----
        let mut reads: Vec<ResourceId> = inst
            .wmes
            .iter()
            .map(|w| ResourceId::Tuple(w.id.0))
            .collect();
        reads.sort_unstable();
        reads.dedup();
        let mut writes: Vec<ResourceId> = delta
            .written_ids()
            .map(|id| ResourceId::Tuple(id.0))
            .collect();
        for class in delta.created_classes() {
            writes.push(self.relation_resource(class));
        }
        // A modify/remove also escalates to its class's relation lock so
        // negated readers of the class are serialised against it.
        for w in &inst.wmes {
            if delta.written_ids().any(|id| id == w.id) {
                writes.push(self.relation_resource(&w.data.class));
            }
        }
        writes.sort_unstable();
        writes.dedup();
        if elide {
            // The R_a/W_a fast path the commute matrix paid for: in the
            // locking protocol every make takes its class's relation
            // `Wa` and every modify escalates to one, so independent
            // firings of the same component convoy on the relation
            // lock. A provably-commutative component skips all of it;
            // each skip is still booked (stats + chaos parity).
            for res in &reads {
                if writes.contains(res) {
                    continue;
                }
                self.lm.elide(txn, *res).map_err(classify)?;
                elided_skips += 1;
            }
            for res in &writes {
                self.lm.elide(txn, *res).map_err(classify)?;
                elided_skips += 1;
            }
        } else {
            for res in &reads {
                if writes.contains(res) {
                    continue; // will take the write lock instead
                }
                let mode = self.governed_mode(*res, proto.action_read(), LockMode::S);
                self.lm.lock(txn, *res, mode).map_err(classify)?;
            }
            for res in &writes {
                let mode = self.governed_mode(*res, proto.action_write(), LockMode::X);
                self.lm.lock(txn, *res, mode).map_err(classify)?;
            }
        }
        let t_commit = match (&self.obs, t_rhs) {
            (Some(obs), Some(t)) => {
                obs.phase(Phase::RhsAct, t.elapsed());
                Some(Instant::now())
            }
            _ => None,
        };

        // ---- commit ----
        // The base mutex is the commit critical section: lm.commit, WM
        // delta apply and batch publication happen under it, so commit
        // order equals sequence order equals trace order (the Theorem 2
        // oracle replays the trace serially). The matcher is *not*
        // driven here — the batch is published to the delta log and
        // fanned out to the affected shards after the base is released.
        let obs = self.obs.as_deref();
        let mut base = self.pipeline.base.lock().unwrap();
        {
            // Engine-doom check. Dropping the ledger before lm.commit is
            // safe: engine dooms are only ever inserted by revalidation
            // passes, which run under the base mutex (held here).
            let ledger = self.ledger.lock().unwrap();
            if ledger.engine_doomed.contains(&txn) {
                return Err(AbortCause::Revalidation);
            }
        }
        // MVCC commit-time self-validation: with no condition locks
        // held, nothing stopped concurrent commits from overwriting
        // this transaction's read set between its snapshot and now —
        // so the committer validates itself under the base mutex (the
        // same critical section every conflicting commit serialised
        // through). Fast path, against the version store alone: every
        // matched WME's *latest* version still carries the matched
        // timestamp, and no negated class was written past the
        // snapshot. If any check fails, fall back to the exact test —
        // catch the own shard up to the current published prefix and
        // ask whether the instantiation is (still / again) in the
        // conflict set; membership implies validity *at this commit
        // point*, which is precisely what the §3 serial-replay oracle
        // requires of the trace slot this commit is about to take.
        // Elided firings validate the same way (their locks were never
        // taken, so nothing else protects the read set) and abort with
        // `ElisionStale` instead. Deltas are materialised to absolute
        // values at RHS evaluation, so even two semantically-commuting
        // bumps of the same cell must not both apply from one snapshot
        // — the validation, not the commute judgment, is what makes the
        // fast path safe; the judgment only decides when it is safe to
        // *skip the locks*. The `elide_misclassify` probe switches this
        // check off precisely to let the manufactured lost update
        // through to the §3 oracle.
        if occ && !(elide && self.config.elide_misclassify) {
            let fast_ok = {
                let versions = self.pipeline.versions();
                inst.wmes.iter().all(|w| {
                    versions
                        .latest(w.id)
                        .is_some_and(|s| s.timestamp == w.timestamp)
                }) && Footprint::negated_classes(rule)
                    .into_iter()
                    .all(|class| versions.class_write_seq(class) <= snapshot)
            };
            if !fast_ok {
                let cur = base.next_seq - 1;
                let s = self.pipeline.plan().shard_of(key.rule);
                let mut state = self.pipeline.shard_state(s);
                self.pipeline.catch_up(s, cur, &mut state, false, obs);
                if !state.rete.conflict_set().contains(&key) {
                    return Err(if mvcc {
                        AbortCause::SnapshotStale
                    } else {
                        AbortCause::ElisionStale
                    });
                }
            }
        }
        let outcome = self.lm.commit(txn).map_err(classify)?;
        // Past this point the commit is irrevocable.
        let changes = base
            .wm
            .apply(&delta)
            .expect("committed firing only touches live WMEs");
        let seq = base.next_seq;
        base.next_seq += 1;
        // Durability: stage this commit's redo record *before* `publish`
        // consumes the batch. Staging runs under the base mutex, so
        // records enter the WAL in sequence order; the fsync (group
        // commit) waits until the critical section is over. A dead
        // writer (a kill point already fired) is ignored — the
        // in-memory run keeps going, and the chaos harness measures
        // what survived on disk.
        let mut checkpoint_snap: Option<Vec<u8>> = None;
        if let Some(durable) = &self.durable {
            let writer = durable.writer();
            // Kill-point seam: simulate process death at this commit.
            // The record's fate depends on the site — dropped on the
            // floor (died before the fsync), torn mid-frame, or made
            // durable first (died right after the fsync). Dropped and
            // torn stage + kill under one WAL-file lock acquisition
            // (`append_then_kill`): a concurrent group-commit flusher
            // must not slip between the two and make the doomed record
            // durable, or the site's horizon would be nondeterministic.
            let kill_site = self.injector.as_ref().and_then(|inj| inj.wal_kill(seq));
            let staged = match kill_site {
                None => writer.append(seq, &changes),
                Some(WalKillSite::AfterPublish) => {
                    writer.append_then_kill(seq, &changes, KillMode::Clean)
                }
                Some(WalKillSite::TornTail) => {
                    writer.append_then_kill(seq, &changes, KillMode::Torn)
                }
                Some(WalKillSite::AfterSync) => writer
                    .append(seq, &changes)
                    .and_then(|()| writer.flush().map(drop))
                    .and_then(|()| writer.kill(KillMode::Clean)),
            };
            match staged {
                Ok(()) => {
                    if kill_site.is_some() {
                        if let Some(inj) = &self.injector {
                            inj.count_wal_kill(txn, obs);
                        }
                    }
                }
                Err(WalError::Dead) => {}
                Err(e) => panic!("wal append at seq {seq}: {e}"),
            }
            // Checkpoint cadence: rotate the log under the base mutex
            // (cheap — flush + reopen), encode the snapshot under the
            // same mutex (it must capture exactly seq's state), and
            // defer the slow snapshot write to after the critical
            // section.
            let interval = self
                .config
                .durability
                .as_ref()
                .map_or(0, |d| d.checkpoint_interval);
            if interval > 0 && seq.is_multiple_of(interval) && !writer.is_dead() {
                let snap = base
                    .wm
                    .encode_snapshot()
                    .expect("checkpoint snapshot encodes");
                if durable.rotate(seq).is_ok() {
                    checkpoint_snap = Some(snap);
                }
            }
        }
        // Version-write footprint for the SI polygraph, captured before
        // `publish` consumes the batch (one entry per written tuple,
        // the installing sequence is this commit's).
        let written: Vec<u64> = if mvcc && obs.is_some() {
            let mut ids: Vec<u64> = changes
                .iter()
                .map(|c| res_key(ResourceId::Tuple(c.wme().id.0)))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        } else {
            Vec::new()
        };
        let affected = self.pipeline.publish(seq, changes, obs);
        // Own shard: absorb everything up to and including the own
        // batch and refract *before* the unclaim below, closing the
        // double-fire window. This is the one matcher run inside the
        // commit critical section. At the pre-commit state the
        // instantiation cannot have vanished (its read set was
        // lock-protected since re-validation, and a committed
        // conflicting writer would have failed the lm.commit above);
        // debug builds stop there to check it.
        let own = self.pipeline.plan().shard_of(inst.rule);
        {
            let mut state = self.pipeline.shard_state(own);
            // A claim scanner may already have stolen this batch (the
            // watermark is visible the moment `publish` returns); the
            // pre-commit membership invariant is only checkable when
            // the shard is genuinely behind. `applied` is stable here:
            // we hold both the base mutex and the shard lock.
            if self.pipeline.applied(own) < seq {
                // The `elide_misclassify` probe commits stale claims on
                // purpose (validation bypassed) — the only path on
                // which this invariant may not hold. Checking it costs
                // a second pass over the log, so only debug builds do.
                #[cfg(debug_assertions)]
                {
                    self.pipeline.catch_up(own, seq - 1, &mut state, false, obs);
                    debug_assert!(
                        state.rete.conflict_set().contains(&key)
                            || (elide && self.config.elide_misclassify)
                    );
                }
                self.pipeline.catch_up(own, seq, &mut state, false, obs);
            }
            state.refracted.insert(key.clone());
            state.maybe_gc();
        }
        {
            let mut trace = self.trace.lock().unwrap();
            trace.firings.push(Firing {
                rule: inst.rule,
                rule_name: rule.name.clone(),
                key: key.clone(),
                delta,
                halt,
                external: false,
            });
            // Commit-sequence record for the semantic checker (§3
            // Theorem 2): this firing's 0-based slot in the global
            // trace, stamped while the trace lock is still held so
            // `seq` order equals trace-append order. The Fire event
            // trails the lock manager's Commit terminal (the sequence
            // number only exists now); `validate_history` and the
            // checker both account for that.
            if let Some(obs) = obs {
                // Falsifiability seam: `corrupt_fire_seq` plans flip the
                // recorded slot's low bit so the §3 checker must reject
                // the history — proving the chaos gate can fail.
                let fire_seq = (trace.len() - 1) as u64;
                let fire_seq = self
                    .injector
                    .as_ref()
                    .map_or(fire_seq, |inj| inj.corrupt_seq(fire_seq));
                obs.record(
                    txn.0,
                    ObsEvent::Fire {
                        rule: obs.intern_rule(rule.name.as_str()),
                        seq: fire_seq,
                    },
                );
                // MVCC: the versions this commit installed. Trails the
                // Commit terminal like Fire (the sequence number only
                // exists now); the SI checker cross-checks `seq` against
                // the Fire slot (`seq == fire_seq + 1`).
                for res in &written {
                    obs.record(txn.0, ObsEvent::VersionWrite { resource: *res, seq });
                }
                // Coordination-avoidance receipt: this commit went
                // through without a single lock acquisition — the
                // count is every `Rc`/`Ra`/`Wa` request the locking
                // protocol would have made. Trails Commit like Fire.
                if elide {
                    obs.record(txn.0, ObsEvent::ElidedCommit { resources: elided_skips });
                }
            }
        }
        // Engine-level revalidation (policy `Revalidate`): doom only the
        // affected readers whose instantiation this commit invalidated.
        // Claims are snapshotted under the ledger, checked against
        // caught-up shards, and dooms re-verified against the *same*
        // claim (shard → ledger order throughout; still under base, so
        // the doomed reader cannot be mid-commit).
        if !outcome.needs_revalidation.is_empty() {
            self.revalidate_readers(&outcome.needs_revalidation, seq, obs);
        }
        {
            let mut ledger = self.ledger.lock().unwrap();
            // Incremented under the ledger so the claim gate's cap
            // check stays exact.
            self.metrics.commits.fetch_add(1, Relaxed);
            ledger.halted |= halt;
            ledger.claims_by_txn.remove(&txn);
            ledger.claimed.remove(&key);
            ledger.inflight -= 1;
        }
        drop(base);
        if let (Some(obs), Some(t)) = (obs, t_commit) {
            obs.phase(Phase::Commit, t.elapsed());
        }
        self.cv.notify_all();
        // Fan the batch out to the remaining affected shards *outside*
        // the commit critical section — the pipeline half of the
        // design: match work overlaps the next commit.
        self.pipeline.fan_out(&affected, seq, obs);
        // Durability tail, with no engine lock held: the deferred
        // checkpoint-snapshot install, then the group-commit request
        // for this sequence number. `request_sync` is non-blocking for
        // piggybackers — one committer at a time holds the flush baton
        // and fsyncs for everyone, so workers keep firing while the
        // disk catches up (the durable horizon trails the published one
        // by at most the in-flight batch, exactly the prefix-loss the
        // recovery gate sweeps). A dead writer means a kill point
        // fired — the commit stays visible in memory and simply never
        // becomes durable, which is the condition recovery is tested
        // against.
        if let Some(durable) = &self.durable {
            if let Some(snap) = &checkpoint_snap {
                if durable.install_checkpoint(seq, snap).is_ok() {
                    if let Some(obs) = obs {
                        obs.record(txn.0, ObsEvent::Checkpoint { seq });
                    }
                }
            }
            if let Ok(Some(horizon)) = durable.writer().request_sync(seq) {
                if let Some(obs) = obs {
                    obs.record(txn.0, ObsEvent::WalSync { seq: horizon });
                }
            }
        }
        Ok(())
    }
}

/// Unpins an MVCC read snapshot when the execution attempt ends
/// (commit or abort on any path), releasing its version-GC floor.
pub(crate) struct PinGuard<'a> {
    pub(crate) pipeline: &'a MatchPipeline,
    pub(crate) snap: u64,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.pipeline.unpin_snapshot(self.snap);
    }
}

/// Panic-unwind insurance for a claimed transaction: if the worker
/// unwinds between claim and commit (injected RHS panic, evaluator
/// bug), the drop releases the transaction's locks and unclaims the
/// instantiation so surviving workers neither deadlock on leaked locks
/// nor wait forever on a wedged in-flight count. Ordinary commit/abort
/// paths disarm it and do their own (fuller) bookkeeping.
struct ClaimGuard<'a> {
    engine: &'a ParallelEngine,
    txn: TxnId,
    key: InstKey,
    armed: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let _ = self.engine.lm.abort(self.txn);
        // Defensive on the unwind path: a poisoned ledger means another
        // worker already died holding it — nothing left to salvage.
        if let Ok(mut ledger) = self.engine.ledger.lock() {
            ledger.engine_doomed.remove(&self.txn);
            ledger.claims_by_txn.remove(&self.txn);
            ledger.claimed.remove(&self.key);
            ledger.inflight -= 1;
        }
        self.engine.cv.notify_all();
    }
}

pub(crate) enum AbortCause {
    Doomed,
    Deadlock,
    Stale,
    Revalidation,
    EvalError,
    Timeout,
    Injected,
    /// MVCC commit-time self-validation failed (read set overwritten
    /// since the pinned snapshot).
    SnapshotStale,
    /// Lock-elided commit-time self-validation failed: a matched tuple
    /// of a provably-commutative firing changed between claim and
    /// commit (e.g. two bump rules racing on one cell — their deltas
    /// were materialised from the same snapshot, so the second apply
    /// would lose the first's update).
    ElisionStale,
}

impl AbortCause {
    /// The matching cause in the observability taxonomy.
    pub(crate) fn to_obs(&self) -> dps_obs::AbortCause {
        match self {
            AbortCause::Doomed => dps_obs::AbortCause::Doomed,
            AbortCause::Deadlock => dps_obs::AbortCause::Deadlock,
            AbortCause::Stale => dps_obs::AbortCause::Stale,
            AbortCause::Revalidation => dps_obs::AbortCause::Revalidation,
            AbortCause::EvalError => dps_obs::AbortCause::EvalError,
            AbortCause::Timeout => dps_obs::AbortCause::Timeout,
            AbortCause::Injected => dps_obs::AbortCause::Injected,
            AbortCause::SnapshotStale => dps_obs::AbortCause::SnapshotStale,
            AbortCause::ElisionStale => dps_obs::AbortCause::ElisionStale,
        }
    }

    /// `true` for causes that mean "concurrent productions collided"
    /// (or chaos made them appear to) — the ones the governor's storm
    /// detector and backoff should react to. Stale claims and RHS
    /// evaluation errors are not contention. Snapshot-stale aborts
    /// *are*: under MVCC they are the only remaining signal of genuine
    /// write overlap, so the governor's backoff/escalation reacts to
    /// them exactly as it did to dooms (the reader-abort channels it
    /// used to watch are structurally zero in that mode).
    fn is_contention(&self) -> bool {
        matches!(
            self,
            AbortCause::Doomed
                | AbortCause::Deadlock
                | AbortCause::Revalidation
                | AbortCause::Timeout
                | AbortCause::Injected
                | AbortCause::SnapshotStale
                | AbortCause::ElisionStale
        )
    }
}

pub(crate) fn classify(e: dps_lock::LockError) -> AbortCause {
    match e {
        dps_lock::LockError::DoomedByWriter { .. } => AbortCause::Doomed,
        dps_lock::LockError::Deadlock(_) => AbortCause::Deadlock,
        dps_lock::LockError::Timeout(_) => AbortCause::Timeout,
        dps_lock::LockError::Injected(_) => AbortCause::Injected,
        dps_lock::LockError::NotActive(_) => AbortCause::Stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::validate_trace;
    use dps_wm::{Value, WmeData};

    fn run_with(
        rules: &RuleSet,
        wm: WorkingMemory,
        config: ParallelConfig,
    ) -> (ParallelReport, WorkingMemory) {
        let initial = wm.clone();
        let mut e = ParallelEngine::new(rules, wm, config);
        let report = e.run();
        // Every run must satisfy Definition 3.2.
        validate_trace(rules, &initial, &report.trace).expect("semantic consistency");
        let final_wm = e.final_wm();
        (report, final_wm)
    }

    fn counters(n: usize, start: i64) -> (RuleSet, WorkingMemory) {
        let rules =
            RuleSet::parse("(p bump (cell ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        for _ in 0..n {
            wm.insert(WmeData::new("cell").with("n", start));
        }
        (rules, wm)
    }

    #[test]
    fn parallel_counters_drain_correctly() {
        let (rules, wm) = counters(6, 3);
        let (report, final_wm) = run_with(&rules, wm, ParallelConfig::default());
        assert_eq!(report.commits, 18);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
    }

    #[test]
    fn two_phase_protocol_also_correct() {
        let (rules, wm) = counters(4, 2);
        let cfg = ParallelConfig {
            protocol: Protocol::TwoPhase,
            ..Default::default()
        };
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 8);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
    }

    #[test]
    fn revalidate_policy_correct() {
        let (rules, wm) = counters(4, 2);
        let cfg = ParallelConfig {
            policy: ConflictPolicy::Revalidate,
            ..Default::default()
        };
        let (report, _) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 8);
    }

    #[test]
    fn single_worker_degenerates_to_serial() {
        let (rules, wm) = counters(3, 2);
        let cfg = ParallelConfig {
            workers: 1,
            ..Default::default()
        };
        let (report, _) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 6);
        assert_eq!(report.aborts.total(), 0, "no contention with one worker");
    }

    #[test]
    fn halt_ends_run() {
        let rules = RuleSet::parse("(p stop (go) --> (remove 1) (halt))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go"));
        let (report, _) = run_with(&rules, wm, ParallelConfig::default());
        assert!(report.halted);
        assert_eq!(report.commits, 1);
    }

    #[test]
    fn commit_cap_respected() {
        let rules = RuleSet::parse("(p spin (c ^n <n>) --> (modify 1 ^n (+ <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("c").with("n", 0i64));
        let cfg = ParallelConfig {
            max_commits: 5,
            ..Default::default()
        };
        let (report, _) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 5);
    }

    #[test]
    fn contended_writes_serialize_correctly() {
        // Many rules all modifying one shared accumulator: heavy Rc–Wa
        // conflict; total must still equal the serial result.
        let rules = RuleSet::parse(
            "(p apply (delta ^v <d>) (acc ^total <t>)
               --> (remove 1) (modify 2 ^total (+ <t> <d>)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        let mut expected = 0i64;
        for i in 1..=10i64 {
            wm.insert(WmeData::new("delta").with("v", i));
            expected += i;
        }
        wm.insert(WmeData::new("acc").with("total", 0i64));
        let (report, final_wm) = run_with(&rules, wm, ParallelConfig::default());
        assert_eq!(report.commits, 10);
        let acc = final_wm.class_iter("acc").next().unwrap();
        assert_eq!(acc.get("total"), Some(&Value::Int(expected)));
    }

    #[test]
    fn elided_run_drains_with_zero_lock_acquisitions() {
        // The bump rule delta-writes the attribute it reads, so it
        // self-commutes and its (singleton) component elides: the whole
        // run must go through without one lock grant or block, every
        // skip booked in `LockStats::elided`, and the trace must still
        // replay serially (checked in run_with).
        let (rules, wm) = counters(6, 3);
        let cfg = ParallelConfig {
            elide_locks: true,
            observe: true,
            ..Default::default()
        };
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 18);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
        assert_eq!(report.lock_stats.grants, 0, "no lock was ever acquired");
        assert_eq!(report.lock_stats.blocks, 0);
        assert!(report.lock_stats.elided > 0, "skips are booked");
    }

    #[test]
    fn unproven_component_keeps_the_locks() {
        // `store` writes an absolute value to the attribute `bump`
        // delta-writes: the pair does not commute, so the *whole*
        // cell-component locks — elision never mixes protocols within
        // a component.
        let rules = RuleSet::parse(
            "(p bump (cell ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))
             (p store (cell ^n { < 0 <n> }) --> (modify 1 ^n 0))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        for _ in 0..4 {
            wm.insert(WmeData::new("cell").with("n", 2i64));
        }
        let cfg = ParallelConfig {
            elide_locks: true,
            ..Default::default()
        };
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 8);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
        assert_eq!(report.lock_stats.elided, 0, "nothing elides");
        assert!(report.lock_stats.grants > 0, "full §4 protocol in force");
    }

    #[test]
    fn elided_commits_appear_in_history() {
        let (rules, wm) = counters(2, 2);
        let initial = wm.clone();
        let cfg = ParallelConfig {
            elide_locks: true,
            observe: true,
            ..Default::default()
        };
        let mut e = ParallelEngine::new(&rules, wm, cfg);
        let report = e.run();
        validate_trace(&rules, &initial, &report.trace).expect("semantic consistency");
        let obs = e.observer().unwrap();
        let history = obs.history();
        dps_obs::validate_history(&history).expect("well-formed history");
        let elided = history
            .iter()
            .filter(|ev| matches!(ev.kind, dps_obs::EventKind::ElidedCommit { .. }))
            .count();
        assert_eq!(elided, report.commits, "one receipt per commit");
        assert_eq!(obs.report().elided_commits, elided as u64);
    }

    #[test]
    fn misclassify_probe_is_harmless_without_races() {
        // The falsifiability knob force-elides everything and bypasses
        // commit validation; with one worker there is no race to
        // exploit, so the run must still be serially valid — the knob
        // manufactures lost updates only out of genuine concurrency.
        let (rules, wm) = counters(3, 2);
        let cfg = ParallelConfig {
            elide_locks: true,
            elide_misclassify: true,
            workers: 1,
            ..Default::default()
        };
        let (report, _) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 6);
    }

    #[test]
    fn negated_condition_uses_relation_escalation() {
        // quiet requires no alarm; raise creates one. Either order is
        // valid; the trace must replay single-threadedly (checked in
        // run_with) and both rules eventually account.
        let rules = RuleSet::parse(
            "(p quiet (go) -(alarm) --> (remove 1) (make calm))
             (p raise (trigger) --> (remove 1) (make alarm))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go"));
        wm.insert(WmeData::new("trigger"));
        let (report, final_wm) = run_with(&rules, wm, ParallelConfig::default());
        // raise always commits; quiet commits only if it ran first.
        assert!(report.commits >= 1 && report.commits <= 2);
        assert_eq!(final_wm.class_iter("alarm").count(), 1);
        let calm = final_wm.class_iter("calm").count();
        let quiet_fired = report.trace.names().contains(&"quiet");
        assert_eq!(calm, usize::from(quiet_fired));
    }

    #[test]
    fn doomed_readers_are_counted_under_load() {
        // With simulated work and many workers on one hot accumulator,
        // Rc–Wa dooms should actually occur (not guaranteed per run, so
        // aggregate over several runs).
        let rules = RuleSet::parse(
            "(p apply (delta ^v <d>) (acc ^total <t>)
               --> (remove 1) (modify 2 ^total (+ <t> <d>)))",
        )
        .unwrap();
        let mut total_aborts = 0;
        for _ in 0..5 {
            let mut wm = WorkingMemory::new();
            for i in 1..=6i64 {
                wm.insert(WmeData::new("delta").with("v", i));
            }
            wm.insert(WmeData::new("acc").with("total", 0i64));
            let cfg = ParallelConfig {
                workers: 4,
                work: WorkModel::FixedMicros(300),
                ..Default::default()
            };
            let (report, final_wm) = run_with(&rules, wm, cfg);
            assert_eq!(report.commits, 6);
            let acc = final_wm.class_iter("acc").next().unwrap();
            assert_eq!(acc.get("total"), Some(&Value::Int(21)));
            total_aborts += report.aborts.total();
        }
        // Not asserting a minimum: scheduling may avoid conflicts, but
        // the counters must be internally consistent.
        let _ = total_aborts;
    }

    #[test]
    fn per_rule_work_model_applies() {
        let rules = RuleSet::parse(
            "(p slow (a) --> (remove 1))
             (p fast (b) --> (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("a"));
        wm.insert(WmeData::new("b"));
        let mut durations = HashMap::new();
        durations.insert(Atom::from("slow"), 2_000u64);
        let cfg = ParallelConfig {
            workers: 2,
            work: WorkModel::PerRuleMicros(durations),
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let (report, _) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 2);
        assert!(
            start.elapsed() >= Duration::from_micros(1_500),
            "slow rule busy-worked"
        );
    }

    #[test]
    fn full_escalation_remains_correct_under_both_policies() {
        // rc_escalation = Some(0): every condition lock is taken at
        // relation granularity — maximal false conflict, same results.
        for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::Revalidate] {
            let (rules, wm) = counters(4, 2);
            let cfg = ParallelConfig {
                rc_escalation: Some(0),
                policy,
                ..Default::default()
            };
            let (report, final_wm) = run_with(&rules, wm, cfg);
            assert_eq!(report.commits, 8, "policy {policy:?}");
            for cell in final_wm.class_iter("cell") {
                assert_eq!(cell.get("n"), Some(&Value::Int(0)));
            }
        }
    }

    #[test]
    fn high_threshold_escalation_never_triggers() {
        let (rules, wm) = counters(3, 2);
        let cfg = ParallelConfig {
            rc_escalation: Some(100),
            ..Default::default()
        };
        let (report, _) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 6);
    }

    #[test]
    fn empty_system_finishes_immediately() {
        let rules = RuleSet::parse("(p r (never) --> (remove 1))").unwrap();
        let wm = WorkingMemory::new();
        let (report, _) = run_with(&rules, wm, ParallelConfig::default());
        assert_eq!(report.commits, 0);
        assert!(report.trace.is_empty());
    }

    #[test]
    fn quiet_fault_plan_is_invisible() {
        let (rules, wm) = counters(4, 2);
        let cfg = ParallelConfig {
            fault: Some(FaultPlan::quiet(7)),
            ..Default::default()
        };
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 8);
        assert_eq!(report.fault_stats.unwrap().total(), 0);
        assert_eq!(report.aborts.injected, 0);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
    }

    #[test]
    fn every_named_fault_plan_preserves_consistency() {
        // The tentpole property: under each chaos plan, for both
        // policies, the run terminates and its trace still replays
        // single-threadedly (checked inside run_with). Injected aborts
        // are accounted under their own cause, never an organic one.
        for (name, ctor) in FaultPlan::NAMED {
            for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::Revalidate] {
                let (rules, wm) = counters(4, 2);
                let cfg = ParallelConfig {
                    policy,
                    fault: Some(ctor(0xC0FFEE)),
                    work: WorkModel::FixedMicros(100),
                    ..Default::default()
                };
                let (report, final_wm) = run_with(&rules, wm, cfg);
                assert_eq!(report.commits, 8, "plan {name} policy {policy:?}");
                for cell in final_wm.class_iter("cell") {
                    assert_eq!(cell.get("n"), Some(&Value::Int(0)), "plan {name}");
                }
                let stats = report.fault_stats.unwrap();
                assert_eq!(
                    report.aborts.injected, stats.forced_aborts,
                    "plan {name}: every injected abort is accounted as Injected"
                );
            }
        }
    }

    #[test]
    fn governed_run_survives_a_doom_storm() {
        // Doom-storm plan + aggressive governor: the run must still
        // drain fully and replay, with the governor actually engaging
        // (backoffs observed; escalation permitted but not required —
        // the storm is probabilistic).
        let (rules, wm) = counters(6, 3);
        let cfg = ParallelConfig {
            workers: 4,
            fault: Some(FaultPlan::doom_storm(42)),
            governor: Some(crate::governor::GovernorConfig {
                backoff_base_us: 20,
                backoff_cap_us: 500,
                storm_window: 8,
                storm_threshold_pm: 400,
                escalate_after: 2,
                starvation_bound: 3,
                cooldown_commits: 4,
                seed: 42,
            }),
            ..Default::default()
        };
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 18);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
        let gov = report.governor.unwrap();
        let faults = report.fault_stats.unwrap();
        if faults.forced_aborts > 0 {
            assert!(gov.backoffs > 0, "injected aborts must earn backoffs");
        }
    }

    #[test]
    fn governor_without_faults_changes_nothing() {
        let (rules, wm) = counters(4, 2);
        let cfg = ParallelConfig {
            governor: Some(crate::governor::GovernorConfig::default()),
            ..Default::default()
        };
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 8);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
        let gov = report.governor.unwrap();
        assert_eq!(gov.escalations + gov.serializations, 0, "no storm, no action");
    }

    fn mvcc(cfg: ParallelConfig) -> ParallelConfig {
        ParallelConfig {
            policy: ConflictPolicy::MvccSnapshot,
            ..cfg
        }
    }

    #[test]
    fn mvcc_counters_drain_correctly() {
        let (rules, wm) = counters(6, 3);
        let (report, final_wm) = run_with(&rules, wm, mvcc(ParallelConfig::default()));
        assert_eq!(report.commits, 18);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
        assert_eq!(report.aborts.reader_aborts(), 0, "MVCC readers are never doomed");
    }

    #[test]
    fn mvcc_contended_writes_serialize_correctly() {
        // The hot-accumulator workload: every firing reads + modifies
        // one shared tuple, the worst case for snapshot staleness. The
        // total must still equal the serial result, with conflicts
        // surfacing (if at all) as snapshot_stale — never as dooms.
        let rules = RuleSet::parse(
            "(p apply (delta ^v <d>) (acc ^total <t>)
               --> (remove 1) (modify 2 ^total (+ <t> <d>)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        let mut expected = 0i64;
        for i in 1..=10i64 {
            wm.insert(WmeData::new("delta").with("v", i));
            expected += i;
        }
        wm.insert(WmeData::new("acc").with("total", 0i64));
        let cfg = mvcc(ParallelConfig {
            workers: 4,
            work: WorkModel::FixedMicros(200),
            ..Default::default()
        });
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 10);
        let acc = final_wm.class_iter("acc").next().unwrap();
        assert_eq!(acc.get("total"), Some(&Value::Int(expected)));
        assert_eq!(report.aborts.doomed, 0);
        assert_eq!(report.aborts.revalidation, 0);
    }

    #[test]
    fn mvcc_negated_conditions_stay_sound() {
        // Negated CEs have no lock to escalate under MVCC — soundness
        // rests on the commit-time class-write check. Same invariants
        // as the lock-based variant of this test.
        let rules = RuleSet::parse(
            "(p quiet (go) -(alarm) --> (remove 1) (make calm))
             (p raise (trigger) --> (remove 1) (make alarm))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("go"));
        wm.insert(WmeData::new("trigger"));
        let (report, final_wm) = run_with(&rules, wm, mvcc(ParallelConfig::default()));
        assert!(report.commits >= 1 && report.commits <= 2);
        assert_eq!(final_wm.class_iter("alarm").count(), 1);
        let calm = final_wm.class_iter("calm").count();
        let quiet_fired = report.trace.names().contains(&"quiet");
        assert_eq!(calm, usize::from(quiet_fired));
    }

    #[test]
    fn mvcc_under_doom_storm_has_zero_reader_aborts() {
        // The headline property: the chaos plan built to maximise dooms
        // cannot doom anyone when nobody holds condition locks. Only
        // injected aborts and snapshot staleness remain.
        let (rules, wm) = counters(6, 3);
        let cfg = mvcc(ParallelConfig {
            workers: 4,
            observe: true,
            fault: Some(FaultPlan::doom_storm(42)),
            work: WorkModel::FixedMicros(100),
            ..Default::default()
        });
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 18);
        for cell in final_wm.class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
        assert_eq!(report.aborts.reader_aborts(), 0);
    }

    #[test]
    fn mvcc_history_passes_si_checker() {
        // The recorded snapshot/version events must reconstruct into a
        // consistent SI polygraph (and the analysis verdict must fold
        // it in).
        let (rules, wm) = counters(4, 2);
        let cfg = mvcc(ParallelConfig {
            workers: 4,
            observe: true,
            ..Default::default()
        });
        let initial = wm.clone();
        let mut e = ParallelEngine::new(&rules, wm, cfg);
        let report = e.run();
        validate_trace(&rules, &initial, &report.trace).expect("oracle");
        assert_eq!(report.commits, 8);
        let history = e.observer().unwrap().history();
        let si = dps_obs::analysis::si_checker::check_history(&history);
        assert_eq!(si.committed, 8, "every commit pinned a snapshot");
        assert!(
            si.violations.is_empty() && si.cycle.is_none(),
            "SI checker must accept a genuine MVCC run: {:?}",
            si.violations
        );
    }

    #[test]
    fn injected_aborts_flow_into_obs_taxonomy() {
        // Forced aborts at full odds: the engine retries until the
        // injector relents (new txn ids draw fresh odds)… with pm=1000
        // it never relents, so cap the run by max_commits=0 instead:
        // use a moderate rate and check taxonomy consistency.
        let (rules, wm) = counters(4, 2);
        let cfg = ParallelConfig {
            observe: true,
            fault: Some(FaultPlan {
                seed: 5,
                forced_abort_pm: 300,
                ..Default::default()
            }),
            ..Default::default()
        };
        let (report, _) = run_with(&rules, wm, cfg.clone());
        assert_eq!(report.commits, 8);
        // The obs report's injected-cause counter must equal the
        // engine's, which must equal the injector's forced-abort count.
        let stats = report.fault_stats.unwrap();
        assert_eq!(report.aborts.injected, stats.forced_aborts);
    }

    fn durability_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dps-engine-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_run_recovers_to_final_state() {
        let dir = durability_dir("final-state");
        let (rules, wm) = counters(5, 3);
        let cfg = ParallelConfig {
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                checkpoint_interval: 4,
            }),
            ..Default::default()
        };
        let (report, final_wm) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 15);
        let wal = report.wal.expect("durability attached");
        assert_eq!(wal.appends, 15, "one redo record per commit");
        assert!(wal.fsyncs >= 1, "at least one group-commit fsync");
        assert!(wal.checkpoints >= 1, "interval 4 over 15 commits checkpoints");
        let rec = dps_wm::recover(&dir).expect("clean shutdown recovers");
        assert_eq!(rec.last_seq, 15);
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.wm.encode_snapshot().unwrap(),
            final_wm.encode_snapshot().unwrap(),
            "recovered WM must be byte-identical to the final in-memory WM"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_point_loses_tail_then_resume_drains() {
        let dir = durability_dir("kill-resume");
        let (rules, wm) = counters(4, 3);
        let cfg = ParallelConfig {
            durability: Some(DurabilityConfig::at(&dir)),
            fault: Some(FaultPlan {
                wal_kill_commit: 5,
                wal_kill_site: WalKillSite::TornTail,
                ..Default::default()
            }),
            ..Default::default()
        };
        let (report, _) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 12, "in-memory run drains despite the dead WAL");
        let stats = report.fault_stats.expect("fault plan attached");
        assert_eq!(stats.wal_kills, 1);
        // Recovery sees the durable prefix only: the torn record (and
        // everything after the kill) is gone.
        let rec = dps_wm::recover(&dir).expect("torn tail truncates cleanly");
        assert!(rec.last_seq < 12, "the tail after the kill must be lost");
        // A resumed engine continues the sequence space and drains the
        // recovered state to the same fixpoint.
        let mut resumed = ParallelEngine::resume(
            &rules,
            rec.wm.clone(),
            rec.last_seq,
            ParallelConfig {
                durability: Some(DurabilityConfig::at(&dir)),
                ..Default::default()
            },
        );
        let initial = rec.wm;
        let report2 = resumed.run();
        validate_trace(&rules, &initial, &report2.trace).expect("resumed run is consistent");
        assert_eq!(
            report2.commits as u64,
            12 - rec.last_seq,
            "exactly the lost work re-runs"
        );
        for cell in resumed.final_wm().class_iter("cell") {
            assert_eq!(cell.get("n"), Some(&Value::Int(0)));
        }
        // And the second incarnation's log recovers to the fixpoint.
        let rec2 = dps_wm::recover(&dir).expect("second incarnation recovers");
        assert_eq!(rec2.last_seq, 12);
        assert_eq!(
            rec2.wm.encode_snapshot().unwrap(),
            resumed.final_wm().encode_snapshot().unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn after_sync_kill_keeps_the_killed_commit() {
        let dir = durability_dir("after-sync");
        let (rules, wm) = counters(2, 3);
        let cfg = ParallelConfig {
            workers: 1,
            durability: Some(DurabilityConfig::at(&dir)),
            fault: Some(FaultPlan {
                wal_kill_commit: 4,
                wal_kill_site: WalKillSite::AfterSync,
                ..Default::default()
            }),
            ..Default::default()
        };
        let (report, _) = run_with(&rules, wm, cfg);
        assert_eq!(report.commits, 6);
        let rec = dps_wm::recover(&dir).expect("recovers");
        assert_eq!(
            rec.last_seq, 4,
            "died right after the fsync: commit 4 is durable, 5.. are not"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
