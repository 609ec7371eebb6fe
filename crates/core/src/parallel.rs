//! The dynamic approach (§4.2–4.3): multiple execution threads running
//! production RHSs as transactions under a lock protocol.
//!
//! ## The transaction skeleton
//!
//! Every worker runs one instance of the paper's Figure 4.1/4.2
//! pipeline. A claimed instantiation goes through a fixed sequence of
//! steps ([`ParallelEngine::try_execute`]); the only thing that varies
//! is the **strategy** ([`crate::strategy::Strategy`]), chosen once per
//! claim from the configuration and the shard plan's commute verdict.
//! The skeleton never asks *which* strategy it runs — only what the
//! strategy does at a step:
//!
//! | step | `Locked` (2PL `S`/`X`, or `Rc`/`Ra`/`Wa`) | `Snapshot` (MVCC) | `Elided` (proved commutative) |
//! |---|---|---|---|
//! | **claim** | unclaimed instantiation from a shard's conflict set (which lists no refracted key), entered in that shard's claim book with the transaction begun for it; owned by a `ClaimGuard` | same | same |
//! | **condition read** (matched tuples; *relation* of each negated class, or of an escalated tuple group) | `S` / `Rc` lock | no lock; chaos seam only | no lock; skip booked in `LockStats::elided` |
//! | **claim validation** at watermark `w` | membership in the caught-up shard, under the read locks | pin snapshot `w`; membership (so every matched tuple is live at `w` with the matched timestamp) | as `Snapshot` |
//! | **RHS** | simulated work polling for dooms, then the delta | same | same |
//! | **action read / write** | `S`/`X` or `Ra`/`Wa` (tuple, plus the relation of every created or written class) | same locks | no lock; skips booked |
//! | **validate** (base mutex held) | nothing: every doom is the lock manager's, and `lm.commit` fails on it | + read set still current, else exact membership at the commit point | as `Snapshot` (off under the `elide_misclassify` probe) |
//! | **on commit** | Figure 4.3: dooms overlapped `Rc` readers, or hands them back and the engine dooms, through the lock manager, those whose claim left its shard (policy `Revalidate`) | `VersionWrite` receipt per written tuple | `ElidedCommit` receipt |
//! | **on abort** | release locks, unclaim, account; the claim is retried at once | + unpin | + unpin |
//! | **conflict surfaces as** | `Doomed` / `Revalidation` / `Deadlock` | `SnapshotStale` (+ action-lock causes) | `ElisionStale` |
//!
//! `Stale` (claim gone before validation), `EvalError` (refracted,
//! never retried) and `Injected` (chaos) can surface under any
//! strategy. The fault seams hang off `Strategy::acquire` once, not
//! per strategy.
//!
//! The irrevocable part — `lm.commit` through the WAL sync request —
//! is [`ParallelEngine::commit_section`] ([`crate::commit`]), which
//! external session commits ([`crate::session`]) call too.
//!
//! **Why snapshot strategies are sound.** A production's RHS only ever
//! reads its own instantiation (bindings + matched WMEs, never live
//! WM), so nothing after claim validation depends on current state and
//! a committing writer has nobody to doom: reader aborts vanish
//! structurally. The price is paid at commit, under the base mutex
//! every conflicting commit serialised through: every matched WME is
//! still live with the matched timestamp and no negated class was
//! written past the snapshot — or, failing that fast check,
//! the instantiation is (still / again) in the caught-up conflict set.
//! Validity *at the commit point* is exactly what the §3 serial-replay
//! oracle requires of the trace slot the commit takes. Elision adds
//! one argument: the decision is per class-connected *component*, so
//! lock-holding and lock-skipping firings never meet on a resource.
//! Deltas are materialised to absolute values at RHS evaluation, so
//! even two commuting bumps of one cell must not both apply from one
//! snapshot — the validation, not the commute judgment, makes the fast
//! path safe; the judgment only decides when the locks may be skipped.
//!
//! ## Shared-state decomposition
//!
//! * **`WmBase`** (`Mutex`) — the authoritative WM, the commit sequence
//!   counter and the commit record (the run's [`Trace`]): the commit
//!   critical section;
//! * **match shards** (one `Mutex` each, [`crate::pipeline`]) —
//!   per-component (and, for a key-partitioned component, per-key-
//!   partition) Rete networks with their own conflict-set slice (which
//!   refracts what fired from it) and claim book, each caught up from
//!   its own inbox of the sequence-numbered batches that route to it,
//!   by committers fanning out and by idle claim scans stealing pending
//!   shard×batch work;
//! * **`Ledger`** (`Mutex` + two `Condvar`s) — the run's termination
//!   state only: in-flight count, done flag, and the count of threads
//!   parked on an in-flight claim. A firing takes it three
//!   times (claim gate, claim scan, in-flight count at commit); a commit
//!   or abort notifies the in-flight condvar only when such a waiter is
//!   parked, and never the idle condvar service-mode workers park on at
//!   quiescence (the committer fires what it enabled,
//!   [`ParallelEngine::fire_ready`]). Doom-polling during simulated RHS
//!   work touches only the lock manager, never any matcher;
//! * **`Metrics`** (atomics) — counters.
//!
//! Lock order: base → shard → inbox → ledger, and shard → the lock
//! manager (any subsequence is fine; never in reverse). Both condvars
//! are tied to the ledger; waiters hold nothing else while sleeping.
//!
//! `halt` follows the single-thread rule ([`crate::world`]): the commit
//! section sets the engine's one halted flag under the base mutex, and
//! refuses, under the same mutex, every later rule commit (it aborts as
//! `Stale`, its work counted as wasted); external session commits still
//! go through. The claim gate reads the flag without a lock, since it
//! runs under the ledger, which comes after base in the lock order.
//!
//! Every committed sequence is recorded as a [`Trace`];
//! [`crate::semantics::validate_trace`] checks it against `ES_single`
//! (Definition 3.2) — the property the paper proves as Theorem 2 (and
//! extends to the improved scheme in §4.3).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

use dps_lock::{
    res_key, ConflictPolicy, FaultInjector, FaultPlan, FaultStats, LockManager, Protocol,
    ResourceId, TxnId,
};
use dps_match::{Instantiation, Matcher, ShardPlan, DEFAULT_MATCH_SHARDS};
use dps_obs::{
    field_align, AbortCause, CachePadded, EventKind as ObsEvent, FanoutStats, Histogram, Phase,
    Recorder, Telemetry, TelemetryConfig,
};
use dps_rules::{instantiate_actions, Rule, RuleSet};
use dps_wm::{Atom, DeltaSet, DurableWm, WalStats, Wme, WorkingMemory};

use crate::commit::{Claim, ClaimGuard, Commit, PinGuard};
use crate::pipeline::{is_busy, scan_order, MatchPipeline};
use crate::strategy::{Access, Strategy};
use crate::{firing, Firing, Trace};

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
    /// Every rule *spins* for this many microseconds: models the
    /// paper's CPU-bound "full-fledged database query". Unlike the
    /// sleeping models, aborted work under this model genuinely
    /// consumed a processor — on an oversubscribed machine the §5
    /// wasted-work fraction `f` is paid in wall-clock, which is what
    /// makes doom storms expensive.
    BusyMicros(u64),
}

impl WorkModel {
    fn duration(&self) -> Duration {
        match self {
            WorkModel::None => Duration::ZERO,
            WorkModel::FixedMicros(us) | WorkModel::BusyMicros(us) => Duration::from_micros(*us),
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
    /// Match shards: the rule partition's class-connected components
    /// are laid out over at most this many independently-locked Rete
    /// networks — folded when there are fewer shards than components,
    /// and the shards beyond the component count dealt to
    /// key-partitionable components, whose disjoint join keys then
    /// match on separate shards ([`dps_match::ShardPlan`]); `1` puts
    /// every rule on one Rete network, the layout gate legs that must
    /// observe dooms pin. See the `pipeline` module.
    pub match_shards: usize,
    /// Durability: when set, every commit's change batch is staged
    /// into a file-backed group-commit WAL under the base mutex, with
    /// periodic checkpoint snapshots. After the commit section the
    /// committer requests a group-commit fsync without waiting for it:
    /// the durability layer's log-writer thread does every fsync, so
    /// no committer blocks on the disk and the durable horizon trails
    /// the published one by at most the writer's in-flight batch.
    /// The final flush at the end of the run makes every commit durable
    /// (unless a chaos kill point killed the writer).
    /// [`dps_wm::recover`] +
    /// [`ParallelEngine::resume`] rebuild and continue after a crash.
    /// `None` (the default) keeps the commit path free of any
    /// durability cost — one branch on a `None`, like `observe` and
    /// `fault`.
    pub durability: Option<DurabilityConfig>,
    /// Live telemetry: when set, the engine registers atomic probes for
    /// every subsystem (commit/abort rates, lock waits, delta-log
    /// depth, WAL backlog) on a
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
    /// Service mode: at quiescence, workers *park* instead of
    /// terminating, while external session commits
    /// ([`ParallelEngine::external_commit`]) feed new WM changes — the
    /// multi-session server's front-door mode. Commits do not wake
    /// them: whoever commits fires what the commit enabled
    /// ([`ParallelEngine::fire_ready`]), and a parked worker rescans
    /// every 10 ms as a safety net. The run then only ends via
    /// [`ParallelEngine::request_stop`] (or the
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
            observe: false,
            fault: None,
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
    /// Claim invalidated before/while acquiring condition locks: the
    /// instantiation is no longer in its shard's conflict set when it is
    /// validated. A session transaction naming a tuple that no longer
    /// exists aborts with it too. RHS evaluation errors are counted in
    /// [`AbortStats::eval_error`], not here.
    pub stale: u64,
    /// Revalidation failed (policy `Revalidate`).
    pub revalidation: u64,
    /// RHS evaluation failed (e.g. division by zero); the
    /// instantiation is refracted so it is never retried.
    pub eval_error: u64,
    /// Session transactions rolled back because they overran the
    /// server's per-session transaction budget — the only source of
    /// [`AbortCause::Timeout`]; a lock wait has no deadline.
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
    /// The commit sequence, rule firings and external session commits
    /// in sequence order, as a compact commit log (a few dozen bytes
    /// per commit); iterate it, or [`crate::CommitLog::chunks`] its
    /// `firings`, to read decoded [`crate::Firing`]s.
    pub trace: Trace,
    /// `true` if a `halt` action ended the run.
    pub halted: bool,
    /// Aggregate lock-manager statistics for the run.
    pub lock_stats: dps_lock::LockStats,
    /// Injection counters, when a [`ParallelConfig::fault`] plan was
    /// attached.
    pub fault_stats: Option<FaultStats>,
    /// Sharded-match fan-out tallies (batches published, shard×batch
    /// applies, free epoch advances, stolen catch-ups; maintained with
    /// or without [`ParallelConfig::observe`]).
    pub fanout: FanoutStats,
    /// WAL counters, when [`ParallelConfig::durability`] was attached
    /// (appends/fsyncs/piggybacks — the group-commit evidence).
    pub wal: Option<WalStats>,
}

/// The run's termination state; the engine condvar is tied to this
/// mutex. Claims and refraction live on the match shards, dooms in the
/// lock manager.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Claims taken and not yet resolved, over every shard.
    pub(crate) inflight: usize,
    pub(crate) done: bool,
    /// Threads parked on the engine condvar waiting for an in-flight
    /// claim to resolve ([`ParallelEngine::park`]). A committer or
    /// aborter that changed the ledger reads it before letting go of
    /// the ledger and skips the wake when it is zero: a waiter registers
    /// before its wait releases the ledger, so it either saw the change
    /// or is counted here. Service-mode workers idle at quiescence are
    /// not counted: they park on the idle condvar, which commits never
    /// notify.
    pub(crate) waiters: usize,
}

/// Run counters, updated lock-free.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub(crate) commits: AtomicUsize,
    /// Aborts by cause, indexed by [`AbortCause::index`].
    aborts: [AtomicU64; AbortCause::ALL.len()],
    wasted_nanos: AtomicU64,
    /// Time committers spent acquiring / holding the base mutex
    /// (`Phase::BaseWait` / `Phase::BaseHold`), summed; maintained
    /// only while a recorder or the telemetry sampler is attached.
    pub(crate) base_wait_nanos: AtomicU64,
    pub(crate) base_hold_nanos: AtomicU64,
}

impl Metrics {
    fn aborts_by(&self, cause: AbortCause) -> u64 {
        self.aborts[cause.index()].load(Relaxed)
    }

    fn abort_stats(&self) -> AbortStats {
        AbortStats {
            doomed: self.aborts_by(AbortCause::Doomed),
            deadlock: self.aborts_by(AbortCause::Deadlock),
            stale: self.aborts_by(AbortCause::Stale),
            revalidation: self.aborts_by(AbortCause::Revalidation),
            eval_error: self.aborts_by(AbortCause::EvalError),
            timeout: self.aborts_by(AbortCause::Timeout),
            injected: self.aborts_by(AbortCause::Injected),
            snapshot_stale: self.aborts_by(AbortCause::SnapshotStale),
            elision_stale: self.aborts_by(AbortCause::ElisionStale),
        }
    }

    pub(crate) fn count_abort(&self, cause: AbortCause) {
        self.aborts[cause.index()].fetch_add(1, Relaxed);
    }
}

/// The dynamic-approach parallel engine. See the module docs.
///
/// Field visibility: `pub(crate)` where the external-session layer
/// ([`crate::session`]) shares the commit machinery.
pub struct ParallelEngine {
    rules: RuleSet,
    pub(crate) config: ParallelConfig,
    /// Class → relation-resource id of every class any rule mentions,
    /// fixed at build: a rule firing's relation resources resolve here
    /// without a lock.
    rule_class_ids: HashMap<Atom, u32>,
    /// Ids for classes first seen at run time (external session inserts
    /// and queries), allocated on demand after the rule classes' ids.
    session_class_ids: RwLock<HashMap<Atom, u32>>,
    /// Piece (b): the authoritative WM (commit critical section) plus
    /// the per-shard match networks and their inboxes.
    /// `Arc`'d (like `metrics` and `lm`) so telemetry
    /// probes — `'static` closures on the sampler thread — can read
    /// its atomics after borrowing rules forbid a plain reference.
    pub(crate) pipeline: Arc<MatchPipeline>,
    /// Piece (a): termination; both condvars are tied to it. Padded:
    /// every claim and its end write its mutex word.
    pub(crate) ledger: CachePadded<Mutex<Ledger>>,
    /// Threads waiting for an in-flight claim to resolve; commits and
    /// aborts notify it when [`Ledger::waiters`] is non-zero.
    pub(crate) cv: Condvar,
    /// Service-mode workers parked at quiescence. Only the end of the
    /// run, [`ParallelEngine::request_stop`] and their own 10 ms rescan
    /// wake them: the thread whose commit enabled a firing fires it
    /// ([`ParallelEngine::fire_ready`]).
    idle: Condvar,
    /// Piece (c): counters.
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) lm: Arc<LockManager>,
    /// Observability sink ([`ParallelConfig::observe`]); shared with the
    /// lock manager. `None` ⇒ every instrumentation site is one branch.
    pub(crate) obs: Option<Arc<Recorder>>,
    /// Chaos injector ([`ParallelConfig::fault`]); shared with the lock
    /// manager. `None` ⇒ every seam is one branch.
    pub(crate) injector: Option<Arc<FaultInjector>>,
    /// Durability layer ([`ParallelConfig::durability`]): checkpoint +
    /// group-commit WAL. `None` ⇒ the commit path pays one branch.
    pub(crate) durable: Option<Arc<DurableWm>>,
    /// Sequence of the newest `Checkpoint` event recorded. Its lock
    /// orders `Checkpoint` and `WalSync` events: a committer's horizon
    /// can fall below a checkpoint recorded after it was read, and is
    /// then stale (the checkpoint's rotation already made it durable).
    pub(crate) checkpoint_recorded: Mutex<u64>,
    /// The commit sequence this incarnation resumed from (0 for a
    /// fresh run); see [`Self::history_seq`].
    pub(crate) base_seq: u64,
    /// Live-telemetry registry + sampler ([`ParallelConfig::telemetry`]).
    telemetry: Option<Arc<Telemetry>>,
    /// Internal stop latch ([`ParallelEngine::request_stop`]); OR'd with
    /// the external [`ParallelConfig::stop`] flag in [`Self::capped`].
    stop: AtomicBool,
    /// A rule firing that halted has committed: set and checked by the
    /// commit section under the base mutex, read by [`Self::capped`]
    /// without a lock.
    pub(crate) halted: AtomicBool,
    /// External session commits threaded through the engine (kept out
    /// of [`Metrics::commits`], which counts rule firings and gates the
    /// commit cap).
    pub(crate) external_commits: AtomicU64,
    /// Set by the first [`Self::run_shared`]: the report takes the
    /// trace, so a second run is a bug (debug-asserted).
    ran: AtomicBool,
}

// The ledger stays on lines of its own (EXPERIMENTS §XS.30).
const _: () = assert!(field_align(|e: &ParallelEngine| &e.ledger) >= 128);

impl ParallelEngine {
    /// Creates the engine over an initial working memory.
    pub fn new(rules: &RuleSet, wm: WorkingMemory, config: ParallelConfig) -> Self {
        Self::resume(rules, wm, 0, config)
    }

    /// Creates the engine over a **recovered** working memory, resuming
    /// the commit sequence at `base_seq + 1` (see [`dps_wm::recover`]).
    /// With [`ParallelConfig::durability`] set, a fresh checkpoint is
    /// cut at `base_seq` so the new log suffix starts clean (this also
    /// retires any torn tail left by the crash).
    pub fn resume(
        rules: &RuleSet,
        wm: WorkingMemory,
        base_seq: u64,
        config: ParallelConfig,
    ) -> Self {
        // The durability layer snapshots `wm` before the pipeline takes
        // ownership of it (checkpoint-at-base: recovery never needs log
        // records older than `base_seq`).
        let durable = config.durability.as_ref().map(|d| {
            Arc::new(
                DurableWm::create(&d.dir, &wm, base_seq)
                    .expect("durability dir initialises"),
            )
        });
        let plan = ShardPlan::new(rules, config.match_shards);
        let versioned = Strategy::any_snapshot(&config, &plan);
        let pipeline = MatchPipeline::new_at(rules, wm, plan, base_seq, versioned);
        let mut class_ids = HashMap::new();
        for (id, _) in rules.iter() {
            for class in &rules.access(id).classes {
                let next = class_ids.len() as u32;
                class_ids.entry(class.clone()).or_insert(next);
            }
        }
        let obs = config.observe.then(|| Arc::new(Recorder::default()));
        let injector = config
            .fault
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let pipeline = Arc::new(pipeline);
        let metrics = Arc::new(Metrics::default());
        let telemetry = config.telemetry.clone().map(|t| Arc::new(Telemetry::new(t)));
        let wait_hist = telemetry.as_ref().map(|_| Arc::new(Histogram::default()));
        let lm = Arc::new(
            LockManager::builder()
                .policy(config.policy)
                .obs(obs.clone())
                .fault(injector.clone())
                .wait_hist(wait_hist.clone())
                .build(),
        );
        if let Some(tel) = &telemetry {
            Self::register_probes(tel, &metrics, &lm, &pipeline, durable.as_ref(), wait_hist);
        }
        ParallelEngine {
            rules: rules.clone(),
            rule_class_ids: class_ids,
            session_class_ids: RwLock::default(),
            lm,
            config,
            pipeline,
            ledger: CachePadded::default(),
            cv: Condvar::new(),
            idle: Condvar::new(),
            metrics,
            obs,
            injector,
            durable,
            checkpoint_recorded: Mutex::new(0),
            base_seq,
            telemetry,
            stop: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            external_commits: AtomicU64::new(0),
            ran: AtomicBool::new(false),
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
        durable: Option<&Arc<DurableWm>>,
        wait_hist: Option<Arc<Histogram>>,
    ) {
        // Engine: commit + abort-by-cause counters (per-tick first
        // differences are the rates) and wasted work.
        let m = Arc::clone(metrics);
        tel.counter("engine.commits", move || m.commits.load(Relaxed) as u64);
        for cause in AbortCause::ALL {
            let m = Arc::clone(metrics);
            tel.counter(format!("engine.aborts.{}", cause.name()), move || m.aborts_by(cause));
        }
        let nanos: [(&str, fn(&Metrics) -> &AtomicU64); 3] = [
            ("engine.wasted_ns", |m| &m.wasted_nanos),
            ("engine.base_wait_ns", |m| &m.base_wait_nanos),
            ("engine.base_hold_ns", |m| &m.base_hold_nanos),
        ];
        for (name, cell) in nanos {
            let m = Arc::clone(metrics);
            tel.counter(name, move || cell(&m).load(Relaxed));
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
        let gauges: [(&str, fn(&MatchPipeline) -> u64); 3] = [
            ("pipeline.log_depth", MatchPipeline::log_depth),
            ("pipeline.cursor_lag", MatchPipeline::max_cursor_lag),
            ("pipeline.snapshot_pins", MatchPipeline::pin_count),
        ];
        for (name, read) in gauges {
            let p = Arc::clone(pipeline);
            tel.gauge(name, move || read(&p));
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
        if let Some(id) = self.rule_class_ids.get(class) {
            return ResourceId::Relation(*id);
        }
        if let Some(id) = self.session_class_ids.read().unwrap().get(class) {
            return ResourceId::Relation(*id);
        }
        // New class (an external session insert): allocate an id on
        // demand. `entry` re-checks under the write lock, so two racing
        // allocators agree.
        let mut map = self.session_class_ids.write().unwrap();
        let next = (self.rule_class_ids.len() + map.len()) as u32;
        ResourceId::Relation(*map.entry(class.clone()).or_insert(next))
    }

    /// Runs the system to quiescence with `config.workers` threads.
    pub fn run(&mut self) -> ParallelReport {
        self.run_shared()
    }

    /// [`Self::run`] through a shared reference, for callers that keep
    /// using the engine concurrently while it runs — the server holds
    /// `&self` on its session-handler threads (external transactions)
    /// while one scoped thread sits in `run_shared`. One run per
    /// engine: the report takes the commit trace rather than copying it.
    pub fn run_shared(&self) -> ParallelReport {
        let first = !self.ran.swap(true, Relaxed);
        debug_assert!(first, "a ParallelEngine runs once");
        let start = Instant::now();
        if let Some(tel) = &self.telemetry {
            tel.start();
        }
        let workers = self.config.workers.max(1);
        std::thread::scope(|scope| {
            for idx in 0..workers {
                std::thread::Builder::new()
                    .name(format!("dps-worker-{idx}"))
                    .spawn_scoped(scope, move || while self.worker_step(idx) {})
                    .expect("spawn engine worker");
            }
        });
        // Quiescence flush: committers only request durability, and the
        // log writer syncs what was requested; make the final tail
        // durable here (the writer does it, this thread waits) so a
        // clean shutdown recovers completely.
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
        debug_assert_eq!(self.lm.live_txns(), 0, "transactions left unfinished past drain");
        let wall = start.elapsed();
        ParallelReport {
            commits: self.metrics.commits.load(Relaxed),
            aborts: self.metrics.abort_stats(),
            wall,
            wasted_work: Duration::from_nanos(self.metrics.wasted_nanos.load(Relaxed)),
            // Moved, not cloned: a copy would double the trace's memory
            // at the run's peak.
            trace: self.pipeline.lock_base().trace.take(),
            halted: self.halted.load(Relaxed),
            lock_stats: self.lm.stats(),
            fault_stats: self.injector.as_ref().map(|inj| inj.stats()),
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
        self.pipeline.lock_base().wm.clone()
    }

    /// Locks currently held in the engine's lock table (see
    /// [`LockManager::held_locks`]) — the disconnect-chaos gate's leak
    /// probe: zero after every drain.
    pub fn held_locks(&self) -> u64 {
        self.lm.held_locks()
    }

    /// Read-snapshot pins currently held — the other half of the leak
    /// probe.
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

    /// `true` when the run may not claim more work (halt seen, the
    /// commit cap reached counting the claims in flight, or a stop was
    /// requested). Every in-flight claim may still commit, so a claim
    /// taken at `commits + inflight == max_commits` could overshoot the
    /// cap. `commits` and `inflight` only change under the ledger lock,
    /// so reads under that lock are exact.
    fn capped(&self, ledger: &Ledger) -> bool {
        self.halted.load(Relaxed)
            || self.metrics.commits.load(Relaxed) + ledger.inflight >= self.config.max_commits
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
    /// signal handler's helper thread). Locking the ledger (empty
    /// critical section) before waking every parked worker orders the
    /// wake against the claim gate's check-then-wait.
    pub fn request_stop(&self) {
        self.stop.store(true, Relaxed);
        drop(self.ledger.lock().unwrap());
        self.wake_all();
    }

    /// Wakes every parked thread, idle workers included.
    pub(crate) fn wake_all(&self) {
        self.cv.notify_all();
        self.idle.notify_all();
    }

    /// Parks on the engine condvar (for at most `timeout`, if given)
    /// until an in-flight claim resolves, counted in
    /// [`Ledger::waiters`] for as long as it waits.
    pub(crate) fn park<'a>(
        &self,
        mut ledger: MutexGuard<'a, Ledger>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, Ledger> {
        ledger.waiters += 1;
        let mut ledger = match timeout {
            Some(t) => self.cv.wait_timeout(ledger, t).unwrap().0,
            None => self.cv.wait(ledger).unwrap(),
        };
        ledger.waiters -= 1;
        ledger
    }

    /// Fires what is ready, on the calling thread: claims and executes
    /// claimable instantiations one at a time, through the transaction
    /// skeleton a worker runs, until a scan finds nothing claimable or
    /// the run is over. It never parks and never waits on another
    /// thread's claim. It also leaves alone every shard another thread
    /// has a claim in flight on: that thread rescans once its claim
    /// resolves, so what the shard holds gets fired, and firers do not
    /// pile onto one hot shard to doom each other.
    ///
    /// In service mode this is how rules fire: the server calls it
    /// after replying to a committed session transaction, so what the
    /// commit enabled fires on the session thread while the client
    /// turns around, and parked workers stay parked.
    /// [`Self::await_quiescence`] calls it before it parks, so a caller
    /// committing through [`Self::external_commit`] alone never waits
    /// for a worker's idle rescan.
    pub fn fire_ready(&self) {
        let offset = caller_offset();
        while let Scan::Claimed(inst, claim) = self.scan_claim(offset, true) {
            self.execute_claim(inst, claim);
        }
    }

    /// One claim→execute→commit attempt (or a wait); `false` once the
    /// run is over.
    fn worker_step(&self, worker: usize) -> bool {
        let (inst, claim) = loop {
            // ---- gate: termination / halt / commit cap ----
            {
                let mut ledger = self.ledger.lock().unwrap();
                if ledger.done {
                    return false;
                }
                if self.capped(&ledger) {
                    if ledger.inflight == 0 {
                        ledger.done = true;
                        drop(ledger);
                        self.wake_all();
                        return false;
                    }
                    drop(self.park(ledger, None));
                    continue;
                }
            }
            let (w, saw_claimed) = match self.scan_claim(worker, false) {
                Scan::Claimed(inst, claim) => break (inst, claim),
                Scan::Idle { w, saw_claimed } => (w, saw_claimed),
            };
            let mut ledger = self.ledger.lock().unwrap();
            if ledger.done {
                return false;
            }
            // Sound termination: zero candidates across every shard at
            // watermark `w`, nothing in flight, and no commit advanced
            // the watermark since the scan began (commits bump the
            // watermark *before* decrementing `inflight`, both before
            // their condvar notify, so this re-check cannot miss one).
            if !self.capped(&ledger)
                && !saw_claimed
                && ledger.inflight == 0
                && self.pipeline.watermark() == w
            {
                if self.config.service {
                    // Service mode: quiescence is idleness, not
                    // termination. Park on the idle condvar: whoever
                    // commits new WM state fires what it enabled
                    // (`fire_ready`), so no commit wakes this worker.
                    // The 10 ms rescan is the safety net for a commit
                    // nobody fires after (a bare `external_commit`).
                    drop(self.idle.wait_timeout(ledger, Duration::from_millis(10)).unwrap());
                    continue;
                }
                ledger.done = true;
                drop(ledger);
                self.wake_all();
                return false;
            }
            if ledger.inflight > 0 {
                drop(self.park(ledger, None));
            }
            // else: the watermark moved (or a claimed key was released)
            // — rescan immediately.
        };
        self.execute_claim(inst, claim);
        true
    }

    /// One claim scan at a fixed watermark.
    ///
    /// The claim scan walks the match shards in
    /// [`crate::pipeline::scan_order`]: from `worker`'s own rotation
    /// offset, shards with another worker's in-flight claim or a held
    /// lock last — workers settle on different shards (different key
    /// partitions, when one hot rule is split) instead of queueing on
    /// one shard lock — and every shard once before the scan concludes
    /// nothing is claimable. Each shard is first caught
    /// up to the watermark — idle claim scans *steal* the
    /// pending shard×batch match work — then scanned skipping the keys
    /// in the shard's claim book (its conflict set lists no refracted
    /// key), on shard-local state alone. The
    /// ledger is taken once, at the first free candidate, for the cap
    /// and the in-flight count; the claim itself, and the transaction
    /// begun for it, go into the book under the shard lock the scan
    /// holds. `skip_busy` skips the busy shards instead of scanning them
    /// last (`fire_ready`). A scan that meets the end of the run (done,
    /// halt, cap) stops early and reports idle; the caller's gate sees
    /// why.
    fn scan_claim(&self, worker: usize, skip_busy: bool) -> Scan<'_> {
        let w = self.pipeline.watermark();
        let busy = self.pipeline.busy_shards();
        let mut saw_claimed = false;
        for s in scan_order(worker, self.pipeline.shards(), busy) {
            if skip_busy && is_busy(busy, s) {
                continue;
            }
            let mut guard = self.pipeline.shard_state(s);
            self.pipeline
                .catch_up(s, w, &mut guard, true, self.obs.as_deref());
            let state = &mut *guard;
            let free = state.rete.conflict_set().keys().find(|&key| {
                let claimed = state.claims.contains_key(key);
                saw_claimed |= claimed;
                !claimed
            });
            let Some(key) = free else { continue };
            // Lock order: shard → ledger.
            {
                let mut ledger = self.ledger.lock().unwrap();
                if ledger.done || self.capped(&ledger) {
                    return Scan::Idle { w, saw_claimed };
                }
                ledger.inflight += 1;
            }
            let txn = self.lm.begin();
            state.claims.insert(key.clone(), txn);
            self.pipeline.claim_taken(s);
            // The one instantiation this scan materialises, under the
            // shard lock that keeps its tokens live.
            let inst = state.rete.instantiate(key).expect("listed key");
            debug_assert!(
                inst.wmes.iter().all(|w| self.pipeline.plan().route(w) == Some(s)),
                "every tuple of an instantiation routes to the shard that holds it"
            );
            let held = Claim { key: key.clone(), shard: s };
            let claim = ClaimGuard { engine: self, txn, held, unclaimed: false, released: false };
            return Scan::Claimed(inst, claim);
        }
        Scan::Idle { w, saw_claimed }
    }

    /// Runs one claimed instantiation as a transaction: picks its
    /// strategy, drives the skeleton, and does the abort bookkeeping.
    fn execute_claim(&self, inst: Instantiation, mut claim: ClaimGuard<'_>) {
        let rule = self.rules.get(inst.rule).expect("known rule");
        let txn = claim.txn;
        let strategy = Strategy::choose(&self.config, self.pipeline.plan(), Some(inst.rule));
        let cond = self.condition_resources(&inst);
        let mut worked = Duration::ZERO;
        let outcome = self.try_execute(&mut claim, strategy, &inst, rule, &cond, &mut worked);
        let Err(cause) = outcome else { return };
        self.record_abort(txn, inst.rule, cause);
        self.metrics.wasted_nanos.fetch_add(worked.as_nanos() as u64, Relaxed);
        // An instantiation that failed to evaluate is refracted as its
        // claim ends, so it is never retried; any other abort frees it
        // for the next attempt.
        let refract = cause == AbortCause::EvalError;
        claim.unclaim(&mut self.pipeline.shard_state(claim.held.shard), refract);
        let wake = {
            let mut ledger = self.ledger.lock().unwrap();
            claim.release(&mut ledger);
            ledger.waiters > 0
        };
        if wake {
            self.cv.notify_all();
        }
    }

    /// The transaction skeleton — claim → read phase → RHS → write
    /// phase → validate → commit section → release (the claim guard's).
    /// See the module docs for what each strategy does at each step.
    fn try_execute(
        &self,
        claim: &mut ClaimGuard<'_>,
        strategy: Strategy,
        inst: &Instantiation,
        rule: &Rule,
        cond: &[ResourceId],
        worked: &mut Duration,
    ) -> Result<(), AbortCause> {
        let txn = claim.txn;
        // Phase clocks (None when observability is off). Samples are
        // recorded only when a phase completes; the lock-wait histogram
        // (recorded inside the lock manager) covers the blocked tails of
        // phases that abort mid-lock.
        let mut clock = self.obs.as_ref().map(|_| Instant::now());
        let mut lap = |phase: Phase| {
            if let (Some(obs), Some(t)) = (&self.obs, &mut clock) {
                obs.phase(phase, std::mem::replace(t, Instant::now()).elapsed());
            }
        };

        // ---- read phase: cover the condition reads, then re-validate
        // the claim under them ----
        for res in cond {
            strategy.acquire(self, txn, *res, Access::Condition)?;
        }
        let (snapshot, _pin) = self.validate_claim(txn, strategy, inst, &claim.held)?;
        lap(Phase::LhsEval);

        // ---- RHS: simulated work, then the delta ----
        self.simulate_work(txn, worked)?;
        // Chaos seam: an injected RHS *panic* — unlike a stall or a
        // forced abort, the unwind must pass through the PinGuard and
        // ClaimGuard, which the leak-regression tests verify releases
        // every lock, snapshot pin and ledger entry.
        if let Some(inj) = &self.injector {
            if inj.rhs_panic(txn, 0, self.obs.as_deref()) {
                panic!("injected RHS panic (chaos plan rhs_panic_pm)");
            }
        }
        let (delta, halt) = instantiate_actions(rule, &inst.bindings, &inst.wmes)
            .map_err(|_| AbortCause::EvalError)?;

        // ---- write phase: cover the action reads and writes ----
        let (reads, writes) = self.action_resources(inst, &delta);
        for res in &reads {
            strategy.acquire(self, txn, *res, Access::Read)?;
        }
        for res in &writes {
            strategy.acquire(self, txn, *res, Access::Write)?;
        }
        lap(Phase::RhsAct);

        // The trace record, encoded before the base mutex.
        let firing = Firing {
            rule: inst.rule,
            rule_name: rule.name.clone(),
            key: claim.held.key.clone(),
            delta,
            halt,
        };
        let record = self.pipeline.encode(&firing);

        // ---- validate, under the base mutex: the commit critical
        // section starts here ----
        let base = self.lock_base_for_commit();
        if strategy.validate_at_commit() {
            // No condition locks protected the read set. Fast check: every
            // matched WME is still live with the matched timestamp, and
            // no negated class was written past the snapshot. Failing
            // that, the exact test: is the instantiation (still / again)
            // in its caught-up conflict set? Membership implies validity
            // *at this commit point*.
            let current = inst
                .wmes
                .iter()
                .all(|w| base.wm.get(w.id).is_some_and(|s| s.timestamp == w.timestamp))
                && (self.rules.access(inst.rule).negated_classes.iter())
                    .all(|class| base.class_write_seq(class) <= snapshot);
            if !current && !self.in_conflict_set_at(&claim.held, base.next_seq - 1, false) {
                return Err(strategy.stale_cause());
            }
        }

        // ---- commit section (consumes the base guard) ----
        let requests = (cond.len() + reads.len() + writes.len()) as u32;
        let commit =
            Commit { txn, strategy, firing, record, requests, claim: Some(claim), since: clock };
        self.commit_section(base, commit).map(drop)
    }

    /// The condition-read set of a claim: the firing's reads
    /// ([`crate::firing`]) as resources. With `R_c` escalation the
    /// matched tuples are grouped per class, so a group past the
    /// threshold becomes one relation-level resource. Computed under
    /// every strategy: where it is not locked it is still the injection
    /// and attribution surface.
    fn condition_resources(&self, inst: &Instantiation) -> Vec<ResourceId> {
        let tuple = |w: &Arc<Wme>| ResourceId::Tuple(w.id.0);
        let mut out: Vec<ResourceId> = Vec::with_capacity(inst.wmes.len() + 1);
        match self.config.rc_escalation {
            // Only escalation reads the per-class grouping.
            Some(threshold) => {
                let mut by_class: HashMap<&Atom, Vec<ResourceId>> = HashMap::new();
                for w in &inst.wmes {
                    by_class.entry(&w.data.class).or_default().push(tuple(w));
                }
                for (class, tuples) in by_class {
                    if tuples.len() > threshold {
                        out.push(self.relation_resource(class));
                    } else {
                        out.extend(tuples);
                    }
                }
            }
            None => out.extend(inst.wmes.iter().map(tuple)),
        }
        let negated = &self.rules.access(inst.rule).negated_classes;
        out.extend(negated.iter().map(|class| self.relation_resource(class)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The action `(reads, writes)` of a computed delta: the firing's
    /// writes ([`crate::firing`]) as resources, a class's being the
    /// relation's intention write, which the class's other writers
    /// share. Reads are the matched tuples the delta does not write
    /// (those take the write access instead).
    fn action_resources(
        &self,
        inst: &Instantiation,
        delta: &DeltaSet,
    ) -> (Vec<ResourceId>, Vec<ResourceId>) {
        let mut writes: Vec<ResourceId> = delta
            .written_ids()
            .map(|id| ResourceId::Tuple(id.0))
            .chain(firing::write_classes(inst, delta).map(|class| self.relation_resource(class)))
            .collect();
        writes.sort_unstable();
        writes.dedup();
        let mut reads: Vec<ResourceId> = inst
            .wmes
            .iter()
            .map(|w| ResourceId::Tuple(w.id.0))
            .filter(|r| !writes.contains(r))
            .collect();
        reads.sort_unstable();
        reads.dedup();
        (reads, writes)
    }

    /// Re-validates the claim at the newest fully published sequence
    /// `w` (returned, with the snapshot pin when the strategy takes
    /// one). The watermark is read under the base mutex, so every
    /// publish ≤ `w` is complete; the shard is caught up to at least
    /// `w` before the membership check.
    ///
    /// Taking the base mutex here is a **barrier**, not just a read: a
    /// committer releases its locks at `lm.commit` but publishes a few
    /// steps later, still under the base mutex. A reader that got its
    /// condition locks in that gap and read the lock-free
    /// `watermark()` instead would validate against a state that does
    /// not yet contain a commit its locks no longer protect it from —
    /// and carry a stale claim to `wm.apply`.
    ///
    /// Under locks, any *later* commit that could invalidate the claim
    /// necessarily conflicts with the condition locks just acquired
    /// (tuple `Wa`, or relation `IWa` vs our negated-class relation
    /// `Rc`), so the lock manager dooms us — a stale shard view can
    /// never carry a claim to commit. Snapshot strategies have no such
    /// protection: they pin `w`, record the version each matched tuple
    /// read — the reads-from edges of the SI polygraph — and leave
    /// later invalidations to commit-time validation. Membership at `w`
    /// is the whole read check: instantiation identity includes
    /// timestamps, so every matched tuple was live at `w` with the
    /// matched timestamp, and its installing commit, read in the hold
    /// that fixed `w`, is the version it read.
    fn validate_claim(
        &self,
        txn: TxnId,
        strategy: Strategy,
        inst: &Instantiation,
        claim: &Claim,
    ) -> Result<(u64, Option<PinGuard<'_>>), AbortCause> {
        let (w, pin, installed) = if strategy.pins_snapshot() {
            let (w, installed) = self.pin_snapshot(txn, &inst.wmes);
            (w, Some(PinGuard { pipeline: &self.pipeline }), installed)
        } else {
            (self.pipeline.lock_base().next_seq - 1, None, Vec::new())
        };
        if !self.in_conflict_set_at(claim, w, true) {
            return Err(AbortCause::Stale);
        }
        for (wme, seq) in inst.wmes.iter().zip(installed) {
            let resource = res_key(ResourceId::Tuple(wme.id.0));
            self.emit(txn, ObsEvent::VersionRead { resource, seq: self.history_seq(seq) });
        }
        Ok((w, pin))
    }

    /// The abort cause a lock-manager error surfaces as. Under
    /// [`ConflictPolicy::Revalidate`] the lock manager only hands
    /// overlapped readers back, so a doom by a writer is always the
    /// engine's revalidation verdict.
    pub(crate) fn classify(&self, e: dps_lock::LockError) -> AbortCause {
        match e {
            dps_lock::LockError::DoomedByWriter { .. } => match self.config.policy {
                ConflictPolicy::Revalidate => AbortCause::Revalidation,
                _ => AbortCause::Doomed,
            },
            dps_lock::LockError::Deadlock(_) => AbortCause::Deadlock,
            dps_lock::LockError::Injected(_) => AbortCause::Injected,
            dps_lock::LockError::NotActive(_) => AbortCause::Stale,
        }
    }

    /// Simulated RHS work ([`ParallelConfig::work`]), polling for dooms
    /// so an invalidated production stops early. Polling touches only
    /// the lock manager, never the world — busy workers do not
    /// serialise the matcher. `worked` is what an abort wastes.
    fn simulate_work(&self, txn: TxnId, worked: &mut Duration) -> Result<(), AbortCause> {
        let budget = self.config.work.duration();
        if budget.is_zero() {
            return Ok(());
        }
        let busy = self.config.work.is_busy();
        let slice = Duration::from_micros(50).min(budget);
        let slice_us = slice.as_micros().max(1) as u64;
        // Busy mode completes a *quota of slices*, not a wall-clock
        // budget: on an oversubscribed machine the wall clock keeps
        // running while a worker is descheduled, and an elapsed check
        // would hand it that time as free work.
        let slices = (budget.as_micros().max(1) as u64).div_ceil(slice_us);
        let t0 = Instant::now();
        let mut step: u64 = 0;
        while if busy { step < slices } else { t0.elapsed() < budget } {
            if busy {
                spin_iters(slice_us * spin_iters_per_us());
            } else {
                std::thread::sleep(slice);
            }
            step += 1;
            // Chaos seam: a seeded mid-RHS stall widens the window in
            // which a committing writer dooms this worker — the poll
            // below must still catch it before the next step. Stall
            // time counts as worked (wasted on abort).
            if let Some(inj) = &self.injector {
                inj.rhs_stall(txn, step, self.obs.as_deref());
            }
            // Busy wasted work is the CPU actually burned (slices
            // completed), not elapsed time — a descheduled worker
            // wastes nothing while it isn't running.
            *worked = if busy { Duration::from_micros(slice_us * step) } else { t0.elapsed() };
            self.lm.check(txn).map_err(|e| self.classify(e))?;
        }
        *worked = budget;
        Ok(())
    }
}

/// What one claim scan ([`ParallelEngine::scan_claim`]) found.
enum Scan<'e> {
    /// An instantiation, claimed, and the guard that owns its claim.
    Claimed(Instantiation, ClaimGuard<'e>),
    /// Nothing claimable at watermark `w`; `saw_claimed` when a
    /// candidate was skipped as another thread's claim.
    Idle { w: u64, saw_claimed: bool },
}

/// The claim-scan rotation offset of a thread that fires on its own
/// account ([`ParallelEngine::fire_ready`]): distinct per thread, so
/// session threads spread their first shard the way workers do.
fn caller_offset() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static OFFSET: usize = NEXT.fetch_add(1, Relaxed));
    OFFSET.with(|o| *o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::validate_trace;
    use dps_lock::WalKillSite;
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

    /// Relations are numbered by first appearance over the rules in id
    /// order — each rule's CEs in text order (negated ones included),
    /// then its `make` targets — and lock acquisition order follows.
    #[test]
    fn relations_are_numbered_by_first_appearance() {
        let rules =
            RuleSet::parse("(p r (b) -(a) --> (make c)) (p s (c) (b) --> (make d))").unwrap();
        let engine = ParallelEngine::new(&rules, WorkingMemory::new(), ParallelConfig::default());
        let ids: Vec<ResourceId> =
            ["b", "a", "c", "d"].iter().map(|c| engine.relation_resource(&Atom::from(*c))).collect();
        assert_eq!(ids, (0..4).map(ResourceId::Relation).collect::<Vec<_>>());
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

    fn mvcc(cfg: ParallelConfig) -> ParallelConfig {
        ParallelConfig {
            policy: ConflictPolicy::MvccSnapshot,
            ..cfg
        }
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
        let log: Vec<u64> = report.trace.firings.txns().collect();
        let si = dps_obs::analysis::si_checker::check_history(&history, &log);
        assert_eq!(si.committed, 8, "every commit pinned a snapshot");
        assert!(
            si.violations.is_empty() && si.cycle.is_none(),
            "SI checker must accept a genuine MVCC run: {:?}",
            si.violations
        );
    }

    #[test]
    fn resumed_mvcc_history_passes_si_checker() {
        // A resumed engine commits from `base + 1` while its commit
        // log counts slots from 0: its snapshot and version
        // events must count from the same origin. Each cell is bumped
        // twice, so the second bump reads a version this run wrote.
        let (rules, wm) = counters(4, 2);
        let cfg = mvcc(ParallelConfig {
            workers: 4,
            observe: true,
            ..Default::default()
        });
        let initial = wm.clone();
        let mut e = ParallelEngine::resume(&rules, wm, 100, cfg);
        let report = e.run();
        validate_trace(&rules, &initial, &report.trace).expect("oracle");
        assert_eq!(report.commits, 8);
        let history = e.observer().unwrap().history();
        dps_obs::validate_history(&history).expect("well-formed history");
        let log: Vec<u64> = report.trace.firings.txns().collect();
        let si = dps_obs::analysis::si_checker::check_history(&history, &log);
        assert_eq!(si.committed, 8, "every commit pinned a snapshot");
        assert!(
            si.violations.is_empty() && si.cycle.is_none(),
            "SI checker must accept a resumed MVCC run: {:?}",
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

    /// Claims the next claimable instantiation, as a worker's scan does.
    fn claim(engine: &ParallelEngine) -> (Instantiation, ClaimGuard<'_>) {
        match engine.scan_claim(0, false) {
            Scan::Claimed(inst, claim) => (inst, claim),
            Scan::Idle { .. } => panic!("nothing claimable"),
        }
    }

    /// `validate_claim`'s base-mutex acquisition is a barrier: a
    /// committer has released its locks at `lm.commit` but publishes a
    /// few steps later, still under the base mutex. A reader that takes
    /// its condition locks in that gap must not validate against the
    /// pre-commit state (the lock-free `watermark()` would let it): it
    /// waits the publish out and finds its claim gone.
    #[test]
    fn ordering_claim_validation_waits_out_an_unpublished_commit() {
        let rules = RuleSet::parse(
            "(p apply (delta ^v <d>) (acc ^total <t>)
               --> (remove 1) (modify 2 ^total (+ <t> <d>)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("delta").with("v", 1i64));
        wm.insert(WmeData::new("delta").with("v", 2i64));
        wm.insert(WmeData::new("acc").with("total", 0i64));
        let initial = wm.clone();
        let cfg = ParallelConfig {
            workers: 1,
            fault: Some(FaultPlan {
                publish_stall_commit: 1,
                publish_stall_us: 100_000,
                ..Default::default()
            }),
            ..Default::default()
        };
        let engine = ParallelEngine::new(&rules, wm, cfg);
        // Claim both instantiations the way `worker_step` does; both
        // read (and write) the one `acc` tuple.
        let (committer, reader) = (claim(&engine), claim(&engine));
        let injector = engine.injector.as_ref().unwrap();
        std::thread::scope(|scope| {
            // The committer parks in the gap (commit 1 stalls between
            // `lm.commit` and `publish`) ...
            scope.spawn(|| engine.execute_claim(committer.0, committer.1));
            while injector.stats().publish_stalls == 0 {
                std::thread::yield_now();
            }
            // ... and the reader locks and validates inside it.
            engine.execute_claim(reader.0, reader.1);
        });
        assert_eq!(engine.metrics.commits.load(Relaxed), 1);
        assert_eq!(
            engine.metrics.abort_stats(),
            AbortStats { stale: 1, ..Default::default() },
            "the reader saw the committed sequence and dropped its stale claim"
        );
        // The surviving delta re-matches against the new `acc` and fires.
        let report = engine.run_shared();
        assert_eq!(report.commits, 2);
        validate_trace(&rules, &initial, &report.trace).expect("semantic consistency");
        let acc = engine.final_wm();
        assert_eq!(acc.class_iter("acc").next().unwrap().get("total"), Some(&Value::Int(3)));
        assert_eq!(engine.held_locks(), 0);
    }

    /// A key-partitionable accumulator a `block` tuple of the same key
    /// disables.
    const BLOCKABLE_APPLY: &str = "(p apply (delta ^key <k> ^v <v>) (acc ^key <k> ^total <t>)
        -(block ^key <k>) --> (remove 1) (modify 2 ^total (+ <t> <v>)))";

    /// Under `Revalidate`, claims `apply` on key 0 and, once the reader
    /// holds its condition locks and is in its RHS (`work_us` long),
    /// commits a session write that overlaps one of its `Rc` locks, so
    /// the commit hands the reader back: with `blocked` `None`, a remove
    /// of the reader's own `acc`; with `Some(k)`, an insert of `block
    /// ^key k` (its relation write meets the reader's `Rc` on `block`).
    /// Returns the engine run to quiescence, the report, the reader and
    /// the session's writer.
    fn revalidate_after_a_session_write(
        match_shards: usize,
        blocked: Option<i64>,
        work_us: u64,
    ) -> (ParallelEngine, ParallelReport, TxnId, TxnId) {
        let rules = RuleSet::parse(BLOCKABLE_APPLY).unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("delta").with("key", 0i64).with("v", 1i64));
        let acc = wm.insert(WmeData::new("acc").with("key", 0i64).with("total", 0i64));
        let initial = wm.clone();
        let cfg = ParallelConfig {
            policy: ConflictPolicy::Revalidate,
            workers: 1,
            work: WorkModel::FixedMicros(work_us),
            observe: true,
            match_shards,
            ..Default::default()
        };
        let engine = ParallelEngine::new(&rules, wm, cfg);
        let (inst, claim) = claim(&engine);
        let reader = claim.txn;
        let mut xt = engine.external_begin();
        std::thread::scope(|scope| {
            scope.spawn(|| engine.execute_claim(inst, claim));
            let obs = engine.observer().unwrap();
            while obs.phase_snapshot(Phase::LhsEval).count == 0 {
                std::thread::yield_now();
            }
            assert!(engine.lm.is_active(reader), "the reader is still in its RHS");
            match blocked {
                None => engine.external_remove(&mut xt, acc).unwrap(),
                Some(k) => engine.external_insert(&mut xt, WmeData::new("block").with("key", k)).unwrap(),
            }
            engine.external_commit(&mut xt).unwrap();
        });
        let report = engine.run_shared();
        validate_trace(&rules, &initial, &report.trace).expect("semantic consistency");
        (engine, report, reader, xt.txn())
    }

    /// The engine's revalidation verdict is a lock-manager doom: booked
    /// in `dooms`, recorded as `Doom { by }` before the reader's abort,
    /// a doom edge of the blocking graph, and surfaced as `Revalidation`.
    #[test]
    fn revalidation_dooms_through_the_lock_manager() {
        let (engine, report, reader, writer) = revalidate_after_a_session_write(1, None, 10_000_000);
        assert_eq!(report.aborts, AbortStats { revalidation: 1, ..Default::default() });
        assert_eq!((report.commits, report.lock_stats.dooms), (0, 1));
        let history = engine.observer().unwrap().history();
        dps_obs::validate_history(&history).expect("well-formed history");
        let at = |kind: &dyn Fn(&ObsEvent) -> bool| {
            history.iter().position(|ev| ev.txn == reader.0 && kind(&ev.kind))
        };
        let doom = at(&|k| *k == ObsEvent::Doom { by: writer.0 }).expect("a Doom event");
        let abort = at(&|k| matches!(k, ObsEvent::Abort { cause: AbortCause::Revalidation, .. }));
        assert!(abort.is_some_and(|abort| doom < abort), "the doom precedes the abort");
        let graph = dps_obs::analysis::graph::build(&history);
        let edge = graph.edges.iter().find(|e| e.kind == dps_obs::analysis::EdgeKind::Doom);
        assert_eq!(edge.map(|e| (e.waiter, e.holder)), Some((reader.0, Some(writer.0))));
    }

    /// Key-partitioned, the verdict reads only the shards the batch
    /// routed to: a write of the reader's own tuple dooms it, a write to
    /// another partition leaves its claim in place and it commits.
    #[test]
    fn revalidation_dooms_only_on_the_readers_partition() {
        let plan = ShardPlan::new(&RuleSet::parse(BLOCKABLE_APPLY).unwrap(), 8);
        assert!(plan.partitions() > 1, "the rule spreads over key partitions");
        let route = |key: i64| {
            let w = WorkingMemory::new().insert_full(WmeData::new("block").with("key", key));
            plan.route(&w)
        };
        let other = (1..).find(|&k| route(k) != route(0)).unwrap();
        let (_, report, ..) = revalidate_after_a_session_write(8, None, 10_000_000);
        assert_eq!(report.aborts, AbortStats { revalidation: 1, ..Default::default() });
        assert_eq!((report.commits, report.lock_stats.dooms), (0, 1));
        let (_, report, ..) = revalidate_after_a_session_write(8, Some(other), 300_000);
        assert_eq!(report.aborts.total(), 0, "kept: its own partition saw no batch");
        assert_eq!((report.commits, report.lock_stats.dooms), (1, 0));
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

    /// Committers only request durability: each advance of the durable
    /// horizon is handed to one committer and recorded as one
    /// `WalSync`, and the history's WalSync/Checkpoint rule holds.
    #[test]
    fn durable_observed_run_records_each_horizon_advance_once() {
        let dir = durability_dir("observed");
        let (rules, wm) = counters(6, 4);
        let initial = wm.clone();
        let cfg = ParallelConfig {
            observe: true,
            durability: Some(DurabilityConfig { dir: dir.clone(), checkpoint_interval: 5 }),
            ..Default::default()
        };
        let mut e = ParallelEngine::new(&rules, wm, cfg);
        let report = e.run();
        validate_trace(&rules, &initial, &report.trace).expect("semantic consistency");
        assert_eq!(report.commits, 24);
        let obs = e.observer().unwrap();
        assert_eq!(obs.dropped(), 0);
        let history = obs.history();
        dps_obs::validate_history(&history).expect("well-formed history");
        let mut horizons: Vec<u64> = history
            .iter()
            .filter_map(|ev| match ev.kind {
                dps_obs::EventKind::WalSync { seq } => Some(seq),
                _ => None,
            })
            .collect();
        assert!(!horizons.is_empty(), "the writer's advances reach the committers");
        assert!(horizons.iter().all(|&h| (1..=24).contains(&h)));
        let reported = horizons.len();
        horizons.sort_unstable();
        horizons.dedup();
        assert_eq!(horizons.len(), reported, "an advance is reported once");
        assert_eq!(dps_wm::recover(&dir).expect("recovers").last_seq, 24);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two committers on the checkpoint cadence may reach the install
    /// out of sequence order: the later sequence wins, the older
    /// snapshot is skipped, and one `Checkpoint` event is recorded. A
    /// durable horizon read before that checkpoint and reported after
    /// it is stale, and is not recorded either.
    #[test]
    fn an_older_checkpoint_install_is_skipped_and_unrecorded() {
        let dir = durability_dir("install-order");
        let (rules, wm) = counters(2, 1);
        let snap = wm.encode_snapshot().unwrap();
        let cfg = ParallelConfig {
            observe: true,
            durability: Some(DurabilityConfig { dir: dir.clone(), checkpoint_interval: 5 }),
            ..Default::default()
        };
        let e = ParallelEngine::new(&rules, wm, cfg);
        e.install_checkpoint(TxnId(1), 15, &snap);
        e.install_checkpoint(TxnId(2), 10, &snap);
        e.record_wal_sync(TxnId(3), 12);
        e.record_wal_sync(TxnId(4), 16);
        let checkpoint = |seq: u64| dir.join(format!("checkpoint-{seq:020}.snap"));
        assert!(checkpoint(15).exists());
        assert!(!checkpoint(10).exists(), "the older install wrote nothing");
        let recorded: Vec<String> = e
            .observer()
            .unwrap()
            .history()
            .iter()
            .filter_map(|ev| match ev.kind {
                dps_obs::EventKind::Checkpoint { seq } => Some(format!("checkpoint {seq}")),
                dps_obs::EventKind::WalSync { seq } => Some(format!("sync {seq}")),
                _ => None,
            })
            .collect();
        assert_eq!(recorded, ["checkpoint 15", "sync 16"]);
        drop(e);
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

    /// A seeded random rule over classes `a`–`c`: one or two positive
    /// CEs joined on `^k`, maybe a negated CE joined the same way, and
    /// an RHS of `modify`, `remove` and `make` actions.
    fn random_rule(rng: &mut dps_wm::rng::SmallRng, n: usize) -> String {
        let class = |rng: &mut dps_wm::rng::SmallRng| ["a", "b", "c"][rng.index(3)];
        let ces = 1 + rng.index(2);
        let mut text = format!("(p r{n}");
        for _ in 0..ces {
            text += &format!(" ({} ^k <x>)", class(rng));
        }
        if rng.random_bool(0.5) {
            text += &format!(" -({} ^k <x>)", class(rng));
        }
        text += " -->";
        let modified = rng.random_bool(0.6).then(|| 1 + rng.index(ces));
        if let Some(ce) = modified {
            text += &format!(" (modify {ce} ^v {})", rng.index(3));
        }
        let removed = 1 + rng.index(ces);
        if modified != Some(removed) && rng.random_bool(0.5) {
            text += &format!(" (remove {removed})");
        }
        if rng.random_bool(0.5) || text.ends_with("-->") {
            text += &format!(" (make {} ^k {})", class(rng), rng.index(3));
        }
        text + ")"
    }

    /// Theorem 1's interference test and Theorem 2's 2PL locks read one
    /// definition of what a firing touches: over every pair of
    /// instantiations of random rule corpora, two footprints conflict
    /// exactly when the two firings' `S`/`X`/`IX` requests meet on a
    /// resource in modes the lock table refuses.
    #[test]
    fn footprint_interference_is_exactly_two_phase_lock_conflict() {
        use crate::Footprint;
        use dps_lock::{compatible, LockMode};
        use dps_match::Rete;

        let (mut pairs, mut conflicting) = (0, 0);
        for seed in 0..16u64 {
            let mut rng = dps_wm::rng::SmallRng::seed_from_u64(seed);
            let corpus: Vec<String> = (0..6).map(|n| random_rule(&mut rng, n)).collect();
            let rules = RuleSet::parse(&corpus.join("\n")).unwrap();
            let mut wm = WorkingMemory::new();
            for _ in 0..10 {
                let class = ["a", "b", "c"][rng.index(3)];
                wm.insert(WmeData::new(class).with("k", rng.index(3) as i64).with("v", 0i64));
            }
            let config = ParallelConfig {
                protocol: Protocol::TwoPhase,
                rc_escalation: None,
                ..Default::default()
            };
            let engine = ParallelEngine::new(&rules, wm.clone(), config);
            let rete = Rete::new(&rules, &wm);
            let p = Protocol::TwoPhase;
            let firings: Vec<(Footprint, Vec<(ResourceId, LockMode)>)> = rete
                .conflict_set()
                .keys()
                .map(|key| {
                    let inst = rete.instantiate(key).unwrap();
                    let rule = rules.get(inst.rule).unwrap();
                    let (delta, _) = instantiate_actions(rule, &inst.bindings, &inst.wmes).unwrap();
                    let (reads, writes) = engine.action_resources(&inst, &delta);
                    let write_mode = |r: &ResourceId| match r {
                        ResourceId::Tuple(_) => p.action_write(),
                        ResourceId::Relation(_) => p.relation_write(),
                    };
                    let requests = (engine.condition_resources(&inst).into_iter())
                        .map(|r| (r, p.condition_read()))
                        .chain(reads.into_iter().map(|r| (r, p.action_read())))
                        .chain(writes.into_iter().map(|r| (r, write_mode(&r))))
                        .collect();
                    (Footprint::of(rules.access(inst.rule), &inst, &delta), requests)
                })
                .collect();
            for (i, (fa, ra)) in firings.iter().enumerate() {
                for (fb, rb) in &firings[i + 1..] {
                    let locks_refuse = ra.iter().any(|(x, ma)| {
                        rb.iter().any(|(y, mb)| {
                            x == y && !(compatible(*ma, *mb) && compatible(*mb, *ma))
                        })
                    });
                    assert_eq!(
                        fa.conflicts(fb),
                        locks_refuse,
                        "seed {seed}: {fa:?} vs {fb:?}\n{ra:?} vs {rb:?}\n{}",
                        corpus.join("\n")
                    );
                    pairs += 1;
                    conflicting += usize::from(locks_refuse);
                }
            }
        }
        assert!(conflicting > 0 && conflicting < pairs, "{conflicting} of {pairs} pairs conflict");
    }
}
