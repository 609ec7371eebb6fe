//! The sharded match pipeline: the dynamic engine's working memory and
//! its matchers, locked apart.
//!
//! No claim scan or commit serialises on one matcher: the match state
//! is split into the paper's natural grain — the rule partition's
//! class-connected components, and below that the disjoint join keys of a
//! key-partitionable component ([`ShardPlan`]) — so the match phase runs
//! as a *pipeline* behind the commit critical section:
//!
//! * **[`WmBase`]** (`Mutex`) — the authoritative working memory, the
//!   commit sequence counter and the commit record ([`Trace`]).
//!   `commit` applies the WM delta, appends the firing and
//!   *publishes* the resulting change batch under it — and runs no
//!   matcher there: a family's own match update needs no coordination
//!   with other families, so it does not sit in the one section
//!   everybody coordinates on. The committing rule's **own shard**
//!   absorbs the batch right after the base mutex is released, under
//!   its shard lock alone, and refracts the fired instantiation
//!   *before* the ledger unclaims it, so it cannot be claimed again;
//!   every other affected shard is fed after that. The hold is a few
//!   microseconds, so [`MatchPipeline::lock_base`] spins briefly
//!   before it parks.
//! * **Delta log** — a bounded queue of sequence-numbered change
//!   batches (`Arc`'d, so shards share one copy), plus a `watermark`
//!   atomic: the highest published sequence. The watermark is stored
//!   while the base mutex is held, so `watermark()` read after locking
//!   the base is exact.
//! * **[`MatchShard`]s** — one per plan shard: a [`Rete`] over that
//!   shard's rules (speaking global rule ids via [`Rete::compile`])
//!   holding only the tuples that route to it, the shard's
//!   **refraction slice**, and an `applied` cursor. A published batch
//!   fans out only to the shards its tuples route to
//!   ([`ShardPlan::affected`]) — by class, and inside a key-partitioned
//!   component by key value; the rest advance their cursor for free
//!   with one CAS.
//! * **Work stealing** — any worker holding a shard lock can
//!   [`MatchPipeline::catch_up`] that shard from the log; idle claim
//!   scans do exactly that, so match work overlaps RHS execution
//!   instead of queueing behind the committer.
//! * **Shard-affine claim scans** — a shard counts as *busy* while a
//!   claim taken from it is in flight or its lock is held. A scan
//!   ([`scan_order`]) rotates from the worker's own offset over the
//!   idle shards first and the busy ones last, so workers settle on
//!   different shards — different rule families, or different key
//!   partitions of one hot rule — instead of convoying on one shard
//!   lock, and still visit every shard before concluding nothing is
//!   claimable.
//!
//! ### Why a stale shard view can never commit
//!
//! Claim validation reads the watermark `w` **under the base mutex**
//! (every publish completes before the base is released — taking the
//! mutex is a barrier that waits out a commit which has released its
//! locks at `lm.commit` but not yet published), catches the shard the
//! claim was scanned from up to `w`, and checks membership (an
//! instantiation lives on exactly one shard: every tuple of it routes
//! there, and routing is a function of the tuple). Any commit
//! that could invalidate the claim after that point necessarily
//! conflicts with the claim's condition locks — a tuple `Wa` against
//! our tuple `Rc`, or a relation's intention write `IWa` (creates, and
//! the modify/remove relation escalation) against our relation `Rc` for
//! negated classes — so the lock manager dooms us before or at our own
//! `commit`. The shard epoch therefore only needs to be exact up to
//! `w`; later invalidations are the lock manager's problem, exactly as
//! in the monolithic design. See DESIGN.md §12.

use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, TryLockError};
use std::time::Instant;

use dps_match::{InstKey, Rete, ShardPlan};
use dps_obs::{FanoutStats, Phase, Recorder};
use dps_rules::RuleSet;
use dps_wm::{Change, VersionedStore, WorkingMemory};

use crate::world::Refraction;
use crate::Trace;

/// Log entries older than the slowest shard are pruned opportunistically;
/// past this length the committer force-drains lagging shards so an
/// unlucky (never-affected, never-scanned) shard cannot pin the log.
const LOG_DRAIN_THRESHOLD: usize = 64;

/// Failed `try_lock` rounds [`MatchPipeline::lock_base`] makes before
/// it parks. The base hold is a few microseconds and a park/unpark
/// round trip costs several times that, so a waiter that spins this
/// long (tens of microseconds) almost always gets the mutex without
/// one; the bound caps what a spinner burns when the holder was
/// descheduled.
const BASE_SPIN_ROUNDS: u32 = 256;

/// Soft per-element bound on retained MVCC versions (see
/// [`VersionedStore::new`]); versions above the GC floor are never
/// capped, so pinned snapshots stay readable.
const VERSION_CHAIN_CAP: usize = 16;

/// Version-store GC cadence, in commits. GC walks every chain, so it is
/// amortised rather than run per publish.
const VERSION_GC_INTERVAL: u64 = 64;

/// The commit critical section's state: authoritative WM, sequencing,
/// and the commit record.
#[derive(Debug)]
pub(crate) struct WmBase {
    /// The authoritative working memory.
    pub wm: WorkingMemory,
    /// Sequence number the *next* commit will take (watermark + 1).
    pub next_seq: u64,
    /// Every commit of this run, in sequence order — appended in the
    /// same hold that takes the sequence number, so trace order is
    /// commit order by construction. The run's report takes it at the
    /// end of the (single) run.
    pub trace: Trace,
}

/// One published commit: its sequence number, its WM change batch and
/// the shards whose alpha classes intersect it.
#[derive(Debug)]
struct LogEntry {
    seq: u64,
    changes: Arc<Vec<Change>>,
    affected: Vec<usize>,
}

/// A shard's lock-protected state: its Rete and its refraction slice.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// The shard's network; its conflict set is the authoritative slice
    /// for the shard's rules.
    pub rete: Rete,
    /// Refraction for this shard's rules (fired or eval-error keys).
    pub refracted: Refraction,
}

impl ShardState {
    /// Refracts `key` against this shard's network.
    pub fn refract(&mut self, key: InstKey) {
        self.refracted.insert(key, &self.rete);
    }
}

/// One match shard: lock-protected state plus its lock-free log cursor.
#[derive(Debug)]
pub(crate) struct MatchShard {
    state: Mutex<ShardState>,
    /// Highest log sequence this shard has incorporated. Only advances
    /// (`fetch_max` / forward CAS); `applied ≤ watermark` always.
    applied: AtomicU64,
    /// In-flight claims taken from this shard plus its current lock
    /// holder: non-zero = *busy*. A scheduling hint for [`scan_order`]
    /// only — it publishes no data, hence `Relaxed` throughout.
    busy: AtomicUsize,
    /// Shard×batch applies this shard's network ran (a tally, bumped
    /// under the shard lock; summed and maxed in
    /// [`MatchPipeline::fanout_stats`]).
    applies: AtomicU64,
}

/// A locked shard; the shard reads busy while one exists.
pub(crate) struct ShardGuard<'a> {
    state: MutexGuard<'a, ShardState>,
    busy: &'a AtomicUsize,
}

impl Deref for ShardGuard<'_> {
    type Target = ShardState;
    fn deref(&self) -> &ShardState {
        &self.state
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        &mut self.state
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        self.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether shard `s` is marked in a [`MatchPipeline::busy_shards`]
/// mask. Shards past the mask's 64 bits read idle: the mask is a
/// scheduling hint, not a lock.
pub(crate) fn is_busy(mask: u64, s: usize) -> bool {
    s < 64 && mask >> s & 1 == 1
}

/// The order in which `worker`'s claim scan visits `shards` shards,
/// given the busy mask: a rotation from the worker's own offset, idle
/// shards first, busy shards last — every shard exactly once.
pub(crate) fn scan_order(worker: usize, shards: usize, busy: u64) -> impl Iterator<Item = usize> {
    let rotation = move || (0..shards).map(move |off| (worker + off) % shards);
    rotation()
        .filter(move |&s| !is_busy(busy, s))
        .chain(rotation().filter(move |&s| is_busy(busy, s)))
}

/// Fan-out tallies (relaxed atomics; maintained whether or not a
/// [`Recorder`] is attached, so reports are free).
#[derive(Debug, Default)]
struct PipelineStats {
    batches: AtomicU64,
    free_advances: AtomicU64,
    steals: AtomicU64,
    /// Live-telemetry mirrors, maintained at the mutation sites (under
    /// the respective mutexes, so exact) — sampling probes read these
    /// instead of taking the log / pins / versions locks. `log_len`
    /// and `log_floor` (every sequence up to it has been pruned from
    /// the log) also let the committer decide whether to drain or
    /// prune without taking the log mutex.
    log_len: AtomicU64,
    log_floor: AtomicU64,
    version_records: AtomicU64,
    gc_floor: AtomicU64,
    pin_count: AtomicU64,
    oldest_pin: AtomicU64,
}

/// The sharded match pipeline. See the module docs for the protocol;
/// the lock order is **base → shard → log** (the engine's ledger mutex
/// sorts after `shard` and is never held while taking a shard lock).
#[derive(Debug)]
pub(crate) struct MatchPipeline {
    /// The commit critical section ([`MatchPipeline::lock_base`]).
    base: Mutex<WmBase>,
    plan: ShardPlan,
    shards: Vec<MatchShard>,
    log: Mutex<VecDeque<LogEntry>>,
    watermark: AtomicU64,
    stats: PipelineStats,
    /// The MVCC version chains, mirroring every published batch. The
    /// delta log above *is* the version log in transit; this store is
    /// its queryable, bounded materialisation (`as_of` reads for
    /// snapshot claim validation and commit-time self-validation).
    /// Writers only run under the base mutex (lock order: base →
    /// versions), so a write lock is never contended by another writer.
    /// Left empty when nothing can ever pin or read a snapshot (see
    /// `versioned`).
    versions: RwLock<VersionedStore>,
    /// Whether any transaction of this engine validates against a
    /// snapshot (MVCC policy or lock elision). Fixed at build; when
    /// `false`, `publish` skips the version feed and its GC altogether.
    versioned: bool,
    /// Active read-snapshot pins: snapshot seq → pin count. The oldest
    /// pinned snapshot floors version GC. Lock order: base → pins.
    pins: Mutex<BTreeMap<u64, usize>>,
}

impl MatchPipeline {
    /// Lays `rules` out over at most `shards` shards ([`ShardPlan`]),
    /// loads each tuple of `wm` into the shard network it routes to,
    /// and starts the sequence space at `base_seq` — the last
    /// committed sequence number, as recovered from a durable log (`0`
    /// = a fresh system). `wm` must be the state *as of* commit
    /// `base_seq`; the watermark and every shard cursor start there,
    /// and the next commit takes `base_seq + 1`, so a resumed engine's
    /// WAL records continue the same sequence the crashed incarnation
    /// was writing. `versioned` says whether any transaction will read
    /// the version store (MVCC snapshots, elided firings); without one
    /// the store is neither seeded nor fed.
    pub fn new_at(
        rules: &RuleSet,
        wm: WorkingMemory,
        shards: usize,
        base_seq: u64,
        versioned: bool,
    ) -> Self {
        let plan = ShardPlan::new(rules, shards);
        let shard_states = plan
            .build(rules, &wm)
            .into_iter()
            .map(|rete| MatchShard {
                state: Mutex::new(ShardState {
                    rete,
                    refracted: Refraction::default(),
                }),
                applied: AtomicU64::new(base_seq),
                busy: AtomicUsize::new(0),
                applies: AtomicU64::new(0),
            })
            .collect();
        let mut versions = VersionedStore::new(VERSION_CHAIN_CAP);
        if versioned {
            versions.seed(&wm);
        }
        MatchPipeline {
            base: Mutex::new(WmBase { wm, next_seq: base_seq + 1, trace: Trace::default() }),
            plan,
            shards: shard_states,
            log: Mutex::new(VecDeque::new()),
            watermark: AtomicU64::new(base_seq),
            stats: PipelineStats {
                log_floor: AtomicU64::new(base_seq),
                ..PipelineStats::default()
            },
            versions: RwLock::new(versions),
            versioned,
            pins: Mutex::new(BTreeMap::new()),
        }
    }

    /// The shard layout.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Locks the commit critical section: a bounded spin
    /// ([`BASE_SPIN_ROUNDS`]), then a parking `lock`.
    pub fn lock_base(&self) -> MutexGuard<'_, WmBase> {
        for _ in 0..BASE_SPIN_ROUNDS {
            match self.base.try_lock() {
                Ok(base) => return base,
                Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                Err(TryLockError::Poisoned(_)) => break,
            }
        }
        self.base.lock().expect("a committer panicked inside the commit section")
    }

    /// Locks one shard's state.
    pub fn shard_state(&self, s: usize) -> ShardGuard<'_> {
        let shard = &self.shards[s];
        let state = shard.state.lock().expect("a worker panicked holding a shard");
        shard.busy.fetch_add(1, Ordering::Relaxed);
        ShardGuard { state, busy: &shard.busy }
    }

    /// Which shards are busy right now, as a bit mask over the first
    /// 64 (see [`scan_order`], [`is_busy`]).
    pub fn busy_shards(&self) -> u64 {
        let busy = |s: &MatchShard| u64::from(s.busy.load(Ordering::Relaxed) > 0);
        self.shards.iter().take(64).enumerate().fold(0, |mask, (i, s)| mask | busy(s) << i)
    }

    /// A claim was taken from shard `s`: the shard reads busy until
    /// the matching [`MatchPipeline::claim_released`].
    pub fn claim_taken(&self, s: usize) {
        self.shards[s].busy.fetch_add(1, Ordering::Relaxed);
    }

    /// The claim taken from shard `s` was resolved.
    pub fn claim_released(&self, s: usize) {
        self.shards[s].busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// Shard `s`'s log cursor. Applies need the shard's state lock;
    /// free advances (under the base mutex) only ever step a fully
    /// caught-up cursor from `seq - 1` to `seq`. So to a caller
    /// holding the state lock, a reading below some published `seq`
    /// stays below it until the caller itself applies.
    pub fn applied(&self, s: usize) -> u64 {
        self.shards[s].applied.load(Ordering::Acquire)
    }

    /// The highest published commit sequence. Reading it *after*
    /// acquiring the base mutex yields an exact value (publish happens
    /// under the base mutex); elsewhere it is a safe lower bound.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Publishes commit `seq`'s change batch. **Must be called with the
    /// base mutex held** and `seq == base.next_seq - 1` already bumped
    /// by the caller. Appends the log entry, advances the watermark,
    /// and free-advances every unaffected, fully-caught-up shard.
    /// Returns the affected shard list for the caller's fan-out.
    pub fn publish(&self, seq: u64, changes: Vec<Change>) -> Vec<usize> {
        let affected = self.plan.affected(&changes);
        if self.versioned {
            // Mirror the batch into the version chains (we hold the
            // base mutex, so records arrive in sequence order), and
            // amortise watermark-driven GC: prune everything below the
            // oldest active snapshot pin (or the watermark when no
            // snapshot is pinned).
            let mut versions = self.versions.write().unwrap();
            versions.record(seq, &changes);
            if seq.is_multiple_of(VERSION_GC_INTERVAL) {
                let floor = self.oldest_pin().unwrap_or(seq).min(seq);
                versions.gc(floor);
                // Amortised telemetry mirrors: chain-length totals are
                // O(chains) to compute, so refresh them on the GC
                // cadence rather than per publish.
                self.stats.gc_floor.store(floor, Ordering::Relaxed);
                self.stats
                    .version_records
                    .store(versions.stats().versions as u64, Ordering::Relaxed);
            }
        }
        {
            let mut log = self.log.lock().unwrap();
            log.push_back(LogEntry {
                seq,
                changes: Arc::new(changes),
                affected: affected.clone(),
            });
            self.stats.log_len.store(log.len() as u64, Ordering::Relaxed);
        }
        // Watermark before free advances: `applied ≤ watermark` stays
        // invariant (a cursor only reaches `seq` once `watermark` has).
        self.watermark.store(seq, Ordering::Release);
        let mut free = 0u64;
        for (s, shard) in self.shards.iter().enumerate() {
            if affected.binary_search(&s).is_err()
                && shard
                    .applied
                    .compare_exchange(seq - 1, seq, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                free += 1;
            }
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.free_advances.fetch_add(free, Ordering::Relaxed);
        affected
    }

    /// Brings shard `s` (whose state the caller holds) up to at least
    /// `target`. `stolen` marks applies done outside the committing
    /// worker's own fan-out (claim-scan work stealing), for the fan-out
    /// tallies.
    pub fn catch_up(
        &self,
        s: usize,
        target: u64,
        state: &mut ShardState,
        stolen: bool,
        obs: Option<&Recorder>,
    ) {
        loop {
            let cur = self.shards[s].applied.load(Ordering::Acquire);
            if cur >= target {
                return;
            }
            // Snapshot the needed entries, then drop the log lock before
            // running the network (never hold the log across an apply).
            // The log is gapless and ordered, and entries ≤ `cur` are
            // pruned only after every shard (this one included) applied
            // them — so `cur + 1` sits at a known offset from the front.
            let batch: Vec<(u64, Option<Arc<Vec<Change>>>)> = {
                let log = self.log.lock().unwrap();
                let front = log.front().map_or(cur + 1, |e| e.seq);
                debug_assert!(front <= cur + 1, "delta log must be gapless");
                let lo = ((cur + 1 - front) as usize).min(log.len());
                let hi = ((target + 1 - front) as usize).min(log.len());
                log.range(lo..hi)
                    .map(|e| {
                        let hit = e.affected.binary_search(&s).is_ok();
                        (e.seq, hit.then(|| Arc::clone(&e.changes)))
                    })
                    .collect()
            };
            if batch.is_empty() {
                // A concurrent `catch_up` raced us past `target` (and
                // the entries may already be pruned).
                debug_assert!(self.shards[s].applied.load(Ordering::Acquire) >= target);
                return;
            }
            debug_assert_eq!(batch[0].0, cur + 1, "delta log must be gapless");
            for (seq, changes) in batch {
                if let Some(changes) = changes {
                    let t0 = obs.map(|_| Instant::now());
                    self.plan.feed(s, &mut state.rete, &changes);
                    self.shards[s].applies.fetch_add(1, Ordering::Relaxed);
                    if stolen {
                        self.stats.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    if let (Some(obs), Some(t0)) = (obs, t0) {
                        obs.phase(Phase::MatchApply, t0.elapsed());
                    }
                }
                self.shards[s].applied.fetch_max(seq, Ordering::AcqRel);
            }
        }
    }

    /// The committing worker's fan-out: push `seq` to every affected
    /// shard, then prune the log. When the log has grown past
    /// [`LOG_DRAIN_THRESHOLD`] the committer also drains *lagging*
    /// shards (affected or not), bounding the log against shards no
    /// batch ever routes to.
    pub fn fan_out(&self, affected: &[usize], seq: u64, obs: Option<&Recorder>) {
        for &s in affected {
            if self.shards[s].applied.load(Ordering::Acquire) >= seq {
                continue;
            }
            let mut state = self.shard_state(s);
            self.catch_up(s, seq, &mut state, false, obs);
        }
        if self.log_depth() > LOG_DRAIN_THRESHOLD as u64 {
            for s in 0..self.shards.len() {
                if self.shards[s].applied.load(Ordering::Acquire) < seq {
                    let mut state = self.shard_state(s);
                    self.catch_up(s, seq, &mut state, false, obs);
                }
            }
        }
        self.prune();
    }

    /// Drops log entries every shard has incorporated. Takes the log
    /// mutex only when the front entry can actually go: the slowest
    /// cursor has passed `log_floor`.
    fn prune(&self) {
        let min = self
            .shards
            .iter()
            .map(|s| s.applied.load(Ordering::Acquire))
            .min()
            .unwrap_or(0);
        if min <= self.stats.log_floor.load(Ordering::Relaxed) {
            return;
        }
        let mut log = self.log.lock().unwrap();
        while log.front().is_some_and(|e| e.seq <= min) {
            log.pop_front();
        }
        self.stats.log_floor.fetch_max(min, Ordering::Relaxed);
        self.stats.log_len.store(log.len() as u64, Ordering::Relaxed);
    }

    /// Read access to the MVCC version chains (empty unless the engine
    /// was built `versioned`).
    pub fn versions(&self) -> RwLockReadGuard<'_, VersionedStore> {
        self.versions.read().unwrap()
    }

    /// Registers a read-snapshot pin at `snap`, flooring version GC.
    /// Pair with [`MatchPipeline::unpin_snapshot`].
    pub fn pin_snapshot(&self, snap: u64) {
        let mut pins = self.pins.lock().unwrap();
        *pins.entry(snap).or_insert(0) += 1;
        self.mirror_pins(&pins);
    }

    /// Releases one pin at `snap`.
    pub fn unpin_snapshot(&self, snap: u64) {
        let mut pins = self.pins.lock().unwrap();
        if let Some(n) = pins.get_mut(&snap) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&snap);
            }
        } else {
            debug_assert!(false, "unpin without a matching pin at {snap}");
        }
        self.mirror_pins(&pins);
    }

    /// Refreshes the pin telemetry mirrors (call with the pins mutex
    /// held, so the two stores are mutually consistent).
    fn mirror_pins(&self, pins: &BTreeMap<u64, usize>) {
        let count: usize = pins.values().sum();
        self.stats.pin_count.store(count as u64, Ordering::Relaxed);
        self.stats
            .oldest_pin
            .store(pins.keys().next().copied().unwrap_or(0), Ordering::Relaxed);
    }

    /// The oldest active snapshot pin, if any (the version-GC floor).
    pub fn oldest_pin(&self) -> Option<u64> {
        self.pins.lock().unwrap().keys().next().copied()
    }

    /// Delta-log depth (live telemetry gauge; a lock-free mirror of the
    /// log length, maintained under the log mutex at publish/prune).
    pub fn log_depth(&self) -> u64 {
        self.stats.log_len.load(Ordering::Relaxed)
    }

    /// How far the slowest shard's applied cursor trails the watermark
    /// (live telemetry gauge; pure atomic reads).
    pub fn max_cursor_lag(&self) -> u64 {
        let w = self.watermark.load(Ordering::Acquire);
        let min = self
            .shards
            .iter()
            .map(|s| s.applied.load(Ordering::Acquire))
            .min()
            .unwrap_or(w);
        w.saturating_sub(min)
    }

    /// Retained MVCC version records (live telemetry gauge; refreshed
    /// on the version-GC cadence, so it trails by at most
    /// [`VERSION_GC_INTERVAL`] commits; 0 on an unversioned engine).
    pub fn version_records(&self) -> u64 {
        self.stats.version_records.load(Ordering::Relaxed)
    }

    /// How far the version-GC floor trails the watermark (live
    /// telemetry gauge; the floor mirror is refreshed at each GC).
    pub fn gc_floor_lag(&self) -> u64 {
        let w = self.watermark.load(Ordering::Acquire);
        w.saturating_sub(self.stats.gc_floor.load(Ordering::Relaxed))
    }

    /// Active snapshot pins (live telemetry gauge).
    pub fn pin_count(&self) -> u64 {
        self.stats.pin_count.load(Ordering::Relaxed)
    }

    /// How far the oldest pinned snapshot trails the watermark (live
    /// telemetry gauge; 0 when nothing is pinned).
    pub fn oldest_pin_lag(&self) -> u64 {
        if self.stats.pin_count.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let w = self.watermark.load(Ordering::Acquire);
        w.saturating_sub(self.stats.oldest_pin.load(Ordering::Relaxed))
    }

    /// Point-in-time fan-out tallies.
    pub fn fanout_stats(&self) -> FanoutStats {
        let applies = || self.shards.iter().map(|s| s.applies.load(Ordering::Relaxed));
        FanoutStats {
            batches: self.stats.batches.load(Ordering::Relaxed),
            applies: applies().sum(),
            max_shard_applies: applies().max().unwrap_or(0),
            free_advances: self.stats.free_advances.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
            shards: self.shards.len() as u64,
            components: self.plan.components() as u64,
            partitions: self.plan.partitions() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_match::Matcher;
    use dps_wm::WmeData;

    const CORPUS: &str = r#"
        (p fam1 (a ^k <x>) (b ^k <x>) --> (remove 1))
        (p fam2 (c ^k <x>) --> (make d ^k <x>))
        (p fam3 (e ^k <x>) --> (remove 1))
    "#;

    fn pipeline(shards: usize) -> (RuleSet, MatchPipeline) {
        let rules = RuleSet::parse(CORPUS).unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("a").with("k", 1i64));
        wm.insert(WmeData::new("b").with("k", 1i64));
        wm.insert(WmeData::new("e").with("k", 2i64));
        let p = MatchPipeline::new_at(&rules, wm, shards, 0, true);
        (rules, p)
    }

    /// Drives one commit through the base/publish/fan-out protocol.
    fn commit_changes(p: &MatchPipeline, data: WmeData) -> (u64, Vec<usize>) {
        let mut base = p.lock_base();
        let w = base.wm.insert_full(data);
        let seq = base.next_seq;
        base.next_seq += 1;
        let affected = p.publish(seq, vec![Change::Added(w)]);
        drop(base);
        p.fan_out(&affected, seq, None);
        (seq, affected)
    }

    #[test]
    fn publish_free_advances_unaffected_shards() {
        let (_, p) = pipeline(3);
        assert_eq!(p.shards(), 3);
        let (seq, affected) = commit_changes(&p, WmeData::new("e").with("k", 9i64));
        assert_eq!(affected.len(), 1, "only fam3's shard fans in");
        assert_eq!(p.watermark(), seq);
        for s in 0..p.shards() {
            assert_eq!(p.shards[s].applied.load(Ordering::Acquire), seq);
        }
        let stats = p.fanout_stats();
        assert_eq!((stats.batches, stats.applies, stats.free_advances), (1, 1, 2));
        assert_eq!(p.log.lock().unwrap().len(), 0, "fully-applied entries pruned");
        assert_eq!(p.stats.log_floor.load(Ordering::Relaxed), seq);
        assert_eq!(p.log_depth(), 0);
    }

    #[test]
    fn publish_free_advances_the_partitions_a_batch_does_not_touch() {
        // One key-partitionable rule over 8 shards: a batch whose tuples
        // share a key lands on one partition, the other seven advance
        // for free — and only that partition's network sees the tuples.
        let rules = RuleSet::parse("(p fam1 (a ^k <x>) (b ^k <x>) --> (remove 1))").unwrap();
        let p = MatchPipeline::new_at(&rules, WorkingMemory::new(), 8, 0, false);
        assert_eq!((p.shards(), p.plan().partitions()), (8, 8));
        let (_, on_a) = commit_changes(&p, WmeData::new("a").with("k", 3i64));
        let (seq, on_b) = commit_changes(&p, WmeData::new("b").with("k", 3i64));
        assert_eq!(on_a, on_b, "equal keys, one partition");
        let stats = p.fanout_stats();
        assert_eq!((stats.batches, stats.applies, stats.free_advances), (2, 2, 14));
        assert_eq!((stats.max_shard_applies, stats.components, stats.partitions), (2, 1, 8));
        for s in 0..p.shards() {
            assert_eq!(p.applied(s), seq);
            let expect = usize::from(s == on_a[0]);
            assert_eq!(p.shard_state(s).rete.conflict_set().len(), expect, "shard {s}");
        }
    }

    #[test]
    fn ordering_scan_visits_every_shard_once_busy_last() {
        for shards in 1..=9usize {
            // Every busy set over `shards` shards, every worker offset.
            for mask in 0..(1u64 << shards) {
                for worker in 0..2 * shards {
                    let order: Vec<usize> = scan_order(worker, shards, mask).collect();
                    let mut seen = order.clone();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..shards).collect::<Vec<_>>(), "each shard exactly once");
                    let idle = shards - mask.count_ones() as usize;
                    assert!(order[..idle].iter().all(|&s| !is_busy(mask, s)), "idle shards first");
                    assert!(order[idle..].iter().all(|&s| is_busy(mask, s)), "busy shards last");
                    // Within each group: the worker's own rotation.
                    let rank = |s: usize| (s + shards - worker % shards) % shards;
                    for group in [&order[..idle], &order[idle..]] {
                        assert!(group.windows(2).all(|w| rank(w[0]) < rank(w[1])));
                    }
                }
            }
        }
        assert_eq!(scan_order(1, 4, 0b0100).collect::<Vec<_>>(), [1, 3, 0, 2]);
        // Past the mask's width every shard reads idle, and is still visited.
        assert_eq!(scan_order(0, 70, u64::MAX).take(6).collect::<Vec<_>>(), [64, 65, 66, 67, 68, 69]);
        assert_eq!(scan_order(0, 70, u64::MAX).count(), 70);
    }

    #[test]
    fn ordering_shard_reads_busy_while_locked_or_claimed() {
        let (_, p) = pipeline(3);
        assert_eq!(p.busy_shards(), 0b000);
        let guard = p.shard_state(1);
        assert_eq!(p.busy_shards(), 0b010, "a held lock is busy");
        p.claim_taken(1);
        drop(guard);
        assert_eq!(p.busy_shards(), 0b010, "an in-flight claim is busy");
        p.claim_released(1);
        assert_eq!(p.busy_shards(), 0b000);
    }

    #[test]
    fn lagging_shard_catches_up_from_the_log() {
        let (rules, p) = pipeline(3);
        // Publish without fanning out: shards lag behind the watermark.
        let mut base = p.lock_base();
        let w1 = base.wm.insert_full(WmeData::new("e").with("k", 5i64));
        let seq1 = base.next_seq;
        base.next_seq += 1;
        p.publish(seq1, vec![Change::Added(w1)]);
        let w2 = base.wm.insert_full(WmeData::new("e").with("k", 6i64));
        let seq2 = base.next_seq;
        base.next_seq += 1;
        p.publish(seq2, vec![Change::Added(w2)]);
        drop(base);
        let s = p.plan().shards_of(rules.id_of("fam3").unwrap()).start;
        assert!(p.shards[s].applied.load(Ordering::Acquire) < seq2);
        let before = {
            let st = p.shard_state(s);
            st.rete.conflict_set().len()
        };
        let mut st = p.shard_state(s);
        p.catch_up(s, seq2, &mut st, true, None);
        assert_eq!(st.rete.conflict_set().len(), before + 2);
        drop(st);
        assert_eq!(p.shards[s].applied.load(Ordering::Acquire), seq2);
        assert_eq!(p.fanout_stats().steals, 2);
    }
}
