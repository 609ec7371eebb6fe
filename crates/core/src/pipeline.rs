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
//!   commit sequence counter, the commit record ([`Trace`]) and, on an
//!   engine that validates snapshots, the two write stamps MVCC
//!   validation reads beside the live memory (`WriteStamps`).
//!   `commit` applies the WM delta, appends the firing and
//!   *publishes* the resulting change batch under it — and runs no
//!   matcher there: a family's own match update needs no coordination
//!   with other families, so it does not sit in the one section
//!   everybody coordinates on. The committing rule's **own shard**
//!   absorbs the batch right after the base mutex is released, under
//!   its shard lock alone, and refracts the fired instantiation in the
//!   same step that ends its claim, so it cannot be claimed again;
//!   every other affected shard is fed after that. The hold is a few
//!   microseconds, so [`MatchPipeline::lock_base`] spins briefly
//!   before it parks.
//! * **Inboxes** — each shard queues the sequence-numbered change
//!   batches published to it and not yet fed to its network, in commit
//!   order. A batch is pushed only to the shards its tuples route to
//!   ([`ShardPlan::affected`]) — by class, and inside a key-partitioned
//!   component by key value — as one `Arc` they share; a shard a batch
//!   does not touch never sees it. `publish` pushes, then stores the
//!   `watermark` atomic (the highest published sequence), both while
//!   the base mutex is held, so `watermark()` read after locking the
//!   base is exact and every batch up to it is already queued.
//! * **[`MatchShard`]s** — one per plan shard: a [`Rete`] over that
//!   shard's rules (speaking global rule ids via [`Rete::compile`])
//!   holding only the tuples that route to it (its conflict set refracts
//!   what fired from it), the shard's **claim book**, and its inbox.
//! * **Work stealing** — any worker holding a shard lock can
//!   [`MatchPipeline::catch_up`] that shard from its inbox; idle claim
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
//! * **Padding** — the base mutex, the watermark, the fan-out tallies
//!   and each [`MatchShard`] sit on 128-byte lines of their own
//!   ([`CachePadded`]). Each is written by whichever worker commits or
//!   scans; on a line shared with a field every call reads, those
//!   writes made a second worker slow the first (EXPERIMENTS §XS.30).
//!
//! ### Why a stale shard view can never commit
//!
//! Claim validation reads the watermark `w` **under the base mutex**
//! (every publish completes before the base is released — taking the
//! mutex is a barrier that waits out a commit which has released its
//! locks at `lm.commit` but not yet published), catches the shard the
//! claim was scanned from up to `w` — pops and feeds every inbox entry
//! `≤ w`, all of which are queued by then — and checks membership (an
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

use std::collections::{HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

use dps_lock::TxnId;
use dps_match::{InstKey, Matcher, Rete, ShardPlan};
use dps_obs::{field_align, CachePadded, FanoutStats, Phase, Recorder};
use dps_rules::RuleSet;
use dps_wm::{Atom, Change, IdMap, WmeId, WorkingMemory};

use crate::log::{Record, Tables};
use crate::{Firing, Trace};

/// Failed `try_lock` rounds [`MatchPipeline::lock_base`] makes before
/// it parks. The base hold is a few microseconds and a park/unpark
/// round trip costs several times that, so a waiter that spins this
/// long (tens of microseconds) almost always gets the mutex without
/// one; the bound caps what a spinner burns when the holder was
/// descheduled.
const BASE_SPIN_ROUNDS: u32 = 256;

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
    /// end of the (single) run ([`Trace::take`], which keeps the atom
    /// and shape tables the pipeline encodes against).
    pub trace: Trace,
    /// What snapshot validation reads of the commit sequence; `None`
    /// on an engine no transaction of which reads a snapshot.
    stamps: Option<WriteStamps>,
}

/// The two write stamps snapshot validation reads beside the live
/// working memory, kept by [`MatchPipeline::publish`]. Under the base
/// mutex the live memory *is* the state at the watermark, so no past
/// version is ever needed (DESIGN §13).
#[derive(Debug, Default)]
struct WriteStamps {
    /// The last commit that inserted into or removed from each class:
    /// any such write can flip a negated condition over it.
    class: HashMap<Atom, u64>,
    /// The commit that installed each live tuple's current state. A
    /// tuple with no entry is the start memory's (version 0); a removed
    /// tuple's entry is dropped.
    tuple: IdMap<WmeId, u64>,
}

impl WmBase {
    /// The commit that installed `id`'s current state (0 for the start
    /// memory's): read under the base mutex, the version a snapshot at
    /// the watermark sees.
    pub fn installed_seq(&self, id: WmeId) -> u64 {
        self.stamps().tuple.get(&id).copied().unwrap_or(0)
    }

    /// The last commit that inserted into or removed from `class` (0:
    /// none since the start).
    pub fn class_write_seq(&self, class: &Atom) -> u64 {
        self.stamps().class.get(class).copied().unwrap_or(0)
    }

    fn stamps(&self) -> &WriteStamps {
        self.stamps.as_ref().expect("only a snapshot strategy reads write stamps")
    }
}

/// A shard's lock-protected state: its Rete and its claim book.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// The shard's network; its conflict set is the authoritative slice
    /// for the shard's rules, and refracts what fired from it.
    pub rete: Rete,
    /// The claims in flight on this shard's instantiations, each with
    /// the transaction begun when it was taken: the engine's only claim
    /// book. A claim scan checks and takes a claim here, and a claim
    /// ends here — its key refracted by the Rete in the same step when
    /// it fired or failed to evaluate — so no scanner ever sees a fired
    /// key listed and unclaimed.
    pub claims: HashMap<InstKey, TxnId>,
}

impl ShardState {
    /// Ends the claim on `key`, refracting the key in the same step
    /// when `refract`.
    pub fn unclaim(&mut self, key: &InstKey, refract: bool) {
        let claim = self.claims.remove(key);
        debug_assert!(claim.is_some(), "an unclaim without its claim");
        if claim.is_some() && refract {
            self.rete.refract(key);
        }
    }
}

/// One match shard: lock-protected state plus its inbox.
#[derive(Debug)]
pub(crate) struct MatchShard {
    state: Mutex<ShardState>,
    /// Published batches routed here and not yet fed, in sequence
    /// order. Pushed under the base mutex, popped under `state`; a leaf
    /// lock.
    inbox: Mutex<VecDeque<(u64, Arc<Vec<Change>>)>>,
    /// The inbox's front sequence, `u64::MAX` when it is empty; stored
    /// under the inbox lock, read without it ([`MatchPipeline::pending`]).
    oldest: AtomicU64,
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
    /// Batches in all inboxes, kept at the mutation sites so the
    /// sampling probe takes no inbox lock.
    queued: AtomicU64,
    /// Read-snapshot pins held (MVCC attempts and session transactions
    /// in flight).
    pins: AtomicU64,
}

/// The sharded match pipeline. See the module docs for the protocol;
/// the lock order is **base → inbox** and **shard → inbox**, the inbox
/// a leaf (the engine's ledger mutex sorts after `shard` and is never
/// held while taking a shard lock).
#[derive(Debug)]
pub(crate) struct MatchPipeline {
    /// The commit critical section ([`MatchPipeline::lock_base`]).
    base: CachePadded<Mutex<WmBase>>,
    plan: ShardPlan,
    shards: Vec<CachePadded<MatchShard>>,
    watermark: CachePadded<AtomicU64>,
    stats: CachePadded<PipelineStats>,
    /// The trace's atom and shape tables, for encoding a commit's
    /// record before the base mutex is taken ([`MatchPipeline::encode`]).
    trace_tables: Tables,
}

// Each hot part on lines of its own (EXPERIMENTS §XS.30).
const _: () = {
    assert!(field_align(|p: &MatchPipeline| &p.base) >= 128);
    assert!(field_align(|p: &MatchPipeline| &p.shards[0]) >= 128);
    assert!(field_align(|p: &MatchPipeline| &p.watermark) >= 128);
    assert!(field_align(|p: &MatchPipeline| &p.stats) >= 128);
};

impl MatchPipeline {
    /// Lays `rules` out over `plan`'s shards ([`ShardPlan`]), loads
    /// each tuple of `wm` into the shard network it routes to, and
    /// starts the sequence space at `base_seq` — the last
    /// committed sequence number, as recovered from a durable log (`0`
    /// = a fresh system). `wm` must be the state *as of* commit
    /// `base_seq`; the watermark starts there, every inbox empty,
    /// and the next commit takes `base_seq + 1`, so a resumed engine's
    /// WAL records continue the same sequence the crashed incarnation
    /// was writing. `versioned` says whether any transaction will
    /// validate against a snapshot (MVCC, elided firings:
    /// `Strategy::any_snapshot`); only then does `publish` keep the
    /// write stamps.
    pub fn new_at(
        rules: &RuleSet,
        wm: WorkingMemory,
        plan: ShardPlan,
        base_seq: u64,
        versioned: bool,
    ) -> Self {
        let shard_states = plan
            .build(rules, &wm)
            .into_iter()
            .map(|rete| {
                CachePadded::new(MatchShard {
                    state: Mutex::new(ShardState { rete, claims: HashMap::new() }),
                    inbox: Mutex::default(),
                    oldest: AtomicU64::new(u64::MAX),
                    busy: AtomicUsize::new(0),
                    applies: AtomicU64::new(0),
                })
            })
            .collect();
        let trace = Trace::default();
        let trace_tables = trace.firings.tables().clone();
        MatchPipeline {
            base: CachePadded::new(Mutex::new(WmBase {
                wm,
                next_seq: base_seq + 1,
                trace,
                stamps: versioned.then(WriteStamps::default),
            })),
            plan,
            shards: shard_states,
            watermark: CachePadded::new(AtomicU64::new(base_seq)),
            stats: CachePadded::default(),
            trace_tables,
        }
    }

    /// Encodes `firing` for [`WmBase::trace`]; called before the base
    /// mutex is taken, so the hold only appends the bytes.
    pub fn encode(&self, firing: &Firing) -> Record {
        self.trace_tables.encode(firing)
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
        self.sound_shard_state(s).expect("a worker panicked holding a shard")
    }

    /// Locks one shard's state; `None` when a thread panicked holding
    /// it (a drop guard's path, which must not panic again).
    pub fn sound_shard_state(&self, s: usize) -> Option<ShardGuard<'_>> {
        let shard = &self.shards[s];
        let state = shard.state.lock().ok()?;
        shard.busy.fetch_add(1, Ordering::Relaxed);
        Some(ShardGuard { state, busy: &shard.busy })
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

    /// Whether commit `seq`, or an earlier one routed to shard `s`, is
    /// still queued in its inbox. Lock-free. Only a catch-up, under the
    /// shard's state lock, pops, and a later publish can only queue
    /// later sequences; so to a caller holding the state lock a `true`
    /// stays `true` until the caller itself catches up, and a `false`
    /// for a published `seq` is final.
    pub fn pending(&self, s: usize, seq: u64) -> bool {
        self.shards[s].oldest.load(Ordering::Acquire) <= seq
    }

    /// The highest published commit sequence. Reading it *after*
    /// acquiring the base mutex yields an exact value (publish happens
    /// under the base mutex); elsewhere it is a safe lower bound.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Publishes commit `seq`'s change batch, under the base mutex
    /// (`base`), with `seq == base.next_seq - 1` already bumped by the
    /// caller. Stamps the batch's classes and tuples on a versioned
    /// engine, queues the batch in the inbox of every shard it routes
    /// to, then advances the watermark. Returns those shards for the
    /// caller's fan-out.
    pub fn publish(&self, base: &mut WmBase, seq: u64, changes: Vec<Change>) -> Vec<usize> {
        let affected = self.plan.affected(&changes);
        if let Some(stamps) = &mut base.stamps {
            for change in &changes {
                stamps.class.insert(change.wme().class().clone(), seq);
                match change {
                    Change::Added(w) => stamps.tuple.insert(w.id, seq),
                    Change::Removed(w) => stamps.tuple.remove(&w.id),
                };
            }
        }
        // Counted before the pushes, so a pop never makes it underflow.
        self.stats.queued.fetch_add(affected.len() as u64, Ordering::Relaxed);
        let changes = Arc::new(changes);
        for &s in &affected {
            let shard = &self.shards[s];
            let mut inbox = shard.inbox.lock().expect("a worker panicked holding an inbox");
            if inbox.is_empty() {
                shard.oldest.store(seq, Ordering::Release);
            }
            inbox.push_back((seq, Arc::clone(&changes)));
        }
        // Inboxes before the watermark (`Release`, paired with the
        // `Acquire` in `watermark()`): a catch-up to any watermark it
        // reads finds every batch up to it queued.
        self.watermark.store(seq, Ordering::Release);
        let unrouted = (self.shards.len() - affected.len()) as u64;
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.free_advances.fetch_add(unrouted, Ordering::Relaxed);
        affected
    }

    /// Brings shard `s` (whose state the caller holds) up to `target`:
    /// pops and feeds every inbox entry `≤ target`, in sequence order.
    /// `stolen` marks applies done outside the committing worker's own
    /// fan-out (claim-scan work stealing), for the fan-out tallies.
    pub fn catch_up(
        &self,
        s: usize,
        target: u64,
        state: &mut ShardState,
        stolen: bool,
        obs: Option<&Recorder>,
    ) {
        let shard = &self.shards[s];
        while self.pending(s, target) {
            // Never hold the inbox across an apply: publish pushes to it.
            let changes = {
                let mut inbox = shard.inbox.lock().expect("a worker panicked holding an inbox");
                let (_, changes) = inbox.pop_front().expect("`oldest` names a queued batch");
                shard.oldest.store(inbox.front().map_or(u64::MAX, |e| e.0), Ordering::Release);
                changes
            };
            self.stats.queued.fetch_sub(1, Ordering::Relaxed);
            let t0 = obs.map(|_| Instant::now());
            self.plan.feed(s, &mut state.rete, &changes);
            shard.applies.fetch_add(1, Ordering::Relaxed);
            if stolen {
                self.stats.steals.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(obs), Some(t0)) = (obs, t0) {
                obs.phase(Phase::MatchApply, t0.elapsed());
            }
        }
    }

    /// The committing worker's fan-out: catch every shard `seq` was
    /// routed to up to it, skipping those a claim scan already did.
    pub fn fan_out(&self, affected: &[usize], seq: u64, obs: Option<&Recorder>) {
        for &s in affected {
            if self.pending(s, seq) {
                let mut state = self.shard_state(s);
                self.catch_up(s, seq, &mut state, false, obs);
            }
        }
    }

    /// Counts one read-snapshot pin. Pair with [`MatchPipeline::unpin`].
    pub fn pin(&self) {
        self.stats.pins.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases one read-snapshot pin.
    pub fn unpin(&self) {
        let held = self.stats.pins.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(held > 0, "an unpin without its pin");
    }

    /// Batches queued in all inboxes (live telemetry gauge; a lock-free
    /// counter kept at publish and catch-up).
    pub fn log_depth(&self) -> u64 {
        self.stats.queued.load(Ordering::Relaxed)
    }

    /// How many commits the oldest queued batch trails the watermark
    /// by, counting itself; 0 when every inbox is empty (live telemetry
    /// gauge; pure atomic reads).
    pub fn max_cursor_lag(&self) -> u64 {
        let oldest = self.shards.iter().map(|s| s.oldest.load(Ordering::Acquire)).min();
        let w = self.watermark.load(Ordering::Acquire);
        (w + 1).saturating_sub(oldest.unwrap_or(u64::MAX))
    }

    /// Read-snapshot pins held (live telemetry gauge).
    pub fn pin_count(&self) -> u64 {
        self.stats.pins.load(Ordering::Relaxed)
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
    use std::collections::BTreeSet;

    use dps_match::{Matcher, ShardedRete};
    use dps_wm::rng::SmallRng;
    use dps_wm::{Atom, DeltaSet, Value, WmeData, WmeId};

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
        let p = MatchPipeline::new_at(&rules, wm, ShardPlan::new(&rules, shards), 0, true);
        (rules, p)
    }

    /// Drives one commit through the base/publish/fan-out protocol.
    fn commit_changes(p: &MatchPipeline, data: WmeData) -> (u64, Vec<usize>) {
        let (seq, affected) = publish_only(p, data);
        p.fan_out(&affected, seq, None);
        (seq, affected)
    }

    /// Publishes one batch inserting `data`, without a fan-out.
    fn publish_only(p: &MatchPipeline, data: WmeData) -> (u64, Vec<usize>) {
        let mut base = p.lock_base();
        let w = base.wm.insert_full(data);
        let seq = base.next_seq;
        base.next_seq += 1;
        (seq, p.publish(&mut base, seq, vec![Change::Added(w)]))
    }

    #[test]
    fn publish_free_advances_unaffected_shards() {
        let (_, p) = pipeline(3);
        assert_eq!(p.shards(), 3);
        let (seq, affected) = commit_changes(&p, WmeData::new("e").with("k", 9i64));
        assert_eq!(affected.len(), 1, "only fam3's shard fans in");
        assert_eq!(p.watermark(), seq);
        for s in 0..p.shards() {
            assert!(!p.pending(s, seq), "shard {s}");
        }
        let stats = p.fanout_stats();
        assert_eq!((stats.batches, stats.applies, stats.free_advances), (1, 1, 2));
        assert_eq!((p.log_depth(), p.max_cursor_lag()), (0, 0), "every inbox drained");
    }

    #[test]
    fn publish_free_advances_the_partitions_a_batch_does_not_touch() {
        // One key-partitionable rule over 8 shards: a batch whose tuples
        // share a key lands on one partition, the other seven advance
        // for free — and only that partition's network sees the tuples.
        let rules = RuleSet::parse("(p fam1 (a ^k <x>) (b ^k <x>) --> (remove 1))").unwrap();
        let plan = ShardPlan::new(&rules, 8);
        let p = MatchPipeline::new_at(&rules, WorkingMemory::new(), plan, 0, false);
        assert_eq!((p.shards(), p.plan().partitions()), (8, 8));
        let (_, on_a) = commit_changes(&p, WmeData::new("a").with("k", 3i64));
        let (seq, on_b) = commit_changes(&p, WmeData::new("b").with("k", 3i64));
        assert_eq!(on_a, on_b, "equal keys, one partition");
        let stats = p.fanout_stats();
        assert_eq!((stats.batches, stats.applies, stats.free_advances), (2, 2, 14));
        assert_eq!((stats.max_shard_applies, stats.components, stats.partitions), (2, 1, 8));
        for s in 0..p.shards() {
            assert!(!p.pending(s, seq));
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
    fn lagging_shard_catches_up_from_its_inbox() {
        let (rules, p) = pipeline(3);
        let s = p.plan().shards_of(rules.id_of("fam3").unwrap()).start;
        assert_eq!((p.log_depth(), p.max_cursor_lag()), (0, 0), "nothing published");
        assert!(!p.pending(s, u64::MAX - 1), "an empty inbox is pending nothing");
        // Publish without fanning out: fam3's shard lags the watermark.
        let (seq1, _) = publish_only(&p, WmeData::new("e").with("k", 5i64));
        let (seq2, _) = publish_only(&p, WmeData::new("e").with("k", 6i64));
        assert!(!p.pending(s, seq1 - 1), "nothing before the first batch");
        assert!(p.pending(s, seq1) && p.pending(s, seq2));
        assert!((0..p.shards()).filter(|&o| o != s).all(|o| !p.pending(o, seq2)));
        assert_eq!((p.log_depth(), p.max_cursor_lag()), (2, 2), "two batches queued, both lagging");
        let before = p.shard_state(s).rete.conflict_set().len();
        let mut st = p.shard_state(s);
        p.catch_up(s, seq1, &mut st, true, None);
        assert_eq!(st.rete.conflict_set().len(), before + 1, "up to the target only");
        assert!(!p.pending(s, seq1) && p.pending(s, seq2));
        assert_eq!((p.log_depth(), p.max_cursor_lag()), (1, 1));
        p.catch_up(s, seq2, &mut st, true, None);
        assert_eq!(st.rete.conflict_set().len(), before + 2);
        drop(st);
        assert!(!p.pending(s, seq2));
        assert_eq!((p.log_depth(), p.max_cursor_lag()), (0, 0), "caught up");
        assert_eq!(p.fanout_stats().steals, 2);
    }

    /// Seeded change batches over `a`/`b`/`c` tuples: inserts, removes,
    /// and key modifies that move a tuple between partitions.
    fn seeded_batches(seed: u64, n: usize) -> Vec<Vec<Change>> {
        let mut wm = WorkingMemory::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut live: Vec<WmeId> = Vec::new();
        (0..n)
            .map(|_| {
                if !live.is_empty() && rng.random_bool(0.4) {
                    let idx = rng.index(live.len());
                    if rng.random_bool(0.5) {
                        vec![Change::Removed(wm.remove(live.swap_remove(idx)).unwrap())]
                    } else {
                        let mut delta = DeltaSet::new();
                        delta.modify(live[idx], [(Atom::from("k"), Value::Int(rng.range_i64(0..6)))]);
                        let changes = wm.apply(&delta).unwrap();
                        live[idx] = changes.last().unwrap().wme().id;
                        changes
                    }
                } else {
                    let class = ["a", "b", "c"][rng.index(3)];
                    let w = wm.insert_full(WmeData::new(class).with("k", rng.range_i64(0..6)));
                    live.push(w.id);
                    vec![Change::Added(w)]
                }
            })
            .collect()
    }

    fn keys(rete: &Rete) -> BTreeSet<InstKey> {
        rete.conflict_set().keys().cloned().collect()
    }

    #[test]
    fn ordering_inbox_hand_off_matches_a_serial_sharded_rete() {
        const BATCHES: usize = 300;
        let rules = RuleSet::parse(
            "(p join (a ^k <x>) (b ^k <x>) --> (remove 1))
             (p neg (b ^k <x>) -(a ^k <x>) --> (remove 1))
             (p lone (c ^k <x>) --> (remove 1))",
        )
        .unwrap();
        let seed = 0x1b0c5 ^ u64::from(std::process::id());
        let batches = seeded_batches(seed, BATCHES);
        // The serial reference: shard `s`'s conflict set after batch
        // `k` is `serial[k][s]` (`serial[0]` is the empty start).
        let mut reference = ShardedRete::new(&rules, &WorkingMemory::new(), 8);
        let shards = reference.plan().shards();
        let snapshot = |r: &ShardedRete| (0..shards).map(|s| keys(r.shard(s))).collect::<Vec<_>>();
        let mut serial = vec![snapshot(&reference)];
        let mut routed = vec![0u64; shards];
        for batch in &batches {
            for s in reference.plan().affected(batch) {
                routed[s] += 1;
            }
            reference.apply(batch);
            serial.push(snapshot(&reference));
        }
        let p = MatchPipeline::new_at(
            &rules,
            WorkingMemory::new(),
            ShardPlan::new(&rules, 8),
            0,
            false,
        );
        assert!(p.plan().partitions() > 1, "the join spreads over key partitions");
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for scanner in 0..2u64 {
                let (p, done, serial) = (&p, &done, &serial);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed + 1 + scanner);
                    while !done.load(Ordering::Acquire) {
                        let s = rng.index(shards);
                        // Half the time the newest batch: the hand-off's edge.
                        let w = p.watermark();
                        let target = if rng.random_bool(0.5) { w } else { rng.range_u64(0..w + 1) };
                        let mut st = p.shard_state(s);
                        p.catch_up(s, target, &mut st, true, None);
                        assert!(!p.pending(s, target), "shard {s} caught up to {target}");
                        // Under the shard lock nothing pops: the shard
                        // has fed exactly its batches before `oldest`.
                        let oldest = p.shards[s].oldest.load(Ordering::Acquire);
                        let got = keys(&st.rete);
                        if oldest == u64::MAX {
                            let at = target as usize;
                            assert!(
                                serial[at..].iter().any(|k| k[s] == got),
                                "shard {s} drained, seed {seed}"
                            );
                        } else {
                            assert_eq!(got, serial[oldest as usize - 1][s], "shard {s}, seed {seed}");
                        }
                    }
                });
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            for batch in &batches {
                let mut base = p.lock_base();
                let seq = base.next_seq;
                base.next_seq += 1;
                let affected = p.publish(&mut base, seq, batch.clone());
                drop(base);
                if rng.random_bool(0.5) {
                    p.fan_out(&affected, seq, None);
                }
            }
            done.store(true, Ordering::Release);
        });
        let last = BATCHES as u64;
        for s in 0..shards {
            let mut st = p.shard_state(s);
            p.catch_up(s, last, &mut st, false, None);
            assert_eq!(keys(&st.rete), serial[BATCHES][s], "shard {s}, seed {seed}");
            let applies = p.shards[s].applies.load(Ordering::Relaxed);
            assert_eq!(applies, routed[s], "shard {s} fed each batch once, seed {seed}");
        }
        assert_eq!((p.log_depth(), p.max_cursor_lag()), (0, 0));
    }
}
