//! The commit section: the one irrevocable critical section every
//! commit — rule firing or external session transaction — passes
//! through, plus what both kinds of transaction share around it: the
//! abort bookkeeping, the snapshot pin, and the drop guards that own a
//! claim and a pin.
//!
//! [`ParallelEngine::commit_section`] runs, in this order:
//!
//! | step | under | what |
//! |---|---|---|
//! | 0 | base | rule firings only: refused (`Stale`) once a rule firing halted |
//! | 1 | base | `lm.commit` — the Figure 4.3 rule; the last step that can fail |
//! | 2 | base | `wm.apply`, take the commit sequence number |
//! | 3 | base | WAL stage (the three kill sites); on the checkpoint cadence, a copy-on-write clone of the memory at `seq` and the log rotation |
//! | 4 | base | `publish` the change batch (write stamps on a snapshot engine, the affected shards' inboxes, watermark); a firing that halts sets the halted flag |
//! | 5 | base | commit-log append (`WmBase::trace`: the txn id and the record's bytes, encoded before the hold), strategy receipt events |
//! | 6 | base, each routed shard | policy `Revalidate`: `revalidate_readers` dooms, through the lock manager, each handed-back reader whose claim left its caught-up shard |
//! | 7 | own shard | rule firings only: the shard the claim was scanned from absorbs the batch, and its Rete refracts the key as the claim ends |
//! | 8 | ledger | commit counters, in-flight count |
//! | 9 | — | `Phase::Commit` sample, wake threads waiting on an in-flight claim, `fan_out` to the other affected shards |
//! | 10 | checkpoint install | the step-3 clone encoded into a snapshot, its install + `Checkpoint` event, skipped if older than the newest; then group-commit `request_sync` (the log writer fsyncs), `WalSync` unless a newer `Checkpoint` covers it |
//!
//! Commit order = sequence order = trace order because steps 1–6 share
//! one hold of the base mutex (`Phase::BaseHold`; the caller's wait for
//! it is `Phase::BaseWait`); the §3 oracle replays exactly that order.
//! The hold is as short as the protocol needs: a family's own match
//! update (step 7) coordinates with nobody outside its shard, so it
//! runs after the base mutex is released. What keeps that safe: the
//! shard's Rete refracts the fired key in the same shard hold that ends
//! its claim, so no claim scan ever finds it listed and unclaimed; and `inflight` falls only after
//! the watermark has risen, so a scanner that saw nothing claimable and
//! nothing in flight has seen this commit's batch.
//!
//! Step 9 wakes only threads parked on an in-flight claim; it never
//! wakes an idle service-mode worker. What a commit enables is fired
//! by whoever caused it: a worker or a `fire_ready` caller rescans
//! after each commit it makes, and the server calls
//! [`ParallelEngine::fire_ready`] after replying to a session commit.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use dps_lock::{res_key, ResourceId, TxnId, WalKillSite};
use dps_match::{InstKey, Matcher};
use dps_obs::{AbortCause, EventKind as ObsEvent, Phase};
use dps_rules::RuleId;
use dps_wm::wal::KillMode;
use dps_wm::{Change, WalError, Wme, WorkingMemory};

use crate::log::Record;
use crate::parallel::{Ledger, ParallelEngine};
use crate::pipeline::{MatchPipeline, ShardState, WmBase};
use crate::strategy::Strategy;
use crate::Firing;

/// What a committer hands to [`ParallelEngine::commit_section`].
pub(crate) struct Commit<'c, 'e> {
    pub txn: TxnId,
    pub strategy: Strategy,
    /// What committed; its delta is what gets applied.
    pub firing: Firing,
    /// `firing` encoded for the trace ([`MatchPipeline::encode`]),
    /// before the base mutex was taken.
    pub record: Record,
    /// Accesses the strategy answered (the `ElidedCommit` receipt).
    pub requests: u32,
    /// Rule firings: the claim whose shard absorbs the batch and whose
    /// key is refracted as the claim ends inside the section. `None`
    /// for external commits.
    pub claim: Option<&'c mut ClaimGuard<'e>>,
    /// Start of the commit phase, for the `Phase::Commit` sample.
    pub since: Option<Instant>,
}

impl ParallelEngine {
    /// Acquires the base mutex for a commit; the wait is the
    /// `Phase::BaseWait` sample.
    pub(crate) fn lock_base_for_commit(&self) -> MutexGuard<'_, WmBase> {
        let t0 = self.times_base().then(Instant::now);
        let base = self.pipeline.lock_base();
        if let Some(t0) = t0 {
            self.base_sample(Phase::BaseWait, &self.metrics.base_wait_nanos, t0.elapsed());
        }
        base
    }

    /// Whether anything consumes the base-mutex samples (the recorder's
    /// histograms, the timeline's counters).
    fn times_base(&self) -> bool {
        self.obs.is_some() || self.telemetry().is_some()
    }

    /// One `Phase::BaseWait` / `Phase::BaseHold` sample: into the phase
    /// histogram, and into the running total the timeline samples as
    /// `engine.base_wait_ns` / `engine.base_hold_ns`.
    fn base_sample(&self, phase: Phase, total: &AtomicU64, d: Duration) {
        if let Some(obs) = &self.obs {
            obs.phase(phase, d);
        }
        total.fetch_add(d.as_nanos() as u64, Relaxed);
    }

    /// Commits under the base mutex the caller already holds (it ran
    /// its own validation under it). Fails only at `lm.commit` — the
    /// transaction was doomed or injected — or, for a rule firing after
    /// one that halted, just before it (`Stale`), with nothing changed;
    /// past that the commit is irrevocable. Returns the sequence
    /// number.
    pub(crate) fn commit_section(
        &self,
        mut base: MutexGuard<'_, WmBase>,
        commit: Commit<'_, '_>,
    ) -> Result<u64, AbortCause> {
        let Commit { txn, strategy, firing, record, requests, mut claim, since } = commit;
        // The single-thread `halt` rule: no rule firing commits after
        // one that halted.
        if claim.is_some() && self.halted.load(Relaxed) {
            drop(base);
            return Err(AbortCause::Stale);
        }
        let obs = self.obs.as_deref();
        let hold = self.times_base().then(Instant::now);
        let outcome = match self.lm.commit(txn) {
            Ok(outcome) => outcome,
            Err(e) => {
                drop(base);
                return Err(self.classify(e));
            }
        };
        let changes =
            base.wm.apply(&firing.delta).expect("a validated commit only touches live WMEs");
        let seq = base.next_seq;
        base.next_seq += 1;
        // Chaos seam: park this commit in the gap where its locks are
        // released but its batch is not yet published.
        if let Some(inj) = &self.injector {
            inj.publish_stall(txn, seq, obs);
        }
        let checkpoint = self.stage_wal(&base.wm, txn, seq, &changes);
        // Version-write footprint for the SI polygraph, captured before
        // `publish` consumes the batch (one entry per written tuple).
        let mut written: Vec<u64> = Vec::new();
        if matches!(strategy, Strategy::Snapshot(_)) && obs.is_some() {
            written.extend(changes.iter().map(|c| res_key(ResourceId::Tuple(c.wme().id.0))));
            written.sort_unstable();
            written.dedup();
        }
        let affected = self.pipeline.publish(&mut base, seq, changes);
        if firing.halt {
            self.halted.store(true, Relaxed);
        }
        // The commit log is the one record of commit order: this
        // commit's slot is its record's, and the record names `txn`, so
        // the checkers pair the slot with the lock manager's `Commit`.
        // Falsifiability seam: a `corrupt_commit_log` plan names a txn
        // that never began, so the §3 checker must reject the history.
        let slot = base.trace.len();
        let logged = self.injector.as_ref().map_or(txn, |inj| inj.logged_txn(txn, slot));
        base.trace.firings.append(&record, logged.0);
        if let Some(obs) = obs {
            // The strategy's receipt, trailing the lock manager's
            // `Commit` terminal (the sequence number only exists now):
            // the versions a snapshot commit installed (the SI checker
            // cross-checks `seq == slot + 1`), or the lock requests an
            // elided commit never made.
            let version = self.history_seq(seq);
            for res in &written {
                obs.record(txn.0, ObsEvent::VersionWrite { resource: *res, seq: version });
            }
            if matches!(strategy, Strategy::Elided { .. }) {
                obs.record(txn.0, ObsEvent::ElidedCommit { resources: requests });
            }
        }
        if !outcome.needs_revalidation.is_empty() {
            self.revalidate_readers(txn, &outcome.needs_revalidation, &affected, seq);
        }
        drop(base);
        // The firing and its record are freed outside the hold.
        drop((firing, record));
        if let Some(hold) = hold {
            self.base_sample(Phase::BaseHold, &self.metrics.base_hold_nanos, hold.elapsed());
        }
        if let Some(guard) = &mut claim {
            self.absorb_own_batch(guard, seq, strategy);
        }
        let wake = {
            // Under the ledger so the claim gate's cap check stays exact
            // and the wake below is ordered against its check-then-wait
            // (the watermark moved before this lock was taken). Only
            // threads parked on an in-flight claim are counted.
            let mut ledger = self.ledger.lock().unwrap();
            if let Some(claim) = claim {
                self.metrics.commits.fetch_add(1, Relaxed);
                claim.release(&mut ledger);
            } else {
                self.external_commits.fetch_add(1, Relaxed);
            }
            ledger.waiters > 0
        };
        if let (Some(obs), Some(t)) = (obs, since) {
            obs.phase(Phase::Commit, t.elapsed());
        }
        if wake {
            self.cv.notify_all();
        }
        // Fan the batch out to the remaining affected shards *outside*
        // the critical section: match work overlaps the next commit.
        self.pipeline.fan_out(&affected, seq, obs);
        // Durability tail, with no engine lock held: the deferred
        // checkpoint snapshot, encoded from the clone taken at `seq` and
        // installed (serialised among committers), then the group-commit
        // request.
        // `request_sync` never blocks: the log writer thread fsyncs for
        // every committer, so the durable horizon trails the published
        // one by at most the writer's in-flight batch (the prefix loss
        // the recovery gate sweeps). It hands back the horizon when it
        // has advanced since a committer last saw it — at most one
        // `WalSync` per advance (none for one a newer checkpoint
        // already covers). A dead writer means a kill point fired: the
        // commit stays visible in memory and never becomes durable.
        if let Some(durable) = &self.durable {
            if let Some(wm) = checkpoint {
                let snap = wm.encode_snapshot().expect("checkpoint snapshot encodes");
                // Unshare the live memory's relations before the slow
                // write, so later commits stop copying what they touch.
                drop(wm);
                self.install_checkpoint(txn, seq, &snap);
            }
            if let Ok(Some(horizon)) = durable.writer().request_sync(seq) {
                self.record_wal_sync(txn, horizon);
            }
        }
        Ok(seq)
    }

    /// Installs the checkpoint snapshot rotated at `seq` and records its
    /// `Checkpoint` event under the install lock, so events come in
    /// sequence order; a snapshot older than one already installed is
    /// skipped, event and all. A failed write (a dead or full disk)
    /// leaves the previous checkpoint in place, unrecorded.
    pub(crate) fn install_checkpoint(&self, txn: TxnId, seq: u64, snapshot: &[u8]) {
        if let Some(durable) = &self.durable {
            let _ = durable.install_checkpoint(seq, snapshot, || {
                if self.obs.is_some() {
                    let mut recorded =
                        self.checkpoint_recorded.lock().expect("checkpoint event lock");
                    *recorded = seq;
                    self.emit(txn, ObsEvent::Checkpoint { seq });
                }
            });
        }
    }

    /// Records a durable-horizon advance as `WalSync`, unless a newer
    /// checkpoint was recorded since the horizon was read: its rotation
    /// already made the horizon durable, and the history's durability
    /// rule forbids a sync reported below the last checkpoint.
    pub(crate) fn record_wal_sync(&self, txn: TxnId, horizon: u64) {
        if self.obs.is_some() {
            let recorded = self.checkpoint_recorded.lock().expect("checkpoint event lock");
            if horizon >= *recorded {
                self.emit(txn, ObsEvent::WalSync { seq: horizon });
            }
        }
    }

    /// Stages commit `seq`'s redo record (under the base mutex, so
    /// records enter the WAL in sequence order; the fsync waits until
    /// the critical section is over) and, on the checkpoint cadence,
    /// rotates the log and returns a clone of the memory at `seq` for
    /// the caller to encode and install once the base mutex is
    /// released. A dead writer (a kill point already fired) is ignored
    /// — the in-memory run keeps going, and the chaos harness measures
    /// what survived on disk.
    fn stage_wal(
        &self,
        wm: &WorkingMemory,
        txn: TxnId,
        seq: u64,
        changes: &[Change],
    ) -> Option<WorkingMemory> {
        let durable = self.durable.as_ref()?;
        let writer = durable.writer();
        // Kill-point seam: simulate process death at this commit. The
        // record's fate depends on the site — dropped on the floor (died
        // before the fsync), torn mid-frame, or made durable first (died
        // right after the fsync). Dropped and torn first let the log
        // writer make every earlier commit durable, so a kill at commit
        // `k` loses exactly `k` however far the writer lagged, then
        // stage + kill under one WAL-file lock acquisition
        // (`append_then_kill`): the writer must not slip between the two
        // and make the doomed record durable.
        let kill_site = self.injector.as_ref().and_then(|inj| inj.wal_kill(seq));
        let die = |mode| {
            writer.sync_to(seq - 1).and_then(|()| writer.append_then_kill(seq, changes, mode))
        };
        let staged = match kill_site {
            None => writer.append(seq, changes),
            Some(WalKillSite::AfterPublish) => die(KillMode::Clean),
            Some(WalKillSite::TornTail) => die(KillMode::Torn),
            Some(WalKillSite::AfterSync) => writer
                .append(seq, changes)
                .and_then(|()| writer.flush().map(drop))
                .and_then(|()| writer.kill(KillMode::Clean)),
        };
        match staged {
            Ok(()) => {
                if let (Some(_), Some(inj)) = (kill_site, &self.injector) {
                    inj.count_wal_kill(txn, self.obs.as_deref());
                }
            }
            Err(WalError::Dead) => {}
            Err(e) => panic!("wal append at seq {seq}: {e}"),
        }
        // The snapshot must capture exactly `seq`'s state, so it is
        // taken here, as a clone that shares every relation with the
        // live memory (a later commit's write copies what it touches);
        // the rotation is cheap (flush + reopen). Encoding and writing
        // the snapshot both wait until the hold is over.
        let interval = self.config.durability.as_ref().map_or(0, |d| d.checkpoint_interval);
        if interval == 0 || !seq.is_multiple_of(interval) || writer.is_dead() {
            return None;
        }
        let snap = wm.clone();
        durable.rotate(seq).is_ok().then_some(snap)
    }

    /// The shard the fired claim was scanned from absorbs everything up
    /// to and including its batch, refracts the fired key and ends the
    /// claim, in one hold of that shard alone, after the base mutex is
    /// released.
    fn absorb_own_batch(&self, claim: &mut ClaimGuard<'_>, seq: u64, strategy: Strategy) {
        let obs = self.obs.as_deref();
        let own = claim.held.shard;
        let mut state = self.pipeline.shard_state(own);
        // A claim scanner may already have stolen this batch (the
        // watermark is visible the moment `publish` returns). What is
        // pending cannot change while we hold the shard: only a
        // catch-up, under its lock, pops the inbox.
        if self.pipeline.pending(own, seq) {
            // At the pre-commit state the instantiation cannot have
            // vanished: its read set was lock-protected or validated.
            // Only the unvalidated `elide_misclassify` probe commits
            // stale claims, on purpose. The check costs a second
            // catch-up, so only debug builds make it.
            if cfg!(debug_assertions) {
                self.pipeline.catch_up(own, seq - 1, &mut state, false, obs);
                debug_assert!(
                    state.rete.conflict_set().contains(&claim.held.key)
                        || strategy == Strategy::Elided { validate: false }
                );
            }
            self.pipeline.catch_up(own, seq, &mut state, false, obs);
        }
        claim.unclaim(&mut state, true);
    }

    /// Engine-level revalidation (policy `Revalidate`): of the `readers`
    /// the lock manager handed back at `writer`'s commit `seq`, doom
    /// through it those whose claimed instantiation that commit
    /// invalidated. An instantiation only leaves its shard's conflict
    /// set through a batch routed to that shard, so only the `affected`
    /// shards are caught up and read, each claim's membership and doom
    /// in one shard hold. The caller holds the base mutex, so no reader
    /// can commit before its verdict.
    fn revalidate_readers(&self, writer: TxnId, readers: &[TxnId], affected: &[usize], seq: u64) {
        for &s in affected {
            let mut state = self.pipeline.shard_state(s);
            self.pipeline.catch_up(s, seq, &mut state, false, self.obs.as_deref());
            for (key, &reader) in &state.claims {
                if readers.contains(&reader) && !state.rete.conflict_set().contains(key) {
                    self.lm.doom(reader, Some(writer));
                }
            }
        }
    }

    /// Pins the newest fully published commit sequence `w` as `txn`'s
    /// read snapshot and returns it, with — when the history records
    /// reads — the commit that installed each of `reads`' state at `w`.
    /// Both are read in one hold of the base mutex, so `w` is a
    /// complete prefix and the live memory is the state at `w`. Pair
    /// with a [`PinGuard`].
    pub(crate) fn pin_snapshot(&self, txn: TxnId, reads: &[Arc<Wme>]) -> (u64, Vec<u64>) {
        self.pipeline.pin();
        let (snap, installed) = {
            let base = self.pipeline.lock_base();
            let installed = match self.obs {
                Some(_) => reads.iter().map(|w| base.installed_seq(w.id)).collect(),
                None => Vec::new(),
            };
            (base.next_seq - 1, installed)
        };
        self.emit(txn, ObsEvent::SnapshotPin { seq: self.history_seq(snap) });
        (snap, installed)
    }

    /// Whether the claimed instantiation is in its shard's conflict set
    /// once the shard has absorbed every batch up to `seq` (`stolen`:
    /// the catch-up is claim-side work stealing, not a committer's own
    /// fan-out).
    pub(crate) fn in_conflict_set_at(&self, claim: &Claim, seq: u64, stolen: bool) -> bool {
        let mut state = self.pipeline.shard_state(claim.shard);
        self.pipeline.catch_up(claim.shard, seq, &mut state, stolen, self.obs.as_deref());
        state.rete.conflict_set().contains(&claim.key)
    }

    /// `seq` as this incarnation's history numbers MVCC versions and
    /// snapshots: commit `base_seq + k` is `k`, matching its commit-log
    /// slot `k - 1`, and the working memory it started from is version
    /// 0. The identity on a fresh run.
    pub(crate) fn history_seq(&self, seq: u64) -> u64 {
        seq.saturating_sub(self.base_seq)
    }

    /// Records `kind` for `txn` when observability is on.
    pub(crate) fn emit(&self, txn: TxnId, kind: ObsEvent) {
        if let Some(obs) = &self.obs {
            obs.record(txn.0, kind);
        }
    }

    /// The abort bookkeeping shared by rule firings and session
    /// transactions: release the locks, emit the single `Abort`
    /// terminal (with `rule`'s id), count the cause. The
    /// lock manager may already have auto-aborted the transaction when
    /// it surfaced a doom or deadlock (`NotActive` is that benign race);
    /// anything else would mean locks were leaked, so it is asserted in
    /// debug builds and flagged in the event stream in release builds.
    pub(crate) fn record_abort(&self, txn: TxnId, rule: RuleId, cause: AbortCause) {
        match self.lm.abort(txn) {
            Ok(()) | Err(dps_lock::LockError::NotActive(_)) => {}
            Err(e) => {
                debug_assert!(false, "abort of {txn:?} failed: {e:?}");
                self.emit(txn, ObsEvent::Anomaly { what: "abort-failed" });
            }
        }
        self.emit(txn, ObsEvent::Abort { cause, rule: rule.0 });
        self.metrics.count_abort(cause);
    }
}

/// Releases a read-snapshot pin when the attempt or session
/// transaction that took it ends (commit or abort on any path), so
/// [`ParallelEngine::snapshot_pins`] reads 0 after a drain.
pub(crate) struct PinGuard<'a> {
    pub(crate) pipeline: &'a MatchPipeline,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.pipeline.unpin();
    }
}

/// A claimed instantiation and the match shard its claim scan found it
/// on. An instantiation lives on exactly one shard — every tuple of it
/// routes there — so the claim's validation, its own-batch absorb, its
/// refraction and its busy mark all go to `shard` without asking the
/// plan again.
#[derive(Debug)]
pub(crate) struct Claim {
    pub(crate) key: InstKey,
    pub(crate) shard: usize,
}

/// Owner of one claim: its entry in its shard's claim book and its
/// place in the ledger's in-flight count. Each ends exactly once —
/// [`ClaimGuard::unclaim`] under the shard, then
/// [`ClaimGuard::release`] under the ledger — and every exit reaches
/// both: the commit section once the claim's shard has absorbed the
/// batch, the abort path after its accounting, and a panic unwinding
/// out of the RHS (an injected fault, an evaluator bug) through `Drop`,
/// which also releases the transaction's locks so surviving workers
/// neither deadlock on them nor wait forever on a wedged in-flight
/// count.
pub(crate) struct ClaimGuard<'e> {
    pub(crate) engine: &'e ParallelEngine,
    /// The transaction begun when the claim was taken.
    pub(crate) txn: TxnId,
    /// What is claimed, and where it was found.
    pub(crate) held: Claim,
    pub(crate) unclaimed: bool,
    pub(crate) released: bool,
}

impl ClaimGuard<'_> {
    /// Takes the claim off its shard's book (`state`, held by the
    /// caller), refracting the key in the same step when `refract`.
    pub(crate) fn unclaim(&mut self, state: &mut ShardState, refract: bool) {
        if !std::mem::replace(&mut self.unclaimed, true) {
            state.unclaim(&self.held.key, refract);
        }
    }

    /// Takes the claim out of the in-flight count (idempotent).
    pub(crate) fn release(&mut self, ledger: &mut Ledger) {
        if !std::mem::replace(&mut self.released, true) {
            ledger.inflight -= 1;
            self.engine.pipeline.claim_released(self.held.shard);
        }
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        let _ = self.engine.lm.abort(self.txn);
        // A poisoned shard or ledger means another worker already died
        // holding it — nothing left to salvage there.
        if let Some(mut state) = self.engine.pipeline.sound_shard_state(self.held.shard) {
            self.unclaim(&mut state, false);
        }
        if let Ok(mut ledger) = self.engine.ledger.lock() {
            self.release(&mut ledger);
        }
        self.engine.wake_all();
    }
}
