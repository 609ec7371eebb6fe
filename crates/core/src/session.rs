//! External session transactions: the engine half of the multi-session
//! front door.
//!
//! The paper's production-system setting assumes many concurrent
//! clients feeding working-memory changes into one shared engine; until
//! now the only writers were the engine's own rule firings. This module
//! lets an *external* client (a `dps-server` session) run a
//! transaction against the live engine — buffer inserts/removes, read
//! condition state, and commit through **the same commit critical
//! section** rule firings use, so external commits serialise with rule
//! commits, land in the same WAL, publish through the same inboxes,
//! and appear in the same [`crate::Trace`] (under [`EXTERNAL_RULE`],
//! [`Firing::is_external`]; the §3 oracle replays them by applying the
//! delta verbatim — there is no instantiation whose conflict-set
//! membership could be checked — and lets them through after a `halt`).
//!
//! ## Locking
//!
//! External writes take the same action locks a rule RHS would: `Wa`
//! (`X` under 2PL) on written tuples and the intention write `IWa`
//! (`IX`) on the relation of every created/written class — so a
//! negated-condition reader is serialised against a session insert
//! exactly as against a `make`, while two sessions inserting into one
//! class do not wait for each other. External *reads*
//! ([`ParallelEngine::external_query`]) take a relation `Rc` lock in
//! lock-based modes and run lock-free
//! read-committed under MVCC. An external transaction therefore
//! participates in deadlock detection, doom and fault injection like
//! any rule transaction; every abort path releases its
//! locks and (under MVCC) its snapshot pin.
//!
//! ## Disconnect safety
//!
//! A session that dies mid-transaction leaves an [`ExternalTxn`] whose
//! owner will never speak again. [`ParallelEngine::external_abort`] is
//! the single cleanup path — idempotent at the lock manager (a
//! transaction already auto-aborted by doom/deadlock surfaces as the
//! benign `NotActive`), and unconditionally releasing the MVCC pin.
//! The server wraps every open transaction in a guard that routes all
//! exits (clean `Abort` frame, EOF, read timeout, handler panic)
//! through it; the engine's end-of-run `debug_assert`s and the
//! disconnect-chaos gate verify nothing leaks.

use std::sync::Arc;

use dps_lock::{ResourceId, TxnId};
use dps_match::{InstKey, Matcher};
use dps_obs::AbortCause;
use dps_rules::RuleId;
use dps_wm::{Atom, DeltaSet, Wme, WmeData, WmeId};

use crate::commit::{Commit, PinGuard};
use crate::parallel::ParallelEngine;
use crate::strategy::{Access, Strategy};
use crate::Firing;

/// Sentinel rule id for external commits ([`Firing::rule`] must name
/// *something*; no real rule ever gets `u32::MAX`). Session aborts
/// carry it as their `Abort` event's rule.
pub const EXTERNAL_RULE: RuleId = RuleId(u32::MAX);

/// Pseudo rule name external commits carry in traces.
pub const EXTERNAL_RULE_NAME: &str = "@session";

/// One open external transaction: a lock-manager transaction, its
/// concurrency-control strategy, an optional pinned snapshot, and the
/// buffered delta. Plain data — the engine is only touched through the
/// `external_*` methods, and the owner (a server session) must resolve
/// it with [`ParallelEngine::external_commit`] or
/// [`ParallelEngine::external_abort`] before forgetting it.
#[derive(Debug)]
pub struct ExternalTxn {
    txn: TxnId,
    strategy: Strategy,
    /// Whether the transaction holds a read-snapshot pin (the strategy
    /// pins one, and it was not released yet).
    pinned: bool,
    delta: DeltaSet,
}

impl ExternalTxn {
    /// The underlying lock-manager transaction id.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Number of buffered delta operations.
    pub fn pending_ops(&self) -> usize {
        self.delta.ops().len()
    }
}

impl ParallelEngine {
    /// Opens an external transaction. Under MVCC a snapshot is pinned
    /// until the transaction resolves.
    pub fn external_begin(&self) -> ExternalTxn {
        let txn = self.lm.begin();
        let strategy = Strategy::choose(&self.config, self.pipeline.plan(), None);
        let pinned = strategy.pins_snapshot();
        if pinned {
            self.pin_snapshot(txn, &[]);
        }
        ExternalTxn { txn, strategy, pinned, delta: DeltaSet::new() }
    }

    /// Buffers an insert. Takes the intention write on the class's
    /// relation (serialising against negated readers, not against other
    /// writers) before buffering; on any lock failure the transaction
    /// is fully aborted.
    pub fn external_insert(&self, xt: &mut ExternalTxn, data: WmeData) -> Result<(), AbortCause> {
        let res = self.relation_resource(&data.class);
        self.external_acquire(xt, res, Access::Write)?;
        xt.delta.create(data);
        Ok(())
    }

    /// Buffers a remove of `id`. Takes the tuple write lock plus the
    /// intention write on the tuple's class (a removal can *enable* a
    /// negated reader). Fails — aborting the transaction — when the
    /// tuple does not exist.
    pub fn external_remove(&self, xt: &mut ExternalTxn, id: WmeId) -> Result<(), AbortCause> {
        let class: Atom = match self.pipeline.lock_base().wm.get(id) {
            Some(w) => w.data.class.clone(),
            None => return Err(self.external_resolve_err(xt, AbortCause::Stale)),
        };
        self.external_acquire(xt, ResourceId::Tuple(id.0), Access::Write)?;
        let rel = self.relation_resource(&class);
        self.external_acquire(xt, rel, Access::Write)?;
        xt.delta.remove(id);
        Ok(())
    }

    /// Condition query: every live WME of `class`, as `(id, data)`
    /// pairs ([`ParallelEngine::external_query_with`], cloned out).
    pub fn external_query(
        &self,
        xt: &mut ExternalTxn,
        class: &str,
    ) -> Result<Vec<(u64, WmeData)>, AbortCause> {
        self.external_query_with(xt, class, |rows| rows.map(|w| (w.id.0, w.data.clone())).collect())
    }

    /// Condition query that hands `f` every live WME of `class`, in id
    /// order, and returns what `f` makes of them — a server encodes its
    /// reply straight from working memory instead of cloning the rows
    /// first. Lock-based modes take the relation's condition-read lock
    /// (held to transaction end, so the read set is stable); MVCC reads
    /// lock-free read-committed state. `f` runs under the base mutex, so
    /// it must not call back into the engine.
    pub fn external_query_with<R>(
        &self,
        xt: &mut ExternalTxn,
        class: &str,
        f: impl FnOnce(&mut dyn Iterator<Item = &Wme>) -> R,
    ) -> Result<R, AbortCause> {
        let rel = self.relation_resource(&Atom::from(class));
        self.external_acquire(xt, rel, Access::Condition)?;
        let base = self.pipeline.lock_base();
        let out = f(&mut base.wm.class_iter(class));
        Ok(out)
    }

    /// Commits the buffered delta through the engine's commit section
    /// (`commit_section` — the very function rule firings commit
    /// through, minus the claim), as an external
    /// [`Firing`]. Returns the commit sequence number. On failure the
    /// transaction is fully aborted (locks + pin released).
    pub fn external_commit(&self, xt: &mut ExternalTxn) -> Result<u64, AbortCause> {
        let firing = Firing {
            rule: EXTERNAL_RULE,
            rule_name: Atom::from(EXTERNAL_RULE_NAME),
            // An empty `Arc<[_]>` is one shared static: no allocation.
            key: InstKey { rule: EXTERNAL_RULE, wmes: Arc::default() },
            delta: std::mem::take(&mut xt.delta),
            halt: false,
        };
        // The trace record, encoded before the base mutex.
        let record = self.pipeline.encode(&firing);
        let base = self.lock_base_for_commit();
        // Write-set validation: every modified/removed tuple must still
        // be live. Tuple write locks were taken when the ops were
        // buffered, but under MVCC (no read locks anywhere) a doomed
        // race is possible, and a client can name a bogus id outright.
        if firing.delta.written_ids().any(|id| base.wm.get(id).is_none()) {
            drop(base);
            return Err(self.external_resolve_err(xt, AbortCause::Stale));
        }
        let commit = Commit {
            txn: xt.txn,
            strategy: xt.strategy,
            firing,
            record,
            requests: 0,
            claim: None,
            since: None,
        };
        let committed = self.commit_section(base, commit);
        let seq = committed.map_err(|cause| self.external_resolve_err(xt, cause))?;
        self.release_pin(xt);
        Ok(seq)
    }

    /// Aborts an external transaction: lock-manager abort (idempotent —
    /// `NotActive` means a doom or deadlock already auto-aborted it),
    /// snapshot unpin, abort event + counters. The disconnect
    /// cleanup path: the server routes every dying session's open
    /// transaction through here.
    pub fn external_abort(&self, xt: &mut ExternalTxn, cause: AbortCause) {
        self.external_resolve_err(xt, cause);
    }

    /// Shared failure path: abort at the lock manager, release the pin,
    /// emit the abort event, count the cause. Returns the cause so
    /// callers can `return Err(self.external_resolve_err(..))`.
    fn external_resolve_err(&self, xt: &mut ExternalTxn, cause: AbortCause) -> AbortCause {
        self.record_abort(xt.txn, EXTERNAL_RULE, cause);
        self.release_pin(xt);
        xt.delta = DeltaSet::new();
        cause
    }

    /// One access of an external op, covered the way the transaction's
    /// strategy covers it; any error resolves the whole transaction.
    fn external_acquire(
        &self,
        xt: &mut ExternalTxn,
        res: ResourceId,
        access: Access,
    ) -> Result<(), AbortCause> {
        xt.strategy
            .acquire(self, xt.txn, res, access)
            .map_err(|cause| self.external_resolve_err(xt, cause))
    }

    /// Drops the snapshot pin, if one is still registered. Routed
    /// through [`PinGuard`] so the pin-release logic has exactly one
    /// home.
    fn release_pin(&self, xt: &mut ExternalTxn) {
        if std::mem::take(&mut xt.pinned) {
            drop(PinGuard { pipeline: &self.pipeline });
        }
    }

    /// Blocks until the rule engine is quiescent *at the current
    /// watermark*: no listed instantiation on any shard, nothing
    /// claimed or in flight, and no commit moved the watermark during
    /// the scan. Also returns when the run is done (the drain barrier
    /// must not outlive the engine). The server's `Invoke` barrier and
    /// graceful drain both sit on this. It fires what is ready itself
    /// ([`ParallelEngine::fire_ready`]) before each check, and parks
    /// only while another thread's claim is in flight.
    pub fn await_quiescence(&self) {
        loop {
            self.fire_ready();
            let w = self.pipeline.watermark();
            let busy = (0..self.pipeline.shards()).any(|s| {
                let mut state = self.pipeline.shard_state(s);
                self.pipeline.catch_up(s, w, &mut state, true, self.obs.as_deref());
                !state.rete.conflict_set().is_empty()
            });
            let ledger = self.ledger.lock().unwrap();
            if ledger.done {
                return;
            }
            if !busy && ledger.inflight == 0 && self.pipeline.watermark() == w {
                return;
            }
            // Parked as an in-flight waiter, which commits and aborts
            // notify; the timeout is a safety net against wakeups this
            // scan cannot observe.
            drop(self.park(ledger, Some(std::time::Duration::from_millis(2))));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::validate_trace;
    use crate::{ParallelConfig, ParallelEngine};
    use dps_lock::ConflictPolicy;
    use dps_rules::RuleSet;
    use dps_wm::{Value, WorkingMemory};

    fn accumulator_rules() -> RuleSet {
        RuleSet::parse(
            "(p apply (delta ^key <k> ^v <v>) (acc ^key <k> ^total <t>)
               --> (remove 1) (modify 2 ^total (+ <t> <v>)))",
        )
        .unwrap()
    }

    fn acc_wm(keys: i64) -> WorkingMemory {
        let mut wm = WorkingMemory::new();
        for k in 0..keys {
            wm.insert(WmeData::new("acc").with("key", k).with("total", 0i64));
        }
        wm
    }

    fn total_of(wm: &WorkingMemory) -> i64 {
        wm.class_iter("acc")
            .map(|w| match w.data.get("total") {
                Some(Value::Int(n)) => *n,
                _ => 0,
            })
            .sum()
    }

    /// External commits feed the rule engine in service mode: inserts
    /// from outside `run_shared` fire rules data-driven, the trace
    /// (rule firings interleaved with external commits) replays through
    /// the §3 oracle, and the drain leaves no locks or pins.
    #[test]
    fn external_commits_drive_rules_in_service_mode() {
        for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::MvccSnapshot] {
            let rules = accumulator_rules();
            let initial = acc_wm(4);
            let engine = ParallelEngine::new(
                &rules,
                initial.clone(),
                ParallelConfig {
                    service: true,
                    workers: 2,
                    policy,
                    ..ParallelConfig::default()
                },
            );
            let report = std::thread::scope(|scope| {
                let run = scope.spawn(|| engine.run_shared());
                for i in 0..20i64 {
                    let mut xt = engine.external_begin();
                    engine
                        .external_insert(
                            &mut xt,
                            WmeData::new("delta").with("key", i % 4).with("v", 1i64),
                        )
                        .expect("insert admitted");
                    engine.external_commit(&mut xt).expect("commit");
                }
                engine.await_quiescence();
                engine.request_stop();
                run.join().expect("engine run")
            });
            assert_eq!(report.commits, 20, "every delta fired the rule");
            assert_eq!(engine.external_commit_count(), 20);
            assert_eq!(report.trace.len(), 40, "20 external + 20 rule commits");
            validate_trace(&rules, &initial, &report.trace).expect("oracle accepts");
            assert_eq!(total_of(&engine.final_wm()), 20);
            assert_eq!(engine.held_locks(), 0);
            assert_eq!(engine.snapshot_pins(), 0);
        }
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// finished within a minute: a lost wake-up leaves a caller parked
    /// for good, and must show as a failure, not as a hung test run.
    fn watchdog(f: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done, finished) = channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("finished without reporting"),
            },
            Err(RecvTimeoutError::Timeout) => panic!("blocked for 60 s: a wake-up was lost"),
        }
    }

    fn commit_delta(engine: &ParallelEngine, key: i64) {
        let mut xt = engine.external_begin();
        let delta = WmeData::new("delta").with("key", key).with("v", 1i64);
        engine.external_insert(&mut xt, delta).expect("insert admitted");
        engine.external_commit(&mut xt).expect("commit");
    }

    /// `fire_ready` fires what the caller's commit enabled before it
    /// returns, on the calling thread: no worker is involved, so the
    /// rule count rises by exactly one per delta.
    #[test]
    fn fire_ready_fires_each_commit_before_returning() {
        for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::MvccSnapshot] {
            let rules = accumulator_rules();
            let initial = acc_wm(4);
            let engine = ParallelEngine::new(
                &rules,
                initial.clone(),
                ParallelConfig { service: true, workers: 2, policy, ..ParallelConfig::default() },
            );
            for i in 0..1000i64 {
                commit_delta(&engine, i % 4);
                engine.fire_ready();
                assert_eq!(engine.rule_commit_count(), i as u64 + 1, "{policy:?}: delta {i}");
            }
            engine.request_stop();
            let report = engine.run_shared();
            assert_eq!(report.commits, 1000);
            assert_eq!(report.trace.len(), 2000, "1000 external + 1000 rule commits");
            validate_trace(&rules, &initial, &report.trace).expect("oracle accepts");
            assert_eq!(total_of(&engine.final_wm()), 1000);
            assert_eq!(engine.held_locks(), 0);
            assert_eq!(engine.snapshot_pins(), 0);
        }
    }

    /// Bare `external_commit`s wake no parked worker; `await_quiescence`
    /// fires what they enabled itself instead of waiting for a worker's
    /// idle rescan, and returns with every rule fired.
    #[test]
    fn fire_ready_lets_await_quiescence_drain_bare_commits() {
        watchdog(|| {
            let rules = accumulator_rules();
            let initial = acc_wm(4);
            let engine = ParallelEngine::new(
                &rules,
                initial.clone(),
                ParallelConfig { service: true, workers: 2, ..ParallelConfig::default() },
            );
            let report = std::thread::scope(|scope| {
                let run = scope.spawn(|| engine.run_shared());
                for round in 0..10i64 {
                    for i in 0..100i64 {
                        commit_delta(&engine, i % 4);
                    }
                    engine.await_quiescence();
                    assert_eq!(engine.rule_commit_count(), 100 * (round as u64 + 1));
                }
                engine.request_stop();
                run.join().expect("engine run")
            });
            assert_eq!(report.commits, 1000);
            validate_trace(&rules, &initial, &report.trace).expect("oracle accepts");
            assert_eq!(total_of(&engine.final_wm()), 1000);
            assert_eq!(engine.held_locks(), 0);
        });
    }

    /// A session dying mid-transaction (abort with buffered writes and
    /// locks held) releases everything; queries and removes work.
    #[test]
    fn external_abort_releases_locks_and_pins() {
        let rules = accumulator_rules();
        let engine = ParallelEngine::new(
            &rules,
            acc_wm(2),
            ParallelConfig {
                service: true,
                policy: ConflictPolicy::MvccSnapshot,
                ..ParallelConfig::default()
            },
        );
        // No engine run needed: external ops work against the idle
        // engine too (workers only matter for rule firings).
        let mut xt = engine.external_begin();
        assert_eq!(engine.snapshot_pins(), 1, "MVCC begin pins a snapshot");
        engine
            .external_insert(&mut xt, WmeData::new("delta").with("key", 0i64).with("v", 3i64))
            .unwrap();
        assert!(engine.held_locks() > 0, "insert holds its relation lock");
        assert!(xt.pending_ops() == 1);
        engine.external_abort(&mut xt, dps_obs::AbortCause::Timeout);
        assert_eq!(engine.held_locks(), 0);
        assert_eq!(engine.snapshot_pins(), 0);
        // Double abort is idempotent (disconnect cleanup may race a
        // protocol-level abort).
        engine.external_abort(&mut xt, dps_obs::AbortCause::Timeout);
        assert_eq!(engine.held_locks(), 0);

        // Query + remove round-trip.
        let mut xt = engine.external_begin();
        let rows = engine.external_query(&mut xt, "acc").unwrap();
        assert_eq!(rows.len(), 2);
        let (id, _) = rows[0].clone();
        engine.external_remove(&mut xt, WmeId(id)).unwrap();
        engine.external_commit(&mut xt).unwrap();
        let mut xt = engine.external_begin();
        assert_eq!(engine.external_query(&mut xt, "acc").unwrap().len(), 1);
        engine.external_abort(&mut xt, dps_obs::AbortCause::Stale);
        assert_eq!(engine.held_locks(), 0);
        assert_eq!(engine.snapshot_pins(), 0);

        // Removing a bogus id aborts the transaction cleanly.
        let mut xt = engine.external_begin();
        let err = engine.external_remove(&mut xt, WmeId(9999)).unwrap_err();
        assert_eq!(err, dps_obs::AbortCause::Stale);
        assert_eq!(engine.held_locks(), 0);
        assert_eq!(engine.snapshot_pins(), 0);
    }

    /// Writers of one class share its relation: while one session holds
    /// the relation lock of its `delta` insert, a second session's
    /// insert and commit go through (the relation lock is an intention
    /// write), yet a condition read of the whole class still waits.
    #[test]
    fn session_writers_of_one_class_do_not_queue_on_its_relation() {
        use std::time::{Duration, Instant};
        let delta = |key: i64| WmeData::new("delta").with("key", key).with("v", 1i64);
        for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::MvccSnapshot] {
            let engine = ParallelEngine::new(
                &accumulator_rules(),
                acc_wm(2),
                ParallelConfig { service: true, policy, ..ParallelConfig::default() },
            );
            let mut first = engine.external_begin();
            engine.external_insert(&mut first, delta(0)).unwrap();
            let reader = engine.lm.begin();
            let rel = engine.relation_resource(&Atom::from("delta"));
            let blocks = engine.lm.stats().blocks;
            std::thread::scope(|scope| {
                let read = scope.spawn(|| engine.lm.lock(reader, rel, dps_lock::LockMode::Rc));
                while engine.lm.stats().blocks == blocks && !read.is_finished() {
                    std::thread::yield_now();
                }
                let waits = !read.is_finished();
                assert!(waits, "{policy:?}: a class-wide condition read waits for the writer");
                // Aborting the queued reader wakes it and takes it out of
                // the queue, where it would hold up the next writer.
                engine.lm.abort(reader).unwrap();
                assert_eq!(read.join().unwrap(), Err(dps_lock::LockError::NotActive(reader)));
            });
            let (unblocked, second) = std::thread::scope(|scope| {
                let second = scope.spawn(|| {
                    let mut xt = engine.external_begin();
                    engine.external_insert(&mut xt, delta(1))?;
                    engine.external_commit(&mut xt)
                });
                let deadline = Instant::now() + Duration::from_secs(10);
                while !second.is_finished() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let unblocked = second.is_finished();
                // Releasing the first writer frees a second one that did
                // queue, so a regression fails here instead of hanging.
                engine.external_commit(&mut first).unwrap();
                (unblocked, second.join().unwrap())
            });
            assert!(unblocked, "{policy:?}: the second writer queued behind the first");
            second.unwrap();
            assert_eq!(engine.external_commit_count(), 2);
            assert_eq!(engine.held_locks(), 0);
            assert_eq!(engine.snapshot_pins(), 0);
        }
    }

    /// Leak regression: an RHS that *panics* mid-action — inside the
    /// commit section's caller — must release every lock, snapshot pin,
    /// claim and in-flight count through the drop-guard chain (PinGuard,
    /// then ClaimGuard, the single owner of the claim's end) as the unwind
    /// passes through the worker and out of `thread::scope`.
    #[test]
    fn panicking_rhs_leaks_nothing() {
        for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::MvccSnapshot] {
            let rules = accumulator_rules();
            let mut wm = acc_wm(2);
            for i in 0..4i64 {
                wm.insert(WmeData::new("delta").with("key", i % 2).with("v", 1i64));
            }
            let engine = ParallelEngine::new(
                &rules,
                wm,
                ParallelConfig {
                    workers: 1,
                    policy,
                    fault: Some(dps_lock::FaultPlan {
                        seed: 7,
                        rhs_panic_pm: 1000,
                        ..Default::default()
                    }),
                    ..ParallelConfig::default()
                },
            );
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run_shared()
            }));
            assert!(outcome.is_err(), "rhs_panic_pm=1000 must panic the run");
            assert_eq!(engine.held_locks(), 0, "locks leaked through the unwind");
            assert_eq!(engine.snapshot_pins(), 0, "pins leaked through the unwind");
            for s in 0..engine.pipeline.shards() {
                let claims = &engine.pipeline.shard_state(s).claims;
                assert!(claims.is_empty(), "claim wedged by the unwind on shard {s}");
            }
            let ledger = engine.ledger.lock().expect("nobody died holding the ledger");
            assert_eq!(ledger.inflight, 0, "in-flight count wedged by the unwind");
        }
    }
}
