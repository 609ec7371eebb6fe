//! Multi-threaded stress tests for the *sharded* lock manager: many
//! threads hammer the striped lock table with randomized lock streams,
//! commits and aborts, and we assert the global invariants that a lost
//! wakeup, a leaked queue entry or a double-count would violate:
//!
//! * **accounting** — every transaction that begins ends exactly once:
//!   `stats.commits + stats.aborts == begins`;
//! * **drainage** — after the storm, a probe transaction can immediately
//!   `X`-lock every resource (`try_lock` succeeds), i.e. no holder or
//!   waiter entry survived its transaction;
//! * **progress** — the whole run terminates (no thread parks forever).
//!
//! No wait has a deadline — deadlock detection alone breaks cycles —
//! so a lost wakeup hangs the test instead of passing late (CI loops
//! this file under a watchdog).
//!
//! The manager is dependency-free, so the test carries its own tiny
//! SplitMix64 generator — deterministic per seed, so failures reproduce.

use std::sync::Arc;

use dps_lock::{ConflictPolicy, LockManager, LockMode, ResourceId};

/// Minimal SplitMix64 (the lock crate has no deps; keep the test
/// self-contained and deterministic).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0BAD_5EED_0BAD_5EED)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

const TUPLES: u64 = 24;
const RELATIONS: u32 = 4;

fn resource(rng: &mut Rng) -> ResourceId {
    if rng.chance(15) {
        ResourceId::Relation((rng.next() % RELATIONS as u64) as u32)
    } else {
        ResourceId::Tuple(rng.next() % TUPLES)
    }
}

/// One randomized transaction: lock a handful of resources (blocking or
/// probing), then commit or abort. Returns `true` on commit.
fn run_txn(mgr: &LockManager, rng: &mut Rng) -> bool {
    let txn = mgr.begin();
    let two_phase = rng.chance(50);
    let n_locks = 1 + rng.index(4);
    for _ in 0..n_locks {
        let res = resource(rng);
        // A relation may also take its protocol's intention write.
        let modes: &[LockMode] = match (two_phase, res) {
            (true, ResourceId::Relation(_)) => &[LockMode::S, LockMode::X, LockMode::IX],
            (true, ResourceId::Tuple(_)) => &[LockMode::S, LockMode::X],
            (false, ResourceId::Relation(_)) => {
                &[LockMode::Rc, LockMode::Ra, LockMode::Wa, LockMode::IWa]
            }
            (false, ResourceId::Tuple(_)) => &[LockMode::Rc, LockMode::Ra, LockMode::Wa],
        };
        let mode = modes[rng.index(modes.len())];
        let result = if rng.chance(20) {
            // Non-blocking probe; a refusal is not an error.
            mgr.try_lock(txn, res, mode).map(|_| ())
        } else {
            mgr.lock(txn, res, mode)
        };
        if result.is_err() {
            return false; // doomed/deadlock: auto-aborted
        }
    }
    if rng.chance(70) {
        // An Err here is a doom at the last instant: auto-aborted.
        mgr.commit(txn).is_ok()
    } else {
        mgr.abort(txn).expect("live txn aborts cleanly");
        false
    }
}

/// After a storm, every resource must be immediately X-lockable: any
/// holder or waiter left behind (lost wakeup, leaked entry) fails this.
fn assert_table_drained(mgr: &LockManager) {
    let probe = mgr.begin();
    for t in 0..TUPLES {
        assert_eq!(
            mgr.try_lock(probe, ResourceId::Tuple(t), LockMode::X),
            Ok(true),
            "tuple {t} still held after all txns ended"
        );
    }
    for r in 0..RELATIONS {
        assert_eq!(
            mgr.try_lock(probe, ResourceId::Relation(r), LockMode::X),
            Ok(true),
            "relation {r} still held after all txns ended"
        );
    }
    mgr.commit(probe).unwrap();
}

fn storm(mgr: Arc<LockManager>, threads: usize, txns_per_thread: usize, seed: u64) {
    let commits: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_add(i as u64));
                    let mut local = 0u64;
                    for _ in 0..txns_per_thread {
                        if run_txn(&mgr, &mut rng) {
                            local += 1;
                        }
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let begins = (threads * txns_per_thread) as u64;
    let stats = mgr.stats();
    assert_eq!(
        stats.commits + stats.aborts,
        begins,
        "every begun txn ends exactly once: {stats:?}"
    );
    assert_eq!(
        stats.commits, commits,
        "manager's commit counter agrees with the callers'"
    );
    assert_table_drained(&mgr);
}

#[test]
fn randomized_mixed_protocol_storm_abort_readers() {
    let mgr = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    storm(mgr, 12, 40, 0x00A1_1CE5);
}

#[test]
fn randomized_mixed_protocol_storm_revalidate() {
    let mgr = Arc::new(LockManager::new(ConflictPolicy::Revalidate));
    storm(mgr, 12, 40, 0xB0B5);
}

#[test]
fn hot_spot_storm_makes_progress() {
    // Every transaction X-locks the same tuple: maximal queueing. A
    // single lost wakeup deadlocks this test (caught by the harness
    // timeout); FIFO queues guarantee each waiter eventually runs.
    let mgr = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    let threads = 8usize;
    let per = 20usize;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let mgr = Arc::clone(&mgr);
            scope.spawn(move || {
                for _ in 0..per {
                    let txn = mgr.begin();
                    mgr.lock(txn, ResourceId::Tuple(7), LockMode::X).unwrap();
                    mgr.commit(txn).unwrap();
                }
            });
        }
    });
    let stats = mgr.stats();
    assert_eq!(stats.commits, (threads * per) as u64);
    assert_eq!(stats.aborts, 0, "pure queueing, no conflicts to abort");
    assert_table_drained(&mgr);
}

#[test]
fn deadlock_storm_resolves() {
    // Pairs of resources locked in opposite orders: a deadlock factory.
    // Detection alone must keep the run live and the accounting exact.
    let mgr = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    let threads = 8usize;
    let per = 15usize;
    let commits: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let mgr = Arc::clone(&mgr);
                scope.spawn(move || {
                    let mut rng = Rng::new(0xDEAD_10CC ^ i as u64);
                    let mut local = 0u64;
                    for _ in 0..per {
                        let txn = mgr.begin();
                        // Two tuples from a tiny pool, random order: ~50%
                        // of pairs invert some other thread's order.
                        let a = rng.next() % 4;
                        let b = rng.next() % 4;
                        let ok = mgr.lock(txn, ResourceId::Tuple(a), LockMode::X).is_ok()
                            && mgr.lock(txn, ResourceId::Tuple(b), LockMode::X).is_ok();
                        // A failed lock is a deadlock victim: auto-aborted.
                        if ok && mgr.commit(txn).is_ok() {
                            local += 1;
                        }
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let stats = mgr.stats();
    assert_eq!(stats.commits + stats.aborts, (threads * per) as u64);
    assert_eq!(stats.commits, commits);
    assert!(
        commits > 0,
        "at least the deadlock survivors make progress"
    );
    assert_table_drained(&mgr);
}
