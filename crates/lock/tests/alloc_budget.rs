//! Allocation budget of one transaction's lock bookkeeping.
//!
//! Every firing on `engine_contend` (the `e2e` workload where lock and
//! commit-path costs show) runs the same lock traffic: `begin`, `R_c` on
//! the two matched tuples, `W_a` on the same two tuples (the RHS removes
//! one and modifies the other), the intention write `IW_a` on both
//! tuples' relations, and `commit` — six grants. This test replays that
//! footprint through the public API on one thread under a counting
//! allocator, and a second shape that aborts after its first write
//! lock, and bounds what each transaction allocates on average.
//!
//! Measured (release, 50 000 transactions after a 2 000-transaction
//! warm-up), mean per transaction:
//! - with `BTreeSet` mode sets, `BTreeMap` holder and held maps, a
//!   `BTreeMap` grouping resources by stripe at commit and release, and a
//!   registry that kept every transaction ever begun: commit 25.2
//!   allocations and 3 588 bytes, abort 11.9 and 1 961;
//! - with bit-mask mode sets, sorted-vector holder and held maps, one
//!   sorted vector for the stripe grouping and a registry that forgets
//!   finished transactions: commit 8.0 allocations and 648 bytes, abort
//!   5.0 and 376. What remains is the transaction's state (one `Arc`),
//!   one holder vector per lock-table entry (an entry is dropped when
//!   its last holder leaves), the held vector, and the stripe-sorted
//!   vectors of `commit` and `release_held`.
//!
//! The allocator lives here because an integration test is its own
//! crate: `dps-lock` itself keeps `#![forbid(unsafe_code)]`. Keep this
//! file to a single `#[test]` — the counters are process-wide. CI runs
//! it with `--release`, the build the engine pays for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dps_lock::{ConflictPolicy, LockManager, LockMode, ResourceId};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` unchanged; the counters are relaxed atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` requested so far.
fn counters() -> (u64, u64) {
    (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed))
}

const WARM_UP: u64 = 2_000;
const MEASURED: u64 = 50_000;
/// Hot tallies every firing picks one of, as on `engine_contend`.
const TALLIES: u64 = 8;
/// Mean per-transaction ceilings. Measured 8.0 / 648 (commit) and
/// 5.0 / 376 (abort); the tree-map bookkeeping's 25.2 / 3 588 and
/// 11.9 / 1 961 fail all four.
const COMMIT_ALLOCS: f64 = 10.0;
const COMMIT_BYTES: f64 = 1_024.0;
const ABORT_ALLOCS: f64 = 7.0;
const ABORT_BYTES: f64 = 640.0;

/// The `engine_contend` firing `k`: a fresh task tuple and one of the
/// hot tallies, each in its own relation.
fn commit_shape(m: &LockManager, k: u64) {
    let (task, tally) = (ResourceId::Tuple(TALLIES + k), ResourceId::Tuple(k % TALLIES));
    let txn = m.begin();
    for res in [task, tally] {
        m.lock(txn, res, LockMode::Rc).unwrap();
    }
    for res in [task, tally] {
        m.lock(txn, res, LockMode::Wa).unwrap();
    }
    for rel in [ResourceId::Relation(0), ResourceId::Relation(1)] {
        m.lock(txn, rel, LockMode::IWa).unwrap();
    }
    m.commit(txn).unwrap();
}

/// Condition reads and one write lock, then an abort (a stale claim or
/// a doom surfacing mid-RHS).
fn abort_shape(m: &LockManager, k: u64) {
    let (task, tally) = (ResourceId::Tuple(TALLIES + k), ResourceId::Tuple(k % TALLIES));
    let txn = m.begin();
    for res in [task, tally] {
        m.lock(txn, res, LockMode::Rc).unwrap();
    }
    m.lock(txn, task, LockMode::Wa).unwrap();
    m.abort(txn).unwrap();
}

/// Mean `(allocations, bytes)` per transaction of `shape` over the
/// measured run.
fn per_txn(m: &LockManager, shape: fn(&LockManager, u64)) -> (f64, f64) {
    for k in 0..WARM_UP {
        shape(m, k);
    }
    let start = counters();
    for k in WARM_UP..WARM_UP + MEASURED {
        shape(m, k);
    }
    let end = counters();
    let n = MEASURED as f64;
    ((end.0 - start.0) as f64 / n, (end.1 - start.1) as f64 / n)
}

#[test]
fn lock_bookkeeping_stays_within_the_allocation_budget() {
    let m = LockManager::new(ConflictPolicy::AbortReaders);
    let (commit_allocs, commit_bytes) = per_txn(&m, commit_shape);
    let (abort_allocs, abort_bytes) = per_txn(&m, abort_shape);
    println!(
        "lock alloc budget over {MEASURED} transactions each: commit mean {commit_allocs:.1} \
         allocations {commit_bytes:.0} bytes; abort mean {abort_allocs:.1} allocations \
         {abort_bytes:.0} bytes"
    );
    assert_eq!(m.stats().commits, WARM_UP + MEASURED);
    assert_eq!(m.stats().aborts, WARM_UP + MEASURED);
    assert_eq!((m.held_locks(), m.live_txns()), (0, 0));
    assert!(
        commit_allocs <= COMMIT_ALLOCS && commit_bytes <= COMMIT_BYTES,
        "a committed transaction made {commit_allocs:.1} allocations and {commit_bytes:.0} bytes \
         (budget {COMMIT_ALLOCS} / {COMMIT_BYTES})"
    );
    assert!(
        abort_allocs <= ABORT_ALLOCS && abort_bytes <= ABORT_BYTES,
        "an aborted transaction made {abort_allocs:.1} allocations and {abort_bytes:.0} bytes \
         (budget {ABORT_ALLOCS} / {ABORT_BYTES})"
    );
}
