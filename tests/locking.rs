//! Integration tests for §4: the lock protocols end to end (E4.1–E4.4),
//! including blocking behaviour across real threads.

use std::sync::Arc;
use std::time::Duration;

use dbps::lock::{
    compatible, ConflictPolicy, LockError, LockManager, LockMode, Protocol, ResourceId, TxnId,
};

fn tup(n: u64) -> ResourceId {
    ResourceId::Tuple(n)
}

#[test]
fn e4_1_table_rows_and_protocol_mapping() {
    use LockMode::*;
    // Table 4.1 summary invariants.
    assert!(
        compatible(Rc, Wa) && !compatible(Wa, Rc),
        "the asymmetric novelty"
    );
    for m in [Rc, Ra, Wa] {
        assert!(!compatible(Wa, m), "Wa row is all N");
        assert!(compatible(Rc, m), "Rc row is all Y");
    }
    // Figure 4.1 vs 4.2 mode mapping.
    assert_eq!(Protocol::TwoPhase.condition_read(), S);
    assert_eq!(Protocol::RcRaWa.condition_read(), Rc);
    assert_eq!(Protocol::RcRaWa.action_write(), Wa);
}

#[test]
fn e4_2_condition_evaluation_overlaps_inflight_writer_only_under_rc() {
    // Scenario: a writer is mid-RHS holding its write lock; a *new*
    // production wants to start evaluating its condition on a different
    // item, and also read the written item.
    // Under Table 4.1, Rc under Wa is still refused (Wa row is N) — the
    // enhanced parallelism is the *other* direction (Wa granted under
    // Rc). Verify both directions precisely.
    let lm = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    let (writer, reader) = (lm.begin(), lm.begin());
    lm.lock(reader, tup(1), LockMode::Rc).unwrap();
    // Writer proceeds despite the reader — this is what 2PL forbids.
    assert!(!waits(&lm, writer, tup(1), LockMode::Wa));
    // A late reader cannot start under the in-flight writer.
    let late = lm.begin();
    assert!(waits(&lm, late, tup(1), LockMode::Rc));

    // The 2PL baseline blocks the writer in the same situation.
    let lm2 = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    let (w2, r2) = (lm2.begin(), lm2.begin());
    lm2.lock(r2, tup(1), LockMode::S).unwrap();
    assert!(waits(&lm2, w2, tup(1), LockMode::X));
}

/// Does `txn`'s request for `mode` on `res` wait? `lock` runs on another
/// thread: `false` once it returns granted, `true` once it has queued —
/// then `txn` is aborted from here, which wakes the request.
fn waits(lm: &Arc<LockManager>, txn: TxnId, res: ResourceId, mode: LockMode) -> bool {
    let blocks = lm.stats().blocks;
    let request = {
        let lm = Arc::clone(lm);
        std::thread::spawn(move || lm.lock(txn, res, mode))
    };
    loop {
        if request.is_finished() {
            request.join().unwrap().unwrap();
            return false;
        }
        if lm.stats().blocks > blocks {
            lm.abort(txn).unwrap();
            assert_eq!(request.join().unwrap(), Err(LockError::NotActive(txn)));
            return true;
        }
        std::thread::yield_now();
    }
}

#[test]
fn e4_3_commit_order_decides_reader_fate() {
    // (a) reader first → both commit; (b) writer first → reader aborts.
    for writer_first in [false, true] {
        let lm = LockManager::new(ConflictPolicy::AbortReaders);
        let (pj, pi) = (lm.begin(), lm.begin());
        lm.lock(pj, tup(1), LockMode::Rc).unwrap();
        lm.lock(pi, tup(1), LockMode::Wa).unwrap();
        if writer_first {
            assert_eq!(lm.commit(pi).unwrap().doomed_readers, vec![pj]);
            assert!(matches!(
                lm.commit(pj),
                Err(LockError::DoomedByWriter { txn, by }) if txn == pj && by == pi
            ));
        } else {
            assert!(lm.commit(pj).unwrap().doomed_readers.is_empty());
            assert!(lm.commit(pi).unwrap().doomed_readers.is_empty());
        }
    }
}

#[test]
fn e4_4_circular_conflict_exactly_one_survivor_either_way() {
    for pi_first in [true, false] {
        let lm = LockManager::new(ConflictPolicy::AbortReaders);
        let (pi, pj) = (lm.begin(), lm.begin());
        lm.lock(pi, tup(1), LockMode::Rc).unwrap();
        lm.lock(pj, tup(2), LockMode::Rc).unwrap();
        lm.lock(pi, tup(2), LockMode::Wa).unwrap();
        lm.lock(pj, tup(1), LockMode::Wa).unwrap();
        let (first, second) = if pi_first { (pi, pj) } else { (pj, pi) };
        assert_eq!(lm.commit(first).unwrap().doomed_readers, vec![second]);
        assert!(lm.commit(second).is_err());
        let s = lm.stats();
        assert_eq!((s.commits, s.aborts), (1, 1));
    }
}

#[test]
fn blocked_two_phase_writer_proceeds_after_reader_commit() {
    let lm = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    let reader = lm.begin();
    let writer = lm.begin();
    lm.lock(reader, tup(7), LockMode::S).unwrap();
    let lm2 = Arc::clone(&lm);
    let handle = std::thread::spawn(move || {
        lm2.lock(writer, tup(7), LockMode::X)?;
        lm2.commit(writer)
    });
    std::thread::sleep(Duration::from_millis(20));
    lm.commit(reader).unwrap();
    assert!(handle.join().unwrap().is_ok());
}

#[test]
fn doomed_reader_waiting_on_another_lock_is_woken_with_the_doom() {
    // Reader holds Rc(q) and is blocked waiting for a lock held by a
    // third party; the writer commits Wa(q); the reader must wake with
    // the doom rather than wait forever.
    let lm = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    let holder = lm.begin();
    let reader = lm.begin();
    let writer = lm.begin();
    lm.lock(holder, tup(2), LockMode::Wa).unwrap();
    lm.lock(reader, tup(1), LockMode::Rc).unwrap();
    let lm2 = Arc::clone(&lm);
    let blocked = std::thread::spawn(move || lm2.lock(reader, tup(2), LockMode::Ra));
    std::thread::sleep(Duration::from_millis(20));
    lm.lock(writer, tup(1), LockMode::Wa).unwrap();
    lm.commit(writer).unwrap();
    let err = blocked.join().unwrap().unwrap_err();
    assert!(matches!(err, LockError::DoomedByWriter { by, .. } if by == writer));
    lm.commit(holder).unwrap();
}

#[test]
fn revalidate_policy_reports_but_does_not_kill() {
    let lm = LockManager::new(ConflictPolicy::Revalidate);
    let (pj, pi) = (lm.begin(), lm.begin());
    lm.lock(pj, tup(1), LockMode::Rc).unwrap();
    lm.lock(pi, tup(1), LockMode::Wa).unwrap();
    let o = lm.commit(pi).unwrap();
    assert_eq!(o.needs_revalidation, vec![pj]);
    assert!(o.doomed_readers.is_empty());
    // The engine decided revalidation passed: the reader commits fine.
    assert!(lm.commit(pj).is_ok());
}

#[test]
fn deadlock_between_two_phase_writers_is_broken() {
    let lm = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    let a = lm.begin();
    let b = lm.begin();
    lm.lock(a, tup(1), LockMode::X).unwrap();
    lm.lock(b, tup(2), LockMode::X).unwrap();
    let lm2 = Arc::clone(&lm);
    let hb = std::thread::spawn(move || lm2.lock(b, tup(1), LockMode::X));
    std::thread::sleep(Duration::from_millis(20));
    let ra = lm.lock(a, tup(2), LockMode::X);
    let rb = hb.join().unwrap();
    // Exactly one aborts (the younger: b).
    assert!(ra.is_ok());
    assert_eq!(rb.unwrap_err(), LockError::Deadlock(b));
}

#[test]
fn many_concurrent_rc_readers_one_writer_all_resolve() {
    let lm = Arc::new(LockManager::new(ConflictPolicy::AbortReaders));
    let readers: Vec<_> = (0..6).map(|_| lm.begin()).collect();
    for &r in &readers {
        lm.lock(r, tup(1), LockMode::Rc).unwrap();
    }
    let writer = lm.begin();
    lm.lock(writer, tup(1), LockMode::Wa).unwrap();
    let outcome = lm.commit(writer).unwrap();
    assert_eq!(
        outcome.doomed_readers.len(),
        6,
        "all overlapped readers doomed"
    );
    for &r in &readers {
        assert!(lm.commit(r).is_err());
    }
    let s = lm.stats();
    assert_eq!((s.commits, s.aborts), (1, 6));
}
