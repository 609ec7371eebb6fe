//! Persistence codecs: snapshots, committed change batches, and the
//! replay rule.
//!
//! The paper's opening motivation for *database* production systems is
//! that "expert system users are asking for knowledge sharing and
//! knowledge persistence, features found currently in databases". This
//! module provides the encoding half of that story; the durability path
//! itself — the file-backed, group-committed WAL, checkpoints and
//! [`crate::recover`] — lives in [`crate::wal`] and is the only log:
//!
//! * [`WorkingMemory::encode_snapshot`] / [`WorkingMemory::decode_snapshot`]
//!   — a versioned, self-contained binary image of working memory
//!   (identity counters, recency clock, the declared classes in order,
//!   tuples), which a WAL checkpoint embeds;
//! * the change-batch body codec (`encode_batch_body` /
//!   `decode_batch_body`) — one committed [`Change`] batch, exactly
//!   what [`WorkingMemory::apply`] returns at a production commit; every
//!   WAL commit record carries one;
//! * the **replay atomicity rule**: a batch is the paper's §4.2 atomic
//!   commit unit, so recovery applies it all-or-nothing too
//!   ([`apply_changes_atomic`] stages and validates the whole batch
//!   before the first mutation).
//!
//! Strings, values and tuples are laid out by [`crate::codec`], the
//! byte format the wire protocol shares; a version byte guards evolution.

use std::sync::Arc;

use crate::codec::{checked_len, put_data, put_str, put_u32, put_u64, CodecError, Names, Reader};
use crate::{Change, IdMap, Wme, WmeId, WorkingMemory};

/// Magic bytes opening every snapshot.
const SNAPSHOT_MAGIC: &[u8; 4] = b"DPSW";
/// Current format version (2: the class list precedes the tuples and
/// carries no per-class counters).
const VERSION: u8 = 2;

/// Writes a `Wme`: `[id: u64][timestamp: u64][tuple]`.
pub(crate) fn put_wme(out: &mut Vec<u8>, w: &Wme) -> Result<(), CodecError> {
    put_u64(out, w.id.0);
    put_u64(out, w.timestamp);
    put_data(out, &w.data)
}

fn read_wme<'a>(r: &mut Reader<'a>, names: &mut Names<'a>) -> Result<Arc<Wme>, CodecError> {
    Ok(Arc::new(Wme { id: WmeId(r.u64()?), timestamp: r.u64()?, data: r.data(names)? }))
}

/// Serialises one committed change batch: `[count: u32][tag, wme]*`.
pub(crate) fn encode_batch_body(out: &mut Vec<u8>, changes: &[Change]) -> Result<(), CodecError> {
    put_u32(out, checked_len(changes.len())?);
    for change in changes {
        let (tag, w) = match change {
            Change::Added(w) => (0, w),
            Change::Removed(w) => (1, w),
        };
        out.push(tag);
        put_wme(out, w)?;
    }
    Ok(())
}

/// Decodes one change batch (the inverse of [`encode_batch_body`]).
pub(crate) fn decode_batch_body(r: &mut Reader<'_>) -> Result<Vec<Change>, CodecError> {
    let n = r.u32()? as usize;
    let mut changes = Vec::with_capacity(n.min(1024));
    let mut names = Names::default();
    for _ in 0..n {
        let tag = r.u8()?;
        let wme = read_wme(r, &mut names)?;
        changes.push(match tag {
            0 => Change::Added(wme),
            1 => Change::Removed(wme),
            t => return Err(CodecError::BadTag(t)),
        });
    }
    Ok(changes)
}

/// Replays one committed change batch onto `wm` **all-or-nothing** —
/// the batch is the paper's §4.2 atomic commit unit, and recovery must
/// honour that too. The whole batch is validated against the current
/// state (tracking liveness *through* the batch: a modify is
/// `Removed` + `Added` of the same id) before the first mutation, so an
/// `Err` leaves working memory byte-identical.
pub fn apply_changes_atomic(wm: &mut WorkingMemory, changes: &[Change]) -> Result<(), CodecError> {
    // Stage: liveness overlay for ids the batch itself touches.
    let mut overlay: IdMap<WmeId, bool> = IdMap::default();
    for change in changes {
        let (w, adds) = match change {
            Change::Added(w) => (w, true),
            Change::Removed(w) => (w, false),
        };
        let live = overlay.get(&w.id).copied().unwrap_or_else(|| wm.contains(w.id));
        // An add needs a dead id, a removal a live one.
        if live == adds {
            return Err(CodecError::ReplayConflict(w.id));
        }
        overlay.insert(w.id, adds);
    }
    // Apply: every operation validated above.
    for change in changes {
        match change {
            Change::Added(w) => wm.restore_raw(Arc::clone(w)),
            Change::Removed(w) => {
                wm.remove(w.id).expect("validated above");
            }
        }
    }
    Ok(())
}

impl WorkingMemory {
    /// Serialises the complete working memory into a self-contained
    /// binary snapshot:
    /// `[magic][version][next_id: u64][clock: u64]
    /// [class count: u32][class]*[tuple count: u64][wme]*`, with every
    /// declared class (empty ones included) in declaration order, then
    /// the tuples in [`WorkingMemory::iter`] order. Fails with
    /// [`CodecError::TooLarge`] if any length field would overflow its
    /// on-disk width (rather than silently truncating it).
    pub fn encode_snapshot(&self) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(64 + self.len() * 32);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(VERSION);
        put_u64(&mut out, self.next_id_raw());
        put_u64(&mut out, self.clock());
        put_u32(&mut out, checked_len(self.class_names().count())?);
        for class in self.class_names() {
            put_str(&mut out, class.as_str())?;
        }
        put_u64(&mut out, self.len() as u64);
        for wme in self.iter() {
            put_wme(&mut out, wme)?;
        }
        Ok(out)
    }

    /// Reconstructs a working memory from a snapshot. The result is
    /// bit-identical in behaviour: same tuples, ids, timestamps, id
    /// allocator position and class order — the class list is declared
    /// before any tuple is restored, so a class that was empty at the
    /// snapshot keeps its place when a later batch refills it.
    pub fn decode_snapshot(buf: &[u8]) -> Result<WorkingMemory, CodecError> {
        let mut r = Reader::new(buf);
        if r.take(4)? != SNAPSHOT_MAGIC || r.u8()? != VERSION {
            return Err(CodecError::BadHeader);
        }
        let next_id = r.u64()?;
        let clock = r.u64()?;
        let mut wm = WorkingMemory::new();
        let mut names = Names::default();
        for _ in 0..r.u32()? {
            wm.declare(&names.read(&mut r)?);
        }
        for _ in 0..r.u64()? {
            let wme = read_wme(&mut r, &mut names)?;
            wm.restore_raw(wme);
        }
        wm.set_counters_raw(next_id, clock);
        r.finish()?;
        Ok(wm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, DeltaSet, Value, WmeData};

    fn populated() -> WorkingMemory {
        let mut wm = WorkingMemory::new();
        wm.insert(
            WmeData::new("job")
                .with("id", 1i64)
                .with("cost", 2.5f64)
                .with("name", String::from("mill"))
                .with("urgent", true),
        );
        let doomed = wm.insert(WmeData::new("tmp"));
        wm.insert(
            WmeData::new("job")
                .with("id", 2i64)
                .with("note", Value::Nil),
        );
        wm.remove(doomed).unwrap();
        wm
    }

    fn assert_same(a: &WorkingMemory, b: &WorkingMemory) {
        let av: Vec<&Wme> = a.iter().collect();
        let bv: Vec<Wme> = b.iter().cloned().collect();
        assert_eq!(av.len(), bv.len());
        for (x, y) in av.iter().zip(bv.iter()) {
            assert_eq!(**x, *y);
        }
        assert_eq!(a.clock(), b.clock());
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let wm = populated();
        let snap = wm.encode_snapshot().unwrap();
        let back = WorkingMemory::decode_snapshot(&snap).unwrap();
        assert_same(&wm, &back);
        // The emptied class stays declared, and the bytes round-trip.
        assert!(back.relation("tmp").is_some_and(|r| r.is_empty()));
        assert_eq!(back.encode_snapshot().unwrap(), snap);
    }

    #[test]
    fn restored_memory_keeps_the_class_order_of_an_emptied_class() {
        // Classes a, x, y; x is empty at the snapshot and refilled after.
        let mut live = WorkingMemory::new();
        live.insert(WmeData::new("a"));
        let x = live.insert(WmeData::new("x"));
        live.insert(WmeData::new("y"));
        live.remove(x).unwrap();
        let mut back = WorkingMemory::decode_snapshot(&live.encode_snapshot().unwrap()).unwrap();
        let mut d = DeltaSet::new();
        d.create(WmeData::new("x"));
        live.apply(&d).unwrap();
        back.apply(&d).unwrap();
        let classes = |wm: &WorkingMemory| -> Vec<String> {
            wm.iter().map(|w| w.class().as_str().to_string()).collect()
        };
        assert_eq!(classes(&live), ["a", "x", "y"]);
        assert_eq!(classes(&back), classes(&live));
        assert_eq!(
            back.encode_snapshot().unwrap(),
            live.encode_snapshot().unwrap()
        );
    }

    #[test]
    fn restored_memory_allocates_fresh_ids() {
        let wm = populated();
        let mut back = WorkingMemory::decode_snapshot(&wm.encode_snapshot().unwrap()).unwrap();
        let existing: Vec<WmeId> = back.iter().map(|w| w.id).collect();
        let fresh = back.insert(WmeData::new("job"));
        assert!(
            !existing.contains(&fresh),
            "id allocator position persisted"
        );
        let old_clock = wm.clock();
        assert!(back.get(fresh).unwrap().timestamp > old_clock);
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let wm = populated();
        let mut snap = wm.encode_snapshot().unwrap();
        assert!(matches!(
            WorkingMemory::decode_snapshot(&snap[..10]),
            Err(CodecError::Truncated)
        ));
        snap[0] = b'X';
        assert!(matches!(
            WorkingMemory::decode_snapshot(&snap),
            Err(CodecError::BadHeader)
        ));
        let empty: Vec<u8> = Vec::new();
        assert!(WorkingMemory::decode_snapshot(&empty).is_err());
    }

    #[test]
    fn trailing_garbage_is_reported_as_trailing_bytes() {
        // Misleading-taxonomy regression: appended garbage used to be
        // reported as BadHeader ("bad magic bytes"), hiding what
        // actually went wrong.
        let wm = populated();
        let mut snap = wm.encode_snapshot().unwrap();
        let clean = snap.len();
        snap.extend_from_slice(b"junk");
        match WorkingMemory::decode_snapshot(&snap) {
            Err(CodecError::TrailingBytes { at }) => assert_eq!(at, clean),
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
        // Genuinely bad magic still reads as BadHeader.
        snap[0] = b'X';
        assert!(matches!(
            WorkingMemory::decode_snapshot(&snap),
            Err(CodecError::BadHeader)
        ));
        // The new variant has a Display.
        let msg = CodecError::TrailingBytes { at: clean }.to_string();
        assert!(msg.contains("trailing"), "{msg}");
    }

    #[test]
    fn oversized_length_fields_are_rejected_not_truncated() {
        // `checked_len` is the chokepoint every count/string-length
        // encoding goes through; a usize above u32::MAX must surface
        // TooLarge instead of wrapping (the old `as u32` corruption).
        assert_eq!(checked_len(0), Ok(0));
        assert_eq!(checked_len(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            checked_len(u32::MAX as usize + 1),
            Err(CodecError::TooLarge)
        );
        assert_eq!(checked_len(usize::MAX), Err(CodecError::TooLarge));
        assert!(CodecError::TooLarge.to_string().contains("u32"));
    }

    /// One batch through the WAL's record payload codec and back.
    fn through_codec(changes: &[Change]) -> Vec<Change> {
        let mut body = Vec::new();
        encode_batch_body(&mut body, changes).unwrap();
        let mut r = Reader::new(&body);
        let back = decode_batch_body(&mut r).unwrap();
        assert!(r.at_end());
        back
    }

    #[test]
    fn snapshot_plus_batches_recovers_post_snapshot_commits() {
        let mut wm = populated();
        let snap = wm.encode_snapshot().unwrap();
        let mut batches = Vec::new();

        // Three "commits" after the checkpoint.
        let id = wm.iter().next().unwrap().id;
        let mut d1 = DeltaSet::new();
        d1.modify(id, [(Atom::from("cost"), Value::Float(9.75))]);
        batches.push(through_codec(&wm.apply(&d1).unwrap()));

        let mut d2 = DeltaSet::new();
        d2.create(WmeData::new("audit").with("of", 1i64));
        batches.push(through_codec(&wm.apply(&d2).unwrap()));

        let victim = wm.class_iter("job").nth(1).unwrap().id;
        let mut d3 = DeltaSet::new();
        d3.remove(victim);
        batches.push(through_codec(&wm.apply(&d3).unwrap()));

        // "Crash" and recover: snapshot + batch replay.
        let mut recovered = WorkingMemory::decode_snapshot(&snap).unwrap();
        for batch in &batches {
            apply_changes_atomic(&mut recovered, batch).unwrap();
        }
        assert_same(&wm, &recovered);

        // Recovery leaves the allocator usable.
        let fresh = recovered.insert(WmeData::new("job"));
        assert!(wm.get(fresh).is_none());
    }

    #[test]
    fn batch_framing_is_validated() {
        let mut wm = WorkingMemory::new();
        let mut d = DeltaSet::new();
        d.create(WmeData::new("x"));
        let mut body = Vec::new();
        encode_batch_body(&mut body, &wm.apply(&d).unwrap()).unwrap();
        body.truncate(body.len() - 2);
        assert_eq!(
            decode_batch_body(&mut Reader::new(&body)),
            Err(CodecError::Truncated)
        );
        // Count 1, then tag 7: neither Added (0) nor Removed (1).
        let mut bad = vec![1, 0, 0, 0, 7];
        put_wme(&mut bad, &wm.iter().next().unwrap().clone()).unwrap();
        assert_eq!(
            decode_batch_body(&mut Reader::new(&bad)),
            Err(CodecError::BadTag(7))
        );
    }

    #[test]
    fn replay_conflict_is_reported() {
        let mut wm = WorkingMemory::new();
        let id = wm.insert(WmeData::new("x"));
        let removed = wm.remove(id).unwrap();
        // Replaying onto an EMPTY memory (wrong base) fails cleanly.
        let mut empty = WorkingMemory::new();
        assert_eq!(
            apply_changes_atomic(&mut empty, &[Change::Removed(removed)]),
            Err(CodecError::ReplayConflict(id))
        );
        assert!(empty.is_empty());
    }

    #[test]
    fn conflicting_batch_applies_nothing_at_all() {
        // Replay-atomicity regression: a batch whose *last* operation
        // conflicts must not leave the earlier operations applied. The
        // batch is the §4.2 atomic commit unit — all-or-nothing on
        // recovery too.
        let mut wm = populated();
        let snap_before = wm.encode_snapshot().unwrap();
        let live = wm.iter().next().unwrap().clone();

        // Batch: create a new element (valid), then remove an id that
        // was never in this base (conflict).
        let ghost_id = WmeId(9001);
        let ghost = Wme {
            id: ghost_id,
            timestamp: live.timestamp + 50,
            data: WmeData::new("ghost"),
        };
        let created = Wme {
            id: WmeId(9000),
            timestamp: live.timestamp + 100,
            data: WmeData::new("audit").with("of", 1i64),
        };
        let batch = [Change::Added(created.into()), Change::Removed(ghost.into())];
        let err = apply_changes_atomic(&mut wm, &batch).unwrap_err();
        assert_eq!(err, CodecError::ReplayConflict(ghost_id));
        // Byte-identical: the valid prefix of the batch was rolled
        // back (never applied), counters and class list included.
        assert_eq!(wm.encode_snapshot().unwrap(), snap_before);
    }

    #[test]
    fn batch_internal_liveness_is_tracked_through_the_batch() {
        // A modify is Removed + Added of the same id inside one batch;
        // staging must track liveness *through* the batch or every
        // modify would read as an add-conflict.
        let mut wm = WorkingMemory::new();
        let id = wm.insert(WmeData::new("cell").with("n", 1i64));
        let snap = wm.encode_snapshot().unwrap();
        let mut d = DeltaSet::new();
        d.modify(id, [(Atom::from("n"), Value::Int(2))]);
        let changes = wm.apply(&d).unwrap();

        let mut recovered = WorkingMemory::decode_snapshot(&snap).unwrap();
        apply_changes_atomic(&mut recovered, &changes).unwrap();
        assert_same(&wm, &recovered);

        // And a double-remove inside one batch is a conflict.
        let wme = wm.get(id).unwrap().clone();
        let bad = vec![Change::Removed(wme.clone().into()), Change::Removed(wme.into())];
        let before = wm.encode_snapshot().unwrap();
        assert_eq!(
            apply_changes_atomic(&mut wm, &bad),
            Err(CodecError::ReplayConflict(id))
        );
        assert_eq!(wm.encode_snapshot().unwrap(), before);
    }

    #[test]
    fn empty_structures_roundtrip() {
        let wm = WorkingMemory::new();
        let back = WorkingMemory::decode_snapshot(&wm.encode_snapshot().unwrap()).unwrap();
        assert!(back.is_empty());
        assert!(through_codec(&[]).is_empty());
    }
}
