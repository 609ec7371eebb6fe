//! Multi-version working memory: bounded per-element version chains.
//!
//! The engine's MVCC read path does not use this store: it validates
//! against the live working memory under its commit mutex, plus two
//! write stamps (DESIGN §13), because no engine path reads a past
//! version. The store's one reader is the `e2e` benchmark's per-layer
//! probe, which measures what recording and reading chains would cost.
//! A [`VersionedStore`] keeps, for every element ever touched, a bounded
//! chain of [`Version`]s stamped with the commit sequence numbers the
//! caller assigns (sequence 0 is the initial
//! working memory; a removal installs a tombstone). A version holds the
//! working memory's own `Arc<Wme>` — [`VersionedStore::seed`] takes the
//! relations' handles and [`VersionedStore::record`] the change batch's —
//! so a chain costs a pointer per version, not a copy of the payload.
//!
//! The store is plain data with `&mut` writers — the caller supplies the
//! synchronisation and records batches in increasing sequence order,
//! so chains are totally ordered. Garbage collection is watermark-driven: the caller
//! computes a floor (the oldest still-pinned snapshot) and [`gc`]
//! drops every version that no pinned or future snapshot can observe.
//!
//! ```
//! use dps_wm::{Change, VersionedStore, Wme, WmeData, WmeId, WorkingMemory};
//!
//! let mut wm = WorkingMemory::new();
//! let id = wm.insert(WmeData::new("task").with("state", "todo"));
//!
//! let mut vs = VersionedStore::new(8);
//! vs.seed(&wm);
//! assert_eq!(vs.as_of(id, 0).unwrap().get("state").unwrap().to_string(), "todo");
//!
//! // Commit 1 rewrites the element: snapshot 0 still sees the old row.
//! let old = wm.get(id).unwrap().clone();
//! let new = Wme { data: WmeData::new("task").with("state", "done"), ..old.clone() };
//! vs.record(1, &[Change::Removed(old.into()), Change::Added(new.into())]);
//! assert_eq!(vs.as_of(id, 0).unwrap().get("state").unwrap().to_string(), "todo");
//! assert_eq!(vs.as_of(id, 1).unwrap().get("state").unwrap().to_string(), "done");
//! ```
//!
//! [`gc`]: VersionedStore::gc

use std::collections::HashMap;
use std::sync::Arc;

use crate::{Atom, Change, IdMap, Wme, WmeId, WorkingMemory};

/// One committed state of one element: the payload as of `seq`, or a
/// tombstone (`None`) if the commit removed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Version {
    /// The installing commit sequence number (0 = initial WM).
    pub seq: u64,
    /// The element's state, `None` for a removal tombstone. The handle
    /// is the working memory's own: a version shares the payload the
    /// relation and the change batch hold, it does not copy it.
    pub state: Option<Arc<Wme>>,
}

#[derive(Clone, Debug, Default)]
struct Chain {
    /// Versions in ascending `seq` order (at most one per sequence:
    /// a modify's remove+add pair coalesces into the final state).
    versions: Vec<Version>,
}

/// Aggregate store statistics (for reports and GC sanity checks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Live chains (elements with at least one retained version).
    pub chains: usize,
    /// Total retained versions across all chains.
    pub versions: usize,
    /// Versions dropped by GC and cap enforcement since creation.
    pub pruned: u64,
    /// Highest commit sequence recorded.
    pub last_seq: u64,
}

/// The multi-version store: per-element version chains plus the
/// per-class last-write index the engine's commit-time validation uses
/// for negated conditions.
#[derive(Clone, Debug)]
pub struct VersionedStore {
    chains: IdMap<WmeId, Chain>,
    /// Last commit sequence that inserted into or removed from each
    /// class — any write to a class can flip a negated condition over
    /// it, so snapshot validation compares this against the pinned
    /// sequence.
    class_write: HashMap<Atom, u64>,
    /// Soft per-chain bound: versions older than the GC floor are
    /// dropped eagerly once a chain exceeds this length (the floor
    /// keeps pinned snapshots safe; versions above it are never capped).
    cap: usize,
    /// The floor passed to the last [`VersionedStore::gc`] call; no
    /// pinned snapshot is below it.
    floor: u64,
    pruned: u64,
    last_seq: u64,
}

impl VersionedStore {
    /// Creates an empty store with the given per-chain soft bound
    /// (minimum 2: a chain must be able to hold a base version plus a
    /// successor).
    pub fn new(cap: usize) -> Self {
        VersionedStore {
            chains: IdMap::default(),
            class_write: HashMap::new(),
            cap: cap.max(2),
            floor: 0,
            pruned: 0,
            last_seq: 0,
        }
    }

    /// Installs the initial working memory as version 0 of every
    /// element, sharing the memory's handles. Call once, before any
    /// [`VersionedStore::record`].
    pub fn seed(&mut self, wm: &WorkingMemory) {
        for wme in wm.handles() {
            self.chains.entry(wme.id).or_default().versions.push(Version {
                seq: 0,
                state: Some(Arc::clone(wme)),
            });
        }
    }

    /// Records one committed delta batch under its commit sequence.
    /// Sequences must be recorded in increasing order (they are: the
    /// engine assigns them inside its commit critical section). A
    /// modify's remove+add pair coalesces into one version.
    pub fn record(&mut self, seq: u64, changes: &[Change]) {
        debug_assert!(seq > self.last_seq, "commit sequences must increase");
        self.last_seq = self.last_seq.max(seq);
        // Final state per element for this batch, in change order.
        let mut finals: Vec<(WmeId, Option<&Arc<Wme>>)> = Vec::new();
        for ch in changes {
            let (id, state) = match ch {
                Change::Added(w) => (w.id, Some(w)),
                Change::Removed(w) => (w.id, None),
            };
            self.class_write.insert(ch.wme().class().clone(), seq);
            match finals.iter_mut().find(|(i, _)| *i == id) {
                Some(slot) => slot.1 = state,
                None => finals.push((id, state)),
            }
        }
        for (id, state) in finals {
            let chain = self.chains.entry(id).or_default();
            chain.versions.push(Version {
                seq,
                state: state.cloned(),
            });
            // Soft cap: shed history below the GC floor eagerly so a
            // hot element's chain stays bounded between gc() calls.
            while chain.versions.len() > self.cap && prunable(chain, self.floor) {
                chain.versions.remove(0);
                self.pruned += 1;
            }
        }
    }

    /// The element's state as of snapshot `snap`: the newest version
    /// with `seq <= snap`. `None` if the element did not exist at that
    /// snapshot (never created, created later, or tombstoned).
    pub fn as_of(&self, id: WmeId, snap: u64) -> Option<&Wme> {
        self.version_at(id, snap).and_then(|v| v.state.as_deref())
    }

    /// Like [`VersionedStore::as_of`], but returns the whole
    /// [`Version`] so callers can learn *which* commit created the
    /// state they read (the reads-from edge of the SI checker).
    pub fn version_at(&self, id: WmeId, snap: u64) -> Option<&Version> {
        self.chains
            .get(&id)?
            .versions
            .iter()
            .rev()
            .find(|v| v.seq <= snap)
    }

    /// The element's newest recorded state (`None` if tombstoned or
    /// never recorded).
    pub fn latest(&self, id: WmeId) -> Option<&Wme> {
        self.chains
            .get(&id)?
            .versions
            .last()
            .and_then(|v| v.state.as_deref())
    }

    /// Last commit sequence that inserted into or removed from `class`
    /// (0 if never written). Any write to a class can flip a negated
    /// condition over it, so the engine's commit-time validation
    /// fast-path compares this against the pinned snapshot.
    pub fn class_write_seq(&self, class: &Atom) -> u64 {
        self.class_write.get(class).copied().unwrap_or(0)
    }

    /// Drops every version no snapshot at or above `floor` can observe:
    /// for each chain, versions strictly older than the newest version
    /// at or below `floor` (and whole chains whose element is
    /// tombstoned below the floor). Returns the number of versions
    /// dropped. `floor` is typically `min(oldest pinned snapshot,
    /// watermark)`.
    pub fn gc(&mut self, floor: u64) -> usize {
        self.floor = self.floor.max(floor);
        let mut dropped = 0;
        self.chains.retain(|_, chain| {
            while prunable(chain, floor) {
                chain.versions.remove(0);
                dropped += 1;
            }
            // A chain whose only survivor is a tombstone at or below
            // the floor is invisible to every future snapshot.
            if chain.versions.len() == 1
                && chain.versions[0].state.is_none()
                && chain.versions[0].seq <= floor
            {
                dropped += 1;
                return false;
            }
            !chain.versions.is_empty()
        });
        self.pruned += dropped as u64;
        dropped
    }

    /// Retained-chain / version / prune counters.
    pub fn stats(&self) -> VersionStats {
        VersionStats {
            chains: self.chains.len(),
            versions: self.chains.values().map(|c| c.versions.len()).sum(),
            pruned: self.pruned,
            last_seq: self.last_seq,
        }
    }

    /// Number of retained versions for one element (0 = untracked).
    pub fn chain_len(&self, id: WmeId) -> usize {
        self.chains.get(&id).map_or(0, |c| c.versions.len())
    }
}

/// `true` when the chain's oldest version can be dropped without
/// changing any read at or above `floor`: the *next* version must also
/// be at or below the floor (so the oldest is shadowed as a base).
fn prunable(chain: &Chain, floor: u64) -> bool {
    chain.versions.len() >= 2 && chain.versions[1].seq <= floor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaSet, Value, WmeData};

    /// Applies a delta to `wm` and mirrors it into `vs` under `seq`.
    fn commit(wm: &mut WorkingMemory, vs: &mut VersionedStore, seq: u64, delta: &DeltaSet) {
        let changes = wm.apply(delta).unwrap();
        vs.record(seq, &changes);
    }

    fn setup() -> (WorkingMemory, VersionedStore, WmeId) {
        let mut wm = WorkingMemory::new();
        let id = wm.insert(WmeData::new("task").with("n", 0i64));
        let mut vs = VersionedStore::new(8);
        vs.seed(&wm);
        (wm, vs, id)
    }

    fn bump(id: WmeId, n: i64) -> DeltaSet {
        let mut d = DeltaSet::new();
        d.modify(id, [(Atom::from("n"), Value::Int(n))]);
        d
    }

    #[test]
    fn snapshots_see_their_own_era() {
        let (mut wm, mut vs, id) = setup();
        for seq in 1..=3 {
            commit(&mut wm, &mut vs, seq, &bump(id, seq as i64));
        }
        for snap in 0..=3u64 {
            let got = vs.as_of(id, snap).unwrap().get("n").cloned();
            assert_eq!(got, Some(Value::Int(snap as i64)), "snapshot {snap}");
        }
        // A future snapshot sees the newest version.
        assert_eq!(vs.as_of(id, 99), vs.latest(id));
    }

    #[test]
    fn removal_is_a_tombstone_not_amnesia() {
        let (mut wm, mut vs, id) = setup();
        let mut d = DeltaSet::new();
        d.remove(id);
        commit(&mut wm, &mut vs, 1, &d);
        assert!(vs.as_of(id, 0).is_some(), "history preserved");
        assert!(vs.as_of(id, 1).is_none(), "gone at and after the removal");
        assert!(vs.latest(id).is_none());
    }

    #[test]
    fn creates_are_invisible_to_older_snapshots() {
        let (mut wm, mut vs, _) = setup();
        let mut d = DeltaSet::new();
        d.create(WmeData::new("task").with("n", 7i64));
        let changes = wm.apply(&d).unwrap();
        let new_id = changes[0].wme().id;
        vs.record(1, &changes);
        assert!(vs.as_of(new_id, 0).is_none());
        assert!(vs.as_of(new_id, 1).is_some());
    }

    #[test]
    fn modify_coalesces_into_one_version() {
        let (mut wm, mut vs, id) = setup();
        commit(&mut wm, &mut vs, 1, &bump(id, 1));
        // remove + add under one seq must yield one chain entry.
        assert_eq!(vs.chain_len(id), 2);
        let v = vs.version_at(id, 1).unwrap();
        assert_eq!(v.seq, 1);
        assert!(v.state.is_some());
    }

    #[test]
    fn class_write_seq_tracks_the_newest_writer() {
        let (mut wm, mut vs, id) = setup();
        assert_eq!(vs.class_write_seq(&Atom::from("task")), 0);
        commit(&mut wm, &mut vs, 4, &bump(id, 4));
        assert_eq!(vs.class_write_seq(&Atom::from("task")), 4);
        assert_eq!(vs.class_write_seq(&Atom::from("other")), 0);
    }

    #[test]
    fn gc_preserves_reads_at_and_above_the_floor() {
        let (mut wm, mut vs, id) = setup();
        for seq in 1..=6 {
            commit(&mut wm, &mut vs, seq, &bump(id, seq as i64));
        }
        let dropped = vs.gc(4);
        assert!(dropped > 0);
        // Reads at/above the floor are intact …
        for snap in 4..=6u64 {
            let got = vs.as_of(id, snap).unwrap().get("n").cloned();
            assert_eq!(got, Some(Value::Int(snap as i64)), "snapshot {snap}");
        }
        // … and the base version survives for the floor itself.
        assert!(vs.chain_len(id) <= 3);
        assert_eq!(vs.stats().pruned, dropped as u64);
    }

    #[test]
    fn gc_drops_tombstoned_chains_below_the_floor() {
        let (mut wm, mut vs, id) = setup();
        let mut d = DeltaSet::new();
        d.remove(id);
        commit(&mut wm, &mut vs, 1, &d);
        vs.gc(2);
        assert_eq!(vs.chain_len(id), 0, "dead chain reclaimed");
        assert_eq!(vs.stats().chains, 0);
    }

    #[test]
    fn cap_bounds_hot_chains_between_gcs() {
        let (mut wm, vs, id) = setup();
        let mut vs_small = VersionedStore::new(2);
        vs_small.seed(&wm);
        drop(vs);
        for seq in 1..=10 {
            let changes = wm.apply(&bump(id, seq as i64)).unwrap();
            vs_small.record(seq, &changes);
            // Keep the floor current, as the engine's watermark would.
            vs_small.gc(seq.saturating_sub(1));
        }
        assert!(
            vs_small.chain_len(id) <= 3,
            "chain grew to {}",
            vs_small.chain_len(id)
        );
        // The newest state is always intact.
        assert_eq!(
            vs_small.latest(id).unwrap().get("n"),
            Some(&Value::Int(10))
        );
    }
}
