//! The working memory store.

use std::collections::HashMap;

use crate::{
    Atom, Catalog, Change, Delta, DeltaSet, Relation, Timestamp, Value, WmError, Wme, WmeData,
    WmeId,
};

/// The production system's database: all live WMEs, partitioned by class,
/// plus the catalogue and the recency clock.
///
/// The store is a single-writer structure: concurrent engines serialise
/// commits through it (the paper's atomic commit point) while reads during
/// matching go through snapshots or the engine's own synchronisation.
/// `WorkingMemory` is `Clone`, which the execution-graph enumerator uses to
/// branch the state space.
///
/// ```
/// use dps_wm::{WorkingMemory, WmeData, DeltaSet, Value};
///
/// let mut wm = WorkingMemory::new();
/// let id = wm.insert(WmeData::new("counter").with("n", 0i64));
///
/// let mut delta = DeltaSet::new();
/// delta.modify(id, [("n".into(), Value::Int(1))]);
/// let changes = wm.apply(&delta).unwrap();
/// assert_eq!(changes.len(), 2); // Removed(old) + Added(new)
/// assert_eq!(wm.get(id).unwrap().get("n"), Some(&Value::Int(1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct WorkingMemory {
    relations: HashMap<Atom, Relation>,
    /// Class of each live WME, for O(1) id → relation routing.
    class_of: HashMap<WmeId, Atom>,
    catalog: Catalog,
    next_id: u64,
    clock: Timestamp,
}

impl WorkingMemory {
    /// Creates an empty working memory.
    pub fn new() -> Self {
        WorkingMemory::default()
    }

    /// Total number of live elements.
    pub fn len(&self) -> usize {
        self.class_of.len()
    }

    /// `true` when working memory is empty.
    pub fn is_empty(&self) -> bool {
        self.class_of.is_empty()
    }

    /// The current value of the recency clock (timestamp of the most
    /// recent insertion).
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// The catalogue of classes.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Looks up a live element by id.
    pub fn get(&self, id: WmeId) -> Option<&Wme> {
        let class = self.class_of.get(&id)?;
        self.relations.get(class)?.get(id)
    }

    /// `true` when the element is live.
    pub fn contains(&self, id: WmeId) -> bool {
        self.class_of.contains_key(&id)
    }

    /// The relation for a class, if any element of it was ever inserted.
    pub fn relation(&self, class: &str) -> Option<&Relation> {
        self.relations.get(class)
    }

    /// Iterates all live elements of a class (empty if the class is
    /// unknown), in id order.
    pub fn class_iter<'a>(&'a self, class: &str) -> impl Iterator<Item = &'a Wme> {
        self.relations
            .get(class)
            .into_iter()
            .flat_map(Relation::iter)
    }

    /// Iterates all live elements across classes. Order is deterministic:
    /// classes in declaration order, tuples in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Wme> {
        self.catalog
            .classes()
            .filter_map(|c| self.relations.get(c))
            .flat_map(Relation::iter)
    }

    /// Inserts a new element immediately (outside any delta), returning
    /// its id. Used for initial working-memory setup.
    pub fn insert(&mut self, data: WmeData) -> WmeId {
        self.insert_internal(data).id
    }

    /// Inserts and returns the stored element (id + timestamp assigned).
    pub fn insert_full(&mut self, data: WmeData) -> Wme {
        self.insert_internal(data)
    }

    /// Removes an element immediately, returning it.
    pub fn remove(&mut self, id: WmeId) -> Result<Wme, WmError> {
        let class = self.class_of.remove(&id).ok_or(WmError::NoSuchWme(id))?;
        let wme = self
            .relations
            .get_mut(&class)
            .and_then(|r| r.remove(id))
            .ok_or(WmError::NoSuchWme(id))?;
        self.catalog.record_remove(&class);
        Ok(wme)
    }

    /// Applies a buffered delta set atomically, in order, returning the
    /// change log for incremental matching.
    ///
    /// Failure semantics: the delta set is validated against the current
    /// state *before* any mutation, so an `Err` leaves working memory
    /// untouched (the all-or-nothing commit of §4.2). Validation rejects
    /// operations on dead ids, including ids killed earlier in the same
    /// delta set.
    pub fn apply(&mut self, delta: &DeltaSet) -> Result<Vec<Change>, WmError> {
        // Pre-validate: track liveness through the delta sequence, and
        // size the change log (a modify logs two changes).
        let mut killed: Vec<WmeId> = Vec::new();
        let mut logged = delta.len();
        for op in delta.ops() {
            match op {
                Delta::Create(_) => {}
                Delta::Modify { id, .. } => {
                    logged += 1;
                    if !self.contains(*id) {
                        return Err(WmError::NoSuchWme(*id));
                    }
                    if killed.contains(id) {
                        return Err(WmError::ConflictingDelta(*id));
                    }
                }
                Delta::Remove(id) => {
                    if !self.contains(*id) {
                        return Err(WmError::NoSuchWme(*id));
                    }
                    if killed.contains(id) {
                        return Err(WmError::ConflictingDelta(*id));
                    }
                    killed.push(*id);
                }
            }
        }

        let mut changes = Vec::with_capacity(logged);
        for op in delta.ops() {
            match op {
                Delta::Create(data) => {
                    let wme = self.insert_internal(data.clone());
                    changes.push(Change::Added(wme));
                }
                Delta::Remove(id) => {
                    let wme = self.remove(*id).expect("validated above");
                    changes.push(Change::Removed(wme));
                }
                Delta::Modify {
                    id,
                    changes: attr_changes,
                } => {
                    // OPS5 modify: remove + re-insert under the same id
                    // with a fresh timestamp.
                    let old = self.remove(*id).expect("validated above");
                    let mut data = old.data.clone();
                    for (k, v) in attr_changes.iter() {
                        if matches!(v, Value::Nil) {
                            data.attrs.remove(k);
                        } else {
                            data.attrs.insert(k.clone(), v.clone());
                        }
                    }
                    let new = self.reinsert(*id, data);
                    changes.push(Change::Removed(old));
                    changes.push(Change::Added(new));
                }
            }
        }
        Ok(changes)
    }

    /// Undoes a change log produced by [`WorkingMemory::apply`] — used by
    /// engines that must roll back a committed-then-invalidated state in
    /// exploration mode (the execution-graph enumerator prefers cloning,
    /// but `undo` keeps single-copy exploration possible).
    pub fn undo(&mut self, changes: &[Change]) -> Result<(), WmError> {
        for change in changes.iter().rev() {
            match change {
                Change::Added(w) => {
                    self.remove(w.id)?;
                }
                Change::Removed(w) => {
                    // Restore with the original id and timestamp.
                    self.restore(w.clone());
                }
            }
        }
        Ok(())
    }

    fn insert_internal(&mut self, data: WmeData) -> Wme {
        let id = WmeId(self.next_id);
        self.next_id += 1;
        self.clock += 1;
        let wme = Wme {
            id,
            data,
            timestamp: self.clock,
        };
        self.store(wme.clone());
        wme
    }

    /// Re-insert under an existing id with a fresh timestamp (modify).
    fn reinsert(&mut self, id: WmeId, data: WmeData) -> Wme {
        self.clock += 1;
        let wme = Wme {
            id,
            data,
            timestamp: self.clock,
        };
        self.store(wme.clone());
        wme
    }

    /// Persistence hook: the raw id-allocator position.
    pub(crate) fn next_id_raw(&self) -> u64 {
        self.next_id
    }

    /// Persistence hook: installs an element exactly as persisted
    /// (identity and timestamp preserved; allocator and clock advanced
    /// past them).
    pub(crate) fn restore_raw(&mut self, wme: Wme) {
        self.restore(wme);
    }

    /// Persistence hook: directly positions the id allocator and clock.
    pub(crate) fn set_counters_raw(&mut self, next_id: u64, clock: Timestamp) {
        self.next_id = self.next_id.max(next_id);
        self.clock = self.clock.max(clock);
    }

    /// Persistence hook: overwrites a class's lifetime counters.
    pub(crate) fn set_class_counters(&mut self, class: &Atom, inserts: u64, removes: u64) {
        self.catalog.set_lifetime_counters(class, inserts, removes);
    }

    /// Restore an element exactly as it was (undo of a remove).
    fn restore(&mut self, wme: Wme) {
        self.next_id = self.next_id.max(wme.id.0 + 1);
        self.clock = self.clock.max(wme.timestamp);
        self.store(wme);
    }

    fn store(&mut self, wme: Wme) {
        let class = wme.data.class.clone();
        self.catalog.record_insert(&class);
        self.class_of.insert(wme.id, class.clone());
        self.relations.entry(class).or_default().insert(wme);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> (WorkingMemory, WmeId, WmeId) {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(WmeData::new("task").with("state", "new").with("n", 1i64));
        let b = wm.insert(WmeData::new("task").with("state", "old").with("n", 2i64));
        (wm, a, b)
    }

    #[test]
    fn insert_assigns_fresh_ids_and_timestamps() {
        let (wm, a, b) = seeded();
        assert_ne!(a, b);
        let (wa, wb) = (wm.get(a).unwrap(), wm.get(b).unwrap());
        assert!(wb.timestamp > wa.timestamp);
        assert_eq!(wm.len(), 2);
        assert_eq!(wm.clock(), 2);
    }

    #[test]
    fn remove_then_get_is_none() {
        let (mut wm, a, _) = seeded();
        let out = wm.remove(a).unwrap();
        assert_eq!(out.id, a);
        assert!(wm.get(a).is_none());
        assert_eq!(wm.remove(a), Err(WmError::NoSuchWme(a)));
    }

    #[test]
    fn apply_modify_is_remove_plus_add_with_fresh_timestamp() {
        let (mut wm, a, _) = seeded();
        let before_ts = wm.get(a).unwrap().timestamp;
        let mut d = DeltaSet::new();
        d.modify(a, [(Atom::from("state"), Value::from("done"))]);
        let ch = wm.apply(&d).unwrap();
        assert_eq!(ch.len(), 2);
        assert!(matches!(&ch[0], Change::Removed(w) if w.id == a));
        assert!(matches!(&ch[1], Change::Added(w) if w.id == a && w.timestamp > before_ts));
        let w = wm.get(a).unwrap();
        assert_eq!(w.get("state"), Some(&Value::from("done")));
        assert_eq!(w.get("n"), Some(&Value::Int(1))); // untouched attr kept
    }

    #[test]
    fn modify_with_nil_drops_attribute() {
        let (mut wm, a, _) = seeded();
        let mut d = DeltaSet::new();
        d.modify(a, [(Atom::from("n"), Value::Nil)]);
        wm.apply(&d).unwrap();
        assert_eq!(wm.get(a).unwrap().get("n"), None);
    }

    #[test]
    fn apply_is_all_or_nothing_on_dead_id() {
        let (mut wm, a, _) = seeded();
        let ghost = WmeId(999);
        let mut d = DeltaSet::new();
        d.create(WmeData::new("side_effect"));
        d.remove(ghost);
        let before = wm.len();
        assert_eq!(wm.apply(&d), Err(WmError::NoSuchWme(ghost)));
        assert_eq!(wm.len(), before, "failed apply must not mutate");
        assert!(wm.relation("side_effect").is_none());
        let _ = a;
    }

    #[test]
    fn apply_rejects_use_after_remove_within_delta() {
        let (mut wm, a, _) = seeded();
        let mut d = DeltaSet::new();
        d.remove(a);
        d.modify(a, []);
        assert_eq!(wm.apply(&d), Err(WmError::ConflictingDelta(a)));
        assert!(wm.contains(a));
    }

    #[test]
    fn undo_restores_exact_state() {
        let (mut wm, a, b) = seeded();
        let snapshot: Vec<Wme> = wm.iter().cloned().collect();
        let mut d = DeltaSet::new();
        d.remove(b);
        d.modify(a, [(Atom::from("n"), Value::Int(99))]);
        d.create(WmeData::new("extra"));
        let ch = wm.apply(&d).unwrap();
        wm.undo(&ch).unwrap();
        let after: Vec<Wme> = wm.iter().cloned().collect();
        assert_eq!(snapshot, after);
    }

    #[test]
    fn class_iter_and_catalog() {
        let (wm, _, _) = seeded();
        assert_eq!(wm.class_iter("task").count(), 2);
        assert_eq!(wm.class_iter("ghost").count(), 0);
        assert_eq!(wm.catalog().stats("task").unwrap().cardinality, 2);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut wm = WorkingMemory::new();
        let a = wm.insert(WmeData::new("c"));
        wm.remove(a).unwrap();
        let b = wm.insert(WmeData::new("c"));
        assert_ne!(a, b);
    }

    #[test]
    fn clone_branches_state() {
        let (mut wm, a, _) = seeded();
        let fork = wm.clone();
        wm.remove(a).unwrap();
        assert!(fork.contains(a));
        assert!(!wm.contains(a));
    }

    #[test]
    fn insert_full_returns_stored_element() {
        let mut wm = WorkingMemory::new();
        let w = wm.insert_full(WmeData::new("c").with("k", 1i64));
        assert_eq!(wm.get(w.id), Some(&w));
    }
}
