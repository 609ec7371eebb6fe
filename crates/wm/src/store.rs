//! The working memory store: one class table (each class's relation,
//! in declaration order), the id → class routing map, the id allocator
//! and the recency clock.
//!
//! A class is declared the first time a tuple of it is stored, or when a
//! snapshot that lists it is decoded, and it stays declared when its
//! relation empties. Declaration order is the order [`WorkingMemory::iter`]
//! visits classes in, so a restored snapshot iterates exactly as the
//! memory it was taken from.

use std::collections::HashMap;

use crate::{
    Atom, Change, Delta, DeltaSet, Relation, Timestamp, Value, WmError, Wme, WmeData, WmeId,
};

/// The production system's database: all live WMEs, partitioned by class,
/// plus the recency clock.
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
    /// Every declared class with its relation, in declaration order.
    classes: Vec<(Atom, Relation)>,
    /// Class → its dense index into `classes`.
    class_index: HashMap<Atom, usize>,
    /// Dense class index of each live WME, for O(1) id → relation routing.
    class_of: HashMap<WmeId, usize>,
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

    /// Looks up a live element by id.
    pub fn get(&self, id: WmeId) -> Option<&Wme> {
        self.classes[*self.class_of.get(&id)?].1.get(id)
    }

    /// `true` when the element is live.
    pub fn contains(&self, id: WmeId) -> bool {
        self.class_of.contains_key(&id)
    }

    /// The relation for a class, if the class is declared.
    pub fn relation(&self, class: &str) -> Option<&Relation> {
        self.class_index.get(class).map(|&i| &self.classes[i].1)
    }

    /// Iterates all live elements of a class (empty if the class is
    /// unknown), in id order.
    pub fn class_iter<'a>(&'a self, class: &str) -> impl Iterator<Item = &'a Wme> {
        self.relation(class).into_iter().flat_map(Relation::iter)
    }

    /// Iterates all live elements across classes. Order is deterministic:
    /// classes in declaration order, tuples in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Wme> {
        self.classes.iter().flat_map(|(_, r)| r.iter())
    }

    /// The declared classes, in declaration order.
    pub(crate) fn class_names(&self) -> impl Iterator<Item = &Atom> {
        self.classes.iter().map(|(c, _)| c)
    }

    /// Declares `class` (idempotent), returning its dense index.
    pub(crate) fn declare(&mut self, class: &Atom) -> usize {
        if let Some(&i) = self.class_index.get(class) {
            return i;
        }
        let i = self.classes.len();
        self.class_index.insert(class.clone(), i);
        self.classes.push((class.clone(), Relation::default()));
        i
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
        let i = self.class_of.remove(&id).ok_or(WmError::NoSuchWme(id))?;
        self.classes[i].1.remove(id).ok_or(WmError::NoSuchWme(id))
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
                    // with a fresh timestamp. The class is unchanged, so
                    // the tuple stays in its relation and `class_of`.
                    let relation = &mut self.classes[self.class_of[id]].1;
                    let old = relation.remove(*id).expect("validated above");
                    let mut data = old.data.clone();
                    for (k, v) in attr_changes.iter() {
                        if matches!(v, Value::Nil) {
                            data.attrs.remove(k);
                        } else {
                            data.attrs.insert(k.clone(), v.clone());
                        }
                    }
                    self.clock += 1;
                    let new = Wme {
                        id: *id,
                        data,
                        timestamp: self.clock,
                    };
                    relation.insert(new.clone());
                    changes.push(Change::Removed(old));
                    changes.push(Change::Added(new));
                }
            }
        }
        Ok(changes)
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

    /// Persistence hook: the raw id-allocator position.
    pub(crate) fn next_id_raw(&self) -> u64 {
        self.next_id
    }

    /// Persistence hook: installs an element exactly as persisted
    /// (identity and timestamp preserved; allocator and clock advanced
    /// past them).
    pub(crate) fn restore_raw(&mut self, wme: Wme) {
        self.next_id = self.next_id.max(wme.id.0 + 1);
        self.clock = self.clock.max(wme.timestamp);
        self.store(wme);
    }

    /// Persistence hook: directly positions the id allocator and clock.
    pub(crate) fn set_counters_raw(&mut self, next_id: u64, clock: Timestamp) {
        self.next_id = self.next_id.max(next_id);
        self.clock = self.clock.max(clock);
    }

    fn store(&mut self, wme: Wme) {
        let i = self.declare(&wme.data.class);
        self.class_of.insert(wme.id, i);
        self.classes[i].1.insert(wme);
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
    fn class_iter_and_relation() {
        let (wm, _, _) = seeded();
        assert_eq!(wm.class_iter("task").count(), 2);
        assert_eq!(wm.class_iter("ghost").count(), 0);
        assert_eq!(wm.relation("task").unwrap().len(), 2);
        assert!(wm.relation("ghost").is_none());
    }

    #[test]
    fn classes_iterate_in_declaration_order_even_once_emptied() {
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("z"));
        let a = wm.insert(WmeData::new("a"));
        wm.insert(WmeData::new("m"));
        wm.remove(a).unwrap();
        wm.insert(WmeData::new("a"));
        let classes: Vec<&str> = wm.iter().map(|w| w.class().as_str()).collect();
        assert_eq!(classes, ["z", "a", "m"]);
        let names: Vec<&str> = wm.class_names().map(Atom::as_str).collect();
        assert_eq!(names, ["z", "a", "m"]);
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
