//! Buffered RHS effects and the change log produced by applying them.
//!
//! The paper (§4.2) requires that "the WM content is atomically updated,
//! only when a production reaches its commit point". A worker therefore
//! accumulates its RHS effects in a [`DeltaSet`] while holding locks, and
//! the engine applies the whole set in one [`crate::WorkingMemory::apply`]
//! call at commit. The result is a list of [`Change`]s — the exact feed an
//! incremental matcher (Rete/TREAT) needs.

use std::sync::Arc;

use crate::{Atom, AttrMap, Value, Wme, WmeData, WmeId};

/// One buffered RHS operation. `create`/`modify`/`delete` mirror the
/// paper's §2 RHS operation list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// `create`: insert a new element.
    Create(WmeData),
    /// `modify`: overwrite the listed attributes of an existing element.
    /// OPS5 semantics: the element is re-timestamped (remove + insert).
    Modify {
        /// Element to modify.
        id: WmeId,
        /// Attributes to overwrite (others are preserved).
        changes: AttrMap,
    },
    /// `delete`: remove an element.
    Remove(WmeId),
}

/// An ordered collection of buffered operations forming one atomic update.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSet {
    ops: Vec<Delta>,
}

impl DeltaSet {
    /// Creates an empty delta set.
    pub fn new() -> Self {
        DeltaSet::default()
    }

    /// Creates an empty delta set with room for `n` operations, so one
    /// built to its final size never regrows.
    pub fn with_capacity(n: usize) -> Self {
        DeltaSet { ops: Vec::with_capacity(n) }
    }

    /// Buffers a `create`.
    pub fn create(&mut self, data: WmeData) {
        self.ops.push(Delta::Create(data));
    }

    /// Buffers a `modify` of selected attributes.
    pub fn modify(&mut self, id: WmeId, changes: impl IntoIterator<Item = (Atom, Value)>) {
        self.ops.push(Delta::Modify {
            id,
            changes: changes.into_iter().collect(),
        });
    }

    /// Buffers a `delete`.
    pub fn remove(&mut self, id: WmeId) {
        self.ops.push(Delta::Remove(id));
    }

    /// Appends another delta set after this one.
    pub fn extend(&mut self, other: DeltaSet) {
        self.ops.extend(other.ops);
    }

    /// The buffered operations in application order.
    pub fn ops(&self) -> &[Delta] {
        &self.ops
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Ids of pre-existing elements this delta set writes (modifies or
    /// removes). Used to derive the `W_a` lock set of an RHS.
    pub fn written_ids(&self) -> impl Iterator<Item = WmeId> + '_ {
        self.ops.iter().filter_map(|op| match op {
            Delta::Modify { id, .. } | Delta::Remove(id) => Some(*id),
            Delta::Create(_) => None,
        })
    }

    /// Classes into which this delta set inserts new elements. Inserts
    /// cannot lock a tuple id (it does not exist yet), so insertion
    /// conflicts are handled at relation granularity (§4.3 escalation).
    pub fn created_classes(&self) -> impl Iterator<Item = &Atom> {
        self.ops.iter().filter_map(|op| match op {
            Delta::Create(d) => Some(&d.class),
            _ => None,
        })
    }
}

impl FromIterator<Delta> for DeltaSet {
    fn from_iter<T: IntoIterator<Item = Delta>>(iter: T) -> Self {
        DeltaSet {
            ops: iter.into_iter().collect(),
        }
    }
}

/// One observable change to working memory, as seen by a matcher.
///
/// A `modify` appears as a `Removed` of the old element followed by an
/// `Added` of the new one (same id, fresh timestamp), which is exactly how
/// OPS5's Rete treats modifies.
///
/// Each change carries the relation's own `Arc<Wme>`, not a copy: an
/// `Added` element is the one allocation the relation, the version
/// chains and the matchers' alpha memories all hold, and a `Removed`
/// one is the handle the relation let go of.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Change {
    /// An element entered working memory.
    Added(Arc<Wme>),
    /// An element left working memory.
    Removed(Arc<Wme>),
}

impl Change {
    /// The element the change concerns.
    pub fn wme(&self) -> &Wme {
        match self {
            Change::Added(w) | Change::Removed(w) => w,
        }
    }

    /// `true` for `Added`.
    pub fn is_add(&self) -> bool {
        matches!(self, Change::Added(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_ops_in_order() {
        let mut d = DeltaSet::new();
        d.create(WmeData::new("a"));
        d.remove(WmeId(3));
        d.modify(WmeId(4), [(Atom::from("x"), Value::Int(1))]);
        assert_eq!(d.len(), 3);
        assert!(matches!(d.ops()[0], Delta::Create(_)));
        assert!(matches!(d.ops()[1], Delta::Remove(_)));
        assert!(matches!(d.ops()[2], Delta::Modify { .. }));
    }

    #[test]
    fn written_ids_excludes_creates() {
        let mut d = DeltaSet::new();
        d.create(WmeData::new("a"));
        d.remove(WmeId(3));
        d.modify(WmeId(4), []);
        let ids: Vec<WmeId> = d.written_ids().collect();
        assert_eq!(ids, [WmeId(3), WmeId(4)]);
    }

    #[test]
    fn created_classes_lists_insert_targets() {
        let mut d = DeltaSet::new();
        d.create(WmeData::new("a"));
        d.create(WmeData::new("b"));
        d.remove(WmeId(1));
        let cs: Vec<&str> = d.created_classes().map(|a| a.as_str()).collect();
        assert_eq!(cs, ["a", "b"]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = DeltaSet::new();
        a.remove(WmeId(1));
        let mut b = DeltaSet::new();
        b.remove(WmeId(2));
        a.extend(b);
        assert_eq!(a.written_ids().collect::<Vec<_>>(), [WmeId(1), WmeId(2)]);
    }

    #[test]
    fn change_accessors() {
        let w = Wme {
            id: WmeId(1),
            data: WmeData::new("c"),
            timestamp: 1,
        };
        let add = Change::Added(w.clone().into());
        let rem = Change::Removed(w.clone().into());
        assert!(add.is_add());
        assert!(!rem.is_add());
        assert_eq!(add.wme().id, WmeId(1));
    }
}
