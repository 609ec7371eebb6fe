//! Class-partitioned relations: one per declared class, held in the
//! working memory's class table.
//!
//! A relation holds each tuple as an `Arc<Wme>`: the one allocation of
//! that element's payload, which the change batch that made it and
//! every match shard's alpha memories share. Cloning
//! a relation copies pointers, not tuples.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{Wme, WmeId};

/// One relation: all live WMEs of a single class, keyed by id.
///
/// Nothing selects tuples by attribute value — matching goes through the
/// matchers' own alpha memories — so a relation keeps no secondary index
/// and no statistics to update inside the commit section.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    tuples: BTreeMap<WmeId, Arc<Wme>>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Returns `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Looks up a tuple by id.
    pub fn get(&self, id: WmeId) -> Option<&Wme> {
        self.tuples.get(&id).map(|w| &**w)
    }

    /// Returns `true` if the tuple is live in this relation.
    pub fn contains(&self, id: WmeId) -> bool {
        self.tuples.contains_key(&id)
    }

    /// Iterates tuples in id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Wme> {
        self.tuples.values().map(|w| &**w)
    }

    /// Iterates the tuples' shared handles in id order, for holders
    /// that keep a tuple alive beside the relation.
    pub fn handles(&self) -> impl Iterator<Item = &Arc<Wme>> {
        self.tuples.values()
    }

    /// Inserts a tuple. The caller (the store) guarantees id freshness.
    pub(crate) fn insert(&mut self, wme: Arc<Wme>) {
        self.tuples.insert(wme.id, wme);
    }

    /// Removes a tuple, returning its handle when present.
    pub(crate) fn remove(&mut self, id: WmeId) -> Option<Arc<Wme>> {
        self.tuples.remove(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Value, WmeData};

    fn wme(id: u64, ts: u64, pairs: &[(&str, Value)]) -> Arc<Wme> {
        let mut data = WmeData::new("c");
        for (a, v) in pairs {
            data.set(*a, v.clone());
        }
        Arc::new(Wme {
            id: WmeId(id),
            data,
            timestamp: ts,
        })
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut r = Relation::new();
        r.insert(wme(1, 1, &[("a", Value::Int(5))]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(WmeId(1)));
        assert_eq!(r.get(WmeId(1)).unwrap().get("a"), Some(&Value::Int(5)));
        let out = r.remove(WmeId(1)).unwrap();
        assert_eq!(out.id, WmeId(1));
        assert!(r.is_empty());
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut r = Relation::new();
        r.insert(wme(5, 1, &[]));
        r.insert(wme(2, 2, &[]));
        r.insert(wme(9, 3, &[]));
        let ids: Vec<u64> = r.iter().map(|w| w.id.0).collect();
        assert_eq!(ids, [2, 5, 9]);
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut r = Relation::new();
        assert!(r.remove(WmeId(7)).is_none());
    }
}
