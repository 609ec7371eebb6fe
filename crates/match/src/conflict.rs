//! The conflict set: all currently satisfied instantiations.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use dps_rules::RuleId;

use crate::{InstKey, Instantiation};

/// The set of active instantiations (the paper's `P^A`): one ordered map
/// from identity key to instantiation, so enumeration is deterministic
/// (reproducible selection and testing). A matcher that needs a
/// secondary index — TREAT's WME → instantiations purge — keeps it
/// beside the set; Rete removes by key and needs none.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    insts: BTreeMap<InstKey, Instantiation>,
}

impl ConflictSet {
    /// Creates an empty conflict set.
    pub fn new() -> Self {
        ConflictSet::default()
    }

    /// Number of active instantiations.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` when no rule is satisfied — the paper's termination
    /// condition ("If the conflict set is empty ... the system halts").
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Inserts an instantiation; returns `false` if it was already
    /// present (idempotent).
    pub fn insert(&mut self, inst: Instantiation) -> bool {
        match self.insts.entry(inst.key()) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(inst);
                true
            }
        }
    }

    /// Removes by key; returns the instantiation when present.
    pub fn remove(&mut self, key: &InstKey) -> Option<Instantiation> {
        self.insts.remove(key)
    }

    /// `true` when the key is present.
    pub fn contains(&self, key: &InstKey) -> bool {
        self.insts.contains_key(key)
    }

    /// Looks up by key.
    pub fn get(&self, key: &InstKey) -> Option<&Instantiation> {
        self.insts.get(key)
    }

    /// Iterates instantiations in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.insts.values()
    }

    /// `(key, instantiation)` pairs in key order: a scan that probes
    /// other key sets (refraction, claims) reads the stored key instead
    /// of building one per candidate.
    pub fn iter_keyed(&self) -> impl Iterator<Item = (&InstKey, &Instantiation)> {
        self.insts.iter()
    }

    /// Instantiations of one rule, in key order.
    pub fn of_rule(&self, rule: RuleId) -> impl Iterator<Item = &Instantiation> + '_ {
        self.insts.values().filter(move |i| i.rule == rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::Bindings;
    use dps_wm::{Wme, WmeData, WmeId};

    fn wme(id: u64, ts: u64) -> Wme {
        Wme {
            id: WmeId(id),
            data: WmeData::new("c"),
            timestamp: ts,
        }
    }

    fn inst(rule: u32, ids: &[(u64, u64)]) -> Instantiation {
        Instantiation {
            rule: RuleId(rule),
            wmes: ids.iter().map(|&(i, t)| wme(i, t)).collect(),
            bindings: Bindings::new(),
            salience: 0,
        }
    }

    #[test]
    fn insert_is_idempotent() {
        let mut cs = ConflictSet::new();
        assert!(cs.insert(inst(0, &[(1, 1)])));
        assert!(!cs.insert(inst(0, &[(1, 1)])));
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn remove_by_key() {
        let mut cs = ConflictSet::new();
        let i = inst(0, &[(1, 1)]);
        let k = i.key();
        cs.insert(i);
        assert!(cs.remove(&k).is_some());
        assert!(cs.is_empty());
        assert!(cs.remove(&k).is_none());
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(1, &[(5, 5)]));
        cs.insert(inst(0, &[(9, 9)]));
        cs.insert(inst(0, &[(2, 2)]));
        let order: Vec<(u32, u64)> = cs.iter().map(|i| (i.rule.0, i.wmes[0].id.0)).collect();
        assert_eq!(order, [(0, 2), (0, 9), (1, 5)]);
        assert!(cs.iter_keyed().all(|(k, i)| *k == i.key()));
        assert!(cs.iter_keyed().map(|(_, i)| i).eq(cs.iter()));
    }

    #[test]
    fn of_rule_filters() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[(1, 1)]));
        cs.insert(inst(1, &[(2, 2)]));
        assert_eq!(cs.of_rule(RuleId(1)).count(), 1);
    }
}
