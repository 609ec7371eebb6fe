//! The conflict set: all currently satisfied instantiations, by key.
//!
//! An entry is an [`InstKey`] plus what selection reads besides it — the
//! rule's salience — and where the owning matcher finds the match again.
//! No entry holds matched tuples or bindings: the few instantiations that
//! are fired are materialised on demand by
//! [`crate::Matcher::instantiate`], so a match that is created and
//! retracted without firing (most of them, on a hot join) costs one key.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::InstKey;

/// Where the matcher that owns a conflict set finds an entry's match:
/// for Rete, the production node and the token that completed it. A
/// matcher that keeps its instantiations elsewhere (TREAT) leaves it
/// zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Site {
    pub node: u32,
    pub token: u32,
}

#[derive(Clone, Copy, Debug)]
struct Member {
    salience: i32,
    site: Site,
}

/// The set of active instantiations (the paper's `P^A`): one ordered map
/// from identity key to its selection data, so enumeration is
/// deterministic (reproducible selection and testing). A matcher that
/// needs a secondary index — TREAT's WME → instantiations purge — keeps
/// it beside the set; Rete removes by key and needs none.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    members: BTreeMap<InstKey, Member>,
}

impl ConflictSet {
    /// Creates an empty conflict set.
    pub fn new() -> Self {
        ConflictSet::default()
    }

    /// Number of active instantiations.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no rule is satisfied — the paper's termination
    /// condition ("If the conflict set is empty ... the system halts").
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Inserts a key with its rule's salience and the matcher's site;
    /// returns `false` if it was already present (idempotent).
    pub(crate) fn insert(&mut self, key: InstKey, salience: i32, site: Site) -> bool {
        match self.members.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(Member { salience, site });
                true
            }
        }
    }

    /// Removes by key; returns whether it was present.
    pub(crate) fn remove(&mut self, key: &InstKey) -> bool {
        self.members.remove(key).is_some()
    }

    /// The matcher's site of a present key.
    pub(crate) fn site(&self, key: &InstKey) -> Option<Site> {
        self.members.get(key).map(|m| m.site)
    }

    /// `true` when the key is present.
    pub fn contains(&self, key: &InstKey) -> bool {
        self.members.contains_key(key)
    }

    /// Keys in key order (deterministic).
    pub fn keys(&self) -> impl Iterator<Item = &InstKey> {
        self.members.keys()
    }

    /// `(key, salience)` pairs in key order: everything selection reads.
    pub fn iter(&self) -> impl Iterator<Item = (&InstKey, i32)> {
        self.members.iter().map(|(k, m)| (k, m.salience))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::RuleId;
    use dps_wm::WmeId;

    fn key(rule: u32, ids: &[(u64, u64)]) -> InstKey {
        InstKey {
            rule: RuleId(rule),
            wmes: ids.iter().map(|&(i, t)| (WmeId(i), t)).collect(),
        }
    }

    #[test]
    fn insert_is_idempotent() {
        let mut cs = ConflictSet::new();
        assert!(cs.insert(key(0, &[(1, 1)]), 0, Site::default()));
        assert!(!cs.insert(key(0, &[(1, 1)]), 0, Site::default()));
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn remove_by_key() {
        let mut cs = ConflictSet::new();
        let k = key(0, &[(1, 1)]);
        let site = Site { node: 3, token: 7 };
        cs.insert(k.clone(), 0, site);
        assert_eq!(cs.site(&k), Some(site));
        assert!(cs.remove(&k));
        assert!(cs.is_empty());
        assert!(!cs.remove(&k));
        assert_eq!(cs.site(&k), None);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut cs = ConflictSet::new();
        cs.insert(key(1, &[(5, 5)]), 2, Site::default());
        cs.insert(key(0, &[(9, 9)]), 1, Site::default());
        cs.insert(key(0, &[(2, 2)]), 1, Site::default());
        let order: Vec<(u32, u64)> = cs.keys().map(|k| (k.rule.0, k.wmes[0].0 .0)).collect();
        assert_eq!(order, [(0, 2), (0, 9), (1, 5)]);
        assert!(cs.iter().map(|(k, _)| k).eq(cs.keys()));
        assert_eq!(cs.iter().map(|(_, s)| s).collect::<Vec<_>>(), [1, 1, 2]);
    }
}
