//! The conflict set: all currently satisfied instantiations that may
//! fire, by key — the one agenda every selector reads.
//!
//! An entry is an [`InstKey`] plus what selection reads besides it — the
//! rule's salience — and where the owning matcher finds the match again.
//! No entry holds matched tuples or bindings: the few instantiations that
//! are fired are materialised on demand by
//! [`crate::Matcher::instantiate`], so a match that is created and
//! retracted without firing (most of them, on a hot join) costs one key.
//!
//! The set owns OPS5 **refraction**: a key that fired (or whose RHS
//! failed to evaluate) is refracted ([`crate::Matcher::refract`]) — it
//! leaves the listing and is never listed again, even when a negated CE
//! blocks the match and later lets the same key back in. So a listed key
//! is always a key that may fire, and no selector filters the listing.
//! The refracted keys are swept by one rule: once there are max(1024,
//! twice what the last sweep left), a key is dropped when one of its
//! `(id, timestamp)` pairs is no longer held by the matcher's memories
//! (ids and timestamps are never reused, so it can never match again). A
//! set whose refracted keys stay live is swept O(log n) times, not once
//! per firing.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use dps_wm::{IdSet, Timestamp, WmeId};

use crate::InstKey;

/// The fewest refracted keys that trigger a sweep.
const SWEEP_FLOOR: usize = 1024;

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
/// deterministic (reproducible selection and testing), and the refracted
/// keys it will not list again. A matcher that needs a secondary index —
/// TREAT's WME → instantiations purge — keeps it beside the set; Rete
/// removes by key and needs none.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    members: BTreeMap<InstKey, Member>,
    /// Hashed with the id hasher: a key holds engine-assigned ids and
    /// stamps only, and every listing looks it up.
    refracted: IdSet<InstKey>,
    /// Twice the size the last sweep left; the sweep trigger is this or
    /// `SWEEP_FLOOR`, whichever is larger.
    sweep_at: usize,
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

    /// Lists a key with its rule's salience and the matcher's site;
    /// returns `false`, listing nothing, if it was already listed
    /// (idempotent) or is refracted (a negation block lifted).
    pub(crate) fn insert(&mut self, key: InstKey, salience: i32, site: Site) -> bool {
        if self.refracted.contains(&key) {
            return false;
        }
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

    /// Refracts `key`, listed or not, then sweeps the refracted keys
    /// against `holds` (the matcher's memories) if the trigger is reached.
    /// See the module docs.
    pub(crate) fn refract(&mut self, key: &InstKey, holds: impl Fn(WmeId, Timestamp) -> bool) {
        self.members.remove(key);
        self.refracted.insert(key.clone());
        if self.refracted.len() >= self.sweep_at.max(SWEEP_FLOOR) {
            self.refracted.retain(|k| k.wmes.iter().all(|&(id, ts)| holds(id, ts)));
            self.sweep_at = self.refracted.len() * 2;
        }
    }

    /// `true` when `key` is refracted: it fired, or its RHS failed to
    /// evaluate, and it is not listed again while its tuples are held.
    pub fn is_refracted(&self, key: &InstKey) -> bool {
        self.refracted.contains(key)
    }

    /// Number of refracted keys the sweeps have kept.
    pub fn refracted_len(&self) -> usize {
        self.refracted.len()
    }

    /// The matcher's site of a present key.
    pub(crate) fn site(&self, key: &InstKey) -> Option<Site> {
        self.members.get(key).map(|m| m.site)
    }

    /// `true` when the key is present.
    pub fn contains(&self, key: &InstKey) -> bool {
        self.members.contains_key(key)
    }

    /// Keys in key order (deterministic); every one may fire.
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

    #[test]
    fn refraction_unlists_for_good_and_sweeps_dead_keys_past_its_trigger() {
        let mut cs = ConflictSet::new();
        let live = key(0, &[(0, 0)]);
        let holds = |id: WmeId, _| id == WmeId(0);
        cs.insert(live.clone(), 0, Site::default());
        cs.refract(&live, holds);
        assert!(cs.is_empty() && cs.is_refracted(&live));
        assert!(!cs.insert(live.clone(), 0, Site::default()), "never listed again");
        assert!(cs.is_empty());
        for n in 1..1023 {
            cs.refract(&key(0, &[(n, 0)]), holds);
        }
        assert_eq!(cs.refracted_len(), 1023, "below the trigger: untouched");
        cs.refract(&key(0, &[(1023, 0)]), holds);
        assert!(cs.is_refracted(&live), "a live key survives the sweep");
        assert_eq!(cs.refracted_len(), 1, "dead keys collected");
        for n in 1024..2046 {
            cs.refract(&key(0, &[(n, 0)]), holds);
        }
        assert_eq!(cs.refracted_len(), 1023, "the trigger re-arms at its floor");
    }
}
