//! Allocation-free mode sets and the sorted-vector maps built on them.
//!
//! Every lock-table entry records which modes each holder holds, and
//! every transaction records which modes it holds on each resource. A
//! set drawn from five modes is a [`ModeSet`] bit mask; a handful of
//! `(key, modes)` pairs is a [`ModeMap`], a vector kept sorted by key.
//! Iteration follows key order, so doom, wake and event order are what
//! an ordered tree map would give.

use crate::{compatible, LockMode};

/// A set of [`LockMode`]s: bit `mode as u8` is set when `mode` is in it.
/// Iterates in [`LockMode`] order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ModeSet(u8);

impl ModeSet {
    fn bit(mode: LockMode) -> u8 {
        1 << mode as u8
    }

    /// `true` when `mode` is in the set.
    pub fn contains(self, mode: LockMode) -> bool {
        self.0 & Self::bit(mode) != 0
    }

    /// Adds `mode` to the set.
    pub fn insert(&mut self, mode: LockMode) {
        self.0 |= Self::bit(mode);
    }

    /// The modes in the set, in [`LockMode`] order.
    pub fn iter(self) -> impl Iterator<Item = LockMode> {
        LockMode::ALL.into_iter().filter(move |&m| self.contains(m))
    }

    /// Does some mode in the set refuse `requested` ([`compatible`],
    /// held × requested)?
    pub fn blocks(self, requested: LockMode) -> bool {
        self.iter().any(|held| !compatible(held, requested))
    }
}

/// A map from a key (a holder's [`crate::TxnId`], a held
/// [`crate::ResourceId`]) to a non-empty [`ModeSet`], as a vector sorted
/// by key: binary-search lookups, key-order iteration, and no heap node
/// per entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ModeMap<K>(Vec<(K, ModeSet)>);

impl<K> Default for ModeMap<K> {
    fn default() -> Self {
        ModeMap(Vec::new())
    }
}

impl<K: Ord + Copy> ModeMap<K> {
    fn find(&self, key: K) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// The modes `key` holds (empty when absent).
    pub fn get(&self, key: K) -> ModeSet {
        self.find(key).map_or(ModeSet::default(), |i| self.0[i].1)
    }

    /// Adds `mode` to `key`'s set, inserting `key` in order if new.
    pub fn grant(&mut self, key: K, mode: LockMode) {
        match self.find(key) {
            Ok(i) => self.0[i].1.insert(mode),
            Err(i) => {
                let mut modes = ModeSet::default();
                modes.insert(mode);
                self.0.insert(i, (key, modes));
            }
        }
    }

    /// Removes `key`, returning what it held.
    pub fn remove(&mut self, key: K) -> Option<ModeSet> {
        self.find(key).ok().map(|i| self.0.remove(i).1)
    }

    /// `(key, modes)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, ModeSet)> + '_ {
        self.0.iter().copied()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when no key holds anything.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn mode_set_conflict_test_equals_the_per_mode_scan() {
        // Every subset of the seven modes × every requested mode: the
        // bit-mask test answers exactly what scanning a `BTreeSet` did.
        for mask in 0u8..1 << LockMode::ALL.len() {
            let subset: BTreeSet<LockMode> =
                LockMode::ALL.into_iter().filter(|&m| mask & (1 << m as u8) != 0).collect();
            let mut set = ModeSet::default();
            for &m in &subset {
                set.insert(m);
            }
            assert!(set.iter().eq(subset.iter().copied()), "iteration order of {subset:?}");
            for m in LockMode::ALL {
                assert_eq!(set.contains(m), subset.contains(&m));
            }
            for req in LockMode::ALL {
                let old = subset.iter().any(|&held| !compatible(held, req));
                assert_eq!(set.blocks(req), old, "held {subset:?}, requested {req}");
            }
        }
    }

    /// xorshift64*: a seeded stream for the model test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn mode_map_matches_a_btree_model() {
        // Insert, re-grant (same key, same or new mode), remove present
        // and absent keys; after every step lookups, length and
        // iteration order equal a `BTreeMap<K, BTreeSet<LockMode>>`.
        for seed in 1..=20u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut map: ModeMap<u64> = ModeMap::default();
            let mut model: BTreeMap<u64, BTreeSet<LockMode>> = BTreeMap::new();
            for _ in 0..400 {
                let key = rng.below(24);
                if rng.below(4) == 0 {
                    let removed = map.remove(key);
                    let expected = model.remove(&key);
                    assert_eq!(removed.map(|s| s.iter().collect()), expected);
                } else {
                    let mode = LockMode::ALL[rng.below(LockMode::ALL.len() as u64) as usize];
                    map.grant(key, mode);
                    model.entry(key).or_default().insert(mode);
                }
                assert_eq!(map.len(), model.len());
                assert_eq!(map.is_empty(), model.is_empty());
                let pairs: Vec<(u64, Vec<LockMode>)> =
                    map.iter().map(|(k, s)| (k, s.iter().collect())).collect();
                let expected: Vec<(u64, Vec<LockMode>)> =
                    model.iter().map(|(k, s)| (*k, s.iter().copied().collect())).collect();
                assert_eq!(pairs, expected, "seed {seed}");
                let probe = rng.below(24);
                let got: BTreeSet<LockMode> = map.get(probe).iter().collect();
                assert_eq!(got, model.get(&probe).cloned().unwrap_or_default());
            }
        }
    }
}
