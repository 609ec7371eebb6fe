//! The attribute map of a WME payload and of a `modify` change set.

use std::borrow::Borrow;
use std::fmt;

use crate::{Atom, Value};

/// Attribute → value map, kept as a vector sorted by attribute.
///
/// A WME has a handful of attributes, and working memory keeps every
/// tuple for the life of a run, so the map is one allocation sized to
/// its pairs: built pair by pair, it reserves two, then one more at a
/// time up to four, then doubles; a decoder that reads a pair count
/// sizes it from that count. Atoms being pointer copies, a clone is
/// that allocation plus a copy of the pairs — where a `BTreeMap`
/// allocates a ~450-byte leaf node for its first entry.
/// Updates binary-search; [`AttrMap::get`] scans for an equal key.
/// Iteration is in key order, and `Debug` prints exactly what a
/// `BTreeMap` would, so codecs, fingerprints and test output are
/// unchanged.
///
/// ```
/// use dps_wm::{AttrMap, Atom, Value};
/// let mut m = AttrMap::new();
/// m.insert(Atom::from("qty"), Value::Int(40));
/// m.insert(Atom::from("item"), Value::from("bolt"));
/// assert_eq!(m.get("qty"), Some(&Value::Int(40)));
/// assert_eq!(format!("{m:?}"), r#"{"item": Sym("bolt"), "qty": Int(40)}"#);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct AttrMap(Vec<(Atom, Value)>);

impl AttrMap {
    /// Creates an empty map (no allocation).
    pub fn new() -> Self {
        AttrMap::default()
    }

    /// Creates an empty map with room for `n` attributes, so a map built
    /// to its final size holds no slack.
    pub fn with_capacity(n: usize) -> Self {
        AttrMap(Vec::with_capacity(n))
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the map holds no attribute.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Inserts a pair at `i`, growing by [`AttrMap`]'s policy: two pairs
    /// first, then one at a time up to four, then doubling.
    fn insert_at(&mut self, i: usize, key: Atom, value: Value) {
        let cap = self.0.capacity();
        if self.0.len() == cap {
            self.0.reserve_exact(match cap {
                0 => 2,
                1..=3 => 1,
                _ => cap,
            });
        }
        self.0.insert(i, (key, value));
    }

    fn find<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
    where
        Atom: Borrow<Q>,
    {
        self.0.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    /// The value of `key`, if present.
    ///
    /// A scan, not a binary search: string equality checks the length
    /// first, and on the handful of attributes a WME carries that beats
    /// a search's three-way comparisons (Rete apply, which reads
    /// attributes on every join test, ran ≈ 8% slower than the parent
    /// with the search and ≈ 10% faster with the scan — EXPERIMENTS
    /// §XS.15).
    pub fn get<Q: Eq + ?Sized>(&self, key: &Q) -> Option<&Value>
    where
        Atom: Borrow<Q>,
    {
        self.0
            .iter()
            .find(|(k, _)| k.borrow() == key)
            .map(|(_, v)| v)
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: Atom, value: Value) -> Option<Value> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// Sets `key` to `value` only when `key` is absent; returns whether
    /// it did.
    pub fn insert_if_absent(&mut self, key: Atom, value: Value) -> bool {
        match self.find(&key) {
            Ok(_) => false,
            Err(i) => {
                self.insert_at(i, key, value);
                true
            }
        }
    }

    /// Removes `key`, returning its value when it was present.
    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<Value>
    where
        Atom: Borrow<Q>,
    {
        self.find(key).ok().map(|i| self.0.remove(i).1)
    }

    /// Iterates `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Atom, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

/// Later pairs overwrite earlier ones with the same key, as when
/// collecting into a `BTreeMap`.
impl FromIterator<(Atom, Value)> for AttrMap {
    fn from_iter<T: IntoIterator<Item = (Atom, Value)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut map = AttrMap(Vec::with_capacity(iter.size_hint().0));
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl fmt::Debug for AttrMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use std::collections::BTreeMap;

    /// Random operation streams against a `BTreeMap` model: every read
    /// (get, length, key-order iteration, `Debug` at both widths) agrees
    /// after every step.
    #[test]
    fn agrees_with_a_btreemap_model() {
        let keys: Vec<Atom> = ["a", "b", "ba", "c", "z"].map(Atom::from).into();
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut map, mut model) = (AttrMap::new(), BTreeMap::new());
            for step in 0..64 {
                let k = keys[rng.index(keys.len())].clone();
                let v = match rng.index(3) {
                    0 => Value::Int(rng.range_i64(-2..2)),
                    1 => Value::from("sym"),
                    _ => Value::from(String::from("str")),
                };
                match rng.index(4) {
                    0 | 1 => assert_eq!(map.insert(k.clone(), v.clone()), model.insert(k, v)),
                    2 => assert_eq!(map.remove(k.as_str()), model.remove(&k)),
                    _ => {
                        let fresh = !model.contains_key(&k);
                        assert_eq!(map.insert_if_absent(k.clone(), v.clone()), fresh);
                        model.entry(k).or_insert(v);
                    }
                }
                let ctx = format!("seed {seed} step {step}");
                assert_eq!(map.len(), model.len(), "{ctx}");
                for k in &keys {
                    assert_eq!(map.get(k.as_str()), model.get(k), "{ctx}");
                    assert_eq!(map.get(k), model.get(k), "{ctx}");
                }
                assert!(map.iter().eq(model.iter()), "{ctx}");
                assert_eq!(format!("{map:?}"), format!("{model:?}"), "{ctx}");
                assert_eq!(format!("{map:#?}"), format!("{model:#?}"), "{ctx}");
            }
            let collected: AttrMap = model.clone().into_iter().collect();
            assert_eq!(collected, map);
        }
    }

    #[test]
    fn collect_keeps_the_last_duplicate() {
        let m: AttrMap = [
            (Atom::from("b"), Value::Int(1)),
            (Atom::from("a"), Value::Int(2)),
            (Atom::from("b"), Value::Int(3)),
        ]
        .into_iter()
        .collect();
        let pairs: Vec<(&str, &Value)> = m.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assert_eq!(pairs, [("a", &Value::Int(2)), ("b", &Value::Int(3))]);
    }

    #[test]
    fn grows_two_then_one_pair_at_a_time_to_four_then_doubles() {
        let mut m = AttrMap::new();
        let caps: Vec<usize> = (0..9)
            .map(|i| {
                m.insert(Atom::from(format!("a{i}")), Value::Int(i));
                m.0.capacity()
            })
            .collect();
        assert_eq!(caps, [2, 2, 3, 4, 8, 8, 8, 8, 16]);
        let mut sized = AttrMap::with_capacity(1);
        sized.insert(Atom::from("a"), Value::Nil);
        assert!(sized.insert_if_absent(Atom::from("b"), Value::Nil));
        assert_eq!(
            sized.0.capacity(),
            2,
            "a decoder's exact size grows one pair"
        );
    }

    #[test]
    fn empty_map_prints_like_an_empty_btreemap() {
        assert_eq!(format!("{:?}", AttrMap::new()), "{}");
    }
}
