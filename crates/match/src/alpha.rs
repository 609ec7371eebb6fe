//! The alpha network: constant tests and alpha memories, shared across
//! rules and across matchers (Rete and TREAT use the same structure).

use std::borrow::Cow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use dps_rules::{ConditionElement, Predicate, RuleSet, TestAtom};
use dps_wm::{Atom, IdMap, Timestamp, Value, Wme, WmeId, WorkingMemory};

/// Index of an alpha memory within an [`AlphaNetwork`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AlphaMemId(pub usize);

/// A canonical, order-insensitive signature of a condition element's
/// class + constant tests — the sharing key of the alpha network. The
/// value list is a singleton for ordinary constant tests and the sorted
/// alternatives for a `<< ... >>` disjunction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct AlphaKey {
    class: Atom,
    tests: Vec<(Atom, Predicate, Vec<Value>)>,
}

impl AlphaKey {
    fn of(ce: &ConditionElement) -> Self {
        let mut tests: Vec<(Atom, Predicate, Vec<Value>)> = ce
            .constant_tests()
            .map(|t| match &t.operand {
                TestAtom::Const(v) => (t.attr.clone(), t.predicate, vec![v.clone()]),
                TestAtom::OneOf(vs) => {
                    let mut vs = vs.clone();
                    vs.sort();
                    vs.dedup();
                    (t.attr.clone(), t.predicate, vs)
                }
                TestAtom::Var(_) => unreachable!("constant_tests yields constants"),
            })
            .collect();
        tests.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        AlphaKey {
            class: ce.class.clone(),
            tests,
        }
    }

    fn matches(&self, wme: &Wme) -> bool {
        wme.class() == &self.class
            && self.tests.iter().all(|(attr, p, vs)| {
                let actual = attr_of(wme, attr.as_str());
                vs.iter().any(|v| p.apply(actual, v))
            })
    }
}

/// Reads an attribute by reference, absence as [`Value::Nil`] — the
/// borrowing counterpart of `Wme::get_or_nil` for the match hot path.
pub(crate) fn attr_of<'a>(wme: &'a Wme, attr: &str) -> &'a Value {
    static NIL: Value = Value::Nil;
    wme.get(attr).unwrap_or(&NIL)
}

/// Normalises a value for use as a strict hash key standing in for the
/// matcher's *loose* (numerically coercing) equality: integral floats
/// collapse onto their integer form (and `-0.0` onto `0`), so
/// `Int(2)` and `Float(2.0)` share a key exactly when they are
/// loose-equal; everything else is borrowed as is. (Floats with
/// magnitude ≥ 2^63 keep their float key; the only values this
/// mis-buckets are astronomically large int/float pairs at the edge of
/// `i64`, which scans would also treat inconsistently under IEEE
/// rounding.)
pub(crate) fn index_key(v: &Value) -> Cow<'_, Value> {
    if let Value::Float(f) = v {
        if f.fract() == 0.0 && f.is_finite() && *f >= i64::MIN as f64 && *f < i64::MAX as f64 {
            return Cow::Owned(Value::Int(*f as i64));
        }
    }
    Cow::Borrowed(v)
}

/// A memory's member list: shared WMEs by id.
type Members = IdMap<WmeId, Arc<Wme>>;

/// The members of one index key: the tuples whose normalised value
/// hashes to it, so under a hash collision a bucket holds more than one
/// value's tuples and [`AlphaMemory::lookup`] sorts them out. Most
/// values of an indexed attribute (an id, a key) are held by one tuple,
/// so a bucket keeps its first member inline and becomes a boxed id map
/// only at its second — and stays one until it empties, so lookup order
/// is the map's from then on. Either way the bucket is two words.
#[derive(Clone, Debug)]
enum Bucket {
    One(Arc<Wme>),
    Many(Box<Members>),
}

impl Bucket {
    fn insert(&mut self, wme: &Arc<Wme>) {
        match self {
            Bucket::One(first) => {
                let mut members = Box::<Members>::default();
                members.insert(first.id, Arc::clone(first));
                members.insert(wme.id, Arc::clone(wme));
                *self = Bucket::Many(members);
            }
            Bucket::Many(members) => {
                members.insert(wme.id, Arc::clone(wme));
            }
        }
    }

    /// Removes `id`; returns whether the bucket is now empty.
    fn remove(&mut self, id: WmeId) -> bool {
        match self {
            Bucket::One(only) => only.id == id,
            Bucket::Many(members) => {
                members.remove(&id);
                members.is_empty()
            }
        }
    }

    fn members(&self) -> impl Iterator<Item = &Arc<Wme>> + '_ {
        let (one, many) = match self {
            Bucket::One(w) => (Some(w), None),
            Bucket::Many(m) => (None, Some(&**m)),
        };
        one.into_iter().chain(many.into_iter().flat_map(IdMap::values))
    }
}

/// One alpha memory: the WMEs passing one class + constant-test
/// signature, shared by reference with every token and join candidate.
/// Membership, index-bucket insertion and removal are all O(1).
///
/// A value index is keyed by a hash of the normalised value, not by the
/// value: the tuples in a bucket already hold it, so an entry is the
/// 8-byte hash and a two-word `Bucket` (24 bytes, where a [`Value`]
/// key beside an unboxed id map took 56). The hash is keyed per memory
/// (`S`, a fresh [`RandomState`]), so clients, who choose the values,
/// cannot aim collisions; the id hasher then spreads the hashes.
#[derive(Clone, Debug, Default)]
pub struct AlphaMemory<S = RandomState> {
    wmes: Members,
    /// Per-attribute value indexes, registered by join nodes that test
    /// equality on the attribute; a join keeps its index's position.
    indexes: Vec<(Atom, IdMap<u64, Bucket>)>,
    /// Hashes a normalised value to its index key.
    keyer: S,
}

impl<S: BuildHasher> AlphaMemory<S> {
    /// Live members (no particular order).
    pub fn wmes(&self) -> impl Iterator<Item = &Arc<Wme>> + '_ {
        self.wmes.values()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.wmes.len()
    }

    /// `true` when the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.wmes.is_empty()
    }

    /// Looks up a member by id.
    pub fn get(&self, id: WmeId) -> Option<&Arc<Wme>> {
        self.wmes.get(&id)
    }

    /// Registers (and builds) a value index on `attr` (idempotent);
    /// returns its position for [`AlphaMemory::lookup`].
    pub fn ensure_index(&mut self, attr: &Atom) -> usize {
        if let Some(i) = self.indexes.iter().position(|(a, _)| a == attr) {
            return i;
        }
        let mut by_key = IdMap::default();
        for w in self.wmes.values() {
            index_insert(&mut by_key, self.keyer.hash_one(index_value(w, attr)), w);
        }
        self.indexes.push((attr.clone(), by_key));
        self.indexes.len() - 1
    }

    /// Members whose normalised value of index `index`'s attribute
    /// equals `key` (a normalised value): the members of `key`'s bucket,
    /// filtered by value, so a hash collision returns no other value's
    /// tuple.
    pub fn lookup<'a>(
        &'a self,
        index: usize,
        key: &'a Value,
    ) -> impl Iterator<Item = &'a Arc<Wme>> + 'a {
        let (attr, by_key) = &self.indexes[index];
        by_key
            .get(&self.keyer.hash_one(key))
            .into_iter()
            .flat_map(Bucket::members)
            .filter(move |w| *index_value(w, attr) == *key)
    }

    fn insert(&mut self, wme: &Arc<Wme>) {
        self.remove(wme.id); // a re-assertion without a retraction replaces
        self.wmes.insert(wme.id, Arc::clone(wme));
        for (attr, by_key) in &mut self.indexes {
            index_insert(by_key, self.keyer.hash_one(index_value(wme, attr)), wme);
        }
    }

    fn remove(&mut self, id: WmeId) -> bool {
        let Some(wme) = self.wmes.remove(&id) else {
            return false;
        };
        for (attr, by_key) in &mut self.indexes {
            let key = self.keyer.hash_one(index_value(&wme, attr));
            if by_key.get_mut(&key).is_some_and(|bucket| bucket.remove(id)) {
                by_key.remove(&key);
            }
        }
        true
    }
}

/// `wme`'s normalised value of `attr`: what a value index files it by.
fn index_value<'a>(wme: &'a Wme, attr: &Atom) -> Cow<'a, Value> {
    index_key(attr_of(wme, attr.as_str()))
}

/// Files `wme` under index key `key`.
fn index_insert(by_key: &mut IdMap<u64, Bucket>, key: u64, wme: &Arc<Wme>) {
    match by_key.entry(key) {
        Entry::Occupied(mut bucket) => bucket.get_mut().insert(wme),
        Entry::Vacant(slot) => {
            slot.insert(Bucket::One(Arc::clone(wme)));
        }
    }
}

/// The shared alpha network: class-indexed constant-test nodes feeding
/// alpha memories.
///
/// Built once from a [`RuleSet`]; identical class+constant-test patterns
/// across condition elements (within or across rules) share one memory —
/// Rete's "sharing of common subexpressions".
#[derive(Clone, Debug, Default)]
pub struct AlphaNetwork {
    keys: Vec<AlphaKey>,
    mems: Vec<AlphaMemory>,
    share: HashMap<AlphaKey, AlphaMemId>,
    /// Class → alpha memories that could accept members of it.
    by_class: HashMap<Atom, Vec<AlphaMemId>>,
}

impl AlphaNetwork {
    /// Builds the network for every condition element of every rule and
    /// loads the initial working memory.
    pub fn new(rules: &RuleSet, wm: &WorkingMemory) -> Self {
        let mut net = AlphaNetwork::default();
        for (_, rule) in rules.iter() {
            for cond in &rule.conditions {
                net.register(cond.ce());
            }
        }
        for wme in wm.handles() {
            net.add_wme(wme);
        }
        net
    }

    /// Registers a condition element, returning its (possibly shared)
    /// alpha memory id. Memories registered after WMEs were loaded start
    /// empty, so register everything before loading.
    pub fn register(&mut self, ce: &ConditionElement) -> AlphaMemId {
        let key = AlphaKey::of(ce);
        if let Some(&id) = self.share.get(&key) {
            return id;
        }
        let id = AlphaMemId(self.mems.len());
        self.by_class.entry(key.class.clone()).or_default().push(id);
        self.share.insert(key.clone(), id);
        self.keys.push(key);
        self.mems.push(AlphaMemory::default());
        id
    }

    /// Number of distinct alpha memories (a sharing metric).
    pub fn memory_count(&self) -> usize {
        self.mems.len()
    }

    /// The memory for an id.
    pub fn memory(&self, id: AlphaMemId) -> &AlphaMemory {
        &self.mems[id.0]
    }

    /// Adds a WME to every memory whose tests it passes (each holds a
    /// reference to the one shared copy); [`AlphaNetwork::holding`]
    /// then names them.
    pub fn add_wme(&mut self, wme: &Arc<Wme>) {
        if let Some(candidates) = self.by_class.get(wme.class()) {
            for &id in candidates {
                if self.keys[id.0].matches(wme) {
                    self.mems[id.0].insert(wme);
                }
            }
        }
    }

    /// The memories holding this very handle, in registration order:
    /// after [`AlphaNetwork::add_wme`], the memories it entered. Reading
    /// them back, instead of collecting them as they are entered, keeps
    /// an insert free of a hit list.
    pub fn holding<'a>(&'a self, wme: &'a Arc<Wme>) -> impl Iterator<Item = AlphaMemId> + 'a {
        let candidates = self.by_class.get(wme.class()).map_or(&[][..], Vec::as_slice);
        candidates.iter().copied().filter(move |id| {
            self.mems[id.0].get(wme.id).is_some_and(|held| Arc::ptr_eq(held, wme))
        })
    }

    /// Registers a per-attribute value index on a memory (idempotent);
    /// returns the index's position within that memory.
    pub fn ensure_index(&mut self, id: AlphaMemId, attr: &Atom) -> usize {
        self.mems[id.0].ensure_index(attr)
    }

    /// Whether some memory holds tuple `id` as asserted at `ts`: false
    /// once the tuple is retracted or re-asserted with a fresh stamp.
    pub fn holds(&self, id: WmeId, ts: Timestamp) -> bool {
        self.mems.iter().any(|m| m.get(id).is_some_and(|w| w.timestamp == ts))
    }

    /// Removes a WME, calling `left` with each memory it left, in
    /// registration order.
    pub fn remove_wme(&mut self, class: &Atom, id: WmeId, mut left: impl FnMut(AlphaMemId)) {
        if let Some(candidates) = self.by_class.get(class) {
            for &mem in candidates {
                if self.mems[mem.0].remove(id) {
                    left(mem);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::parser::parse_condition_element;
    use dps_wm::WmeData;

    fn net_with(ces: &[&str]) -> (AlphaNetwork, Vec<AlphaMemId>) {
        let mut net = AlphaNetwork::default();
        let ids = ces
            .iter()
            .map(|s| net.register(&parse_condition_element(s).unwrap()))
            .collect();
        (net, ids)
    }

    fn wme(id: u64, class: &str, pairs: &[(&str, Value)]) -> Arc<Wme> {
        let mut data = WmeData::new(class);
        for (a, v) in pairs {
            data.set(*a, v.clone());
        }
        Arc::new(Wme {
            id: WmeId(id),
            data,
            timestamp: id,
        })
    }

    /// Sorted ids of an index bucket.
    fn bucket(mem: &AlphaMemory, index: usize, key: Value) -> Vec<u64> {
        let mut ids: Vec<u64> = mem.lookup(index, &key).map(|w| w.id.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn identical_patterns_share_one_memory() {
        let (net, ids) = net_with(&["(job ^state open)", "(job ^state open)"]);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(net.memory_count(), 1);
    }

    #[test]
    fn test_order_does_not_defeat_sharing() {
        let (net, ids) = net_with(&["(job ^a 1 ^b 2)", "(job ^b 2 ^a 1)"]);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(net.memory_count(), 1);
    }

    #[test]
    fn variable_tests_do_not_affect_the_key() {
        // Constant parts equal; variable parts differ → still shared.
        let (net, ids) = net_with(&["(job ^state open ^v <x>)", "(job ^state open ^w <y>)"]);
        assert_eq!(ids[0], ids[1]);
        let _ = net;
    }

    #[test]
    fn different_constants_get_different_memories() {
        let (net, ids) = net_with(&[
            "(job ^state open)",
            "(job ^state closed)",
            "(task ^state open)",
        ]);
        assert_eq!(net.memory_count(), 3);
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
    }

    /// Adds `w`, returning the memories it entered.
    fn add(net: &mut AlphaNetwork, w: Arc<Wme>) -> Vec<AlphaMemId> {
        net.add_wme(&w);
        net.holding(&w).collect()
    }

    /// Removes `id` of class `class`, returning the memories it left.
    fn remove(net: &mut AlphaNetwork, class: &str, id: u64) -> Vec<AlphaMemId> {
        let mut left = Vec::new();
        net.remove_wme(&Atom::from(class), WmeId(id), |m| left.push(m));
        left
    }

    #[test]
    fn add_routes_to_matching_memories() {
        let (mut net, ids) = net_with(&["(job ^state open)", "(job)"]);
        let hits = add(&mut net, wme(1, "job", &[("state", Value::from("open"))]));
        assert_eq!(hits, ids);
        let hits = add(&mut net, wme(2, "job", &[("state", Value::from("closed"))]));
        assert_eq!(hits, vec![ids[1]]);
        let hits = add(&mut net, wme(3, "task", &[]));
        assert!(hits.is_empty());
        assert_eq!(net.memory(ids[0]).len(), 1);
        assert_eq!(net.memory(ids[1]).len(), 2);
    }

    #[test]
    fn holding_names_only_the_memories_of_this_handle() {
        let (mut net, ids) = net_with(&["(job ^state open)", "(job)"]);
        let open = wme(1, "job", &[("state", Value::from("open"))]);
        net.add_wme(&open);
        // Re-asserted closed without a retraction: `(job ^state open)`
        // still holds the old handle, which is not this one.
        let closed = wme(1, "job", &[("state", Value::from("closed"))]);
        assert_eq!(add(&mut net, Arc::clone(&closed)), vec![ids[1]]);
        assert_eq!(net.holding(&open).collect::<Vec<_>>(), vec![ids[0]]);
    }

    #[test]
    fn remove_reports_memories_left() {
        let (mut net, ids) = net_with(&["(job ^state open)"]);
        net.add_wme(&wme(1, "job", &[("state", Value::from("open"))]));
        assert_eq!(remove(&mut net, "job", 1), vec![ids[0]]);
        assert!(net.memory(ids[0]).is_empty());
        // Second removal is a no-op.
        assert!(remove(&mut net, "job", 1).is_empty());
    }

    #[test]
    fn numeric_constant_tests() {
        let (mut net, ids) = net_with(&["(m ^v > 4)"]);
        assert_eq!(
            add(&mut net, wme(1, "m", &[("v", Value::Int(5))])),
            vec![ids[0]]
        );
        assert!(add(&mut net, wme(2, "m", &[("v", Value::Int(3))])).is_empty());
        assert!(
            add(&mut net, wme(3, "m", &[])).is_empty(),
            "missing attr = Nil fails '>'"
        );
    }

    #[test]
    fn value_index_tracks_membership() {
        let (mut net, ids) = net_with(&["(m)"]);
        let ix = net.ensure_index(ids[0], &Atom::from("k"));
        assert_eq!(net.ensure_index(ids[0], &Atom::from("k")), ix, "idempotent");
        net.add_wme(&wme(1, "m", &[("k", Value::Int(3))]));
        net.add_wme(&wme(2, "m", &[("k", Value::Int(3))]));
        net.add_wme(&wme(3, "m", &[("k", Value::Int(5))]));
        let mem = net.memory(ids[0]);
        assert_eq!(bucket(mem, ix, Value::Int(3)), [1, 2]);
        assert_eq!(bucket(mem, ix, Value::Int(5)), [3]);
        assert!(bucket(mem, ix, Value::Int(9)).is_empty());
        remove(&mut net, "m", 1);
        assert_eq!(bucket(net.memory(ids[0]), ix, Value::Int(3)), [2]);
        assert_eq!(net.memory(ids[0]).get(WmeId(2)).unwrap().id, WmeId(2));
        assert!(net.memory(ids[0]).get(WmeId(1)).is_none());
        remove(&mut net, "m", 3);
        let mem = net.memory(ids[0]);
        assert!(bucket(mem, ix, Value::Int(5)).is_empty());
        let five = mem.keyer.hash_one(Value::Int(5));
        assert!(!mem.indexes[ix].1.contains_key(&five), "bucket dropped");
        assert_eq!(mem.indexes[ix].1.len(), 1, "only value 3's bucket is left");
    }

    /// Hashes every value to one key, so every index value collides.
    #[derive(Default)]
    struct Collide;

    impl std::hash::Hasher for Collide {
        fn finish(&self) -> u64 {
            7
        }
        fn write(&mut self, _: &[u8]) {}
    }

    #[test]
    fn lookup_is_exact_when_every_value_collides() {
        let mut mem = AlphaMemory::<std::hash::BuildHasherDefault<Collide>>::default();
        let ix = mem.ensure_index(&Atom::from("k"));
        let ids = |mem: &AlphaMemory<_>, key: Value| {
            let mut ids: Vec<u64> = mem.lookup(ix, &key).map(|w| w.id.0).collect();
            ids.sort_unstable();
            ids
        };
        // One inline member answers only for its own value.
        mem.insert(&wme(1, "m", &[("k", Value::Int(3))]));
        assert_eq!(ids(&mem, Value::Int(3)), [1]);
        assert!(ids(&mem, Value::Int(5)).is_empty());
        mem.insert(&wme(2, "m", &[("k", Value::Int(5))]));
        mem.insert(&wme(3, "m", &[("k", Value::Int(3))]));
        mem.insert(&wme(4, "m", &[("k", Value::Float(5.0))]));
        mem.insert(&wme(5, "m", &[]));
        assert_eq!(mem.indexes[ix].1.len(), 1, "one bucket holds every value");
        assert_eq!(ids(&mem, Value::Int(3)), [1, 3]);
        assert_eq!(
            ids(&mem, Value::Int(5)),
            [2, 4],
            "Float(5.0) is filed as Int(5)"
        );
        assert_eq!(ids(&mem, Value::Nil), [5], "an absent attribute is Nil");
        assert!(ids(&mem, Value::Int(9)).is_empty());
        // Removing one value's members keeps the other values'.
        mem.remove(WmeId(2));
        mem.remove(WmeId(4));
        assert!(ids(&mem, Value::Int(5)).is_empty());
        assert_eq!(ids(&mem, Value::Int(3)), [1, 3]);
        assert_eq!(ids(&mem, Value::Nil), [5]);
        for id in [1, 3, 5] {
            mem.remove(WmeId(id));
        }
        assert!(ids(&mem, Value::Int(3)).is_empty());
        assert!(
            mem.indexes[ix].1.is_empty(),
            "the emptied bucket is dropped"
        );
    }

    #[test]
    fn a_bucket_visits_its_members_in_id_map_order() {
        // A bucket that held a second member is an id map from then on,
        // filled by the same inserts, so joins see the same order.
        let (mut net, ids) = net_with(&["(m)"]);
        let ix = net.ensure_index(ids[0], &Atom::from("k"));
        let mut reference = Members::default();
        let agree = |net: &AlphaNetwork, reference: &Members| {
            let order = net.memory(ids[0]).lookup(ix, &Value::Int(3)).map(|w| w.id);
            assert!(order.eq(reference.keys().copied()));
        };
        for id in [9, 2, 40, 17, 5, 33, 1, 28] {
            let w = wme(id, "m", &[("k", Value::Int(3))]);
            net.add_wme(&w);
            reference.insert(w.id, w);
            agree(&net, &reference);
        }
        for id in [40, 9, 28, 2, 1, 33, 17] {
            remove(&mut net, "m", id);
            reference.remove(&WmeId(id));
            agree(&net, &reference);
        }
    }

    #[test]
    fn index_key_normalises_numerics() {
        assert_eq!(*index_key(&Value::Float(2.0)), Value::Int(2));
        assert_eq!(*index_key(&Value::Float(-0.0)), Value::Int(0));
        assert_eq!(*index_key(&Value::Float(2.5)), Value::Float(2.5));
        assert_eq!(*index_key(&Value::Int(7)), Value::Int(7));
        assert_eq!(*index_key(&Value::from("x")), Value::from("x"));
        assert!(matches!(index_key(&Value::from("x")), Cow::Borrowed(_)));
        assert_eq!(index_key(&Value::Float(f64::NAN)).to_string(), "NaN");
    }

    #[test]
    fn index_built_late_covers_existing_members() {
        let (mut net, ids) = net_with(&["(m)"]);
        net.add_wme(&wme(1, "m", &[("k", Value::Float(4.0))]));
        let ix = net.ensure_index(ids[0], &Atom::from("k"));
        // Normalised key: Int(4) finds the Float(4.0) member.
        assert_eq!(bucket(net.memory(ids[0]), ix, Value::Int(4)), [1]);
    }

    #[test]
    fn initial_load_from_working_memory() {
        let rules = dps_rules::RuleSet::parse("(p r (job ^state open) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("job").with("state", "open"));
        wm.insert(WmeData::new("job").with("state", "closed"));
        let net = AlphaNetwork::new(&rules, &wm);
        assert_eq!(net.memory(AlphaMemId(0)).len(), 1);
    }

    /// Loads `n` WMEs over 8 key values into an indexed memory, then
    /// drains them oldest first; returns the best-of-three wall time.
    fn load_and_drain(n: u64) -> std::time::Duration {
        let wmes: Vec<Arc<Wme>> = (0..n)
            .map(|i| wme(i, "m", &[("k", Value::Int((i % 8) as i64))]))
            .collect();
        let class = Atom::from("m");
        (0..3)
            .map(|_| {
                let (mut net, ids) = net_with(&["(m)"]);
                let ix = net.ensure_index(ids[0], &Atom::from("k"));
                let t = std::time::Instant::now();
                for w in &wmes {
                    net.add_wme(w);
                }
                assert_eq!(
                    net.memory(ids[0]).lookup(ix, &Value::Int(3)).count() as u64,
                    n / 8
                );
                for w in &wmes {
                    net.remove_wme(&class, w.id, |_| ());
                }
                assert!(net.memory(ids[0]).is_empty());
                assert_eq!(net.memory(ids[0]).lookup(ix, &Value::Int(3)).count(), 0);
                t.elapsed()
            })
            .min()
            .unwrap()
    }

    #[test]
    fn few_key_values_load_and_drain_linearly() {
        // Regression: bucket membership was a scan and removal a
        // `retain` (plus a memmove of the member list), so this shape
        // was quadratic — 4x the WMEs cost ~16x. Linear work costs 4x;
        // the threshold leaves room for cache effects and a noisy box.
        let (small, large) = (load_and_drain(5_000), load_and_drain(20_000));
        assert!(
            large < small * 10,
            "20 000 WMEs took {large:?}, 5 000 took {small:?}: not linear"
        );
    }
}
