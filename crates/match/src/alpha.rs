//! The alpha network: constant tests and alpha memories, shared across
//! rules and across matchers (Rete and TREAT use the same structure).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use dps_rules::{ConditionElement, Predicate, RuleSet, TestAtom};
use dps_wm::{Atom, Timestamp, Value, Wme, WmeId, WorkingMemory};

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

/// Multiplicative hasher for tables keyed by ids the program itself
/// hands out (`WmeId`s, token slots): a few cycles per key instead of
/// SipHash, and — having no random state — the same iteration order on
/// every run. `finish` rotates the well-mixed high bits down to where
/// the table takes its bucket index, so strided ids do not cluster.
/// Tables keyed by attribute *values* (which clients choose) keep the
/// standard collision-resistant hasher.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed through [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` keyed through [`IdHasher`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// An index bucket / a memory's member list: shared WMEs by id.
type Members = IdMap<WmeId, Arc<Wme>>;

/// One alpha memory: the WMEs passing one class + constant-test
/// signature, shared by reference with every token and join candidate.
/// Membership, index-bucket insertion and removal are all O(1).
#[derive(Clone, Debug, Default)]
pub struct AlphaMemory {
    wmes: Members,
    /// Per-attribute value indexes (normalised keys), registered by join
    /// nodes that test equality on the attribute; a join keeps its
    /// index's position.
    indexes: Vec<(Atom, HashMap<Value, Members>)>,
}

impl AlphaMemory {
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
        let mut by_val: HashMap<Value, Members> = HashMap::new();
        for w in self.wmes.values() {
            let key = index_key(attr_of(w, attr.as_str())).into_owned();
            by_val.entry(key).or_default().insert(w.id, Arc::clone(w));
        }
        self.indexes.push((attr.clone(), by_val));
        self.indexes.len() - 1
    }

    /// Members whose (normalised) value of index `index`'s attribute
    /// equals `key`.
    pub fn lookup(&self, index: usize, key: &Value) -> impl Iterator<Item = &Arc<Wme>> + '_ {
        self.indexes[index]
            .1
            .get(key)
            .into_iter()
            .flat_map(IdMap::values)
    }

    fn insert(&mut self, wme: &Arc<Wme>) {
        self.remove(wme.id); // a re-assertion without a retraction replaces
        self.wmes.insert(wme.id, Arc::clone(wme));
        for (attr, by_val) in &mut self.indexes {
            let key = index_key(attr_of(wme, attr.as_str())).into_owned();
            by_val
                .entry(key)
                .or_default()
                .insert(wme.id, Arc::clone(wme));
        }
    }

    fn remove(&mut self, id: WmeId) -> bool {
        let Some(wme) = self.wmes.remove(&id) else {
            return false;
        };
        for (attr, by_val) in &mut self.indexes {
            let key = index_key(attr_of(&wme, attr.as_str()));
            if let Some(bucket) = by_val.get_mut(&*key) {
                bucket.remove(&id);
                if bucket.is_empty() {
                    by_val.remove(&*key);
                }
            }
        }
        true
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
        for wme in wm.iter() {
            net.add_wme(&Arc::new(wme.clone()));
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

    /// Adds a WME, returning the ids of the memories it entered (each
    /// holds a reference to the one shared copy).
    pub fn add_wme(&mut self, wme: &Arc<Wme>) -> Vec<AlphaMemId> {
        let mut hits = Vec::new();
        if let Some(candidates) = self.by_class.get(wme.class()) {
            for &id in candidates {
                if self.keys[id.0].matches(wme) {
                    self.mems[id.0].insert(wme);
                    hits.push(id);
                }
            }
        }
        hits
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

    /// Removes a WME, returning the ids of the memories it left.
    pub fn remove_wme(&mut self, class: &Atom, id: WmeId) -> Vec<AlphaMemId> {
        let mut hits = Vec::new();
        if let Some(candidates) = self.by_class.get(class) {
            for &mem in candidates {
                if self.mems[mem.0].remove(id) {
                    hits.push(mem);
                }
            }
        }
        hits
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

    #[test]
    fn add_routes_to_matching_memories() {
        let (mut net, ids) = net_with(&["(job ^state open)", "(job)"]);
        let hits = net.add_wme(&wme(1, "job", &[("state", Value::from("open"))]));
        assert_eq!(hits.len(), 2);
        let hits = net.add_wme(&wme(2, "job", &[("state", Value::from("closed"))]));
        assert_eq!(hits, vec![ids[1]]);
        let hits = net.add_wme(&wme(3, "task", &[]));
        assert!(hits.is_empty());
        assert_eq!(net.memory(ids[0]).len(), 1);
        assert_eq!(net.memory(ids[1]).len(), 2);
    }

    #[test]
    fn remove_reports_memories_left() {
        let (mut net, ids) = net_with(&["(job ^state open)"]);
        net.add_wme(&wme(1, "job", &[("state", Value::from("open"))]));
        let left = net.remove_wme(&Atom::from("job"), WmeId(1));
        assert_eq!(left, vec![ids[0]]);
        assert!(net.memory(ids[0]).is_empty());
        // Second removal is a no-op.
        assert!(net.remove_wme(&Atom::from("job"), WmeId(1)).is_empty());
    }

    #[test]
    fn numeric_constant_tests() {
        let (mut net, ids) = net_with(&["(m ^v > 4)"]);
        assert_eq!(
            net.add_wme(&wme(1, "m", &[("v", Value::Int(5))])),
            vec![ids[0]]
        );
        assert!(net
            .add_wme(&wme(2, "m", &[("v", Value::Int(3))]))
            .is_empty());
        assert!(
            net.add_wme(&wme(3, "m", &[])).is_empty(),
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
        net.remove_wme(&Atom::from("m"), WmeId(1));
        assert_eq!(bucket(net.memory(ids[0]), ix, Value::Int(3)), [2]);
        assert_eq!(net.memory(ids[0]).get(WmeId(2)).unwrap().id, WmeId(2));
        assert!(net.memory(ids[0]).get(WmeId(1)).is_none());
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
                    net.remove_wme(&class, w.id);
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
