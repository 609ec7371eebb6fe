//! Match shards: the rule partition's class-connected components packed
//! onto N independent Rete networks — and, where the budget leaves
//! shards spare, a component's disjoint join keys spread over several.
//!
//! The coordination-avoidance rule (Bailis et al.): rules whose
//! condition classes don't overlap need no coordination at all. The
//! union-find over shared classes ([`class_components`]) yields the
//! *finest* such partition by class; a [`ShardPlan`] folds those
//! components onto a bounded number of shards so each shard can sit
//! behind its own mutex with its own conflict-set slice. This is the
//! crate's one rule partition: the paper's §2 intra-phase match
//! parallelism is these shards matched by concurrent workers through
//! `dps-core`'s pipeline (measured by `matchbench`). The same argument
//! holds one level down: when every condition element of a component
//! joins on one *key* attribute per class (see [`partition_keys`]),
//! instantiations
//! over different key values share no tuple, so the component is
//! **key-partitioned** — replicated over the spare shards, each tuple
//! routed to the one replica its key value hashes to. Shard Retes are
//! built with [`Rete::compile`], so they emit **global** rule ids
//! natively — there is no local→global translation and no merged
//! conflict set to refresh; the shards' conflict sets are disjoint
//! slices whose union *is* the monolithic conflict set.
//!
//! [`ShardedRete`] is the serial composition of a plan and its Retes —
//! the differential-testing vehicle (sharded ≡ monolithic, see
//! `tests/match_shard.rs`) and the substrate `dps-core`'s parallel
//! engine wraps one mutex around per shard.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::ops::Range;

use dps_rules::analysis::commutes;
use dps_rules::{Condition, Predicate, Rule, RuleId, RuleSet, TestAtom, VarName};
use dps_wm::{Atom, Change, IdHasher, Value, Wme, WorkingMemory};

use crate::alpha::{attr_of, index_key};
use crate::{InstKey, Matcher, Rete};

/// Default shard count for the sharded match pipeline. Eight matches
/// the workspace's other sharding defaults; a plan never has more
/// shards than components unless a component is key-partitioned, so
/// small rule sets never pay for empty shards.
pub const DEFAULT_MATCH_SHARDS: usize = 8;

/// Union-find partition of rule indices joined through shared classes
/// (every class a rule names: [`dps_rules::analysis::RuleAccess::classes`]):
/// returns the class-connected components, deterministically ordered by
/// their smallest rule index.
pub(crate) fn class_components(rules: &RuleSet) -> Vec<Vec<usize>> {
    let n = rules.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut class_owner: HashMap<Atom, usize> = HashMap::new();
    for (id, _) in rules.iter() {
        let i = id.0 as usize;
        for class in &rules.access(id).classes {
            match class_owner.get(class) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
                None => {
                    class_owner.insert(class.clone(), i);
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|g| g[0]);
    out
}

/// Per-rule elidability from the static commute matrix: a rule may skip
/// the lock manager iff *every* pair inside its class-connected
/// component — the diagonal included — commutes
/// ([`dps_rules::analysis::commutes`]).
/// All-pairs is the sound quantifier: concurrency is per component, so
/// any two firings of component rules can interleave, and a single
/// non-commuting pair means lock-holding and lock-skipping firings
/// could meet on the same resource.
fn elidable_components(rules: &RuleSet, components: &[Vec<usize>]) -> Vec<bool> {
    let access = |i: usize| rules.access(RuleId(i as u32));
    let mut elidable = vec![false; rules.len()];
    for members in components {
        let all_commute = members.iter().enumerate().all(|(k, &i)| {
            members[k..].iter().all(|&j| commutes(access(i), access(j)))
        });
        if all_commute {
            for &m in members {
                elidable[m] = true;
            }
        }
    }
    elidable
}

/// The partitionability judgment for one class-connected component:
/// the key attribute of every class with a condition element in it, or
/// `None` when the component must stay on one shard.
///
/// A component is key-partitionable when each such class has one
/// attribute such that, in every rule, every CE — positive and negated
/// — binds its class's attribute by plain equality (`^attr <v>`) to one
/// and the same variable of that rule; at least one rule really joins
/// on it (≥ 2 CEs — a component of single-CE rules has no join to keep
/// together); and no rule `modify`s a key attribute. Every tuple of an
/// instantiation, and every tuple that could block one of its negated
/// CEs, then carries a loose-equal key value, so tuples of different
/// key values never meet in a join.
fn partition_keys(rules: &RuleSet, members: &[usize]) -> Option<BTreeMap<Atom, Atom>> {
    // (class, attribute) pairs some rule's `modify` overwrites: its
    // delta and absolute writes that name an attribute (a `remove`
    // writes the whole class).
    let written: HashSet<(&Atom, &Atom)> = members
        .iter()
        .map(|&m| rules.access(RuleId(m as u32)))
        .flat_map(|a| a.delta_writes.iter().chain(a.absolute_writes.iter()))
        .filter_map(|(class, attr)| Some((class, attr.as_ref()?)))
        .collect();
    let members: Vec<&Rule> = members.iter().map(|&m| &rules.rules()[m]).collect();
    if members.iter().all(|r| r.conditions.len() < 2) {
        return None;
    }
    let mut keys = BTreeMap::new();
    assign_keys(&members, &written, &mut keys).then_some(keys)
}

/// Depth-first search for [`partition_keys`]: picks the first rule's
/// key variable among those its first CE binds (a key variable occurs
/// in every CE, the first included), then — in [`bind_conditions`] —
/// the key attribute of each class not fixed yet, backing out of
/// choices a later CE or rule cannot live with. Candidates are tried in
/// rule-text order, so the result is a pure function of the rules.
fn assign_keys<'r>(
    rules: &[&'r Rule],
    written: &HashSet<(&'r Atom, &'r Atom)>,
    keys: &mut BTreeMap<Atom, Atom>,
) -> bool {
    let Some((rule, rest)) = rules.split_first() else {
        return true;
    };
    let vars: Vec<&VarName> = rule.conditions[0].ce().bindable_vars().collect();
    vars.into_iter()
        .any(|var| bind_conditions(var, &rule.conditions, rest, written, keys))
}

fn bind_conditions<'r>(
    var: &VarName,
    conditions: &'r [Condition],
    rest: &[&'r Rule],
    written: &HashSet<(&'r Atom, &'r Atom)>,
    keys: &mut BTreeMap<Atom, Atom>,
) -> bool {
    let Some((cond, later)) = conditions.split_first() else {
        return assign_keys(rest, written, keys);
    };
    let ce = cond.ce();
    // Attributes this CE binds to `var` by plain equality.
    let mut bound = ce
        .tests
        .iter()
        .filter_map(|t| match (&t.predicate, &t.operand) {
            (Predicate::Eq, TestAtom::Var(v)) if v == var => Some(&t.attr),
            _ => None,
        });
    match keys.get(&ce.class).cloned() {
        Some(key) => {
            bound.any(|attr| *attr == key) && bind_conditions(var, later, rest, written, keys)
        }
        None => bound
            .filter(|&attr| !written.contains(&(&ce.class, attr)))
            .any(|attr| {
                keys.insert(ce.class.clone(), attr.clone());
                let fits = bind_conditions(var, later, rest, written, keys);
                if !fits {
                    keys.remove(&ce.class);
                }
                fits
            }),
    }
}

/// The partition (of `width`) a key value belongs to: a pure function
/// of the value's normalised form ([`index_key`]), so loose-equal values
/// — the ones an equality join pairs — share a partition, on every run.
fn key_slot(value: &Value, width: usize) -> usize {
    // `IdHasher::finish` rotates its 26 best-mixed bits (the top of a
    // multiplicative hash) down to the low end; scaling those onto the
    // range, instead of taking a remainder, spreads dense integer keys
    // almost evenly.
    const BITS: u32 = 26;
    let hash = BuildHasherDefault::<IdHasher>::default().hash_one(&*index_key(value));
    (((hash & ((1 << BITS) - 1)) * width as u64) >> BITS) as usize
}

/// Where a class's tuples go.
#[derive(Clone, Debug)]
enum Route {
    /// Every tuple of the class, to one shard.
    Shard(usize),
    /// The class belongs to a key-partitioned component replicated on
    /// shards `first..first + width`: a tuple goes to the replica its
    /// `attr` value selects ([`key_slot`]; an absent attribute reads as
    /// `Nil`, as it does to the matcher).
    Keyed {
        attr: Atom,
        first: usize,
        width: usize,
    },
}

/// The static shard layout: which rules live on which shard, and which
/// shard a working-memory tuple routes to.
///
/// Two levels. Components are assigned round-robin in deterministic
/// component order; with no more shards than components the plan folds
/// (and `shards = 1` collapses to the monolithic layout — the recovery
/// knob the benchmarks measure). Shards beyond the component count are
/// dealt, as evenly as they go, to the key-partitionable components
/// (`partition_keys`): such a component's rules are replicated on
/// each of its shards and its tuples are routed by key value. With no
/// partitionable component the spare shards are not created — a plan
/// never contains a shard without rules.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `rules_per_shard[s]` = global rule ids on shard `s`, ascending.
    rules_per_shard: Vec<Vec<RuleId>>,
    /// class → where its tuples go; classes no rule matches on route
    /// nowhere.
    routes: HashMap<Atom, Route>,
    /// rule index → the shards holding it (one, unless its component is
    /// key-partitioned).
    shards_of_rule: Vec<Range<usize>>,
    /// Number of class-connected components.
    components: usize,
    /// Shards that are key partitions of a split component.
    partitions: usize,
    /// rule index → provably elidable (see [`ShardPlan::elidable`]).
    elidable_rule: Vec<bool>,
}

impl ShardPlan {
    /// Computes the plan for `rules` over at most `shards` shards — a
    /// pure function of its arguments.
    pub fn new(rules: &RuleSet, shards: usize) -> Self {
        let components = class_components(rules);
        let spare = shards.saturating_sub(components.len().max(1));
        // The judgment only matters when there is a shard to split onto.
        let keys: Vec<Option<BTreeMap<Atom, Atom>>> = components
            .iter()
            .map(|members| {
                (spare > 0)
                    .then(|| partition_keys(rules, members))
                    .flatten()
            })
            .collect();
        let split = keys.iter().flatten().count();
        let mut dealt = 0;
        let widths: Vec<usize> = keys
            .iter()
            .map(|k| match k {
                Some(_) => {
                    dealt += 1;
                    1 + spare / split + usize::from(dealt <= spare % split)
                }
                None => 1,
            })
            .collect();
        let n_shards = match split {
            0 => shards.clamp(1, components.len().max(1)),
            _ => shards,
        };
        let mut rules_per_shard: Vec<Vec<RuleId>> = vec![Vec::new(); n_shards];
        let mut shards_of_rule = vec![0..1; rules.len()];
        let mut routes: HashMap<Atom, Route> = HashMap::new();
        let mut next = 0;
        for ((members, key_of), width) in components.iter().zip(&keys).zip(&widths) {
            // Folding wraps round-robin; a split plan has a shard per
            // width and never wraps.
            let first = next % n_shards;
            next += width;
            for &m in members {
                for shard_rules in &mut rules_per_shard[first..first + width] {
                    shard_rules.push(RuleId(m as u32));
                }
                shards_of_rule[m] = first..first + width;
                for class in &rules.access(RuleId(m as u32)).classes {
                    let route = match key_of {
                        None => Route::Shard(first),
                        // A class the component only `make`s has no key
                        // and no CE: nothing matches on it.
                        Some(key_of) => match key_of.get(class) {
                            Some(attr) => Route::Keyed {
                                attr: attr.clone(),
                                first,
                                width: *width,
                            },
                            None => continue,
                        },
                    };
                    routes.insert(class.clone(), route);
                }
            }
        }
        for shard_rules in &mut rules_per_shard {
            shard_rules.sort_unstable();
        }
        let elidable_rule = elidable_components(rules, &components);
        ShardPlan {
            rules_per_shard,
            routes,
            shards_of_rule,
            components: components.len(),
            partitions: widths.iter().filter(|&&w| w > 1).sum(),
            elidable_rule,
        }
    }

    /// Number of shards in the plan (≥ 1, ≤ requested).
    pub fn shards(&self) -> usize {
        self.rules_per_shard.len()
    }

    /// Number of class-connected components the plan was laid out from.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Number of shards that are key partitions of a split component
    /// (0 when no component is split).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Global rule ids on shard `s`, ascending.
    pub fn rules_of(&self, s: usize) -> &[RuleId] {
        &self.rules_per_shard[s]
    }

    /// The shards holding a rule: one, or — when its component is
    /// key-partitioned — every partition, each owning the
    /// instantiations over the key values routed to it.
    pub fn shards_of(&self, rule: RuleId) -> Range<usize> {
        self.shards_of_rule
            .get(rule.0 as usize)
            .cloned()
            .unwrap_or(0..1)
    }

    /// `true` when every firing of `rule` provably commutes with every
    /// firing that can run concurrently — i.e. the static commute matrix
    /// over the rule's class-connected component is all-true (including
    /// the diagonal). Rules in *other* components share no classes, so
    /// they commute trivially; a whole component therefore either elides
    /// or locks — never a mix, which keeps the §4 doom protocol's
    /// lock-order argument intact for the locking rules.
    pub fn elidable(&self, rule: RuleId) -> bool {
        self.elidable_rule
            .get(rule.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Number of rules the commute matrix proved elidable.
    pub fn elidable_count(&self) -> usize {
        self.elidable_rule.iter().filter(|&&e| e).count()
    }

    /// The one shard whose rules can match on `wme`; `None` for a class
    /// no rule matches on.
    pub fn route(&self, wme: &Wme) -> Option<usize> {
        match self.routes.get(wme.class())? {
            Route::Shard(s) => Some(*s),
            Route::Keyed { attr, first, width } => {
                Some(first + key_slot(attr_of(wme, attr.as_str()), *width))
            }
        }
    }

    /// Shards a change batch routes to (ascending, deduplicated).
    pub fn affected(&self, changes: &[Change]) -> Vec<usize> {
        let mut out: Vec<usize> = changes.iter().filter_map(|c| self.route(c.wme())).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Feeds shard `s`'s network the changes of a batch that route to
    /// it, in batch order — a `Removed` by the tuple's old value, an
    /// `Added` by its new one, so a tuple whose key changed leaves one
    /// partition and enters another.
    pub fn feed(&self, s: usize, rete: &mut Rete, changes: &[Change]) {
        for change in changes {
            if self.route(change.wme()) == Some(s) {
                rete.apply(std::slice::from_ref(change));
            }
        }
    }

    /// Builds the per-shard Rete networks over the initial working
    /// memory, in shard order: one pass over the working memory, each
    /// tuple loaded into the one shard it routes to. Each network
    /// speaks global rule ids (see [`Rete::compile`]).
    pub fn build(&self, rules: &RuleSet, wm: &WorkingMemory) -> Vec<Rete> {
        let mut retes: Vec<Rete> = (0..self.shards())
            .map(|s| {
                Rete::compile(
                    self.rules_of(s)
                        .iter()
                        .map(|&id| (id, rules.get(id).expect("plan ids come from this set"))),
                )
            })
            .collect();
        for wme in wm.handles() {
            if let Some(s) = self.route(wme) {
                retes[s].insert(wme);
            }
        }
        retes
    }
}

/// A plan plus its per-shard Retes, driven serially: the reference
/// composition the equivalence property tests pin against a monolithic
/// [`Rete`], and the shape `dps-core` parallelises by giving each shard
/// its own mutex and inbox.
pub struct ShardedRete {
    plan: ShardPlan,
    shards: Vec<Rete>,
}

impl ShardedRete {
    /// Lays `rules` out over at most `shards` shards and loads each
    /// initial tuple into the shard it routes to.
    pub fn new(rules: &RuleSet, wm: &WorkingMemory, shards: usize) -> Self {
        let plan = ShardPlan::new(rules, shards);
        let shards = plan.build(rules, wm);
        ShardedRete { plan, shards }
    }

    /// The shard layout.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// One shard's network (its conflict set is the authoritative slice
    /// for that shard's rules).
    pub fn shard(&self, s: usize) -> &Rete {
        &self.shards[s]
    }

    /// Applies a change batch, feeding each affected shard the changes
    /// routed to it; returns how many shards ran their networks.
    pub fn apply(&mut self, changes: &[Change]) -> usize {
        let affected = self.plan.affected(changes);
        for &s in &affected {
            self.plan.feed(s, &mut self.shards[s], changes);
        }
        affected.len()
    }

    /// Total conflict-set size across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.conflict_set().len()).sum()
    }

    /// `true` when every shard's conflict-set slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The union of the per-shard conflict-set slices, as keys (shards
    /// are disjoint by construction, so this is a disjoint union).
    pub fn conflict_keys(&self) -> BTreeSet<InstKey> {
        self.shards
            .iter()
            .flat_map(|s| s.conflict_set().keys().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_wm::WmeData;

    const CORPUS: &str = r#"
        (p fam1-a (a ^k <x>) (b ^k <x>) --> (remove 1))
        (p fam1-b (b ^k <x>) --> (remove 1))
        (p fam2-a (c ^k <x>) -(d ^k <x>) --> (remove 1))
        (p fam3-a (e ^k <x>) --> (make f ^k <x>))
        (p fam3-b (f ^k <x>) --> (remove 1))
    "#;

    #[test]
    fn plan_folds_components_round_robin() {
        let rules = RuleSet::parse(CORPUS).unwrap();
        // 3 components ({a,b}, {c,d}, {e,f}) folded onto 2 shards.
        let plan = ShardPlan::new(&rules, 2);
        assert_eq!(plan.components(), 3);
        assert_eq!(plan.shards(), 2);
        let total: usize = (0..plan.shards()).map(|s| plan.rules_of(s).len()).sum();
        assert_eq!(total, rules.len());
        // Every rule's owning shard agrees with the per-shard lists.
        for s in 0..plan.shards() {
            for &id in plan.rules_of(s) {
                assert_eq!(plan.shards_of(id), s..s + 1);
            }
        }
    }

    #[test]
    fn spare_shards_go_to_partitionable_components_only() {
        let rules = RuleSet::parse(CORPUS).unwrap();
        assert_eq!(ShardPlan::new(&rules, 1).shards(), 1);
        // fam1 (an equality join) and fam2 (a negated CE on the key)
        // split; fam3's single-CE rules keep one shard.
        let plan = ShardPlan::new(&rules, 8);
        assert_eq!(
            (plan.components(), plan.shards(), plan.partitions()),
            (3, 8, 7)
        );
        let width = |name: &str| plan.shards_of(rules.id_of(name).unwrap()).len();
        assert_eq!(
            (width("fam1-a"), width("fam1-b")),
            (4, 4),
            "a component splits whole"
        );
        assert_eq!(
            (width("fam2-a"), width("fam3-a"), width("fam3-b")),
            (3, 1, 1)
        );
        for s in 0..plan.shards() {
            assert!(!plan.rules_of(s).is_empty(), "no shard without rules");
            for &id in plan.rules_of(s) {
                assert!(plan.shards_of(id).contains(&s));
            }
        }
        // Nothing partitionable: the count still clamps to components.
        let rules =
            RuleSet::parse("(p r1 (a ^k <x>) --> (remove 1)) (p r2 (b) --> (remove 1))").unwrap();
        let plan = ShardPlan::new(&rules, 64);
        assert_eq!(
            (plan.shards(), plan.partitions()),
            (2, 0),
            "no empty shards"
        );
    }

    /// The shards one rule set's single component spreads over at 8.
    fn split_width(src: &str) -> usize {
        let rules = RuleSet::parse(src).unwrap();
        let plan = ShardPlan::new(&rules, 8);
        assert_eq!(plan.components(), 1, "{src}");
        plan.shards()
    }

    #[test]
    fn partitionability_judgment() {
        const CHARGE: &str =
            "(p charge (task ^res <r> ^left { > 0 <n> }) (tally ^id <r> ^count <c>)
            --> (modify 1 ^left (- <n> 1)) (modify 2 ^count (+ <c> 1)))";
        const APPLY: &str = "(p apply (delta ^key <k> ^v <v>) (acc ^key <k> ^total <t>)
            --> (remove 1) (modify 2 ^total (+ <t> <v>)))";
        assert_eq!(split_width(CHARGE), 8, "task ^res / tally ^id");
        assert_eq!(split_width(APPLY), 8, "^key on both classes");
        // A join over two variables: either works, the first is taken.
        assert_eq!(
            split_width("(p r (a ^k <x> ^g <y>) (b ^g <y> ^k <x>) --> (remove 1))"),
            8
        );
        // The key choice backs out of `k` (which `s` cannot join on).
        let two = "(p r (a ^k <x> ^g <y>) (b ^k <x> ^g <y>) --> (remove 1))
                   (p s (a ^g <z>) (c ^g <z>) --> (remove 2))";
        assert_eq!(split_width(two), 8);
        for (why, src) in [
            (
                "visit-g/fold-g: no variable in every CE, and a key-less negated CE",
                "(p visit (cursor ^at <i>) (kind ^kind <k> ^w <w>)
                    (item ^id <i> ^kind <k> ^next <j>) -(out)
                   --> (modify 1 ^at <j>) (make out ^id <i> ^w <w>))
                 (p fold (out ^id <i> ^w <w>) (sum ^total <s>)
                   --> (remove 1) (modify 2 ^total (+ <s> <w>)))",
            ),
            (
                "a rule writes the key attribute",
                "(p move (job ^stage <s>) (route ^from <s> ^to <n>) --> (modify 1 ^stage <n>))",
            ),
            ("a predicate join", "(p r (a ^k <x>) (b ^k > <x>) --> (remove 1))"),
            ("a key-less negated CE", "(p r (c ^k <x>) (d ^k <x>) -(veto) --> (remove 1))"),
            ("a lone single-CE rule", "(p r (a ^k <x>) --> (remove 1))"),
            (
                "one class, two attributes",
                "(p r (a ^k <x>) (b ^k <x>) --> (remove 1)) (p s (a ^j <y>) (b ^k <y>) --> (remove 1))",
            ),
            ("a constant where the key should be", "(p r (a ^k <x>) (b ^k 3) --> (remove 1))"),
        ] {
            assert_eq!(split_width(src), 1, "{why}");
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_rules_and_shards() {
        let rules = RuleSet::parse(CORPUS).unwrap();
        let mut wm = WorkingMemory::new();
        let tuples: Vec<_> = (0..64i64)
            .map(|k| {
                wm.insert_full(WmeData::new(["a", "b", "c", "d"][k as usize % 4]).with("k", k / 4))
            })
            .collect();
        for shards in [1, 2, 3, 8, 16] {
            let (p, q) = (
                ShardPlan::new(&rules, shards),
                ShardPlan::new(&rules, shards),
            );
            assert_eq!(p.rules_per_shard, q.rules_per_shard);
            let routes =
                |plan: &ShardPlan| tuples.iter().map(|w| plan.route(w)).collect::<Vec<_>>();
            assert_eq!(routes(&p), routes(&q), "{shards} shards");
        }
    }

    #[test]
    fn keyed_routing_follows_loose_equality_and_spreads_dense_keys() {
        let rules = RuleSet::parse(CORPUS).unwrap();
        let plan = ShardPlan::new(&rules, 64);
        let mut wm = WorkingMemory::new();
        let mut route = |class: &str, k: Value| {
            plan.route(&wm.insert_full(WmeData::new(class).with("k", k)))
                .unwrap()
        };
        // What an equality join pairs, routing keeps together.
        assert_eq!(route("a", Value::Int(2)), route("b", Value::Float(2.0)));
        assert_eq!(route("c", Value::from("x")), route("d", Value::from("x")));
        // Components never share a shard; an absent key routes as `Nil`.
        assert_ne!(route("a", Value::Int(2)), route("c", Value::Int(2)));
        let bare = wm.insert_full(WmeData::new("a"));
        assert!(plan
            .shards_of(rules.id_of("fam1-a").unwrap())
            .contains(&plan.route(&bare).unwrap()));
        // Eight dense integer keys over eight partitions: not all on a few.
        let plan = ShardPlan::new(
            &RuleSet::parse("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))").unwrap(),
            8,
        );
        let hit: BTreeSet<usize> = (0..8i64)
            .map(|k| {
                plan.route(&wm.insert_full(WmeData::new("a").with("k", k)))
                    .unwrap()
            })
            .collect();
        assert!(hit.len() >= 6, "dense keys landed on {hit:?}");
    }

    #[test]
    fn a_changed_key_moves_the_tuple_between_partitions() {
        let rules = RuleSet::parse("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        let mut sharded = ShardedRete::new(&rules, &wm, 8);
        let plan = sharded.plan().clone();
        let mut mono = Rete::new(&rules, &wm);
        let a = wm.insert_full(WmeData::new("a").with("k", 0i64));
        let b = wm.insert_full(WmeData::new("b").with("k", 5i64));
        let mut step = |changes: Vec<Change>| {
            mono.apply(&changes);
            sharded.apply(&changes);
            let keys: BTreeSet<InstKey> = mono.conflict_set().keys().cloned().collect();
            assert_eq!(sharded.conflict_keys(), keys);
            keys.len()
        };
        assert_eq!(step(vec![Change::Added(a.clone()), Change::Added(b)]), 0);
        let mut delta = dps_wm::DeltaSet::new();
        delta.modify(a.id, [(Atom::from("k"), Value::Int(5))]);
        let moved = wm.apply(&delta).unwrap();
        assert_eq!(plan.affected(&moved).len(), 2, "old and new partition");
        assert_eq!(step(moved), 1, "the join completes in the new partition");
    }

    #[test]
    fn routes_cover_negated_and_make_classes() {
        let rules = RuleSet::parse(CORPUS).unwrap();
        let plan = ShardPlan::new(&rules, 3);
        let mut wm = WorkingMemory::new();
        // `d` appears only inside a negated CE; `f` is a make target.
        for class in ["a", "b", "c", "d", "e", "f"] {
            let w = wm.insert_full(WmeData::new(class).with("k", 1i64));
            assert_eq!(
                plan.affected(&[Change::Added(w)]).len(),
                1,
                "class {class} must route to its component's shard"
            );
        }
        // Unknown classes route nowhere.
        let w = wm.insert_full(WmeData::new("zzz-unknown"));
        assert!(plan.affected(&[Change::Added(w)]).is_empty());
    }

    #[test]
    fn sharded_initial_load_matches_monolithic() {
        let rules = RuleSet::parse(CORPUS).unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("b").with("k", 1i64));
        wm.insert(WmeData::new("c").with("k", 1i64));
        wm.insert(WmeData::new("e").with("k", 2i64));
        for shards in [1, 2, 3, 8] {
            let sharded = ShardedRete::new(&rules, &wm, shards);
            let mono = Rete::new(&rules, &wm);
            let mono_keys: BTreeSet<InstKey> =
                mono.conflict_set().keys().cloned().collect();
            assert_eq!(sharded.conflict_keys(), mono_keys, "{shards} shards");
            assert_eq!(sharded.len(), mono.conflict_set().len());
        }
    }

    #[test]
    fn global_rule_ids_survive_sharding() {
        let rules = RuleSet::parse(CORPUS).unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("e").with("k", 7i64));
        let sharded = ShardedRete::new(&rules, &wm, 3);
        let fam3 = rules.id_of("fam3-a").unwrap();
        let shard = sharded.shard(sharded.plan().shards_of(fam3).start);
        let inst = shard.conflict_set().keys().next().unwrap();
        assert_eq!(inst.rule, fam3, "shard Retes speak global ids");
    }

    #[test]
    fn commute_matrix_marks_counter_and_make_components() {
        let rules = RuleSet::parse(
            r#"
            (p bump (ctr ^n <n> ^more yes) --> (modify 1 ^n (+ <n> 1)))
            (p emit (src ^k <x>) --> (make sink ^k <x>))
            (p store (cell ^v <v>) --> (modify 1 ^v 0))
            "#,
        )
        .unwrap();
        let plan = ShardPlan::new(&rules, 8);
        assert!(plan.elidable(rules.id_of("bump").unwrap()), "counter bump");
        assert!(plan.elidable(rules.id_of("emit").unwrap()), "pure make");
        assert!(
            !plan.elidable(rules.id_of("store").unwrap()),
            "absolute write never elides"
        );
        assert_eq!(plan.elidable_count(), 2);
    }

    #[test]
    fn one_bad_pair_locks_the_whole_component() {
        // bump alone would elide, but it shares `ctr` with an absolute
        // writer: the component's matrix has a false entry, so both lock.
        let rules = RuleSet::parse(
            r#"
            (p bump (ctr ^n <n>) --> (modify 1 ^n (+ <n> 1)))
            (p reset (ctr ^n > 100) --> (modify 1 ^n 0))
            "#,
        )
        .unwrap();
        let plan = ShardPlan::new(&rules, 8);
        assert_eq!(plan.elidable_count(), 0);
    }

    #[test]
    fn legacy_corpus_is_never_elidable() {
        // Removes and a negated CE throughout: the matrix proves nothing.
        let rules = RuleSet::parse(CORPUS).unwrap();
        let plan = ShardPlan::new(&rules, 3);
        assert_eq!(plan.elidable_count(), 0);
    }

    #[test]
    fn unaffected_shards_do_not_run() {
        let rules = RuleSet::parse(CORPUS).unwrap();
        let mut wm = WorkingMemory::new();
        let mut sharded = ShardedRete::new(&rules, &wm, 3);
        let w = wm.insert_full(WmeData::new("b").with("k", 0i64));
        assert_eq!(sharded.apply(&[Change::Added(w)]), 1, "one shard fans in");
        assert_eq!(sharded.len(), 1, "only fam1-b fires");
    }
}
