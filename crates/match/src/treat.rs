//! The TREAT matcher (Miranker 1984): alpha memories only, no stored
//! partial matches.
//!
//! TREAT keeps the same shared alpha network as Rete but no beta state.
//! When a WME arrives, instantiations are computed by joining the alpha
//! memories with the new WME pinned at each condition it matches; when a
//! WME is retracted, the conflict set is purged through TREAT's own
//! WME → instantiations index (Rete needs none), and rules whose
//! *negated* patterns lost a match are re-joined. This is the classic
//! state-versus-recomputation trade-off against [`crate::Rete`]; nothing
//! times it (DESIGN's X4 row). The engines match with Rete, and TREAT's
//! readers are two tests: `tests/matcher_equivalence.rs`, where it is
//! the oracle Rete is held to after every step, and
//! `partitioned_matcher_plugs_into_the_engine` (`tests/engines.rs`),
//! where it drives a single-thread run firing for firing like Rete. A
//! join yields whole instantiations, so TREAT keeps them, by key, beside
//! its conflict set (which, like Rete's, holds keys only) and hands out
//! clones of them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dps_rules::{match_ce, Bindings, Condition, Rule, RuleId, RuleSet};
use dps_wm::{Change, Wme, WmeId, WorkingMemory};

use crate::conflict::Site;
use crate::{AlphaMemId, AlphaNetwork, ConflictSet, InstKey, Instantiation, Matcher};

/// Per-rule compiled form: each condition with its alpha memory.
#[derive(Clone, Debug)]
struct CompiledRule {
    id: RuleId,
    rule: Rule,
    /// Alpha memory of each condition, in condition order.
    amems: Vec<AlphaMemId>,
}

/// Counters for the recomputation work TREAT performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreatStats {
    /// Candidate WMEs enumerated during joins.
    pub join_candidates: u64,
    /// Full rule re-joins triggered by negated-pattern retractions.
    pub rejoin_passes: u64,
}

/// The TREAT matcher. See the module docs.
#[derive(Clone, Debug)]
pub struct Treat {
    alpha: AlphaNetwork,
    rules: Vec<CompiledRule>,
    /// amem → (rule index, condition index) pairs reading it.
    readers: HashMap<AlphaMemId, Vec<(usize, usize)>>,
    conflict: ConflictSet,
    /// The instantiation of every key in `conflict`: the negation purge
    /// reads their bindings, and [`Matcher::instantiate`] clones them.
    insts: HashMap<InstKey, Instantiation>,
    /// WME → keys of the instantiations matching it, for the retraction
    /// purge. `insts` and `by_wme` are kept in step with `conflict` by
    /// [`Treat::insert`] / [`Treat::remove`].
    by_wme: HashMap<WmeId, HashSet<InstKey>>,
    stats: TreatStats,
}

impl Treat {
    /// Compiles `rules` and loads the initial working memory.
    pub fn new(rules: &RuleSet, wm: &WorkingMemory) -> Self {
        let mut alpha = AlphaNetwork::default();
        let mut compiled = Vec::new();
        let mut readers: HashMap<AlphaMemId, Vec<(usize, usize)>> = HashMap::new();
        for (id, rule) in rules.iter() {
            let amems: Vec<AlphaMemId> = rule
                .conditions
                .iter()
                .map(|c| alpha.register(c.ce()))
                .collect();
            for (ci, &amem) in amems.iter().enumerate() {
                readers.entry(amem).or_default().push((compiled.len(), ci));
            }
            compiled.push(CompiledRule {
                id,
                rule: rule.clone(),
                amems,
            });
        }
        let mut treat = Treat {
            alpha,
            rules: compiled,
            readers,
            conflict: ConflictSet::new(),
            insts: HashMap::new(),
            by_wme: HashMap::new(),
            stats: TreatStats::default(),
        };
        for wme in wm.handles() {
            treat.add_wme(Arc::clone(wme));
        }
        treat
    }

    /// Recomputation counters.
    pub fn stats(&self) -> TreatStats {
        self.stats
    }

    /// Recursive join over the rule's conditions. `pin` fixes one
    /// condition to one WME (the arriving one); `None` joins freely.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        cr: &CompiledRule,
        pin: Option<(usize, &Arc<Wme>)>,
        ci: usize,
        bindings: Bindings,
        acc: &mut Vec<Arc<Wme>>,
        out: &mut Vec<Instantiation>,
        candidates_seen: &mut u64,
    ) {
        if ci == cr.rule.conditions.len() {
            out.push(Instantiation {
                rule: cr.id,
                wmes: acc.clone(),
                bindings,
                salience: cr.rule.salience,
            });
            return;
        }
        let cond = &cr.rule.conditions[ci];
        let ce = cond.ce();
        match cond {
            Condition::Pos(_) => {
                if let Some((pinned_ci, w)) = pin {
                    if pinned_ci == ci {
                        *candidates_seen += 1;
                        if let Some(b) = match_ce(ce, w, &bindings) {
                            acc.push(Arc::clone(w));
                            self.join(cr, pin, ci + 1, b, acc, out, candidates_seen);
                            acc.pop();
                        }
                        return;
                    }
                }
                let mem = self.alpha.memory(cr.amems[ci]);
                for w in mem.wmes() {
                    *candidates_seen += 1;
                    if let Some(b) = match_ce(ce, w, &bindings) {
                        acc.push(Arc::clone(w));
                        self.join(cr, pin, ci + 1, b, acc, out, candidates_seen);
                        acc.pop();
                    }
                }
            }
            Condition::Neg(_) => {
                let mem = self.alpha.memory(cr.amems[ci]);
                let blocked = mem.wmes().any(|w| {
                    *candidates_seen += 1;
                    match_ce(ce, w, &bindings).is_some()
                });
                if !blocked {
                    self.join(cr, pin, ci + 1, bindings, acc, out, candidates_seen);
                }
            }
        }
    }

    fn compute_instantiations(
        &mut self,
        rule_idx: usize,
        pin: Option<(usize, &Arc<Wme>)>,
    ) -> Vec<Instantiation> {
        let cr = self.rules[rule_idx].clone();
        let mut out = Vec::new();
        let mut acc = Vec::new();
        let mut seen = 0u64;
        self.join(&cr, pin, 0, Bindings::new(), &mut acc, &mut out, &mut seen);
        self.stats.join_candidates += seen;
        out
    }

    /// Inserts into the conflict set and both indexes (idempotent).
    fn insert(&mut self, inst: Instantiation) {
        let key = inst.key();
        if !self.conflict.insert(key.clone(), inst.salience, Site::default()) {
            return;
        }
        for w in &inst.wmes {
            self.by_wme.entry(w.id).or_default().insert(key.clone());
        }
        self.insts.insert(key, inst);
    }

    /// Removes by key from the conflict set and both indexes.
    fn remove(&mut self, key: &InstKey) {
        let Some(inst) = self.insts.remove(key) else {
            return;
        };
        self.conflict.remove(key);
        for w in &inst.wmes {
            if let Some(set) = self.by_wme.get_mut(&w.id) {
                set.remove(key);
                if set.is_empty() {
                    self.by_wme.remove(&w.id);
                }
            }
        }
    }

    /// Removes every instantiation mentioning `id`; returns how many left.
    /// The index set is moved out whole, so no `InstKey` is cloned;
    /// [`Treat::remove`] tolerates the entry already being gone.
    fn remove_mentioning(&mut self, id: WmeId) -> usize {
        let keys = self.by_wme.remove(&id).unwrap_or_default();
        for k in &keys {
            self.remove(k);
        }
        keys.len()
    }

    fn add_wme(&mut self, wme: Arc<Wme>) {
        self.alpha.add_wme(&wme);
        let mut positive_sites: Vec<(usize, usize)> = Vec::new();
        let mut negative_rules: Vec<usize> = Vec::new();
        for amem in self.alpha.holding(&wme) {
            for &(ri, ci) in self.readers.get(&amem).into_iter().flatten() {
                if self.rules[ri].rule.conditions[ci].is_negated() {
                    negative_rules.push(ri);
                } else {
                    positive_sites.push((ri, ci));
                }
            }
        }
        // 1. The new WME may invalidate instantiations via negated CEs.
        negative_rules.sort_unstable();
        negative_rules.dedup();
        for ri in negative_rules {
            let cr = &self.rules[ri];
            let negated: Vec<usize> = cr
                .rule
                .conditions
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_negated())
                .map(|(i, _)| i)
                .collect();
            let rule_id = cr.id;
            let doomed: Vec<InstKey> = self
                .insts
                .iter()
                .filter(|(_, inst)| {
                    inst.rule == rule_id
                        && negated.iter().any(|&ci| {
                            let ce = self.rules[ri].rule.conditions[ci].ce();
                            match_ce(ce, &wme, &inst.bindings).is_some()
                        })
                })
                .map(|(key, _)| key.clone())
                .collect();
            for k in doomed {
                self.remove(&k);
            }
        }
        // 2. The new WME may enable instantiations at positive positions.
        for (ri, ci) in positive_sites {
            for inst in self.compute_instantiations(ri, Some((ci, &wme))) {
                self.insert(inst);
            }
        }
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let mut hits = Vec::new();
        self.alpha.remove_wme(&wme.data.class, wme.id, |mem| hits.push(mem));
        // 1. Drop everything that matched it positively.
        self.remove_mentioning(wme.id);
        // 2. Its disappearance may enable rules that it blocked via a
        //    negated CE: re-join those rules from scratch.
        let mut rejoin: Vec<usize> = Vec::new();
        for amem in hits {
            for &(ri, ci) in self.readers.get(&amem).into_iter().flatten() {
                if self.rules[ri].rule.conditions[ci].is_negated() {
                    rejoin.push(ri);
                }
            }
        }
        rejoin.sort_unstable();
        rejoin.dedup();
        for ri in rejoin {
            self.stats.rejoin_passes += 1;
            for inst in self.compute_instantiations(ri, None) {
                self.insert(inst); // idempotent
            }
        }
    }
}

impl Matcher for Treat {
    fn apply(&mut self, changes: &[Change]) {
        for change in changes {
            match change {
                Change::Added(w) => self.add_wme(Arc::clone(w)),
                Change::Removed(w) => self.remove_wme(w),
            }
        }
    }

    fn conflict_set(&self) -> &ConflictSet {
        &self.conflict
    }

    fn instantiate(&self, key: &InstKey) -> Option<Instantiation> {
        self.insts.get(key).cloned()
    }

    fn refract(&mut self, key: &InstKey) {
        self.remove(key);
        let alpha = &self.alpha;
        self.conflict.refract(key, |id, ts| alpha.holds(id, ts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_wm::WmeData;

    fn drive(rules_src: &str, script: impl FnOnce(&mut Treat, &mut WorkingMemory)) -> usize {
        let rules = RuleSet::parse(rules_src).unwrap();
        let mut wm = WorkingMemory::new();
        let mut treat = Treat::new(&rules, &wm);
        script(&mut treat, &mut wm);
        treat.conflict_set().len()
    }

    fn ins(t: &mut Treat, wm: &mut WorkingMemory, data: WmeData) -> WmeId {
        let w = wm.insert_full(data);
        let id = w.id;
        t.apply(&[Change::Added(w)]);
        id
    }

    fn del(t: &mut Treat, wm: &mut WorkingMemory, id: WmeId) {
        let w = wm.remove(id).unwrap();
        t.apply(&[Change::Removed(w)]);
    }

    #[test]
    fn basic_match() {
        let n = drive("(p r (job ^state open) --> (remove 1))", |t, wm| {
            ins(t, wm, WmeData::new("job").with("state", "open"));
            ins(t, wm, WmeData::new("job").with("state", "closed"));
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn join_and_retract() {
        let rules = RuleSet::parse("(p r (a ^k <x>) (b ^k <x>) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        let mut t = Treat::new(&rules, &wm);
        let a = ins(&mut t, &mut wm, WmeData::new("a").with("k", 1i64));
        ins(&mut t, &mut wm, WmeData::new("b").with("k", 1i64));
        assert_eq!(t.conflict_set().len(), 1);
        del(&mut t, &mut wm, a);
        assert!(t.conflict_set().is_empty());
    }

    #[test]
    fn negation_blocks_and_unblocks() {
        let rules = RuleSet::parse("(p r (go) -(hold) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        let mut t = Treat::new(&rules, &wm);
        ins(&mut t, &mut wm, WmeData::new("go"));
        assert_eq!(t.conflict_set().len(), 1);
        let h = ins(&mut t, &mut wm, WmeData::new("hold"));
        assert!(t.conflict_set().is_empty());
        del(&mut t, &mut wm, h);
        assert_eq!(t.conflict_set().len(), 1);
        assert!(t.stats().rejoin_passes >= 1);
    }

    #[test]
    fn negation_with_binding() {
        let rules = RuleSet::parse("(p r (job ^id <j>) -(lock ^job <j>) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        let mut t = Treat::new(&rules, &wm);
        ins(&mut t, &mut wm, WmeData::new("job").with("id", 1i64));
        ins(&mut t, &mut wm, WmeData::new("job").with("id", 2i64));
        assert_eq!(t.conflict_set().len(), 2);
        let l = ins(&mut t, &mut wm, WmeData::new("lock").with("job", 1i64));
        assert_eq!(t.conflict_set().len(), 1);
        del(&mut t, &mut wm, l);
        assert_eq!(t.conflict_set().len(), 2);
    }

    #[test]
    fn same_wme_at_two_positions_is_deduplicated() {
        let rules = RuleSet::parse("(p r (n ^v <x>) (n ^v <x>) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        let mut t = Treat::new(&rules, &wm);
        ins(&mut t, &mut wm, WmeData::new("n").with("v", 1i64));
        // (w,w) must appear exactly once despite being generated from two
        // pinned positions.
        assert_eq!(t.conflict_set().len(), 1);
    }

    #[test]
    fn initial_load_matches() {
        let rules = RuleSet::parse("(p r (x) (y) --> (remove 1))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("x"));
        wm.insert(WmeData::new("y"));
        let t = Treat::new(&rules, &wm);
        assert_eq!(t.conflict_set().len(), 1);
        let key = t.conflict_set().keys().next().unwrap();
        assert_eq!(key.wmes.len(), 2, "the one instantiation joins both loaded tuples");
    }

    fn inst(rule: u32, ids: &[u64]) -> Instantiation {
        Instantiation {
            rule: RuleId(rule),
            wmes: ids
                .iter()
                .map(|&i| {
                    Arc::new(Wme {
                        id: WmeId(i),
                        data: WmeData::new("c"),
                        timestamp: i,
                    })
                })
                .collect(),
            bindings: Bindings::new(),
            salience: 0,
        }
    }

    fn empty_treat() -> Treat {
        Treat::new(&RuleSet::new(), &WorkingMemory::new())
    }

    #[test]
    fn remove_mentioning_drops_all_users() {
        let mut t = empty_treat();
        t.insert(inst(0, &[1, 2]));
        t.insert(inst(1, &[2]));
        t.insert(inst(2, &[3]));
        assert_eq!(t.remove_mentioning(WmeId(2)), 2);
        assert_eq!(t.conflict_set().len(), 1);
        assert!(t.conflict_set().keys().next().unwrap().mentions(WmeId(3)));
        assert_eq!(
            t.remove_mentioning(WmeId(1)),
            0,
            "index entry went with wme 2's purge"
        );
    }

    #[test]
    fn index_stays_consistent_after_removals() {
        let mut t = empty_treat();
        let i = inst(0, &[1]);
        let k = i.key();
        t.insert(i.clone());
        t.insert(i);
        assert_eq!(t.conflict_set().len(), 1, "insert is idempotent");
        t.remove(&k);
        assert!(t.conflict_set().is_empty());
        assert_eq!(t.remove_mentioning(WmeId(1)), 0);
        assert!(t.by_wme.is_empty());
        assert!(t.insts.is_empty());
    }
}
