//! The *world* — the database half of every engine: working memory plus
//! the incremental matcher that mirrors it.
//!
//! The two serial engines (single-thread and static-parallel) commit
//! through one skeleton — apply the delta to WM, drive the matcher with
//! the resulting changes, refract the fired instantiation, append to the
//! trace — [`World::commit`]. The WM and the matcher are one unit there:
//! the matcher's state is a function of the change stream, so the two
//! are only ever observed in lock-step.
//!
//! The dynamic engine keeps its WM and its matchers apart: it commits
//! through `ParallelEngine::commit_section` and its match state lives in
//! the sharded `pipeline`. What all three engines share is
//! [`Refraction`] (the dynamic engine keeps one per match shard), which
//! the §3 oracle uses too.

use std::collections::HashSet;

use dps_match::{InstKey, Matcher, Rete};
use dps_wm::WorkingMemory;

use crate::{Firing, Trace};

/// Working memory plus the matcher that mirrors it.
#[derive(Clone, Debug)]
pub(crate) struct World<M: Matcher = Rete> {
    pub wm: WorkingMemory,
    pub matcher: M,
}

impl<M: Matcher> World<M> {
    /// The commit-time skeleton shared by every engine: atomically (from
    /// the caller's locking point of view) apply the firing's delta to
    /// WM, feed the changes to the matcher, refract the instantiation,
    /// and record the firing in `trace`.
    pub fn commit(&mut self, refracted: &mut Refraction, trace: &mut Trace, firing: Firing) {
        let changes = self
            .wm
            .apply(&firing.delta)
            .expect("committed firing only touches live WMEs");
        self.matcher.apply(&changes);
        refracted.insert(firing.key.clone(), &self.matcher);
        trace.firings.push(firing);
    }
}

/// The refraction set of one conflict set: keys that fired (or failed
/// to evaluate) and must not fire again. Every engine bounds it by the
/// same rule: once it reaches a trigger, a key is dropped when one of
/// its `(id, timestamp)` pairs is no longer held by the matcher the set
/// belongs to ([`Matcher::holds`]; ids and timestamps are never reused,
/// so such a key can never match again), and the trigger doubles with
/// the surviving size — a set whose keys stay live is swept O(log n)
/// times, not once per firing. A key that merely left the conflict set
/// survives: a negated CE can block an instantiation and later let the
/// same key back in.
#[derive(Clone, Debug, Default)]
pub(crate) struct Refraction {
    keys: HashSet<InstKey>,
    /// Twice the size the last sweep left; the trigger is this or 1024,
    /// whichever is larger.
    gc_at: usize,
}

impl Refraction {
    /// Refracts `key`, then sweeps against `matcher` if the trigger is
    /// reached.
    pub fn insert(&mut self, key: InstKey, matcher: &impl Matcher) {
        self.keys.insert(key);
        if self.keys.len() >= self.gc_at.max(1024) {
            self.keys.retain(|k| k.wmes.iter().all(|&(id, ts)| matcher.holds(id, ts)));
            self.gc_at = self.keys.len() * 2;
        }
    }

    /// Whether `key` is refracted.
    pub fn contains(&self, key: &InstKey) -> bool {
        self.keys.contains(key)
    }

    /// The refracted keys.
    pub fn keys(&self) -> &HashSet<InstKey> {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::{instantiate_actions, RuleSet};
    use dps_wm::{Change, Value, WmeData};

    #[test]
    fn commit_applies_delta_and_refracts() {
        let rules = RuleSet::parse("(p bump (c ^n <n>) --> (modify 1 ^n (+ <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("c").with("n", 0i64));
        let matcher = Rete::new(&rules, &wm);
        let mut world = World { wm, matcher };
        let key = world.matcher.conflict_set().keys().next().unwrap().clone();
        let inst = world.matcher.instantiate(&key).unwrap();
        let rule = rules.get(inst.rule).unwrap();
        let (delta, halt) = instantiate_actions(rule, &inst.bindings, &inst.wmes).unwrap();
        let mut refracted = Refraction::default();
        let mut trace = Trace::default();
        world.commit(
            &mut refracted,
            &mut trace,
            Firing {
                rule: inst.rule,
                rule_name: rule.name.clone(),
                key: key.clone(),
                delta,
                halt,
                external: false,
            },
        );
        assert!(refracted.contains(&key));
        assert_eq!(trace.len(), 1);
        let c = world.wm.class_iter("c").next().unwrap();
        assert_eq!(c.get("n"), Some(&Value::Int(1)));
        // The matcher tracked the modify: a fresh instantiation exists
        // and the old key is gone from the conflict set.
        assert!(!world.matcher.conflict_set().contains(&key));
        assert_eq!(world.matcher.conflict_set().len(), 1);
    }

    #[test]
    fn gc_drops_only_dead_keys_past_its_trigger() {
        let rules = RuleSet::parse("(p keep (c) --> (make log))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("c"));
        let matcher = Rete::new(&rules, &wm);
        let live = matcher.conflict_set().keys().next().unwrap().clone();
        let dead = |n: u64| InstKey {
            rule: live.rule,
            wmes: [(dps_wm::WmeId(n), 0)].into(),
        };
        let mut refracted = Refraction::default();
        refracted.insert(live.clone(), &matcher);
        for n in 1..1023 {
            refracted.insert(dead(n), &matcher);
        }
        assert_eq!(refracted.keys().len(), 1023, "below the trigger: untouched");
        refracted.insert(dead(1023), &matcher);
        assert!(refracted.contains(&live), "live key survives GC");
        assert_eq!(refracted.keys().len(), 1, "dead keys collected");
        for n in 1024..2046 {
            refracted.insert(dead(n), &matcher);
        }
        assert_eq!(refracted.keys().len(), 1023, "the trigger re-arms at its floor");
    }

    #[test]
    fn a_key_blocked_during_a_sweep_survives_it() {
        let rules = RuleSet::parse("(p mark (a) -(b) --> (make log))").unwrap();
        let mut wm = WorkingMemory::new();
        let a = wm.insert_full(WmeData::new("a"));
        let mut rete = Rete::new(&rules, &wm);
        let key = rete.conflict_set().keys().next().unwrap().clone();
        let mut refracted = Refraction::default();
        refracted.insert(key.clone(), &rete);
        // A `b` blocks the instantiation: its key leaves the conflict set
        // while its tuple stays live. A sweep runs in that state.
        let b = wm.insert_full(WmeData::new("b"));
        rete.apply(&[Change::Added(b.clone())]);
        assert!(!rete.conflict_set().contains(&key));
        let dead = |n: u64| InstKey {
            rule: key.rule,
            wmes: [(dps_wm::WmeId(1_000 + n), 0)].into(),
        };
        for n in 0..1023 {
            refracted.insert(dead(n), &rete);
        }
        assert_eq!(refracted.keys().len(), 1, "the sweep ran");
        assert!(refracted.contains(&key), "a blocked key survives the sweep");
        // Unblocked, the same key is back — and still refracted.
        wm.remove(b.id).unwrap();
        rete.apply(&[Change::Removed(b)]);
        assert!(rete.conflict_set().contains(&key));
        assert!(refracted.contains(&key));
        // Once its tuple is gone, the next sweep drops it.
        wm.remove(a.id).unwrap();
        rete.apply(&[Change::Removed(a)]);
        for n in 1023..2046 {
            refracted.insert(dead(n), &rete);
        }
        assert!(refracted.keys().is_empty(), "a key whose tuple is gone is collected");
    }
}
