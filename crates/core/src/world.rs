//! The *world* — the single-execution-thread state of §3: working
//! memory, the incremental matcher that mirrors it, the refraction set
//! and whether a rule firing halted — and its one step.
//!
//! [`World::evaluate`] and [`World::step`] are the mechanism whose
//! execution sequences define `ES_single`, written once. The
//! single-thread engine selects a key, evaluates and steps; the
//! static-parallel engine evaluates every candidate and steps each batch
//! member in its witnessing serial order; `semantics::enumerate_concrete`
//! evaluates and steps every branch; and `semantics::validate_trace` is
//! a fold of the step over a recorded commit sequence, whose effects are
//! already evaluated. A firing has three outcomes:
//!
//! * the step **refuses** it after a rule firing that halted, when it is
//!   refracted, or when it is not in the conflict set;
//! * evaluation **refracts without committing** an instantiation whose
//!   RHS fails to evaluate, as the dynamic engine does with an
//!   `EvalError` abort;
//! * otherwise the step **applies, matches and refracts**: the delta
//!   goes to WM, the changes to the matcher, the key to the refraction
//!   set.
//!
//! External session commits are not rule firings: [`World::apply`]
//! replays their delta, with no selectability check, after a `halt` too.
//!
//! The dynamic engine keeps its WM and its matchers apart: it commits
//! through `ParallelEngine::commit_section`, its match state lives in
//! the sharded `pipeline` with one [`Refraction`] per match shard, and
//! its commit section applies the same `halt` rule under the base mutex.

use std::collections::HashSet;

use dps_match::{InstKey, Instantiation, Matcher, Rete};
use dps_rules::{instantiate_actions, Rule, RuleSet};
use dps_wm::{DeltaSet, WmError, WorkingMemory};

/// The single-thread state: working memory, the matcher that mirrors
/// it, the refraction set, and whether a rule firing halted.
#[derive(Clone, Debug)]
pub(crate) struct World<M: Matcher = Rete> {
    pub wm: WorkingMemory,
    pub matcher: M,
    refracted: Refraction,
    halted: bool,
}

impl<M: Matcher> World<M> {
    /// The world at `wm`; `matcher` is already loaded with it.
    pub fn new(wm: WorkingMemory, matcher: M) -> Self {
        World { wm, matcher, refracted: Refraction::default(), halted: false }
    }

    /// The refracted keys.
    pub fn refracted(&self) -> &HashSet<InstKey> {
        self.refracted.keys()
    }

    /// Whether a rule firing halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Instantiates the listed `key` and evaluates its RHS: the rule,
    /// the instantiation, its delta and whether it halts. `None` when
    /// the RHS fails to evaluate; the key is then refracted without
    /// committing, so it is never tried again.
    pub fn evaluate<'r>(
        &mut self,
        rules: &'r RuleSet,
        key: &InstKey,
    ) -> Option<(&'r Rule, Instantiation, DeltaSet, bool)> {
        let inst = self.matcher.instantiate(key).expect("an evaluated key is listed");
        let rule = rules.get(inst.rule).expect("matcher only emits known rules");
        match instantiate_actions(rule, &inst.bindings, &inst.wmes) {
            Ok((delta, halt)) => Some((rule, inst, delta, halt)),
            Err(_) => {
                self.refracted.insert(key.clone(), &self.matcher);
                None
            }
        }
    }

    /// One single-thread step: fires `key`, whose RHS evaluated to
    /// `delta` and `halt`. `Err` names why the step refused it; see the
    /// module docs.
    pub fn step(&mut self, key: &InstKey, delta: &DeltaSet, halt: bool) -> Result<(), String> {
        if self.halted {
            return Err("follows a halt".into());
        }
        if self.refracted.contains(key) {
            return Err("already fired (refraction)".into());
        }
        if !self.matcher.conflict_set().contains(key) {
            return Err("is not in the single-thread conflict set".into());
        }
        self.apply(delta).map_err(|e| format!("has a delta that no longer applies: {e}"))?;
        self.halted = halt;
        self.refracted.insert(key.clone(), &self.matcher);
        Ok(())
    }

    /// Applies `delta` to WM and feeds the changes to the matcher.
    pub fn apply(&mut self, delta: &DeltaSet) -> Result<(), WmError> {
        let changes = self.wm.apply(delta)?;
        self.matcher.apply(&changes);
        Ok(())
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
    use dps_wm::{Change, Value, WmeData};

    /// The world of `rules` over `wm`, and its first listed key.
    fn world_of(rules: &RuleSet, wm: WorkingMemory) -> (World, InstKey) {
        let world = World::new(wm.clone(), Rete::new(rules, &wm));
        let key = world.matcher.conflict_set().keys().next().unwrap().clone();
        (world, key)
    }

    #[test]
    fn step_applies_matches_and_refracts() {
        let rules = RuleSet::parse("(p bump (c ^n <n>) --> (modify 1 ^n (+ <n> 1)))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("c").with("n", 0i64));
        let (mut world, key) = world_of(&rules, wm);
        let (_, _, delta, halt) = world.evaluate(&rules, &key).unwrap();
        world.step(&key, &delta, halt).unwrap();
        assert!(world.refracted().contains(&key));
        let c = world.wm.class_iter("c").next().unwrap();
        assert_eq!(c.get("n"), Some(&Value::Int(1)));
        // The matcher tracked the modify: a fresh instantiation exists
        // and the old key is gone from the conflict set.
        assert!(!world.matcher.conflict_set().contains(&key));
        assert_eq!(world.matcher.conflict_set().len(), 1);
        let err = world.step(&key, &delta, halt).unwrap_err();
        assert!(err.contains("refraction"), "{err}");
    }

    #[test]
    fn a_failed_rhs_is_refracted_without_committing() {
        let rules = RuleSet::parse("(p boom (c ^n <n>) --> (modify 1 ^n (/ <n> 0)))").unwrap();
        let mut wm = WorkingMemory::new();
        wm.insert(WmeData::new("c").with("n", 1i64));
        let before = format!("{:?}", wm);
        let (mut world, key) = world_of(&rules, wm);
        assert!(world.evaluate(&rules, &key).is_none(), "division by zero fails to evaluate");
        assert!(world.refracted().contains(&key));
        assert_eq!(format!("{:?}", world.wm), before, "nothing committed");
        assert!(world.matcher.conflict_set().contains(&key));
        let err = world.step(&key, &DeltaSet::default(), false).unwrap_err();
        assert!(err.contains("refraction"), "never tried again: {err}");
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
