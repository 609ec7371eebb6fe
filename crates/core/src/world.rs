//! The *world* — the single-execution-thread state of §3: working
//! memory, the incremental matcher that mirrors it (whose conflict set
//! refracts: a listed key is one that may fire) and whether a rule
//! firing halted — and its one step.
//!
//! [`World::evaluate`] and [`World::step`] are the mechanism whose
//! execution sequences define `ES_single`, written once. The
//! single-thread engine selects a key, evaluates and steps; the
//! static-parallel engine evaluates each listed key once and steps each
//! batch member in its witnessing serial order; `semantics::enumerate_concrete`
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
//!   goes to WM, the changes and then the key to the matcher
//!   ([`Matcher::refract`]).
//!
//! External session commits are not rule firings: [`World::apply`]
//! replays their delta, with no selectability check, after a `halt` too.
//!
//! The dynamic engine keeps its WM and its matchers apart: it commits
//! through `ParallelEngine::commit_section`, its match state lives in
//! the sharded `pipeline`, each shard's Rete refracting what fired from
//! it, and its commit section applies the same `halt` rule under the
//! base mutex.

use dps_match::{InstKey, Instantiation, Matcher, Rete};
use dps_rules::{instantiate_actions, Rule, RuleSet};
use dps_wm::{DeltaSet, WmError, WorkingMemory};

/// The single-thread state: working memory, the matcher that mirrors
/// it, and whether a rule firing halted.
#[derive(Clone, Debug)]
pub(crate) struct World<M: Matcher = Rete> {
    pub wm: WorkingMemory,
    pub matcher: M,
    halted: bool,
}

impl<M: Matcher> World<M> {
    /// The world at `wm`; `matcher` is already loaded with it.
    pub fn new(wm: WorkingMemory, matcher: M) -> Self {
        World { wm, matcher, halted: false }
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
                self.matcher.refract(key);
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
        let listed = self.matcher.conflict_set();
        if listed.is_refracted(key) {
            return Err("already fired (refraction)".into());
        }
        if !listed.contains(key) {
            return Err("is not in the single-thread conflict set".into());
        }
        self.apply(delta).map_err(|e| format!("has a delta that no longer applies: {e}"))?;
        self.halted = halt;
        self.matcher.refract(key);
        Ok(())
    }

    /// Applies `delta` to WM and feeds the changes to the matcher.
    pub fn apply(&mut self, delta: &DeltaSet) -> Result<(), WmError> {
        let changes = self.wm.apply(delta)?;
        self.matcher.apply(&changes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_wm::{Value, WmeData};

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
        assert!(world.matcher.conflict_set().is_refracted(&key));
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
        assert!(world.matcher.conflict_set().is_refracted(&key));
        assert_eq!(format!("{:?}", world.wm), before, "nothing committed");
        assert!(world.matcher.conflict_set().is_empty(), "no longer listed");
        let err = world.step(&key, &DeltaSet::default(), false).unwrap_err();
        assert!(err.contains("refraction"), "never tried again: {err}");
    }
}
