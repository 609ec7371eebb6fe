//! Named collections of rules.

use std::collections::HashMap;

use dps_wm::Atom;

use crate::analysis::{rule_access, RuleAccess};
use crate::{Rule, RuleError};

/// Dense index of a rule within a [`RuleSet`] — the stable identifier the
/// matcher, engines and execution-semantics machinery use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An ordered, name-indexed collection of validated rules, each with
/// its static read/write analysis. A set only grows through
/// [`RuleSet::add`] and hands its rules out shared, so each analysis is
/// computed once and stays true.
#[derive(Clone, Debug, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    accesses: Vec<RuleAccess>,
    ids: HashMap<Atom, RuleId>,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Parses DSL source and adds every rule in it.
    pub fn parse(src: &str) -> Result<Self, RuleError> {
        let mut set = RuleSet::new();
        for rule in crate::parser::parse_rules(src)? {
            set.add(rule)?;
        }
        Ok(set)
    }

    /// Adds a validated rule and analyses it; rejects duplicates by name.
    pub fn add(&mut self, rule: Rule) -> Result<RuleId, RuleError> {
        rule.validate()?;
        if self.ids.contains_key(&rule.name) {
            return Err(RuleError::DuplicateRule(rule.name.clone()));
        }
        let id = RuleId(self.rules.len() as u32);
        self.ids.insert(rule.name.clone(), id);
        self.accesses.push(rule_access(&rule));
        self.rules.push(rule);
        Ok(id)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Looks up a rule by id.
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(id.0 as usize)
    }

    /// What rule `id` reads and writes ([`crate::analysis`]). Panics
    /// on an id not from this set.
    pub fn access(&self, id: RuleId) -> &RuleAccess {
        &self.accesses[id.0 as usize]
    }

    /// Looks up a rule id by name.
    pub fn id_of(&self, name: &str) -> Option<RuleId> {
        self.ids.get(name).copied()
    }

    /// Iterates `(id, rule)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, r)| (RuleId(i as u32), r))
    }

    /// The rules as a slice (id order).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    #[test]
    fn add_and_lookup() {
        let mut set = RuleSet::new();
        let a = set.add(parse_rule("(p a (x) -->)").unwrap()).unwrap();
        let b = set.add(parse_rule("(p b (y) -->)").unwrap()).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.id_of("a"), Some(a));
        assert_eq!(set.id_of("b"), Some(b));
        assert_eq!(set.get(a).unwrap().name.as_str(), "a");
        assert_eq!(set.id_of("zzz"), None);
        assert!(set.get(RuleId(9)).is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut set = RuleSet::new();
        set.add(parse_rule("(p a (x) -->)").unwrap()).unwrap();
        let e = set
            .add(parse_rule("(p a (y) -->)").unwrap())
            .unwrap_err();
        assert!(matches!(e, RuleError::DuplicateRule(_)));
    }

    #[test]
    fn parse_builds_set() {
        let set = RuleSet::parse("(p a (x) --> ) (p b (y) --> (halt))").unwrap();
        assert_eq!(set.len(), 2);
        let ids: Vec<RuleId> = set.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [RuleId(0), RuleId(1)]);
    }

    #[test]
    fn invalid_rule_rejected_on_add() {
        let mut set = RuleSet::new();
        let bad = crate::Rule {
            name: dps_wm::Atom::from("bad"),
            salience: 0,
            conditions: vec![],
            actions: vec![],
        };
        assert!(set.add(bad).is_err());
        assert!(set.is_empty());
    }
}
