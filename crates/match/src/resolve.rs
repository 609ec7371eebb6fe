//! Conflict-resolution strategies — the **select** phase.
//!
//! The paper's correctness framework (§3.2) is deliberately independent of
//! the selection heuristic: "heuristics such as LEX, MEA, and others can
//! be incorporated as devices to favor some sequences over others" but
//! "they do not rule out any execution sequence entirely". Accordingly
//! every strategy here picks *some* member of the conflict set, and the
//! engines treat the choice as a pluggable policy. Refraction is not a
//! strategy's business: the set lists only keys that may fire
//! ([`crate::ConflictSet`]), so a strategy filters nothing.

use std::cmp::Ordering;

use dps_wm::rng::splitmix64;

use crate::{ConflictSet, InstKey};

/// A conflict-resolution strategy.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Deterministic first-in (by instantiation key order).
    Fifo,
    /// OPS5 LEX: order instantiations by their recency vectors
    /// (matched-WME timestamps, descending) compared lexicographically;
    /// ties broken by specificity (more matched WMEs first), then key.
    Lex,
    /// OPS5 MEA: the recency of the *first* condition element dominates,
    /// then LEX applies.
    Mea,
    /// Highest salience first; ties resolved by LEX.
    Salience,
    /// Uniformly random choice; the value is a SplitMix64 state
    /// ([`splitmix64`]) that each pick advances — reproducible given
    /// the seed, and the work-horse of the execution-semantics property
    /// tests (random valid sequences).
    Random(u64),
}

fn mea_cmp(a: &InstKey, b: &InstKey) -> Ordering {
    a.first_ce_recency()
        .cmp(&b.first_ce_recency())
        .then_with(|| a.lex_cmp(b))
}

impl Strategy {
    /// Picks the dominant instantiation of the conflict set, by key:
    /// every strategy reads the key and the rule's salience only, and
    /// the caller materialises the pick ([`crate::Matcher::instantiate`]).
    /// Every listed key may fire — the set refracts ([`ConflictSet`]).
    /// Returns `None` when the set is empty — the paper's termination
    /// condition.
    pub fn select<'a>(&mut self, conflict: &'a ConflictSet) -> Option<&'a InstKey> {
        let mut candidates = conflict.iter();
        let pick = match self {
            Strategy::Fifo => candidates.next(),
            Strategy::Lex => candidates.max_by(|(a, _), (b, _)| a.lex_cmp(b)),
            Strategy::Mea => candidates.max_by(|(a, _), (b, _)| mea_cmp(a, b)),
            Strategy::Salience => {
                candidates.max_by(|(a, sa), (b, sb)| sa.cmp(sb).then_with(|| a.lex_cmp(b)))
            }
            Strategy::Random(_) if conflict.is_empty() => None,
            Strategy::Random(state) => {
                let i = splitmix64(state) % conflict.len() as u64;
                candidates.nth(i as usize)
            }
        };
        pick.map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::Site;
    use dps_rules::RuleId;
    use dps_wm::WmeId;
    use std::collections::HashSet;

    fn inst(rule: u32, salience: i32, stamps: &[u64]) -> (InstKey, i32) {
        let key = InstKey {
            rule: RuleId(rule),
            wmes: stamps
                .iter()
                .enumerate()
                .map(|(i, &t)| (WmeId(100 + i as u64 + 10 * rule as u64), t))
                .collect(),
        };
        (key, salience)
    }

    fn set(insts: Vec<(InstKey, i32)>) -> ConflictSet {
        let mut cs = ConflictSet::new();
        for (key, salience) in insts {
            cs.insert(key, salience, Site::default());
        }
        cs
    }

    #[test]
    fn empty_set_selects_none() {
        let cs = ConflictSet::new();
        for mut s in [
            Strategy::Fifo,
            Strategy::Lex,
            Strategy::Mea,
            Strategy::Random(1),
        ] {
            assert!(s.select(&cs).is_none());
        }
    }

    #[test]
    fn lex_prefers_most_recent() {
        let cs = set(vec![inst(0, 0, &[1, 2]), inst(1, 0, &[5, 3])]);
        let picked = Strategy::Lex.select(&cs).unwrap();
        assert_eq!(picked.rule, RuleId(1));
    }

    #[test]
    fn lex_breaks_ties_on_second_element() {
        let cs = set(vec![inst(0, 0, &[5, 2]), inst(1, 0, &[5, 4])]);
        let picked = Strategy::Lex.select(&cs).unwrap();
        assert_eq!(picked.rule, RuleId(1));
    }

    #[test]
    fn lex_prefers_more_specific_on_equal_prefix() {
        let cs = set(vec![inst(0, 0, &[5]), inst(1, 0, &[5, 1])]);
        let picked = Strategy::Lex.select(&cs).unwrap();
        assert_eq!(picked.rule, RuleId(1));
    }

    #[test]
    fn mea_dominated_by_first_ce() {
        // Rule 0's first CE is older but its overall recency is higher.
        let cs = set(vec![inst(0, 0, &[2, 9]), inst(1, 0, &[5, 1])]);
        assert_eq!(
            Strategy::Mea.select(&cs).unwrap().rule,
            RuleId(1)
        );
        assert_eq!(
            Strategy::Lex.select(&cs).unwrap().rule,
            RuleId(0)
        );
    }

    #[test]
    fn salience_dominates_lex() {
        let cs = set(vec![inst(0, 10, &[1]), inst(1, 0, &[9])]);
        assert_eq!(
            Strategy::Salience.select(&cs).unwrap().rule,
            RuleId(0)
        );
    }

    #[test]
    fn refraction_excludes_fired() {
        let mut cs = set(vec![inst(0, 0, &[1]), inst(1, 0, &[9])]);
        let top = Strategy::Lex.select(&cs).unwrap().clone();
        cs.refract(&top, |_, _| true);
        assert_eq!(Strategy::Lex.select(&cs).unwrap().rule, RuleId(0));
        let rest = Strategy::Lex.select(&cs).unwrap().clone();
        cs.refract(&rest, |_, _| true);
        assert!(Strategy::Lex.select(&cs).is_none());
    }

    #[test]
    fn random_is_reproducible_and_in_range() {
        let cs = set(vec![inst(0, 0, &[1]), inst(1, 0, &[2]), inst(2, 0, &[3])]);
        let mut s1 = Strategy::Random(42);
        let mut s2 = Strategy::Random(42);
        for _ in 0..20 {
            let a = s1.select(&cs).unwrap();
            let b = s2.select(&cs).unwrap();
            assert_eq!(a, b);
        }
        // Every seed spreads over the candidates, 0 included.
        for seed in [7, 0] {
            let mut s3 = Strategy::Random(seed);
            let picks: HashSet<u32> = (0..50).map(|_| s3.select(&cs).unwrap().rule.0).collect();
            assert!(picks.len() > 1, "seed {seed}: random should spread over candidates");
        }
    }

    #[test]
    fn fifo_is_deterministic_first() {
        let cs = set(vec![inst(1, 0, &[9]), inst(0, 0, &[1])]);
        assert_eq!(
            Strategy::Fifo.select(&cs).unwrap().rule,
            RuleId(0)
        );
    }
}
