//! Conflict-resolution strategies — the **select** phase.
//!
//! The paper's correctness framework (§3.2) is deliberately independent of
//! the selection heuristic: "heuristics such as LEX, MEA, and others can
//! be incorporated as devices to favor some sequences over others" but
//! "they do not rule out any execution sequence entirely". Accordingly
//! every strategy here picks *some* member of the conflict set, and the
//! engines treat the choice as a pluggable policy.

use std::cmp::Ordering;
use std::collections::HashSet;

use dps_wm::Timestamp;

use crate::{ConflictSet, InstKey, Instantiation};

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
    /// Uniformly random choice with a deterministic xorshift state —
    /// reproducible given the seed, and the work-horse of the
    /// execution-semantics property tests (random valid sequences).
    Random(u64),
}

fn lex_cmp(a: &Instantiation, b: &Instantiation) -> Ordering {
    let (ra, rb) = (a.recency(), b.recency());
    // Lexicographic on descending timestamp vectors: larger vector wins.
    for (x, y) in ra.iter().zip(rb.iter()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    ra.len()
        .cmp(&rb.len())
        .then_with(|| a.key().cmp(&b.key()).reverse())
}

fn mea_cmp(a: &Instantiation, b: &Instantiation) -> Ordering {
    let fa: Timestamp = a.first_ce_recency();
    let fb: Timestamp = b.first_ce_recency();
    fa.cmp(&fb).then_with(|| lex_cmp(a, b))
}

impl Strategy {
    /// Picks the dominant instantiation among those not refracted
    /// (already fired and still present). Returns `None` when every
    /// instantiation is refracted or the set is empty — the paper's
    /// termination condition.
    pub fn select<'a>(
        &mut self,
        conflict: &'a ConflictSet,
        refracted: &HashSet<InstKey>,
    ) -> Option<&'a Instantiation> {
        let mut candidates = conflict
            .iter_keyed()
            .filter(|(k, _)| !refracted.contains(*k))
            .map(|(_, i)| i);
        match self {
            Strategy::Fifo => candidates.next(),
            Strategy::Lex => candidates.max_by(|a, b| lex_cmp(a, b)),
            Strategy::Mea => candidates.max_by(|a, b| mea_cmp(a, b)),
            Strategy::Salience => {
                candidates.max_by(|a, b| a.salience.cmp(&b.salience).then_with(|| lex_cmp(a, b)))
            }
            Strategy::Random(state) => {
                let all: Vec<&Instantiation> = candidates.collect();
                if all.is_empty() {
                    return None;
                }
                // xorshift64*
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                Some(all[(r % all.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::{Bindings, RuleId};
    use dps_wm::{Wme, WmeData, WmeId};

    fn wme(id: u64, ts: u64) -> Wme {
        Wme {
            id: WmeId(id),
            data: WmeData::new("c"),
            timestamp: ts,
        }
    }

    fn inst(rule: u32, salience: i32, stamps: &[u64]) -> Instantiation {
        Instantiation {
            rule: RuleId(rule),
            wmes: stamps
                .iter()
                .enumerate()
                .map(|(i, &t)| wme(100 + i as u64 + 10 * rule as u64, t))
                .collect(),
            bindings: Bindings::new(),
            salience,
        }
    }

    fn set(insts: Vec<Instantiation>) -> ConflictSet {
        let mut cs = ConflictSet::new();
        for i in insts {
            cs.insert(i);
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
            assert!(s.select(&cs, &HashSet::new()).is_none());
        }
    }

    #[test]
    fn lex_prefers_most_recent() {
        let cs = set(vec![inst(0, 0, &[1, 2]), inst(1, 0, &[5, 3])]);
        let picked = Strategy::Lex.select(&cs, &HashSet::new()).unwrap();
        assert_eq!(picked.rule, RuleId(1));
    }

    #[test]
    fn lex_breaks_ties_on_second_element() {
        let cs = set(vec![inst(0, 0, &[5, 2]), inst(1, 0, &[5, 4])]);
        let picked = Strategy::Lex.select(&cs, &HashSet::new()).unwrap();
        assert_eq!(picked.rule, RuleId(1));
    }

    #[test]
    fn lex_prefers_more_specific_on_equal_prefix() {
        let cs = set(vec![inst(0, 0, &[5]), inst(1, 0, &[5, 1])]);
        let picked = Strategy::Lex.select(&cs, &HashSet::new()).unwrap();
        assert_eq!(picked.rule, RuleId(1));
    }

    #[test]
    fn mea_dominated_by_first_ce() {
        // Rule 0's first CE is older but its overall recency is higher.
        let cs = set(vec![inst(0, 0, &[2, 9]), inst(1, 0, &[5, 1])]);
        assert_eq!(
            Strategy::Mea.select(&cs, &HashSet::new()).unwrap().rule,
            RuleId(1)
        );
        assert_eq!(
            Strategy::Lex.select(&cs, &HashSet::new()).unwrap().rule,
            RuleId(0)
        );
    }

    #[test]
    fn salience_dominates_lex() {
        let cs = set(vec![inst(0, 10, &[1]), inst(1, 0, &[9])]);
        assert_eq!(
            Strategy::Salience
                .select(&cs, &HashSet::new())
                .unwrap()
                .rule,
            RuleId(0)
        );
    }

    #[test]
    fn refraction_excludes_fired() {
        let cs = set(vec![inst(0, 0, &[1]), inst(1, 0, &[9])]);
        let top = Strategy::Lex.select(&cs, &HashSet::new()).unwrap().key();
        let refracted: HashSet<InstKey> = [top].into_iter().collect();
        assert_eq!(
            Strategy::Lex.select(&cs, &refracted).unwrap().rule,
            RuleId(0)
        );
        let both: HashSet<InstKey> = cs.iter().map(|i| i.key()).collect();
        assert!(Strategy::Lex.select(&cs, &both).is_none());
    }

    #[test]
    fn random_is_reproducible_and_in_range() {
        let cs = set(vec![inst(0, 0, &[1]), inst(1, 0, &[2]), inst(2, 0, &[3])]);
        let mut s1 = Strategy::Random(42);
        let mut s2 = Strategy::Random(42);
        for _ in 0..20 {
            let a = s1.select(&cs, &HashSet::new()).unwrap().key();
            let b = s2.select(&cs, &HashSet::new()).unwrap().key();
            assert_eq!(a, b);
        }
        // Different seeds eventually differ.
        let mut s3 = Strategy::Random(7);
        let picks: HashSet<u32> = (0..50)
            .map(|_| s3.select(&cs, &HashSet::new()).unwrap().rule.0)
            .collect();
        assert!(picks.len() > 1, "random should spread over candidates");
    }

    #[test]
    fn fifo_is_deterministic_first() {
        let cs = set(vec![inst(1, 0, &[9]), inst(0, 0, &[1])]);
        assert_eq!(
            Strategy::Fifo.select(&cs, &HashSet::new()).unwrap().rule,
            RuleId(0)
        );
    }
}
