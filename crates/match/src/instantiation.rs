//! Rule instantiations: the keys the conflict set holds, and the
//! materialised match a caller takes to fire.
//!
//! A matcher keeps one [`InstKey`] per satisfied match — built once, when
//! the match completes, and shared by reference count wherever it is
//! cloned (the matcher's own index, the conflict set and its refracted
//! keys, a claim book, a trace's `Firing`). Selection reads the key alone.
//! The [`Instantiation`] — the matched tuples and the variable bindings
//! the RHS needs — is built only when a caller fires one, by
//! [`crate::Matcher::instantiate`], from the matcher's own state and
//! sharing its `Arc<Wme>`s.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use dps_rules::{Bindings, RuleId};
use dps_wm::{Timestamp, Wme, WmeId};

/// Identity of an instantiation: the rule plus the exact WMEs (with their
/// recency stamps) matched by its positive condition elements.
///
/// Timestamps participate in identity because an OPS5 `modify` re-inserts
/// a WME under the same id with a fresh stamp — the old instantiation is
/// gone and a new one (same ids, newer stamp) may appear, and
/// *refraction* must treat them as distinct.
///
/// The tuple list is shared: cloning a key is a reference-count bump.
/// Ordering, equality and hashing read the list's contents, so a key
/// orders exactly as the `(rule, [(id, timestamp)])` pair it names.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstKey {
    /// The matched rule.
    pub rule: RuleId,
    /// `(id, timestamp)` of each positive-CE match, in CE order.
    pub wmes: Arc<[(WmeId, Timestamp)]>,
}

impl InstKey {
    /// Recency vector: matched-WME timestamps in descending order — the
    /// comparison key of OPS5's LEX strategy — read in place, without
    /// building or sorting a vector (keys are a handful of tuples long).
    pub fn recency(&self) -> impl Iterator<Item = Timestamp> + '_ {
        let wmes = &self.wmes;
        // The last timestamp yielded and how many times it has been.
        let mut last: Option<(Timestamp, usize)> = None;
        std::iter::from_fn(move || {
            if let Some((t, n)) = last {
                if wmes.iter().filter(|w| w.1 == t).count() > n {
                    last = Some((t, n + 1));
                    return Some(t);
                }
            }
            let below = |ts: Timestamp| last.is_none_or(|(t, _)| ts < t);
            let next = wmes.iter().map(|w| w.1).filter(|&ts| below(ts)).max()?;
            last = Some((next, 1));
            Some(next)
        })
    }

    /// LEX order of two keys: recency vectors compared lexicographically
    /// (a vector that is a prefix of the other is the smaller), then the
    /// key itself, reversed — the earlier key wins a full tie.
    pub(crate) fn lex_cmp(&self, other: &InstKey) -> Ordering {
        self.recency()
            .cmp(other.recency())
            .then_with(|| self.cmp(other).reverse())
    }

    /// Timestamp of the first CE's match — MEA's dominant criterion.
    pub fn first_ce_recency(&self) -> Timestamp {
        self.wmes.first().map_or(0, |w| w.1)
    }

    /// `true` when this instantiation matched the given element.
    pub fn mentions(&self, id: WmeId) -> bool {
        self.wmes.iter().any(|w| w.0 == id)
    }
}

/// A satisfied rule instantiation, materialised for firing: one concrete
/// way a rule's LHS matches working memory.
#[derive(Clone, Debug, PartialEq)]
pub struct Instantiation {
    /// The matched rule.
    pub rule: RuleId,
    /// The WMEs matched by the positive CEs, in CE order — the matcher's
    /// own shared tuples, not copies.
    pub wmes: Vec<Arc<Wme>>,
    /// Variable bindings established by the match.
    pub bindings: Bindings,
    /// Rule salience (copied from the rule for cheap strategy access).
    pub salience: i32,
}

impl Instantiation {
    /// The identity key.
    pub fn key(&self) -> InstKey {
        InstKey {
            rule: self.rule,
            wmes: self.wmes.iter().map(|w| (w.id, w.timestamp)).collect(),
        }
    }
}

impl fmt::Display for Instantiation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.rule)?;
        for (i, w) in self.wmes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", w.id)?;
        }
        write!(f, "]{}", self.bindings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_wm::WmeData;

    fn wme(id: u64, ts: u64) -> Arc<Wme> {
        Arc::new(Wme {
            id: WmeId(id),
            data: WmeData::new("c"),
            timestamp: ts,
        })
    }

    fn key(rule: u32, stamps: &[(u64, u64)]) -> InstKey {
        InstKey {
            rule: RuleId(rule),
            wmes: stamps.iter().map(|&(i, t)| (WmeId(i), t)).collect(),
        }
    }

    #[test]
    fn key_includes_timestamps() {
        assert_ne!(key(1, &[(1, 5)]), key(1, &[(1, 9)])); // fresher stamp
    }

    #[test]
    fn key_orders_like_its_tuple_list() {
        let as_vec = |k: &InstKey| (k.rule, k.wmes.to_vec());
        let keys = [
            key(0, &[(2, 2)]),
            key(0, &[(2, 2), (1, 1)]),
            key(0, &[(9, 1)]),
            key(1, &[(1, 1)]),
        ];
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp(b), as_vec(a).cmp(&as_vec(b)));
            }
        }
    }

    #[test]
    fn recency_sorts_descending() {
        let k = key(0, &[(1, 3), (2, 9), (3, 5)]);
        assert_eq!(k.recency().collect::<Vec<_>>(), [9, 5, 3]);
        assert_eq!(k.first_ce_recency(), 3);
    }

    #[test]
    fn recency_keeps_repeated_stamps() {
        // One WME matched at two CEs contributes its stamp twice.
        let k = key(0, &[(1, 4), (2, 7), (1, 4), (3, 1)]);
        assert_eq!(k.recency().collect::<Vec<_>>(), [7, 4, 4, 1]);
        assert_eq!(key(0, &[]).recency().count(), 0);
    }

    #[test]
    fn lex_prefers_recency_then_length_then_earlier_key() {
        assert_eq!(key(0, &[(1, 5), (2, 3)]).lex_cmp(&key(1, &[(3, 4), (4, 4)])), Ordering::Greater);
        assert_eq!(key(0, &[(1, 5)]).lex_cmp(&key(1, &[(2, 5), (3, 1)])), Ordering::Less);
        assert_eq!(key(0, &[(1, 5)]).lex_cmp(&key(1, &[(1, 5)])), Ordering::Greater);
    }

    #[test]
    fn mentions_checks_ids() {
        let k = key(0, &[(4, 1)]);
        assert!(k.mentions(WmeId(4)));
        assert!(!k.mentions(WmeId(5)));
    }

    #[test]
    fn materialised_key_and_display() {
        let i = Instantiation {
            rule: RuleId(2),
            wmes: vec![wme(1, 1), wme(2, 2)],
            bindings: Bindings::new(),
            salience: 0,
        };
        assert_eq!(i.key(), key(2, &[(1, 1), (2, 2)]));
        assert_eq!(i.to_string(), "r2[w1,w2]{}");
    }
}
