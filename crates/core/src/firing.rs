//! Firing records, traces, and what a firing touches.
//!
//! What one firing reads and writes is defined once, and both theorems'
//! engines read that definition: its rule-level half in the rule set's
//! analysis ([`dps_rules::RuleSet::access`]), its run-time half — the
//! instantiation and its delta — here:
//!
//! * **reads** — the tuples its positive CEs matched (the
//!   instantiation's), and the whole class of every negated CE
//!   ([`RuleAccess::negated_classes`]: any insertion there can
//!   invalidate the match);
//! * **writes** — the tuples its RHS modifies or removes (the delta's
//!   `written_ids`), the class of every tuple it creates, and the class
//!   of every matched tuple it writes ([`write_classes`]: a removal can
//!   *enable* a negated reader of that class; a modify re-inserts).
//!
//! [`Footprint::of`] collects them into sets for Theorem 1's
//! interference test ([`Footprint::conflicts`], which
//! [`crate::StaticParallelEngine`] selects batches by). The dynamic
//! engine maps the same iterators to lock resources, a tuple to its
//! tuple and a class to its relation, without collecting them first.

use std::collections::BTreeSet;

use dps_match::{InstKey, Instantiation};
use dps_rules::analysis::RuleAccess;
use dps_rules::RuleId;
use dps_wm::{Atom, DeltaSet, WmeId};

use crate::{CommitLog, EXTERNAL_RULE};

/// One committed production execution: what fired and what it did.
/// Engines append these to a [`Trace`], which encodes them, and
/// [`crate::semantics::validate_trace`] replays them, decoded, to check
/// semantic consistency.
#[derive(Clone, Debug, PartialEq)]
pub struct Firing {
    /// The rule.
    pub rule: RuleId,
    /// Its name (for readable traces).
    pub rule_name: Atom,
    /// Identity of the fired instantiation.
    pub key: InstKey,
    /// The buffered RHS effects applied at commit.
    pub delta: DeltaSet,
    /// Whether the RHS contained `halt`.
    pub halt: bool,
}

impl Firing {
    /// `true` for commits that did not originate from a rule firing —
    /// external working-memory transactions submitted through a server
    /// session, which carry [`EXTERNAL_RULE`]. The oracle replay applies
    /// their delta verbatim instead of requiring conflict-set membership
    /// (there is no instantiation to be a member), after a `halt` too.
    pub fn is_external(&self) -> bool {
        self.rule == EXTERNAL_RULE
    }
}

/// The commit sequence of one engine run, kept as a [`CommitLog`]: each
/// commit is a record of a few dozen bytes, and readers decode one
/// [`Firing`] at a time. The log is also the run's one record of which
/// transaction took which commit slot ([`CommitLog::txns`]).
///
/// Two traces are equal exactly when their firing sequences are: the
/// txn ids, which differ between two runs of one schedule, do not count.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Commits in order, encoded.
    pub firings: CommitLog,
}

impl Trace {
    /// Appends a commit, encoded, under [`crate::NO_TXN`].
    ///
    /// # Panics
    /// If the firing's key names another rule, or its rule appended
    /// before under another name.
    pub fn push(&mut self, firing: Firing) {
        self.firings.push(&firing);
    }

    /// Number of commits.
    pub fn len(&self) -> usize {
        self.firings.len()
    }

    /// `true` when nothing committed.
    pub fn is_empty(&self) -> bool {
        self.firings.is_empty()
    }

    /// The commits in order, decoded one at a time.
    pub fn iter(&self) -> impl Iterator<Item = Firing> + '_ {
        self.firings.iter()
    }

    /// Commit `i`, decoded.
    pub fn get(&self, i: usize) -> Option<Firing> {
        self.firings.get(i)
    }

    /// The rule-name sequence, e.g. `["bump", "bump", "done"]`.
    pub fn names(&self) -> Vec<&str> {
        self.firings.names()
    }

    /// Hands the commit sequence over, leaving an empty trace that
    /// shares this one's atom and shape tables: records encoded against
    /// them before the hand-over still append afterwards.
    pub(crate) fn take(&mut self) -> Trace {
        let empty = Trace { firings: self.firings.empty_sibling() };
        std::mem::replace(self, empty)
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl FromIterator<Firing> for Trace {
    fn from_iter<T: IntoIterator<Item = Firing>>(iter: T) -> Self {
        let mut trace = Trace::default();
        for firing in iter {
            trace.push(firing);
        }
        trace
    }
}

/// Writes: the class of every tuple `delta` creates, and of every
/// tuple of `inst` it modifies or removes.
pub(crate) fn write_classes<'a>(
    inst: &'a Instantiation,
    delta: &'a DeltaSet,
) -> impl Iterator<Item = &'a Atom> {
    let written = inst
        .wmes
        .iter()
        .filter(|w| delta.written_ids().any(|id| id == w.id))
        .map(|w| &w.data.class);
    delta.created_classes().chain(written)
}

/// The dynamic (run-time) read/write footprint of one instantiation —
/// the information the paper says static analysis lacks ("interference
/// usually depends on run-time values of variables"): the reads and
/// writes defined above, collected into sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Tuple-level reads.
    pub read_tuples: BTreeSet<WmeId>,
    /// Tuple-level writes.
    pub write_tuples: BTreeSet<WmeId>,
    /// Whole-class reads (negated CEs).
    pub read_classes: BTreeSet<Atom>,
    /// Class-level writes (inserts, and the classes of written tuples).
    pub write_classes: BTreeSet<Atom>,
}

impl Footprint {
    /// Computes the footprint of an instantiation of the rule `access`
    /// describes, with its computed delta.
    pub fn of(access: &RuleAccess, inst: &Instantiation, delta: &DeltaSet) -> Footprint {
        Footprint {
            read_tuples: inst.wmes.iter().map(|w| w.id).collect(),
            write_tuples: delta.written_ids().collect(),
            read_classes: access.negated_classes.clone(),
            write_classes: write_classes(inst, delta).cloned().collect(),
        }
    }

    /// Adds `other`'s reads and writes to this footprint.
    pub(crate) fn absorb(&mut self, other: &Footprint) {
        self.read_tuples.extend(&other.read_tuples);
        self.write_tuples.extend(&other.write_tuples);
        self.read_classes.extend(other.read_classes.iter().cloned());
        self.write_classes.extend(other.write_classes.iter().cloned());
    }

    /// The paper's §4.1 interference test at run-time granularity:
    /// read-write or write-write overlap.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        fn hit<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> bool {
            // Iterate the smaller set.
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            small.iter().any(|x| large.contains(x))
        }
        hit(&self.write_tuples, &other.write_tuples)
            || hit(&self.write_tuples, &other.read_tuples)
            || hit(&other.write_tuples, &self.read_tuples)
            || hit(&self.write_classes, &other.read_classes)
            || hit(&other.write_classes, &self.read_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_rules::{Bindings, RuleSet};
    use dps_wm::{Wme, WmeData};
    use std::sync::Arc;

    fn wme(id: u64, class: &str) -> Wme {
        Wme {
            id: WmeId(id),
            data: WmeData::new(class),
            timestamp: id,
        }
    }

    fn inst_of(wmes: Vec<Wme>) -> Instantiation {
        Instantiation {
            rule: RuleId(0),
            wmes: wmes.into_iter().map(Arc::new).collect(),
            bindings: Bindings::new(),
            salience: 0,
        }
    }

    #[test]
    fn footprint_of_modify_rule() {
        let rules = RuleSet::parse("(p r (job ^n <n>) --> (modify 1 ^n (+ <n> 1)))").unwrap();
        let w = wme(3, "job");
        let inst = inst_of(vec![w.clone()]);
        let mut delta = DeltaSet::new();
        delta.modify(w.id, []);
        let fp = Footprint::of(rules.access(RuleId(0)), &inst, &delta);
        assert!(fp.read_tuples.contains(&WmeId(3)));
        assert!(fp.write_tuples.contains(&WmeId(3)));
        assert!(fp.write_classes.contains("job"));
        assert!(fp.read_classes.is_empty());
    }

    #[test]
    fn footprint_of_negated_reader() {
        let rules = RuleSet::parse("(p r (go) -(hold) --> (make log))").unwrap();
        let inst = inst_of(vec![wme(1, "go")]);
        let mut delta = DeltaSet::new();
        delta.create(WmeData::new("log"));
        let fp = Footprint::of(rules.access(RuleId(0)), &inst, &delta);
        assert!(fp.read_classes.contains("hold"));
        assert!(fp.write_classes.contains("log"));
        assert!(fp.write_tuples.is_empty());
    }

    #[test]
    fn disjoint_footprints_do_not_conflict() {
        let a = Footprint {
            read_tuples: [WmeId(1)].into(),
            write_tuples: [WmeId(1)].into(),
            ..Default::default()
        };
        let b = Footprint {
            read_tuples: [WmeId(2)].into(),
            write_tuples: [WmeId(2)].into(),
            ..Default::default()
        };
        assert!(!a.conflicts(&b));
        assert!(!b.conflicts(&a));
    }

    #[test]
    fn read_write_overlap_conflicts() {
        let reader = Footprint {
            read_tuples: [WmeId(1)].into(),
            ..Default::default()
        };
        let writer = Footprint {
            write_tuples: [WmeId(1)].into(),
            ..Default::default()
        };
        assert!(reader.conflicts(&writer));
        assert!(writer.conflicts(&reader));
        // Read-read is fine.
        assert!(!reader.conflicts(&reader.clone()));
    }

    #[test]
    fn insert_conflicts_with_negated_reader() {
        let maker = Footprint {
            write_classes: [Atom::from("hold")].into(),
            ..Default::default()
        };
        let negreader = Footprint {
            read_classes: [Atom::from("hold")].into(),
            ..Default::default()
        };
        assert!(maker.conflicts(&negreader));
        assert!(negreader.conflicts(&maker));
    }

    #[test]
    fn inserts_into_same_class_commute() {
        let a = Footprint {
            write_classes: [Atom::from("log")].into(),
            ..Default::default()
        };
        let b = a.clone();
        assert!(!a.conflicts(&b), "insert-insert commutes");
    }

    #[test]
    fn trace_names() {
        let mut t = Trace::default();
        t.push(Firing {
            rule: RuleId(0),
            rule_name: Atom::from("a"),
            key: InstKey {
                rule: RuleId(0),
                wmes: Arc::default(),
            },
            delta: DeltaSet::new(),
            halt: false,
        });
        assert_eq!(t.names(), ["a"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
