//! Static read/write-set analysis, the interference test, and the
//! commutativity judgment behind lock elision.
//!
//! The paper's static approach (§4.1) partitions productions into
//! *non-interfering* groups: "Two productions are non-interfering if there
//! is no read-write or write-write conflict between them." Run-time values
//! are unknown to a static analyser, so the conservative granularity here
//! is the (class, attribute) pair: a rule *reads* every class+attribute its
//! LHS tests and *writes* every class+attribute its RHS creates, modifies
//! or removes. A `remove`/`make` touches the whole tuple, so it writes the
//! wildcard attribute of its class.
//!
//! The paper also notes (§4.1) that class-granularity analysis detects
//! *false* interference when two rules touch disjoint subclasses; exposing
//! both granularities lets the benchmarks quantify exactly that effect.
//!
//! Interference is the right question for *partitioning* (who may ever
//! conflict), but coordination avoidance (Bailis et al.) asks a finer
//! one: do two firings **commute** — does either order leave the same
//! working memory? Interfering operations can still commute: two
//! counter increments write the same cell, yet any interleaving sums
//! the same. [`commutes`] answers that question over a write set
//! factored into *delta* writes (increment/decrement `modify`s),
//! *insert* writes (`make` of fresh tuples) and *absolute* writes
//! (`remove` and last-writer-wins `modify`s); the dynamic engine uses
//! it to skip the lock manager entirely for provably-commutative
//! firings.

use std::collections::BTreeSet;

use dps_wm::Atom;

use crate::{Action, ConditionElement, Expr, Op, Predicate, Rule, TestAtom, VarName};

/// Wildcard attribute marker: the whole tuple / any attribute of a class.
const STAR: &str = "*";

/// A set of (class, attribute) access descriptors. The attribute `*`
/// denotes "any attribute of the class" (whole-tuple access).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessSet {
    entries: BTreeSet<(Atom, Atom)>,
}

impl AccessSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        AccessSet::default()
    }

    /// Adds a class+attribute access.
    pub fn add(&mut self, class: Atom, attr: Atom) {
        self.entries.insert((class, attr));
    }

    /// Adds a whole-class (wildcard) access.
    pub fn add_class(&mut self, class: Atom) {
        self.entries.insert((class, Atom::from(STAR)));
    }

    /// Iterates entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &(Atom, Atom)> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no accesses are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The classes mentioned.
    pub fn classes(&self) -> BTreeSet<&Atom> {
        self.entries.iter().map(|(c, _)| c).collect()
    }

    /// `true` when any entry mentions `class`.
    pub fn has_class(&self, class: &Atom) -> bool {
        self.entries.iter().any(|(c, _)| c == class)
    }

    /// `true` when the two sets overlap at class+attribute granularity
    /// (wildcards overlap everything in their class).
    ///
    /// A linear merge-intersection over the two sorted entry sets —
    /// O(n + m), not O(n·m). The commute matrix calls this O(rules²)
    /// times at plan time, so the walk is worth it (pinned by the
    /// `access_overlap` rows in `benches/semantics.rs`).
    pub fn overlaps(&self, other: &AccessSet) -> bool {
        let mut xs = self.entries.iter().peekable();
        let mut ys = other.entries.iter().peekable();
        while let (Some((xc, _)), Some((yc, _))) = (xs.peek().copied(), ys.peek().copied()) {
            match xc.cmp(yc) {
                std::cmp::Ordering::Less => {
                    // Skip self's run for a class the other never touches.
                    while xs.next_if(|(c, _)| c < yc).is_some() {}
                }
                std::cmp::Ordering::Greater => {
                    while ys.next_if(|(c, _)| c < xc).is_some() {}
                }
                std::cmp::Ordering::Equal => {
                    // Both sets touch this class: a wildcard on either
                    // side overlaps by definition; otherwise merge-
                    // intersect the two sorted attribute runs.
                    let class = xc;
                    let mut attrs: Vec<&Atom> = Vec::new();
                    while let Some((_, a)) = xs.next_if(|(c, _)| c == class) {
                        if a == STAR {
                            return true;
                        }
                        attrs.push(a);
                    }
                    let mut i = 0;
                    while let Some((_, a)) = ys.next_if(|(c, _)| c == class) {
                        if a == STAR {
                            return true;
                        }
                        while i < attrs.len() && attrs[i] < a {
                            i += 1;
                        }
                        if i < attrs.len() && attrs[i] == a {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// `true` when the two sets share any class (the coarser test).
    pub fn overlaps_class(&self, other: &AccessSet) -> bool {
        let mine = self.classes();
        other.classes().iter().any(|c| mine.contains(*c))
    }
}

/// The static read and write sets of one rule, with the writes factored
/// by how they compose: *delta* writes (arithmetic increment/decrement
/// `modify`s — read-modify-write against the matched tuple's own value,
/// so any interleaving sums the same), *insert* writes (`make` — a fresh
/// tuple no concurrent firing can be holding), and *absolute* writes
/// (`remove` and last-writer-wins `modify`s — order-sensitive). The
/// single fused write set the analysis exposed before the split is still
/// available as [`RuleAccess::writes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleAccess {
    /// Class+attribute pairs the LHS reads.
    pub reads: AccessSet,
    /// `modify`s of the form `^a (+ <v> k)` / `^a (- <v> k)` where `<v>`
    /// is equality-bound to the *same* attribute of the target CE —
    /// commutative counter bumps.
    pub delta_writes: AccessSet,
    /// `make` targets: `(class, *)` per created class.
    pub insert_writes: AccessSet,
    /// `remove`s and non-delta `modify`s — absolute, order-sensitive.
    pub absolute_writes: AccessSet,
    /// Classes appearing under a negated CE. Absence-of-tuple conditions
    /// are invisible to per-tuple validation, so anything touching these
    /// classes is barred from commuting (see [`commutes`]).
    pub negated_classes: BTreeSet<Atom>,
}

impl RuleAccess {
    /// Compat accessor: the union of every write category — exactly the
    /// single `writes` set this analysis exposed before the
    /// delta/insert/absolute split. [`interferes`] and the static
    /// engine's partitioner judge against this fused set.
    pub fn writes(&self) -> AccessSet {
        let mut out = AccessSet::new();
        for set in [&self.delta_writes, &self.insert_writes, &self.absolute_writes] {
            for (c, a) in set.iter() {
                out.add(c.clone(), a.clone());
            }
        }
        out
    }

    /// The reads that are *not* the RMW leg of this rule's own delta
    /// writes: a counter rule reads its cell only to bump it, and that
    /// read commutes with other bumps; every other read is a plain
    /// (order-sensitive) observation.
    fn plain_reads(&self) -> AccessSet {
        let mut out = AccessSet::new();
        for (c, a) in self.reads.iter() {
            if !self
                .delta_writes
                .iter()
                .any(|(dc, da)| dc == c && da == a)
            {
                out.add(c.clone(), a.clone());
            }
        }
        out
    }

    /// `true` when any access (read or any write category) touches
    /// `class`.
    fn touches_class(&self, class: &Atom) -> bool {
        self.reads.has_class(class)
            || self.delta_writes.has_class(class)
            || self.insert_writes.has_class(class)
            || self.absolute_writes.has_class(class)
    }
}

/// `true` when a `modify` expression is an arithmetic delta against the
/// matched tuple's own value of `attr`: `(+ <v> k)`, `(+ k <v>)` or
/// `(- <v> k)` with `k` constant and `<v>` equality-bound to `attr` on
/// the target CE. Only `+`/`-` qualify — they commute with each other;
/// `*`/`/`/`%` do not commute with addition, so they stay absolute.
fn is_delta_expr(target: &ConditionElement, attr: &Atom, expr: &Expr) -> bool {
    let bound_to_attr = |v: &VarName| {
        target.tests.iter().any(|t| {
            t.attr == *attr
                && t.predicate == Predicate::Eq
                && matches!(&t.operand, TestAtom::Var(tv) if tv == v)
        })
    };
    match expr {
        Expr::BinOp(Op::Add, l, r) => match (&**l, &**r) {
            (Expr::Var(v), Expr::Const(_)) | (Expr::Const(_), Expr::Var(v)) => bound_to_attr(v),
            _ => false,
        },
        Expr::BinOp(Op::Sub, l, r) => match (&**l, &**r) {
            (Expr::Var(v), Expr::Const(_)) => bound_to_attr(v),
            _ => false,
        },
        _ => false,
    }
}

/// Computes the read and write sets of a rule.
///
/// * Every attribute tested by a (positive or negated) CE is a read of
///   `(class, attr)`; a test-free CE reads `(class, *)`.
/// * `make` writes `(class, *)` into the insert set — a new tuple affects
///   any reader of the class (e.g. negated CEs).
/// * `modify` writes `(class, attr)` for each assigned attribute — into
///   the delta set when the expression is an increment/decrement of the
///   matched value (`is_delta_expr`), the absolute set otherwise — and
///   reads nothing extra (the tuple was already read by its CE).
/// * `remove` writes `(class, *)` of the removed CE's class (absolute).
pub fn rule_access(rule: &Rule) -> RuleAccess {
    let mut access = RuleAccess::default();
    let positive: Vec<&ConditionElement> = rule.positive_ces().collect();
    for cond in &rule.conditions {
        let ce = cond.ce();
        if ce.tests.is_empty() {
            access.reads.add_class(ce.class.clone());
        } else {
            for t in &ce.tests {
                access.reads.add(ce.class.clone(), t.attr.clone());
            }
        }
        // A negated CE is sensitive to *any* tuple of the class appearing,
        // so it also reads the wildcard (this is the paper's negative-
        // dependence case that motivates relation-level R_c escalation).
        if cond.is_negated() {
            access.reads.add_class(ce.class.clone());
            access.negated_classes.insert(ce.class.clone());
        }
    }
    for action in &rule.actions {
        match action {
            Action::Make { class, .. } => access.insert_writes.add_class(class.clone()),
            Action::Modify { ce, attrs } => {
                if let Some(target) = positive.get(*ce - 1) {
                    for (attr, expr) in attrs {
                        if is_delta_expr(target, attr, expr) {
                            access.delta_writes.add(target.class.clone(), attr.clone());
                        } else {
                            access.absolute_writes.add(target.class.clone(), attr.clone());
                        }
                    }
                }
            }
            Action::Remove { ce } => {
                if let Some(target) = positive.get(*ce - 1) {
                    access.absolute_writes.add_class(target.class.clone());
                }
            }
            Action::Halt => {}
        }
    }
    access
}

/// Granularity at which interference is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// Class only — cheap and very conservative.
    Class,
    /// Class + attribute — finer, still static.
    ClassAttribute,
}

/// Static interference test between two rules: read-write or write-write
/// overlap of their access sets (the paper's §4.1 definition; also the
/// *conflicting operations* notion of \[PAPA86\] per footnote 4).
pub fn interferes(a: &RuleAccess, b: &RuleAccess, gran: Granularity) -> bool {
    let overlap = |x: &AccessSet, y: &AccessSet| match gran {
        Granularity::Class => x.overlaps_class(y),
        Granularity::ClassAttribute => x.overlaps(y),
    };
    let (aw, bw) = (a.writes(), b.writes());
    overlap(&aw, &bw) || overlap(&aw, &b.reads) || overlap(&a.reads, &bw)
}

/// Static commutativity judgment: `true` when firing `a` then `b` is
/// guaranteed to leave the same working memory as firing `b` then `a`,
/// for *any* pair of instantiations. This is the coordination-avoidance
/// question (Bailis et al.): commuting firings need no lock-manager
/// traffic at all. The judgment is deliberately conservative — `false`
/// means "could not prove it", not "does not commute".
///
/// The rules, in order:
/// 1. **Negated-CE poison.** If either rule has a negated CE on class C
///    and the other touches C in any way (read or any write), they do
///    not commute: an insert/remove on C flips the absence test, and
///    absence is invisible to the per-tuple timestamp validation the
///    elided-commit protocol relies on. (A rule with a negated CE never
///    commutes with itself either — it reads its own negated class.)
/// 2. **Absolute writes dominate.** An absolute (last-writer-wins)
///    write overlapping *any* access of the other rule — read, delta,
///    insert or absolute — kills commutativity in both directions.
/// 3. **Deltas vs plain reads.** A delta write is a counter bump; it
///    commutes with other bumps of the same cell but not with a rule
///    that *observes* the cell (reads it other than as its own RMW
///    leg): the observer would see different values in the two orders.
/// 4. Everything else commutes: delta-delta on the same cell, `make`
///    vs `make` (fresh tuples, distinct timestamps), `make` vs reads
///    of non-negated CEs (a positive CE match set only grows; already-
///    claimed instantiations are unaffected), and disjoint accesses.
pub fn commutes(a: &RuleAccess, b: &RuleAccess, gran: Granularity) -> bool {
    let overlap = |x: &AccessSet, y: &AccessSet| match gran {
        Granularity::Class => x.overlaps_class(y),
        Granularity::ClassAttribute => x.overlaps(y),
    };
    // Rule 1: negated-CE poison, both directions.
    for class in &a.negated_classes {
        if b.touches_class(class) {
            return false;
        }
    }
    for class in &b.negated_classes {
        if a.touches_class(class) {
            return false;
        }
    }
    // Rule 2: absolute writes vs any access of the other, both directions.
    for (abs, other) in [(&a.absolute_writes, b), (&b.absolute_writes, a)] {
        if overlap(abs, &other.reads)
            || overlap(abs, &other.delta_writes)
            || overlap(abs, &other.insert_writes)
            || overlap(abs, &other.absolute_writes)
        {
            return false;
        }
    }
    // Rule 3: delta writes vs the other's plain (non-RMW) reads.
    if overlap(&a.delta_writes, &b.plain_reads()) || overlap(&b.delta_writes, &a.plain_reads()) {
        return false;
    }
    true
}

/// Partitions rules into non-interfering groups greedily: each rule joins
/// the first group it does not interfere with; otherwise it founds a new
/// group. Returns per-rule group indices.
///
/// Greedy colouring is the practical choice the paper alludes to when it
/// notes optimal partitioning is infeasible ("very difficult, if not
/// impossible, to optimally partition the rules ... because of the state
/// explosion problem").
pub fn partition(rules: &[Rule], gran: Granularity) -> Vec<usize> {
    let accesses: Vec<RuleAccess> = rules.iter().map(rule_access).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut assignment = vec![0usize; rules.len()];
    for (i, acc) in accesses.iter().enumerate() {
        let slot = groups.iter().position(|members| {
            members
                .iter()
                .all(|&j| !interferes(acc, &accesses[j], gran))
        });
        match slot {
            Some(g) => {
                groups[g].push(i);
                assignment[i] = g;
            }
            None => {
                groups.push(vec![i]);
                assignment[i] = groups.len() - 1;
            }
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    fn acc(src: &str) -> RuleAccess {
        rule_access(&parse_rule(src).unwrap())
    }

    #[test]
    fn reads_cover_tested_attributes() {
        let a = acc("(p r (job ^stage <s> ^cost > 1) --> )");
        assert_eq!(a.reads.len(), 2);
        assert!(a.writes().is_empty());
    }

    #[test]
    fn test_free_ce_reads_wildcard() {
        let a = acc("(p r (job) --> )");
        assert_eq!(a.reads.iter().next().unwrap().1.as_str(), "*");
    }

    #[test]
    fn negated_ce_reads_class_wildcard() {
        let a = acc("(p r (go) -(hold ^k v) --> )");
        assert!(a
            .reads
            .iter()
            .any(|(c, at)| c == &Atom::from("hold") && at == &Atom::from("*")));
    }

    #[test]
    fn make_and_remove_write_wildcard_modify_writes_attr() {
        let a = acc("(p r (job ^cost <c>) --> (modify 1 ^cost (+ <c> 1)) (make log) (remove 1))");
        let w = a.writes();
        assert!(w
            .iter()
            .any(|(c, at)| c.as_str() == "job" && at.as_str() == "cost"));
        assert!(w
            .iter()
            .any(|(c, at)| c.as_str() == "log" && at.as_str() == "*"));
        assert!(w
            .iter()
            .any(|(c, at)| c.as_str() == "job" && at.as_str() == "*"));
        // And the split sees through the fused view: the increment is a
        // delta, make an insert, remove an absolute wildcard.
        assert!(a.delta_writes.iter().any(|(c, _)| c.as_str() == "job"));
        assert!(a.insert_writes.iter().any(|(c, _)| c.as_str() == "log"));
        assert!(a
            .absolute_writes
            .iter()
            .any(|(c, at)| c.as_str() == "job" && at.as_str() == "*"));
    }

    #[test]
    fn delta_detection_requires_self_binding() {
        // (+ <c> 1) where <c> is bound to ^cost of the target → delta.
        let bump = acc("(p r (job ^cost <c>) --> (modify 1 ^cost (+ <c> 1)))");
        assert!(!bump.delta_writes.is_empty());
        assert!(bump.absolute_writes.is_empty());
        // Constant store is absolute.
        let store = acc("(p r (job ^cost <c>) --> (modify 1 ^cost 0))");
        assert!(store.delta_writes.is_empty());
        assert!(!store.absolute_writes.is_empty());
        // Adding a value bound to a *different* attribute is absolute.
        let cross = acc("(p r (job ^cost <c> ^step <s>) --> (modify 1 ^cost (+ <s> 1)))");
        assert!(cross.delta_writes.is_empty());
        assert!(!cross.absolute_writes.is_empty());
        // Multiplication never qualifies.
        let mul = acc("(p r (job ^cost <c>) --> (modify 1 ^cost (* <c> 2)))");
        assert!(mul.delta_writes.is_empty());
        // Subtraction qualifies only with the variable on the left.
        let dec = acc("(p r (job ^cost <c>) --> (modify 1 ^cost (- <c> 1)))");
        assert!(!dec.delta_writes.is_empty());
        let rsub = acc("(p r (job ^cost <c>) --> (modify 1 ^cost (- 1 <c>)))");
        assert!(rsub.delta_writes.is_empty());
    }

    #[test]
    fn disjoint_rules_do_not_interfere() {
        let a = acc("(p a (x ^v <v>) --> (modify 1 ^v 0))");
        let b = acc("(p b (y ^v <v>) --> (modify 1 ^v 0))");
        assert!(!interferes(&a, &b, Granularity::ClassAttribute));
        assert!(!interferes(&a, &b, Granularity::Class));
    }

    #[test]
    fn read_write_overlap_interferes() {
        let reader = acc("(p a (x ^v <v>) --> )");
        let writer = acc("(p b (x ^v <v>) --> (modify 1 ^v 0))");
        assert!(interferes(&reader, &writer, Granularity::ClassAttribute));
        // Read-read does not interfere.
        assert!(!interferes(&reader, &reader, Granularity::ClassAttribute));
    }

    #[test]
    fn class_granularity_reports_false_interference() {
        // Same class, different attributes: attribute granularity clears
        // them; class granularity (conservatively) does not — the paper's
        // 'false interference' phenomenon.
        let a = acc("(p a (x ^left <v>) --> (modify 1 ^left 0))");
        let b = acc("(p b (x ^right <v>) --> (modify 1 ^right 0))");
        assert!(!interferes(&a, &b, Granularity::ClassAttribute));
        assert!(interferes(&a, &b, Granularity::Class));
    }

    #[test]
    fn make_interferes_with_negated_reader() {
        let maker = acc("(p a (go) --> (make hold ^k v))");
        let negreader = acc("(p b (go) -(hold ^k v) --> )");
        assert!(interferes(&maker, &negreader, Granularity::ClassAttribute));
    }

    #[test]
    fn partition_groups_noninterfering_rules() {
        let rules = vec![
            parse_rule("(p a (x ^v <v>) --> (modify 1 ^v 0))").unwrap(),
            parse_rule("(p b (y ^v <v>) --> (modify 1 ^v 0))").unwrap(),
            parse_rule("(p c (x ^v <v>) --> (remove 1))").unwrap(),
        ];
        let groups = partition(&rules, Granularity::ClassAttribute);
        assert_eq!(groups[0], groups[1], "a and b are disjoint → same group");
        assert_ne!(groups[0], groups[2], "a and c clash on x.v → split");
    }

    #[test]
    fn partition_of_empty_ruleset() {
        assert!(partition(&[], Granularity::Class).is_empty());
    }

    const G: Granularity = Granularity::ClassAttribute;

    #[test]
    fn counter_bump_commutes_with_itself_but_not_with_store() {
        let bump = acc("(p b (ctr ^n <n>) --> (modify 1 ^n (+ <n> 1)))");
        let store = acc("(p s (ctr ^n <n>) --> (modify 1 ^n 0))");
        // Two bumps of the same cell interfere (write-write) yet commute.
        assert!(interferes(&bump, &bump, G));
        assert!(commutes(&bump, &bump, G));
        // An absolute store commutes with nothing that touches the cell.
        assert!(!commutes(&bump, &store, G));
        assert!(!commutes(&store, &bump, G));
        assert!(!commutes(&store, &store, G));
    }

    #[test]
    fn delta_does_not_commute_with_plain_reader() {
        let bump = acc("(p b (ctr ^n <n>) --> (modify 1 ^n (+ <n> 1)))");
        let reader = acc("(p r (ctr ^n > 5) --> (make alarm))");
        assert!(!commutes(&bump, &reader, G));
    }

    #[test]
    fn makes_commute_with_makes_and_deltas() {
        let mk_a = acc("(p a (go) --> (make log ^src a))");
        let mk_b = acc("(p b (go) --> (make log ^src b))");
        let bump = acc("(p c (ctr ^n <n>) --> (modify 1 ^n (+ <n> 1)))");
        assert!(commutes(&mk_a, &mk_b, G));
        assert!(commutes(&mk_a, &mk_a, G));
        assert!(commutes(&mk_a, &bump, G));
    }

    #[test]
    fn negated_ce_poisons_commutativity() {
        let maker = acc("(p a (go) --> (make hold ^k v))");
        let negreader = acc("(p b (go) -(hold ^k v) --> (make log))");
        assert!(!commutes(&maker, &negreader, G));
        assert!(!commutes(&negreader, &maker, G));
        // A negated rule never commutes with itself: it reads the very
        // class whose absence it asserts.
        assert!(!commutes(&negreader, &negreader, G));
        // But a rule on untouched classes is unaffected by the negation.
        let other = acc("(p c (ctr ^n <n>) --> (modify 1 ^n (+ <n> 1)))");
        assert!(commutes(&negreader, &other, G));
    }

    #[test]
    fn remove_never_commutes_with_same_class_access() {
        let rm = acc("(p a (job ^done yes) --> (remove 1))");
        let bump = acc("(p b (job ^cost <c>) --> (modify 1 ^cost (+ <c> 1)))");
        assert!(!commutes(&rm, &bump, G));
        assert!(!commutes(&rm, &rm, G));
    }

    #[test]
    fn disjoint_rules_commute() {
        let a = acc("(p a (x ^v <v>) --> (modify 1 ^v 0))");
        let b = acc("(p b (y ^v <v>) --> (modify 1 ^v 0))");
        assert!(commutes(&a, &b, G));
        assert!(commutes(&a, &b, Granularity::Class));
    }

    #[test]
    fn overlaps_linear_walk_agrees_with_wildcards() {
        // Regression net for the merge walk: wildcard anywhere in a
        // shared class run must hit, regardless of sort position.
        let mut x = AccessSet::new();
        x.add(Atom::from("c"), Atom::from("a"));
        x.add(Atom::from("c"), Atom::from("z"));
        let mut y = AccessSet::new();
        y.add_class(Atom::from("c"));
        assert!(x.overlaps(&y));
        assert!(y.overlaps(&x));
        let mut z = AccessSet::new();
        z.add(Atom::from("c"), Atom::from("m"));
        assert!(!x.overlaps(&z));
        z.add(Atom::from("c"), Atom::from("z"));
        assert!(x.overlaps(&z));
        // Disjoint classes interleaved.
        let mut p = AccessSet::new();
        p.add(Atom::from("a"), Atom::from("v"));
        p.add(Atom::from("m"), Atom::from("v"));
        let mut q = AccessSet::new();
        q.add(Atom::from("b"), Atom::from("v"));
        q.add(Atom::from("n"), Atom::from("v"));
        assert!(!p.overlaps(&q));
        assert!(p.overlaps(&p));
    }
}
