//! The rule abstract syntax tree.

use std::fmt;

use dps_wm::{Atom, Value};

use crate::RuleError;

/// A variable name, e.g. the `x` in `<x>`.
pub type VarName = Atom;

/// The operand of an attribute test: a constant or a variable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TestAtom {
    /// Compare against a constant.
    Const(Value),
    /// Compare against (or bind) a variable.
    Var(VarName),
    /// OPS5 value disjunction `<< v1 v2 ... >>`: equal to any listed
    /// constant. Only meaningful with [`Predicate::Eq`] (validated).
    OneOf(Vec<Value>),
}

impl fmt::Display for TestAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestAtom::Const(v) => write!(f, "{v}"),
            TestAtom::Var(v) => write!(f, "<{v}>"),
            TestAtom::OneOf(vs) => {
                write!(f, "<<")?;
                for v in vs {
                    write!(f, " {v}")?;
                }
                write!(f, " >>")
            }
        }
    }
}

/// Comparison predicate in an attribute test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `=` — equality (and the binding occurrence for unbound variables).
    Eq,
    /// `<>` — inequality.
    Ne,
    /// `<` — numeric less-than.
    Lt,
    /// `<=` — numeric less-or-equal.
    Le,
    /// `>` — numeric greater-than.
    Gt,
    /// `>=` — numeric greater-or-equal.
    Ge,
}

impl Predicate {
    /// Applies the predicate to a WME value (left) and operand (right).
    /// Ordering predicates on non-numeric values evaluate to `false`.
    pub fn apply(self, left: &Value, right: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Predicate::Eq => left.loose_eq(right),
            Predicate::Ne => !left.loose_eq(right),
            Predicate::Lt => left.num_cmp(right) == Some(Less),
            Predicate::Le => matches!(left.num_cmp(right), Some(Less | Equal)),
            Predicate::Gt => left.num_cmp(right) == Some(Greater),
            Predicate::Ge => matches!(left.num_cmp(right), Some(Greater | Equal)),
        }
    }

    /// The predicate with its operands swapped:
    /// `p.apply(a, b) == p.converse().apply(b, a)` for all values.
    pub fn converse(self) -> Predicate {
        match self {
            Predicate::Lt => Predicate::Gt,
            Predicate::Le => Predicate::Ge,
            Predicate::Gt => Predicate::Lt,
            Predicate::Ge => Predicate::Le,
            p @ (Predicate::Eq | Predicate::Ne) => p,
        }
    }

    /// The DSL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            Predicate::Eq => "=",
            Predicate::Ne => "<>",
            Predicate::Lt => "<",
            Predicate::Le => "<=",
            Predicate::Gt => ">",
            Predicate::Ge => ">=",
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One test on one attribute of the candidate WME.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AttrTest {
    /// Attribute being tested.
    pub attr: Atom,
    /// Predicate.
    pub predicate: Predicate,
    /// Right-hand operand.
    pub operand: TestAtom,
}

impl AttrTest {
    /// `true` when the operand is bindings-free — such tests can be
    /// evaluated in the alpha network.
    pub fn is_constant(&self) -> bool {
        matches!(self.operand, TestAtom::Const(_) | TestAtom::OneOf(_))
    }
}

/// A condition element: a pattern over one class.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ConditionElement {
    /// Class the candidate WME must belong to.
    pub class: Atom,
    /// Conjunction of attribute tests.
    pub tests: Vec<AttrTest>,
}

impl ConditionElement {
    /// Creates a test-free pattern matching any WME of `class`.
    pub fn any(class: impl Into<Atom>) -> Self {
        ConditionElement {
            class: class.into(),
            tests: Vec::new(),
        }
    }

    /// The constant (bindings-free) tests — the alpha-network share key.
    pub fn constant_tests(&self) -> impl Iterator<Item = &AttrTest> {
        self.tests.iter().filter(|t| t.is_constant())
    }

    /// The variable tests, which require join-time bindings.
    pub fn variable_tests(&self) -> impl Iterator<Item = &AttrTest> {
        self.tests.iter().filter(|t| !t.is_constant())
    }

    /// Variables this CE can *bind* (equality tests on a variable).
    pub fn bindable_vars(&self) -> impl Iterator<Item = &VarName> {
        self.tests
            .iter()
            .filter_map(|t| match (&t.predicate, &t.operand) {
                (Predicate::Eq, TestAtom::Var(v)) => Some(v),
                _ => None,
            })
    }

    /// All variables mentioned by this CE.
    pub fn mentioned_vars(&self) -> impl Iterator<Item = &VarName> {
        self.tests.iter().filter_map(|t| match &t.operand {
            TestAtom::Var(v) => Some(v),
            _ => None,
        })
    }
}

/// A positive or negated condition element.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Condition {
    /// Must match at least one WME.
    Pos(ConditionElement),
    /// Must match no WME (OPS5 negation).
    Neg(ConditionElement),
}

impl Condition {
    /// The underlying pattern.
    pub fn ce(&self) -> &ConditionElement {
        match self {
            Condition::Pos(ce) | Condition::Neg(ce) => ce,
        }
    }

    /// `true` for a negated CE.
    pub fn is_negated(&self) -> bool {
        matches!(self, Condition::Neg(_))
    }
}

/// Arithmetic operator in an RHS expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division when both operands are integers;
    /// division by zero is a runtime [`RuleError`]).
    Div,
    /// Remainder.
    Mod,
}

impl Op {
    /// The DSL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "/",
            Op::Mod => "%",
        }
    }
}

/// An RHS expression: constants, bound variables and arithmetic.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// A variable bound by the LHS.
    Var(VarName),
    /// Binary arithmetic.
    BinOp(Op, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for binary operations.
    pub fn bin(op: Op, l: Expr, r: Expr) -> Expr {
        Expr::BinOp(op, Box::new(l), Box::new(r))
    }

    /// Variables mentioned anywhere in the expression.
    pub fn vars(&self, out: &mut Vec<VarName>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::BinOp(_, l, r) => {
                l.vars(out);
                r.vars(out);
            }
        }
    }
}

/// One RHS operation. `make`/`modify`/`remove` mirror the paper's
/// `create`/`modify`/`delete`; `halt` stops the interpreter (OPS5).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// Insert a new WME.
    Make {
        /// Class of the new element.
        class: Atom,
        /// Attribute expressions.
        attrs: Vec<(Atom, Expr)>,
    },
    /// Modify the WME matched by the `ce`-th positive condition element
    /// (1-based, as in OPS5).
    Modify {
        /// 1-based positive-CE index.
        ce: usize,
        /// Attributes to overwrite.
        attrs: Vec<(Atom, Expr)>,
    },
    /// Remove the WME matched by the `ce`-th positive condition element.
    Remove {
        /// 1-based positive-CE index.
        ce: usize,
    },
    /// Stop the interpreter after this production commits.
    Halt,
}

/// A production rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Unique rule name.
    pub name: Atom,
    /// Priority used by salience-based conflict resolution (default 0).
    pub salience: i32,
    /// The LHS: an ordered conjunction of condition elements.
    pub conditions: Vec<Condition>,
    /// The RHS.
    pub actions: Vec<Action>,
}

impl Rule {
    /// Number of positive condition elements.
    pub fn positive_arity(&self) -> usize {
        self.conditions.iter().filter(|c| !c.is_negated()).count()
    }

    /// The positive condition elements, in order.
    pub fn positive_ces(&self) -> impl Iterator<Item = &ConditionElement> {
        self.conditions
            .iter()
            .filter(|c| !c.is_negated())
            .map(Condition::ce)
    }

    /// Structural validation:
    ///
    /// * the first condition must be positive (it anchors the join chain);
    /// * every variable used in a negated CE, an ordering/inequality test,
    ///   or the RHS must be bound by an earlier (or same, for positive CEs)
    ///   equality occurrence;
    /// * `modify`/`remove` indices must reference existing positive CEs.
    pub fn validate(&self) -> Result<(), RuleError> {
        if self.conditions.is_empty() {
            return Err(RuleError::Invalid(
                self.name.clone(),
                "rule has no conditions".into(),
            ));
        }
        if self.conditions[0].is_negated() {
            return Err(RuleError::Invalid(
                self.name.clone(),
                "first condition element must be positive".into(),
            ));
        }
        let mut bound: Vec<VarName> = Vec::new();
        for cond in &self.conditions {
            let ce = cond.ce();
            // Non-binding uses must refer to variables bound earlier or
            // (for positive CEs) bindable within this CE.
            let locally_bindable: Vec<&VarName> = if cond.is_negated() {
                // A negated CE may bind variables only for its own local
                // tests; those bindings do not escape. We allow local
                // equality occurrences.
                ce.bindable_vars().collect()
            } else {
                ce.bindable_vars().collect()
            };
            for t in &ce.tests {
                if let TestAtom::OneOf(vs) = &t.operand {
                    if t.predicate != Predicate::Eq {
                        return Err(RuleError::Invalid(
                            self.name.clone(),
                            format!("disjunction on ^{} requires the = predicate", t.attr),
                        ));
                    }
                    if vs.is_empty() {
                        return Err(RuleError::Invalid(
                            self.name.clone(),
                            format!("empty disjunction on ^{}", t.attr),
                        ));
                    }
                }
                if let TestAtom::Var(v) = &t.operand {
                    let is_binding_occurrence = t.predicate == Predicate::Eq;
                    if !is_binding_occurrence
                        && !bound.contains(v)
                        && !locally_bindable.contains(&v)
                    {
                        return Err(RuleError::UnboundVariable(self.name.clone(), v.clone()));
                    }
                }
            }
            if !cond.is_negated() {
                for v in ce.bindable_vars() {
                    if !bound.contains(v) {
                        bound.push(v.clone());
                    }
                }
            }
        }
        let arity = self.positive_arity();
        for action in &self.actions {
            match action {
                Action::Make { attrs, .. } => {
                    for (_, e) in attrs {
                        let mut vs = Vec::new();
                        e.vars(&mut vs);
                        for v in vs {
                            if !bound.contains(&v) {
                                return Err(RuleError::UnboundVariable(self.name.clone(), v));
                            }
                        }
                    }
                }
                Action::Modify { ce, attrs } => {
                    if *ce == 0 || *ce > arity {
                        return Err(RuleError::BadCeIndex(self.name.clone(), *ce, arity));
                    }
                    for (_, e) in attrs {
                        let mut vs = Vec::new();
                        e.vars(&mut vs);
                        for v in vs {
                            if !bound.contains(&v) {
                                return Err(RuleError::UnboundVariable(self.name.clone(), v));
                            }
                        }
                    }
                }
                Action::Remove { ce } => {
                    if *ce == 0 || *ce > arity {
                        return Err(RuleError::BadCeIndex(self.name.clone(), *ce, arity));
                    }
                }
                Action::Halt => {}
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Display: the canonical DSL rendering (parse . to_string == identity).
// ---------------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "<{v}>"),
            Expr::BinOp(op, l, r) => write!(f, "({} {l} {r})", op.symbol()),
        }
    }
}

impl fmt::Display for ConditionElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.class)?;
        // Group tests by attribute so conjunctions render inside braces.
        let mut i = 0;
        while i < self.tests.len() {
            let attr = &self.tests[i].attr;
            let mut j = i;
            while j < self.tests.len() && &self.tests[j].attr == attr {
                j += 1;
            }
            let group = &self.tests[i..j];
            write!(f, " ^{attr} ")?;
            if group.len() == 1 && group[0].predicate == Predicate::Eq {
                write!(f, "{}", group[0].operand)?;
            } else {
                write!(f, "{{")?;
                for t in group {
                    if t.predicate == Predicate::Eq {
                        write!(f, " {}", t.operand)?;
                    } else {
                        write!(f, " {} {}", t.predicate, t.operand)?;
                    }
                }
                write!(f, " }}")?;
            }
            i = j;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Pos(ce) => write!(f, "{ce}"),
            Condition::Neg(ce) => write!(f, "-{ce}"),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Make { class, attrs } => {
                write!(f, "(make {class}")?;
                for (a, e) in attrs {
                    write!(f, " ^{a} {e}")?;
                }
                write!(f, ")")
            }
            Action::Modify { ce, attrs } => {
                write!(f, "(modify {ce}")?;
                for (a, e) in attrs {
                    write!(f, " ^{a} {e}")?;
                }
                write!(f, ")")
            }
            Action::Remove { ce } => write!(f, "(remove {ce})"),
            Action::Halt => write!(f, "(halt)"),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(p {}", self.name)?;
        if self.salience != 0 {
            write!(f, " (salience {})", self.salience)?;
        }
        for c in &self.conditions {
            write!(f, "\n   {c}")?;
        }
        write!(f, "\n   -->")?;
        for a in &self.actions {
            write!(f, "\n   {a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(s: &str) -> TestAtom {
        TestAtom::Var(Atom::from(s))
    }

    fn test(attr: &str, p: Predicate, op: TestAtom) -> AttrTest {
        AttrTest {
            attr: Atom::from(attr),
            predicate: p,
            operand: op,
        }
    }

    fn simple_rule() -> Rule {
        Rule {
            name: Atom::from("r"),
            salience: 0,
            conditions: vec![Condition::Pos(ConditionElement {
                class: Atom::from("task"),
                tests: vec![test("n", Predicate::Eq, var("x"))],
            })],
            actions: vec![Action::Modify {
                ce: 1,
                attrs: vec![(
                    Atom::from("n"),
                    Expr::bin(
                        Op::Add,
                        Expr::Var(Atom::from("x")),
                        Expr::Const(Value::Int(1)),
                    ),
                )],
            }],
        }
    }

    #[test]
    fn predicates_apply() {
        use Predicate::*;
        let (two, three) = (Value::Int(2), Value::Int(3));
        assert!(Eq.apply(&two, &Value::Float(2.0)));
        assert!(Ne.apply(&two, &three));
        assert!(Lt.apply(&two, &three));
        assert!(Le.apply(&two, &two));
        assert!(Gt.apply(&three, &two));
        assert!(Ge.apply(&three, &three));
        // Ordering on non-numerics is false, never a panic.
        assert!(!Lt.apply(&Value::from("a"), &Value::from("b")));
    }

    #[test]
    fn converse_swaps_operands() {
        use Predicate::*;
        let big = 1i64 << 53;
        let values = [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(big - 1),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(-1.0),
            Value::Float(big as f64),
            Value::Float(f64::NAN),
            Value::from("sym"),
            Value::from(String::from("sym")),
            Value::Bool(true),
            Value::Bool(false),
            Value::Nil,
        ];
        for p in [Eq, Ne, Lt, Le, Gt, Ge] {
            assert_eq!(p.converse().converse(), p);
            for a in &values {
                for b in &values {
                    assert_eq!(
                        p.apply(a, b),
                        p.converse().apply(b, a),
                        "{p} on {a:?}, {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn valid_rule_passes() {
        assert_eq!(simple_rule().validate(), Ok(()));
    }

    #[test]
    fn first_condition_must_be_positive() {
        let mut r = simple_rule();
        r.conditions[0] = Condition::Neg(ConditionElement::any("task"));
        assert!(matches!(r.validate(), Err(RuleError::Invalid(_, _))));
    }

    #[test]
    fn empty_disjunction_rejected() {
        // The parser rejects `<< >>` before validation runs, so only an
        // AST built directly reaches this check.
        let mut r = simple_rule();
        r.conditions.push(Condition::Pos(ConditionElement {
            class: Atom::from("job"),
            tests: vec![test("state", Predicate::Eq, TestAtom::OneOf(vec![]))],
        }));
        assert!(matches!(r.validate(), Err(RuleError::Invalid(_, _))));
    }

    #[test]
    fn empty_conditions_rejected() {
        let mut r = simple_rule();
        r.conditions.clear();
        assert!(r.validate().is_err());
    }

    #[test]
    fn unbound_variable_in_rhs_rejected() {
        let mut r = simple_rule();
        r.actions.push(Action::Make {
            class: Atom::from("out"),
            attrs: vec![(Atom::from("v"), Expr::Var(Atom::from("ghost")))],
        });
        assert_eq!(
            r.validate(),
            Err(RuleError::UnboundVariable(
                Atom::from("r"),
                Atom::from("ghost")
            ))
        );
    }

    #[test]
    fn unbound_variable_in_ordering_test_rejected() {
        let mut r = simple_rule();
        r.conditions.push(Condition::Pos(ConditionElement {
            class: Atom::from("limit"),
            tests: vec![test("max", Predicate::Lt, var("unseen"))],
        }));
        assert!(matches!(
            r.validate(),
            Err(RuleError::UnboundVariable(_, _))
        ));
    }

    #[test]
    fn negated_ce_variables_do_not_escape() {
        // <y> bound only inside a negated CE must not be usable in the RHS.
        let mut r = simple_rule();
        r.conditions.push(Condition::Neg(ConditionElement {
            class: Atom::from("block"),
            tests: vec![test("v", Predicate::Eq, var("y"))],
        }));
        r.actions.push(Action::Make {
            class: Atom::from("out"),
            attrs: vec![(Atom::from("v"), Expr::Var(Atom::from("y")))],
        });
        assert!(matches!(
            r.validate(),
            Err(RuleError::UnboundVariable(_, _))
        ));
    }

    #[test]
    fn bad_ce_index_rejected() {
        let mut r = simple_rule();
        r.actions.push(Action::Remove { ce: 2 });
        assert_eq!(
            r.validate(),
            Err(RuleError::BadCeIndex(Atom::from("r"), 2, 1))
        );
        r.actions.pop();
        r.actions.push(Action::Remove { ce: 0 });
        assert!(r.validate().is_err());
    }

    #[test]
    fn display_renders_dsl() {
        let r = simple_rule();
        let s = r.to_string();
        assert!(s.starts_with("(p r"));
        assert!(s.contains("(task ^n <x>)"));
        assert!(s.contains("-->"));
        assert!(s.contains("(modify 1 ^n (+ <x> 1))"));
    }

    #[test]
    fn display_groups_conjunctive_tests_in_braces() {
        let ce = ConditionElement {
            class: Atom::from("j"),
            tests: vec![
                test("cost", Predicate::Gt, TestAtom::Const(Value::Int(0))),
                test("cost", Predicate::Eq, var("c")),
            ],
        };
        assert_eq!(ce.to_string(), "(j ^cost { > 0 <c> })");
    }

    #[test]
    fn ce_classifies_tests() {
        let ce = ConditionElement {
            class: Atom::from("j"),
            tests: vec![
                test("a", Predicate::Eq, TestAtom::Const(Value::Int(1))),
                test("b", Predicate::Eq, var("x")),
                test("c", Predicate::Lt, var("x")),
            ],
        };
        assert_eq!(ce.constant_tests().count(), 1);
        assert_eq!(ce.variable_tests().count(), 2);
        assert_eq!(ce.bindable_vars().count(), 1);
        assert_eq!(ce.mentioned_vars().count(), 2);
    }
}
