//! Evaluation: matching condition elements and instantiating RHS actions.

use std::sync::Arc;

use dps_wm::{AttrMap, DeltaSet, Value, Wme};

use crate::{Action, Bindings, ConditionElement, Expr, Op, Predicate, Rule, RuleError, TestAtom};

/// Matches one condition element against one WME under existing bindings.
///
/// On success returns the *extended* bindings (new equality occurrences
/// bound); on failure returns `None` and leaves the input untouched.
///
/// ```
/// use dps_rules::{match_ce, Bindings, parser};
/// use dps_wm::{Wme, WmeData, WmeId};
///
/// let ce = parser::parse_condition_element("(job ^stage <s> ^cost { > 2 })").unwrap();
/// let wme = Wme {
///     id: WmeId(1),
///     data: WmeData::new("job").with("stage", "cut").with("cost", 5i64),
///     timestamp: 1,
/// };
/// let b = match_ce(&ce, &wme, &Bindings::new()).unwrap();
/// assert_eq!(b.get("s").unwrap().as_text(), Some("cut"));
/// ```
pub fn match_ce(ce: &ConditionElement, wme: &Wme, bindings: &Bindings) -> Option<Bindings> {
    if wme.class() != &ce.class {
        return None;
    }
    let mut out = bindings.clone();
    for test in &ce.tests {
        let actual = wme.get_or_nil(test.attr.as_str());
        match &test.operand {
            TestAtom::Const(expected) => {
                if !test.predicate.apply(&actual, expected) {
                    return None;
                }
            }
            TestAtom::OneOf(options) => {
                if !options.iter().any(|v| actual.loose_eq(v)) {
                    return None;
                }
            }
            TestAtom::Var(var) => match test.predicate {
                Predicate::Eq => {
                    if !out.unify(var, &actual) {
                        return None;
                    }
                }
                p => {
                    let bound = out.get(var.as_str())?;
                    if !p.apply(&actual, bound) {
                        return None;
                    }
                }
            },
        }
    }
    Some(out)
}

/// Evaluates only the *constant* tests of a condition element — the alpha
/// network predicate (class + constant tests, no bindings involved).
pub fn matches_constants(ce: &ConditionElement, wme: &Wme) -> bool {
    if wme.class() != &ce.class {
        return false;
    }
    ce.constant_tests().all(|t| {
        let actual = wme.get_or_nil(t.attr.as_str());
        match &t.operand {
            TestAtom::Const(expected) => t.predicate.apply(&actual, expected),
            TestAtom::OneOf(options) => options.iter().any(|v| actual.loose_eq(v)),
            TestAtom::Var(_) => unreachable!("constant_tests yields only constants"),
        }
    })
}

/// Evaluates an RHS expression under bindings.
pub fn eval_expr(expr: &Expr, bindings: &Bindings) -> Result<Value, RuleError> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(v) => bindings
            .get(v.as_str())
            .cloned()
            .ok_or_else(|| RuleError::Eval(format!("variable <{v}> is unbound"))),
        Expr::BinOp(op, l, r) => {
            let (l, r) = (eval_expr(l, bindings)?, eval_expr(r, bindings)?);
            apply_op(*op, &l, &r)
        }
    }
}

fn apply_op(op: Op, l: &Value, r: &Value) -> Result<Value, RuleError> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let out = match op {
                Op::Add => a.checked_add(*b),
                Op::Sub => a.checked_sub(*b),
                Op::Mul => a.checked_mul(*b),
                Op::Div => {
                    if *b == 0 {
                        return Err(RuleError::Eval("division by zero".into()));
                    }
                    a.checked_div(*b)
                }
                Op::Mod => {
                    if *b == 0 {
                        return Err(RuleError::Eval("remainder by zero".into()));
                    }
                    a.checked_rem(*b)
                }
            };
            out.map(Value::Int)
                .ok_or_else(|| RuleError::Eval(format!("integer overflow in {}", op.symbol())))
        }
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(RuleError::Eval(format!(
                        "cannot apply {} to {l} and {r}",
                        op.symbol()
                    )))
                }
            };
            let out = match op {
                Op::Add => a + b,
                Op::Sub => a - b,
                Op::Mul => a * b,
                Op::Div => {
                    if b == 0.0 {
                        return Err(RuleError::Eval("division by zero".into()));
                    }
                    a / b
                }
                Op::Mod => {
                    if b == 0.0 {
                        return Err(RuleError::Eval("remainder by zero".into()));
                    }
                    a % b
                }
            };
            Ok(Value::Float(out))
        }
    }
}

/// Instantiates a rule's RHS into a buffered [`DeltaSet`], given the final
/// bindings and the WMEs matched by the positive condition elements (in
/// CE order) — the matcher's shared tuples, as an instantiation holds
/// them.
///
/// Returns the delta set plus a `halt` flag (set by [`Action::Halt`]).
pub fn instantiate_actions(
    rule: &Rule,
    bindings: &Bindings,
    matched: &[Arc<Wme>],
) -> Result<(DeltaSet, bool), RuleError> {
    let arity = rule.positive_arity();
    if matched.len() != arity {
        return Err(RuleError::Eval(format!(
            "rule {} expects {arity} matched element(s), got {}",
            rule.name,
            matched.len()
        )));
    }
    // Size the delta, and each `make`'s attributes, to what they will
    // hold, so neither regrows while it is built.
    let ops = rule.actions.iter().filter(|a| !matches!(a, Action::Halt)).count();
    let mut delta = DeltaSet::with_capacity(ops);
    let mut halt = false;
    for action in &rule.actions {
        match action {
            Action::Make { class, attrs } => {
                let mut data = dps_wm::WmeData {
                    class: class.clone(),
                    attrs: AttrMap::with_capacity(attrs.len()),
                };
                for (attr, expr) in attrs {
                    data.set(attr.clone(), eval_expr(expr, bindings)?);
                }
                delta.create(data);
            }
            Action::Modify { ce, attrs } => {
                let target = &matched[*ce - 1];
                let mut changes = Vec::with_capacity(attrs.len());
                for (attr, expr) in attrs {
                    changes.push((attr.clone(), eval_expr(expr, bindings)?));
                }
                delta.modify(target.id, changes);
            }
            Action::Remove { ce } => {
                delta.remove(matched[*ce - 1].id);
            }
            Action::Halt => halt = true,
        }
    }
    Ok((delta, halt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrTest, Condition};
    use dps_wm::{Atom, WmeData, WmeId};

    fn wme(class: &str, pairs: &[(&str, Value)]) -> Wme {
        let mut data = WmeData::new(class);
        for (a, v) in pairs {
            data.set(*a, v.clone());
        }
        Wme {
            id: WmeId(1),
            data,
            timestamp: 1,
        }
    }

    fn ce(class: &str, tests: Vec<AttrTest>) -> ConditionElement {
        ConditionElement {
            class: Atom::from(class),
            tests,
        }
    }

    fn t(attr: &str, p: Predicate, op: TestAtom) -> AttrTest {
        AttrTest {
            attr: Atom::from(attr),
            predicate: p,
            operand: op,
        }
    }

    #[test]
    fn class_mismatch_fails() {
        let c = ce("a", vec![]);
        assert!(match_ce(&c, &wme("b", &[]), &Bindings::new()).is_none());
    }

    #[test]
    fn constant_tests_filter() {
        let c = ce(
            "a",
            vec![t("n", Predicate::Gt, TestAtom::Const(Value::Int(2)))],
        );
        assert!(match_ce(&c, &wme("a", &[("n", Value::Int(3))]), &Bindings::new()).is_some());
        assert!(match_ce(&c, &wme("a", &[("n", Value::Int(2))]), &Bindings::new()).is_none());
        // Missing attribute reads as Nil, which fails numeric tests.
        assert!(match_ce(&c, &wme("a", &[]), &Bindings::new()).is_none());
    }

    #[test]
    fn variable_binding_and_consistency() {
        let c = ce(
            "a",
            vec![
                t("x", Predicate::Eq, TestAtom::Var(Atom::from("v"))),
                t("y", Predicate::Eq, TestAtom::Var(Atom::from("v"))),
            ],
        );
        // x == y → binds then tests.
        assert!(match_ce(
            &c,
            &wme("a", &[("x", Value::Int(1)), ("y", Value::Int(1))]),
            &Bindings::new()
        )
        .is_some());
        assert!(match_ce(
            &c,
            &wme("a", &[("x", Value::Int(1)), ("y", Value::Int(2))]),
            &Bindings::new()
        )
        .is_none());
    }

    #[test]
    fn prebound_variable_is_tested_not_rebound() {
        let c = ce(
            "a",
            vec![t("x", Predicate::Eq, TestAtom::Var(Atom::from("v")))],
        );
        let mut b = Bindings::new();
        b.bind(Atom::from("v"), Value::Int(9));
        assert!(match_ce(&c, &wme("a", &[("x", Value::Int(9))]), &b).is_some());
        assert!(match_ce(&c, &wme("a", &[("x", Value::Int(8))]), &b).is_none());
    }

    #[test]
    fn ordering_test_against_bound_variable() {
        let c = ce(
            "a",
            vec![t("x", Predicate::Lt, TestAtom::Var(Atom::from("v")))],
        );
        let mut b = Bindings::new();
        b.bind(Atom::from("v"), Value::Int(10));
        assert!(match_ce(&c, &wme("a", &[("x", Value::Int(5))]), &b).is_some());
        assert!(match_ce(&c, &wme("a", &[("x", Value::Int(15))]), &b).is_none());
        // Unbound comparison variable → no match rather than panic.
        assert!(match_ce(&c, &wme("a", &[("x", Value::Int(5))]), &Bindings::new()).is_none());
    }

    #[test]
    fn matches_constants_ignores_variable_tests() {
        let c = ce(
            "a",
            vec![
                t("k", Predicate::Eq, TestAtom::Const(Value::from("on"))),
                t("x", Predicate::Eq, TestAtom::Var(Atom::from("v"))),
            ],
        );
        assert!(matches_constants(
            &c,
            &wme("a", &[("k", Value::from("on"))])
        ));
        assert!(!matches_constants(
            &c,
            &wme("a", &[("k", Value::from("off"))])
        ));
        assert!(!matches_constants(
            &c,
            &wme("b", &[("k", Value::from("on"))])
        ));
    }

    #[test]
    fn disjunction_matches_any_listed_value() {
        let c = ce(
            "a",
            vec![t(
                "state",
                Predicate::Eq,
                TestAtom::OneOf(vec![Value::from("open"), Value::Int(3)]),
            )],
        );
        assert!(match_ce(
            &c,
            &wme("a", &[("state", Value::from("open"))]),
            &Bindings::new()
        )
        .is_some());
        assert!(match_ce(
            &c,
            &wme("a", &[("state", Value::Float(3.0))]),
            &Bindings::new()
        )
        .is_some());
        assert!(match_ce(
            &c,
            &wme("a", &[("state", Value::from("closed"))]),
            &Bindings::new()
        )
        .is_none());
        assert!(matches_constants(
            &c,
            &wme("a", &[("state", Value::Int(3))])
        ));
        assert!(!matches_constants(&c, &wme("a", &[])));
    }

    #[test]
    fn expr_arithmetic() {
        let mut b = Bindings::new();
        b.bind(Atom::from("x"), Value::Int(7));
        let e = Expr::bin(
            Op::Mul,
            Expr::Var(Atom::from("x")),
            Expr::Const(Value::Int(3)),
        );
        assert_eq!(eval_expr(&e, &b), Ok(Value::Int(21)));
        let f = Expr::bin(
            Op::Add,
            Expr::Const(Value::Float(0.5)),
            Expr::Const(Value::Int(1)),
        );
        assert_eq!(eval_expr(&f, &b), Ok(Value::Float(1.5)));
        let m = Expr::bin(
            Op::Mod,
            Expr::Const(Value::Int(7)),
            Expr::Const(Value::Int(4)),
        );
        assert_eq!(eval_expr(&m, &b), Ok(Value::Int(3)));
    }

    #[test]
    fn expr_errors() {
        let b = Bindings::new();
        let div0 = Expr::bin(
            Op::Div,
            Expr::Const(Value::Int(1)),
            Expr::Const(Value::Int(0)),
        );
        assert!(eval_expr(&div0, &b).is_err());
        let fdiv0 = Expr::bin(
            Op::Div,
            Expr::Const(Value::Float(1.0)),
            Expr::Const(Value::Float(0.0)),
        );
        assert!(eval_expr(&fdiv0, &b).is_err());
        let unbound = Expr::Var(Atom::from("nope"));
        assert!(eval_expr(&unbound, &b).is_err());
        let sym = Expr::bin(
            Op::Add,
            Expr::Const(Value::from("a")),
            Expr::Const(Value::Int(1)),
        );
        assert!(eval_expr(&sym, &b).is_err());
        let ovf = Expr::bin(
            Op::Add,
            Expr::Const(Value::Int(i64::MAX)),
            Expr::Const(Value::Int(1)),
        );
        assert!(matches!(eval_expr(&ovf, &b), Err(RuleError::Eval(m)) if m.contains("overflow")));
    }

    #[test]
    fn instantiate_produces_delta_and_halt() {
        let rule = Rule {
            name: Atom::from("r"),
            salience: 0,
            conditions: vec![Condition::Pos(ce(
                "task",
                vec![t("n", Predicate::Eq, TestAtom::Var(Atom::from("x")))],
            ))],
            actions: vec![
                Action::Modify {
                    ce: 1,
                    attrs: vec![(
                        Atom::from("n"),
                        Expr::bin(
                            Op::Add,
                            Expr::Var(Atom::from("x")),
                            Expr::Const(Value::Int(1)),
                        ),
                    )],
                },
                Action::Make {
                    class: Atom::from("log"),
                    attrs: vec![],
                },
                Action::Halt,
            ],
        };
        let w = wme("task", &[("n", Value::Int(4))]);
        let b = match_ce(rule.conditions[0].ce(), &w, &Bindings::new()).unwrap();
        let (delta, halt) = instantiate_actions(&rule, &b, &[Arc::new(w)]).unwrap();
        assert!(halt);
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn instantiate_arity_mismatch_errors() {
        let rule = Rule {
            name: Atom::from("r"),
            salience: 0,
            conditions: vec![Condition::Pos(ce("task", vec![]))],
            actions: vec![],
        };
        assert!(instantiate_actions(&rule, &Bindings::new(), &[]).is_err());
    }
}
