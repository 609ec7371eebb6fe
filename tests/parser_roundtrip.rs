//! Property tests for the rule DSL: `parse(display(rule)) == rule` for
//! randomly generated valid rules, plus idempotence of the canonical
//! rendering and never-panic robustness on garbage input.
//!
//! Generation is driven by the workspace's deterministic PRNG; every
//! case reproduces from its printed seed.

use dbps::rules::parser::{parse_rule, parse_rules};
use dbps::rules::{
    Action, AttrTest, Condition, ConditionElement, Expr, Op, Predicate, Rule, TestAtom,
};
use dbps::wm::rng::SmallRng;
use dbps::wm::{Atom, Value};

fn sym(rng: &mut SmallRng, prefix: &str) -> Atom {
    Atom::from(format!("{prefix}{}", rng.index(8)))
}

fn constant(rng: &mut SmallRng) -> Value {
    match rng.index(6) {
        0 => Value::Int(rng.range_i64(-100..100)),
        // Fractional part keeps Display from printing an integer form
        // (which would re-parse as Int).
        1 => Value::Float(rng.range_i64(-50..50) as f64 + 0.25),
        2 => Value::Sym(sym(rng, "s")),
        3 => Value::Str(Atom::from(format!("txt {}", rng.index(9)))),
        4 => Value::Bool(rng.random_bool(0.5)),
        _ => Value::Nil,
    }
}

fn predicate(rng: &mut SmallRng) -> Predicate {
    [
        Predicate::Eq,
        Predicate::Ne,
        Predicate::Lt,
        Predicate::Le,
        Predicate::Gt,
        Predicate::Ge,
    ][rng.index(6)]
}

fn expr(rng: &mut SmallRng, bound: &[Atom], depth: usize) -> Expr {
    if depth > 0 && rng.random_bool(0.5) {
        let op = [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Mod][rng.index(5)];
        Expr::bin(op, expr(rng, bound, depth - 1), expr(rng, bound, depth - 1))
    } else if !bound.is_empty() && rng.random_bool(0.5) {
        Expr::Var(bound[rng.index(bound.len())].clone())
    } else {
        // Numeric constants only (symbols in arithmetic would still
        // parse; keep it tidy).
        Expr::Const(Value::Int(rng.range_i64(-20..20)))
    }
}

/// Generates a structurally valid random rule.
fn random_rule(seed: u64) -> Rule {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut bound: Vec<Atom> = Vec::new();
    let n_pos = 1 + rng.index(3);
    let mut conditions = Vec::new();
    for ci in 0..n_pos {
        let mut tests = Vec::new();
        for _ in 0..rng.index(4) {
            let attr = sym(&mut rng, "a");
            match rng.index(3) {
                0 => tests.push(AttrTest {
                    attr,
                    predicate: predicate(&mut rng),
                    operand: TestAtom::Const(constant(&mut rng)),
                }),
                1 => {
                    let var = sym(&mut rng, "v");
                    if !bound.contains(&var) {
                        bound.push(var.clone());
                    }
                    tests.push(AttrTest {
                        attr,
                        predicate: Predicate::Eq,
                        operand: TestAtom::Var(var),
                    });
                }
                _ => {
                    if let Some(var) = bound.first().cloned() {
                        tests.push(AttrTest {
                            attr,
                            predicate: predicate(&mut rng),
                            operand: TestAtom::Var(var),
                        });
                    }
                }
            }
        }
        conditions.push(Condition::Pos(ConditionElement {
            class: sym(&mut rng, "c"),
            tests,
        }));
        // Optionally a negated CE referencing only bound/local vars.
        if ci + 1 < n_pos && rng.random_bool(0.3) {
            let mut tests = vec![AttrTest {
                attr: sym(&mut rng, "a"),
                predicate: Predicate::Eq,
                operand: TestAtom::Const(constant(&mut rng)),
            }];
            if let Some(var) = bound.first().cloned() {
                tests.push(AttrTest {
                    attr: sym(&mut rng, "a"),
                    predicate: Predicate::Eq,
                    operand: TestAtom::Var(var),
                });
            }
            conditions.push(Condition::Neg(ConditionElement {
                class: sym(&mut rng, "n"),
                tests,
            }));
        }
    }
    let mut actions = Vec::new();
    for _ in 0..rng.index(4) {
        match rng.index(3) {
            0 => actions.push(Action::Make {
                class: sym(&mut rng, "m"),
                attrs: (0..rng.index(3))
                    .map(|_| (sym(&mut rng, "a"), expr(&mut rng, &bound, 2)))
                    .collect(),
            }),
            1 => actions.push(Action::Modify {
                ce: 1 + rng.index(n_pos),
                attrs: (0..1 + rng.index(2))
                    .map(|_| (sym(&mut rng, "a"), expr(&mut rng, &bound, 2)))
                    .collect(),
            }),
            _ => actions.push(Action::Remove {
                ce: 1 + rng.index(n_pos),
            }),
        }
    }
    if rng.random_bool(0.2) {
        actions.push(Action::Halt);
    }
    let rule = Rule {
        name: sym(&mut rng, "rule-"),
        salience: rng.range_i64(-5..6) as i32,
        conditions,
        actions,
    };
    rule.validate().expect("generator emits valid rules");
    rule
}

#[test]
fn display_parse_roundtrip() {
    for seed in 0..256u64 {
        let rule = random_rule(seed);
        let rendered = rule.to_string();
        let reparsed = parse_rule(&rendered)
            .unwrap_or_else(|e| panic!("render of seed {seed} failed to reparse: {e}\n{rendered}"));
        assert_eq!(rule, reparsed, "seed {seed} roundtrip:\n{rendered}");
        // Canonical rendering is a fixed point.
        assert_eq!(rendered, reparsed.to_string(), "seed {seed}");
    }
}

#[test]
fn rulesets_roundtrip_in_bulk() {
    for seed in 0..64u64 {
        let rules: Vec<Rule> = (0..4)
            .map(|i| {
                let mut r = random_rule(seed * 4 + i);
                r.name = Atom::from(format!("r{i}"));
                r
            })
            .collect();
        let src: String = rules.iter().map(|r| format!("{r}\n")).collect();
        let parsed = parse_rules(&src).unwrap();
        assert_eq!(rules, parsed, "seed {seed}");
    }
}

/// The parser must never panic, whatever bytes arrive: it returns
/// `Ok` or a positioned `Err`.
#[test]
fn parser_never_panics_on_garbage() {
    // A char palette mixing ASCII, structure, and multibyte text.
    const PALETTE: &[char] = &[
        '(', ')', '{', '}', '^', '<', '>', '-', '=', '"', ';', ' ', '\n', '\t', 'p', 'a', 'x',
        '0', '1', '9', '.', '\\', 'é', '→', '∅', '☃', '\u{0}', '\u{7f}',
    ];
    for seed in 0..512u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.index(61);
        let src: String = (0..len).map(|_| PALETTE[rng.index(PALETTE.len())]).collect();
        let _ = parse_rules(&src);
        let _ = parse_rule(&src);
        let _ = dbps::rules::parser::parse_condition_element(&src);
    }
}

/// Structured-looking garbage (balanced-ish s-expressions) also
/// never panics.
#[test]
fn parser_never_panics_on_sexpr_soup() {
    const TOKENS: &[&str] = &[
        "(", ")", "{", "}", "p", "-->", "-", "^a", "<x>", "<", ">", "<<", ">>", "<>", "<=", ">=",
        "=", "1", "-2", "2.5", "sym", "\"s\"", "make", "modify", "remove", "halt", "salience",
        ";c",
    ];
    for seed in 0..512u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.index(41);
        let parts: Vec<&str> = (0..n).map(|_| TOKENS[rng.index(TOKENS.len())]).collect();
        let src = parts.join(" ");
        let _ = parse_rules(&src);
    }
}

#[test]
fn specific_tricky_renders() {
    // Negative literals, nested arithmetic, conjunctive brace groups,
    // every predicate, every constant type.
    let src = r#"
        (p tricky (salience -3)
           (c0 ^a0 { > -7 <v0> } ^a1 <> s1 ^a2 2.25 ^a3 "x y" ^a4 nil ^a5 false)
           -(n0 ^a0 <v0>)
           (c1 ^a6 >= <v0>)
           -->
           (modify 2 ^a7 (% (* <v0> -2) 7))
           (remove 1)
           (halt))
    "#;
    let r1 = parse_rule(src).unwrap();
    let r2 = parse_rule(&r1.to_string()).unwrap();
    assert_eq!(r1, r2);
}
