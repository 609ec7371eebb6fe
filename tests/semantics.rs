//! Integration tests for §3: the execution graph, `ES_single`, and the
//! semantic-consistency condition across crates (E3.2, X6).

use dbps::engine::abstract_model::{fmt_seq, paper33_example, paper51_base, PId};
use dbps::engine::semantics::{validate_abstract_sequence, validate_trace, ExecutionGraph};
use dbps::engine::{EngineConfig, Firing, SingleThreadEngine, Trace};
use dbps::rete::Strategy;
use dbps::rules::RuleSet;
use dbps::sim::simulate_multi;
use dbps::wm::{WmeData, WorkingMemory};

#[test]
fn e3_2_execution_semantics_of_the_paper_example() {
    let sys = paper33_example();
    let g = ExecutionGraph::build(&sys, 10_000);
    let seqs: Vec<String> = g
        .maximal_sequences(100, 100)
        .iter()
        .map(|s| fmt_seq(s))
        .collect();
    assert_eq!(seqs.len(), 9, "§3.3 lists nine sequences");
    assert_eq!(seqs[0], "p1 p4 p5", "the paper's first sequence");
    // Every maximal sequence and every prefix is admitted.
    for s in g.maximal_sequences(100, 100) {
        for k in 0..=s.len() {
            assert!(g.admits(&s[..k]));
        }
        validate_abstract_sequence(&sys, &s).unwrap();
    }
}

#[test]
fn multi_thread_schedules_stay_inside_es_single() {
    // Definition 3.2 for the §5 simulator across processor counts.
    for sys in [paper51_base(), paper33_example()] {
        let g = ExecutionGraph::build(&sys, 100_000);
        assert!(!g.truncated());
        for np in 1..=5 {
            let m = simulate_multi(&sys, np);
            assert!(
                g.admits(&m.commit_seq),
                "Np={np}: sequence '{}' escaped ES_single",
                fmt_seq(&m.commit_seq)
            );
        }
    }
}

#[test]
fn every_strategy_yields_a_valid_single_thread_trace() {
    let rules = RuleSet::parse(
        "(p take (coin ^v <v>) (purse ^sum <s>)
           --> (remove 1) (modify 2 ^sum (+ <s> <v>)))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    for v in [1i64, 5, 10, 25] {
        wm.insert(WmeData::new("coin").with("v", v));
    }
    wm.insert(WmeData::new("purse").with("sum", 0i64));
    for strategy in [
        Strategy::Fifo,
        Strategy::Lex,
        Strategy::Mea,
        Strategy::Salience,
        Strategy::Random(7),
        Strategy::Random(99),
    ] {
        let initial = wm.clone();
        let mut e = SingleThreadEngine::new(
            &rules,
            wm.clone(),
            EngineConfig {
                strategy,
                max_cycles: 100,
            },
        );
        let r = e.run();
        assert_eq!(r.commits, 4);
        validate_trace(&rules, &initial, &r.trace).unwrap();
        // Confluence: whatever the order, the purse ends at 41.
        let purse = e.wm().class_iter("purse").next().unwrap();
        assert_eq!(purse.get("sum").and_then(|v| v.as_i64()), Some(41));
    }
}

#[test]
fn corrupted_traces_are_rejected() {
    let rules =
        RuleSet::parse("(p bump (cell ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))").unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("cell").with("n", 2i64));
    let initial = wm.clone();
    let mut e = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
    let r = e.run();
    assert_eq!(r.commits, 2);

    // Replaying the same firing twice violates the semantics (the
    // instantiation is consumed by its own modify).
    let mut firings: Vec<Firing> = r.trace.iter().collect();
    firings.insert(1, firings[0].clone());
    let doubled: Trace = firings.into_iter().collect();
    let err = validate_trace(&rules, &initial, &doubled).unwrap_err();
    assert_eq!(err.at, 1);

    // Reordering across a dependency also fails: firing #2's matched WME
    // (fresh timestamp) does not exist before firing #1 committed.
    let mut firings: Vec<Firing> = r.trace.iter().collect();
    firings.swap(0, 1);
    let swapped: Trace = firings.into_iter().collect();
    assert!(validate_trace(&rules, &initial, &swapped).is_err());
}

#[test]
fn admits_is_exact_for_the_base_scenario() {
    let sys = paper51_base();
    let g = ExecutionGraph::build(&sys, 10_000);
    // P3's commit deletes P1, so p3 then p1 is invalid...
    assert!(!g.admits(&[PId(2), PId(0)]));
    // ...but p1 before p3 is fine.
    assert!(g.admits(&[PId(0), PId(2)]));
    // A full valid order.
    assert!(g.admits(&[PId(0), PId(1), PId(2), PId(3)]));
}
