//! Cross-engine integration: the three engines (single-thread, static
//! parallel, dynamic parallel) must agree on confluent workloads, and
//! every parallel trace must replay single-threadedly.

use std::collections::BTreeMap;

use dbps::engine::semantics::validate_trace;
use dbps::engine::{
    EngineConfig, ParallelConfig, ParallelEngine, SingleThreadEngine, StaticConfig,
    StaticParallelEngine, StepOutcome, Trace, WorkModel,
};
use dbps::lock::{ConflictPolicy, Protocol};
use dbps::rules::RuleSet;
use dbps::wm::{Value, WmeData, WorkingMemory};

/// A confluent workload: whatever the firing order, the final state is
/// unique. Tasks move through 3 states; a tally counts completions.
fn workload(n: i64) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p start (job ^state new) --> (modify 1 ^state running))
         (p finish (job ^state running) (done ^count <c>)
            --> (modify 1 ^state finished) (modify 2 ^count (+ <c> 1)))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    for _ in 0..n {
        wm.insert(WmeData::new("job").with("state", "new"));
    }
    wm.insert(WmeData::new("done").with("count", 0i64));
    (rules, wm)
}

/// A rule whose RHS fails to evaluate (division by zero) beside one
/// that fires three times: every engine refracts the failed
/// instantiation without committing it, fires the other three, and
/// leaves the cell as it was.
fn failed_rhs() -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p boom (cell ^n <n>) --> (modify 1 ^n (/ <n> 0)))
         (p take (job) --> (remove 1))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("cell").with("n", 1i64));
    for _ in 0..3 {
        wm.insert(WmeData::new("job"));
    }
    (rules, wm)
}

/// Class → multiset of (attr, value) rows, ignoring ids and timestamps:
/// the order-independent fingerprint of a working memory.
fn fingerprint(wm: &WorkingMemory) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for w in wm.iter() {
        let row: Vec<String> = w
            .data
            .attrs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.entry(w.class().to_string())
            .or_default()
            .push(row.join(","));
    }
    for rows in out.values_mut() {
        rows.sort();
    }
    out
}

#[test]
fn three_engines_agree_on_the_confluent_workload() {
    let n = 8i64;
    // Each workload with its commit count and the rows its final WM
    // must hold in one class: the tally counted every job exactly once,
    // and the failed RHS left its cell as it was.
    let cases = [
        (workload(n), 2 * n as usize, "done", vec![format!("count={n}")]),
        (failed_rhs(), 3, "cell", vec!["n=1".to_string()]),
    ];
    for ((rules, wm), commits, class, rows) in cases {
        let mut single = SingleThreadEngine::new(&rules, wm.clone(), EngineConfig::default());
        let rs = single.run();

        let mut static_par = StaticParallelEngine::new(&rules, wm.clone(), StaticConfig::default());
        let rt = static_par.run();

        let mut dynamic = ParallelEngine::new(&rules, wm.clone(), ParallelConfig::default());
        let rd = dynamic.run();

        assert_eq!(rs.commits, commits);
        assert_eq!(rt.commits, rs.commits);
        assert_eq!(rd.commits, rs.commits);

        validate_trace(&rules, &wm, &rs.trace).unwrap();
        validate_trace(&rules, &wm, &rt.trace).unwrap();
        validate_trace(&rules, &wm, &rd.trace).unwrap();

        let fp_single = fingerprint(single.wm());
        assert_eq!(fp_single, fingerprint(static_par.wm()));
        assert_eq!(fp_single, fingerprint(&dynamic.final_wm()));
        assert_eq!(fp_single[class], rows);
    }
}

/// Every protocol, policy and worker count ends in the single-thread
/// engine's final WM, on the confluent workload and on a failed RHS.
#[test]
fn dynamic_engine_agrees_across_protocols_and_policies() {
    for ((rules, wm), commits) in [(workload(6), 12), (failed_rhs(), 3)] {
        let mut reference = SingleThreadEngine::new(&rules, wm.clone(), EngineConfig::default());
        reference.run();
        let reference = fingerprint(reference.wm());
        for protocol in [Protocol::TwoPhase, Protocol::RcRaWa] {
            for policy in [
                ConflictPolicy::AbortReaders,
                ConflictPolicy::Revalidate,
                ConflictPolicy::MvccSnapshot,
            ] {
                for workers in [1usize, 3] {
                    let mut e = ParallelEngine::new(
                        &rules,
                        wm.clone(),
                        ParallelConfig {
                            protocol,
                            policy,
                            workers,
                            ..Default::default()
                        },
                    );
                    let r = e.run();
                    validate_trace(&rules, &wm, &r.trace).unwrap();
                    assert_eq!(r.commits, commits);
                    assert_eq!(
                        fingerprint(&e.final_wm()),
                        reference,
                        "{protocol:?}/{policy:?}/{workers} workers"
                    );
                }
            }
        }
    }
}

/// `halt` is the single-thread rule on every engine: no rule firing
/// commits after the one that halted, and the oracle agrees. The
/// dynamic engine is raced 50 times: `work` claims are in flight when
/// `stop` commits, and each must abort instead of committing.
#[test]
fn no_rule_fires_after_a_halt() {
    let rules = RuleSet::parse(
        "(p stop (go) --> (remove 1) (halt))
         (p work (job) --> (remove 1))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("go"));
    for _ in 0..64 {
        wm.insert(WmeData::new("job"));
    }
    let ends_at_the_halt = |trace: &Trace, halted: bool| {
        let stop = trace.iter().position(|f| f.halt);
        assert!(halted && stop == Some(trace.len() - 1), "{:?}", trace.names());
        validate_trace(&rules, &wm, trace).unwrap();
    };
    let single = SingleThreadEngine::new(&rules, wm.clone(), EngineConfig::default()).run();
    ends_at_the_halt(&single.trace, single.outcome == StepOutcome::Halted);
    let batch = StaticParallelEngine::new(&rules, wm.clone(), StaticConfig::default()).run();
    ends_at_the_halt(&batch.trace, batch.halted);
    for run in 0..50 {
        let config = ParallelConfig {
            workers: 4,
            work: WorkModel::FixedMicros(200),
            ..Default::default()
        };
        let r = ParallelEngine::new(&rules, wm.clone(), config).run();
        assert!(r.halted, "run {run}");
        ends_at_the_halt(&r.trace, r.halted);
    }
}

#[test]
fn static_engine_parallelism_does_not_change_results() {
    let (rules, wm) = workload(10);
    let run_width = |w: usize| {
        let mut e = StaticParallelEngine::new(
            &rules,
            wm.clone(),
            StaticConfig {
                max_width: w,
                ..Default::default()
            },
        );
        let r = e.run();
        validate_trace(&rules, &wm, &r.trace).unwrap();
        (r.commits, fingerprint(e.wm()))
    };
    let (c1, f1) = run_width(1);
    let (c4, f4) = run_width(4);
    let (cmax, fmax) = run_width(usize::MAX);
    assert_eq!(c1, 20);
    assert_eq!((c1, &f1), (c4, &f4));
    assert_eq!((c1, &f1), (cmax, &fmax));
}

/// The static engine's batches on experiment X5's setup — the
/// manufacturing pipeline of 12 jobs × 6 stages at width 16 — under the
/// three selection modes: rule-level analysis serialises `advance`, and
/// run-time footprints fire the twelve jobs of each stage together.
#[test]
fn static_engine_batches_on_the_manufacturing_pipeline_are_pinned() {
    use dbps::engine::SelectionMode;
    use dbps::rules::analysis::Granularity;
    for (mode, batches) in [
        (SelectionMode::StaticRules(Granularity::Class), vec![1; 72]),
        (SelectionMode::StaticRules(Granularity::ClassAttribute), vec![1; 72]),
        (SelectionMode::DynamicFootprints, vec![12; 6]),
    ] {
        let (rules, wm) = dps_bench::workloads::manufacturing(12, 6);
        let config = StaticConfig { mode, max_width: 16, ..Default::default() };
        let r = StaticParallelEngine::new(&rules, wm.clone(), config).run();
        assert_eq!((r.cycles, r.commits), (batches.len(), 72), "{mode:?}");
        assert_eq!(r.batch_sizes, batches, "{mode:?}");
        validate_trace(&rules, &wm, &r.trace).unwrap();
    }
}

#[test]
fn engines_handle_negation_consistently() {
    // One-shot latch: fire once, the made tuple blocks refiring.
    let rules = RuleSet::parse("(p once (go) -(fired) --> (make fired))").unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("go"));

    let mut single = SingleThreadEngine::new(&rules, wm.clone(), EngineConfig::default());
    assert_eq!(single.run().commits, 1);

    let mut static_par = StaticParallelEngine::new(&rules, wm.clone(), StaticConfig::default());
    assert_eq!(static_par.run().commits, 1);

    let mut dynamic = ParallelEngine::new(&rules, wm.clone(), ParallelConfig::default());
    let rd = dynamic.run();
    assert_eq!(rd.commits, 1);
    assert_eq!(dynamic.final_wm().class_iter("fired").count(), 1);
}

/// The richest workload (order fulfillment: joins, salience, negation,
/// disjunctions, arithmetic) must converge identically on every engine,
/// protocol and policy.
#[test]
fn order_fulfillment_converges_on_every_engine() {
    let (rules, wm) = dps_bench::workloads::order_fulfillment(6, 3);
    let expected_commits = 4 * 6 + 2 * 3;
    let check = |wm_final: &WorkingMemory| {
        let count_state = |s: &str| {
            wm_final
                .class_iter("order")
                .filter(|w| w.get("state").and_then(|v| v.as_text()) == Some(s))
                .count()
        };
        assert_eq!(count_state("shipped"), 6);
        assert_eq!(count_state("backordered"), 3);
        assert_eq!(wm_final.class_iter("audit").count(), 3);
        assert_eq!(wm_final.class_iter("package").count(), 6);
    };

    let mut single = SingleThreadEngine::new(&rules, wm.clone(), EngineConfig::default());
    let rs = single.run();
    assert_eq!(rs.commits, expected_commits);
    validate_trace(&rules, &wm, &rs.trace).unwrap();
    check(single.wm());

    let mut static_par = StaticParallelEngine::new(&rules, wm.clone(), StaticConfig::default());
    let rt = static_par.run();
    assert_eq!(rt.commits, expected_commits);
    validate_trace(&rules, &wm, &rt.trace).unwrap();
    check(static_par.wm());

    for protocol in [Protocol::TwoPhase, Protocol::RcRaWa] {
        for policy in [ConflictPolicy::AbortReaders, ConflictPolicy::Revalidate] {
            let mut dynamic = ParallelEngine::new(
                &rules,
                wm.clone(),
                ParallelConfig {
                    protocol,
                    policy,
                    workers: 4,
                    ..Default::default()
                },
            );
            let rd = dynamic.run();
            assert_eq!(rd.commits, expected_commits, "{protocol:?}/{policy:?}");
            validate_trace(&rules, &wm, &rd.trace).unwrap();
            check(&dynamic.final_wm());
        }
    }
}

/// Any [`dbps::rete::Matcher`] plugs into the engine: TREAT drives the
/// same run, firing for firing, as the default Rete.
#[test]
fn partitioned_matcher_plugs_into_the_engine() {
    use dbps::rete::Treat;
    let (rules, wm) = dps_bench::workloads::order_fulfillment(4, 2);
    let mut engine = SingleThreadEngine::with_matcher(
        &rules,
        wm.clone(),
        Treat::new(&rules, &wm),
        EngineConfig::default(),
    );
    let report = engine.run();
    assert_eq!(report.commits, 4 * 4 + 2 * 2);
    validate_trace(&rules, &wm, &report.trace).unwrap();
    let mut rete_driven = SingleThreadEngine::new(&rules, wm.clone(), EngineConfig::default());
    assert_eq!(report.trace, rete_driven.run().trace);
}

#[test]
fn removal_cascade_terminates_everywhere() {
    // Consumers race to remove shared food; each firing consumes one.
    let rules = RuleSet::parse(
        "(p eat (eater ^hungry true) (food) --> (remove 2) (modify 1 ^hungry false))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    for _ in 0..5 {
        wm.insert(WmeData::new("eater").with("hungry", true));
    }
    for _ in 0..3 {
        wm.insert(WmeData::new("food"));
    }
    // Only 3 eaters can eat (3 food items).
    for run in 0..3 {
        let (commits, fed) = match run {
            0 => {
                let mut e = SingleThreadEngine::new(&rules, wm.clone(), EngineConfig::default());
                let r = e.run();
                (
                    r.commits,
                    e.wm()
                        .class_iter("eater")
                        .filter(|w| w.get("hungry") == Some(&Value::Bool(false)))
                        .count(),
                )
            }
            1 => {
                let mut e = StaticParallelEngine::new(&rules, wm.clone(), StaticConfig::default());
                let r = e.run();
                (
                    r.commits,
                    e.wm()
                        .class_iter("eater")
                        .filter(|w| w.get("hungry") == Some(&Value::Bool(false)))
                        .count(),
                )
            }
            _ => {
                let mut e = ParallelEngine::new(&rules, wm.clone(), ParallelConfig::default());
                let r = e.run();
                validate_trace(&rules, &wm, &r.trace).unwrap();
                let wm2 = e.final_wm();
                (
                    r.commits,
                    wm2.class_iter("eater")
                        .filter(|w| w.get("hungry") == Some(&Value::Bool(false)))
                        .count(),
                )
            }
        };
        assert_eq!(commits, 3, "run {run}");
        assert_eq!(fed, 3, "run {run}");
    }
}

/// Refraction outlives a negation block. `mark`'s instantiation on
/// `a_k` leaves the conflict set when its own `b_k` blocks it and comes
/// back, with the same key, when `clear` retracts `b_k`; it must not
/// fire again, even when a refraction sweep (every 1024 keys per set,
/// so per match shard in the dynamic engine) ran while it was blocked.
/// Every engine must fire `mark` and `clear` once per `a`, plus `init`
/// and `other` once each, and quiesce — at sizes below, around and well
/// past the trigger. Each run is capped at `REFRACTION_CAP` commits or
/// cycles so a refiring engine fails fast.
fn refraction_workloads() -> impl Iterator<Item = (RuleSet, WorkingMemory, usize)> {
    [100i64, 600, 2000].into_iter().map(|n| {
        let rules = RuleSet::parse(
            "(p mark (a ^k <k>) -(b ^k <k>) --> (make b ^k <k>))
             (p clear (b ^k <k>) --> (remove 1))
             (p init (start) (a ^k 0) --> (remove 1))
             (p other (z) --> (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        for k in 0..n {
            wm.insert(WmeData::new("a").with("k", k));
        }
        wm.insert(WmeData::new("start"));
        wm.insert(WmeData::new("z"));
        (rules, wm, 2 * n as usize + 2)
    })
}

const REFRACTION_CAP: usize = 20_000;

#[test]
fn single_engine_refraction_survives_a_negation_block() {
    for (rules, wm, want) in refraction_workloads() {
        let config = EngineConfig { max_cycles: REFRACTION_CAP, ..Default::default() };
        let r = SingleThreadEngine::new(&rules, wm.clone(), config).run();
        assert_eq!((r.commits, &r.outcome), (want, &StepOutcome::Quiescent));
        validate_trace(&rules, &wm, &r.trace).unwrap();
    }
}

#[test]
fn static_engine_refraction_survives_a_negation_block() {
    for (rules, wm, want) in refraction_workloads() {
        let config = StaticConfig { max_cycles: REFRACTION_CAP, ..Default::default() };
        let r = StaticParallelEngine::new(&rules, wm.clone(), config).run();
        assert_eq!(r.commits, want);
        assert!(r.cycles < REFRACTION_CAP && !r.halted, "quiescent");
        validate_trace(&rules, &wm, &r.trace).unwrap();
    }
}

#[test]
fn dynamic_engine_refraction_survives_a_negation_block() {
    for (rules, wm, want) in refraction_workloads() {
        for workers in [1usize, 2, 4] {
            let config =
                ParallelConfig { workers, max_commits: REFRACTION_CAP, ..Default::default() };
            let r = ParallelEngine::new(&rules, wm.clone(), config).run();
            assert_eq!(r.commits, want, "{workers} workers");
            assert!(!r.halted);
            validate_trace(&rules, &wm, &r.trace).unwrap();
        }
    }
}
