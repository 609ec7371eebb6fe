//! X6 — property-based verification of the semantic-consistency
//! condition (Definition 3.2): for randomly generated systems, every
//! schedule any of our mechanisms produces must lie inside `ES_single`.
//!
//! Parameters are drawn from the workspace's deterministic PRNG; each
//! case reproduces from its printed seed.

use dbps::engine::abstract_model::fmt_seq;
use dbps::engine::semantics::{validate_trace, ExecutionGraph};
use dbps::engine::{
    EngineConfig, ParallelConfig, ParallelEngine, SingleThreadEngine, StaticConfig,
    StaticParallelEngine,
};
use dbps::lock::{ConflictPolicy, Protocol};
use dbps::rete::Strategy;
use dbps::rules::RuleSet;
use dbps::sim::generator::{generate, GeneratorConfig};
use dbps::sim::simulate_multi;
use dbps::wm::rng::SmallRng;
use dbps::wm::{WmeData, WorkingMemory};

/// The §5 simulator's multi-thread commit sequences are always
/// root-originating paths of the execution graph.
#[test]
fn simulator_schedules_admitted_by_execution_graph() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 2 + rng.index(7);
        let density = rng.random_f64() * 0.6;
        let max_t = rng.range_u64(1..5);
        let gen_seed = rng.range_u64(0..1000);
        let np = 1 + rng.index(5);
        let sys = generate(&GeneratorConfig {
            productions: n,
            conflict_density: density,
            add_density: 0.0,
            time_range: (1, max_t),
            seed: gen_seed,
        });
        let g = ExecutionGraph::build(&sys, 500_000);
        if g.truncated() {
            continue; // graph too large to serve as an oracle — skip
        }
        let m = simulate_multi(&sys, np);
        assert!(
            g.admits(&m.commit_seq),
            "seed {seed}: Np={np} sequence '{}' not in ES_single",
            fmt_seq(&m.commit_seq)
        );
    }
}

/// Random-strategy single-thread runs produce valid traces and a
/// unique confluent result on the coin-collecting workload. `split`'s
/// RHS fails to evaluate on every purse it sees: each is refracted
/// without committing, whenever the strategy selects it.
#[test]
fn random_strategy_single_thread_traces_validate() {
    for seed in 0..64u64 {
        let rules = RuleSet::parse(
            "(p take (coin ^v <v>) (purse ^sum <s>)
               --> (remove 1) (modify 2 ^sum (+ <s> <v>)))
             (p split (purse ^sum <s>) --> (modify 1 ^sum (/ <s> 0)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        for v in [1i64, 2, 4, 8, 16] {
            wm.insert(WmeData::new("coin").with("v", v));
        }
        wm.insert(WmeData::new("purse").with("sum", 0i64));
        let initial = wm.clone();
        let mut e = SingleThreadEngine::new(
            &rules,
            wm,
            EngineConfig {
                strategy: Strategy::Random(seed),
                max_cycles: 100,
            },
        );
        let r = e.run();
        assert_eq!(r.commits, 5, "seed {seed}");
        validate_trace(&rules, &initial, &r.trace).unwrap();
        let purse = e.wm().class_iter("purse").next().unwrap();
        assert_eq!(purse.get("sum").and_then(|v| v.as_i64()), Some(31));
    }
}

/// Theorem 2 (and its §4.3 extension), empirically: the dynamic
/// parallel engine's commit sequence replays single-threadedly for
/// every protocol/policy under random contention. `audit`'s RHS fails
/// to evaluate on every task `charge` finishes, and never commits.
#[test]
fn parallel_engine_traces_always_validate() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tasks = 1 + rng.index(9);
        let tallies = 1 + rng.index(3);
        let workers = 1 + rng.index(4);
        let proto_rc = rng.random_bool(0.5);
        let policy_reval = rng.random_bool(0.5);
        let rules = RuleSet::parse(
            "(p charge (task ^res <r> ^state todo) (tally ^id <r> ^count <c>)
               --> (modify 1 ^state done) (modify 2 ^count (+ <c> 1)))
             (p audit (task ^res <r> ^state done) --> (make log ^share (/ <r> 0)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        for r in 0..tallies {
            wm.insert(WmeData::new("tally").with("id", r as i64).with("count", 0i64));
        }
        for t in 0..tasks {
            wm.insert(
                WmeData::new("task")
                    .with("res", (t % tallies) as i64)
                    .with("state", "todo"),
            );
        }
        let initial = wm.clone();
        let mut e = ParallelEngine::new(
            &rules,
            wm,
            ParallelConfig {
                protocol: if proto_rc {
                    Protocol::RcRaWa
                } else {
                    Protocol::TwoPhase
                },
                policy: if policy_reval {
                    ConflictPolicy::Revalidate
                } else {
                    ConflictPolicy::AbortReaders
                },
                workers,
                ..Default::default()
            },
        );
        let report = e.run();
        assert_eq!(report.commits, tasks, "seed {seed}");
        validate_trace(&rules, &initial, &report.trace).unwrap();
        // The tallies must account for every task exactly once.
        let total: i64 = e
            .final_wm()
            .class_iter("tally")
            .filter_map(|w| w.get("count").and_then(|v| v.as_i64()))
            .sum();
        assert_eq!(total, tasks as i64, "seed {seed}");
    }
}

/// Theorem 1, empirically: static-parallel batches replay
/// single-threadedly for random widths and modes. `loop`'s RHS fails to
/// evaluate on every route, which is refracted in the first cycle.
#[test]
fn static_engine_traces_always_validate() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let jobs = 1 + rng.index(7);
        let stages = 1 + rng.index(4);
        let width = 1 + rng.index(9);
        let dynamic_mode = rng.random_bool(0.5);
        let rules = RuleSet::parse(
            "(p advance (job ^stage <s>) (route ^from <s> ^to <n>)
               --> (modify 1 ^stage <n>))
             (p loop (route ^from <s>) --> (modify 1 ^to (/ <s> 0)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new();
        for s in 0..stages {
            wm.insert(
                WmeData::new("route")
                    .with("from", s as i64)
                    .with("to", (s + 1) as i64),
            );
        }
        for _ in 0..jobs {
            wm.insert(WmeData::new("job").with("stage", 0i64));
        }
        let initial = wm.clone();
        let mode = if dynamic_mode {
            dbps::engine::SelectionMode::DynamicFootprints
        } else {
            dbps::engine::SelectionMode::StaticRules(
                dbps::rules::analysis::Granularity::ClassAttribute,
            )
        };
        let mut e = StaticParallelEngine::new(
            &rules,
            wm,
            StaticConfig {
                mode,
                max_width: width,
                ..Default::default()
            },
        );
        let report = e.run();
        assert_eq!(report.commits, jobs * stages, "seed {seed}");
        validate_trace(&rules, &initial, &report.trace).unwrap();
    }
}
