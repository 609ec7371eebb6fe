//! The commit section's ordering, from outside: the own-shard match
//! update runs *after* the base mutex is released, so what keeps a
//! fired instantiation from firing twice is that its key stays claimed
//! until its shard has refracted it, and what keeps termination sound
//! is that `inflight` falls only after the watermark has risen. These
//! runs put every worker on one shard — the tightest race on both —
//! or on the key partitions of one hot rule, where the same order has
//! to hold per partition; CI loops them (50× at default threads, 50×
//! serial).

use std::collections::HashSet;

use dbps::engine::semantics::validate_trace;
use dbps::engine::{ParallelConfig, ParallelEngine, ParallelReport};
use dbps::rules::RuleSet;
use dbps::wm::{Value, WmeData, WmeId, WorkingMemory};
use dps_bench::workloads;

fn run(rules: &RuleSet, wm: WorkingMemory, config: ParallelConfig) -> ParallelReport {
    run_to_wm(rules, wm, config).0
}

fn run_to_wm(
    rules: &RuleSet,
    wm: WorkingMemory,
    config: ParallelConfig,
) -> (ParallelReport, WorkingMemory) {
    let initial = wm.clone();
    let mut engine = ParallelEngine::new(rules, wm, config);
    let report = engine.run();
    validate_trace(rules, &initial, &report.trace).expect("semantic consistency");
    let mut fired = HashSet::new();
    for firing in report.trace.iter() {
        assert!(fired.insert(firing.key.clone()), "{:?} fired twice", firing.key);
    }
    assert_eq!(report.commits, report.trace.len());
    assert_eq!(engine.held_locks(), 0);
    assert_eq!(engine.snapshot_pins(), 0);
    (report, engine.final_wm())
}

/// One `engine_match` family: a cursor walks `pairs` items, each visit
/// makes an `out` the second rule folds away. One live instantiation at
/// a time, so every worker races for the key the last commit enabled.
fn chain(pairs: i64) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p visit (cursor ^at <i>) (kind ^kind <k> ^w <w>)
            (item ^id <i> ^kind <k> ^next <j>) -(out)
           --> (modify 1 ^at <j>) (make out ^id <i> ^w <w>))
         (p fold (out ^id <i> ^w <w>) (sum ^total <s>)
           --> (remove 1) (modify 2 ^total (+ <s> <w>)))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("cursor").with("at", 0i64));
    wm.insert(WmeData::new("sum").with("total", 0i64));
    for k in 0..4i64 {
        wm.insert(WmeData::new("kind").with("kind", k).with("w", k + 1));
    }
    for i in 0..pairs {
        wm.insert(WmeData::new("item").with("id", i).with("kind", i % 4).with("next", i + 1));
    }
    (rules, wm)
}

/// `cells` independent counters under one rule: several claimable
/// instantiations in the one shard at any time.
fn cells(cells: usize, start: i64) -> (RuleSet, WorkingMemory) {
    let rules =
        RuleSet::parse("(p bump (cell ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))").unwrap();
    let mut wm = WorkingMemory::new();
    for _ in 0..cells {
        wm.insert(WmeData::new("cell").with("n", start));
    }
    (rules, wm)
}

#[test]
fn four_workers_on_one_shard_never_fire_a_key_twice() {
    let four = ParallelConfig { workers: 4, ..ParallelConfig::default() };

    let (rules, wm) = chain(1000);
    assert_eq!(run(&rules, wm, four.clone()).commits, 2000);

    let (rules, wm) = cells(8, 250);
    assert_eq!(run(&rules, wm, four.clone()).commits, 2000);

    // A firing that leaves its own instantiation in the conflict set:
    // only the claim, then the refraction, keep it from firing again.
    let rules = RuleSet::parse("(p note (flag ^id <i>) --> (make seen ^id <i>))").unwrap();
    let mut wm = WorkingMemory::new();
    for i in 0..500i64 {
        wm.insert(WmeData::new("flag").with("id", i));
    }
    assert_eq!(run(&rules, wm, four).commits, 500);
}

/// The partitioned twin: `charge` joins `task ^res` to `tally ^id`, so
/// at 8 match shards its eight resources spread over key partitions and
/// four workers claim, validate, absorb and refract on *different*
/// shards of one rule. No key fires twice (checked in `run`), the
/// tallies reach their closed form, and the final working memory is the
/// same for 1, 2 and 4 workers and for the monolithic layout. Debug
/// builds also assert, at every claim, that each matched tuple routes
/// to the shard the claim was scanned from.
#[test]
fn four_workers_on_one_partitioned_rule_never_fire_a_key_twice() {
    const TASKS: usize = 256;
    const RESOURCES: usize = 8;
    let (rules, wm) = workloads::shared_resources(TASKS, RESOURCES);
    let content = |wm: &WorkingMemory| {
        let mut tuples: Vec<(WmeId, WmeData)> = wm.iter().map(|w| (w.id, w.data.clone())).collect();
        tuples.sort_by_key(|(id, _)| *id);
        tuples
    };
    let mut finals = Vec::new();
    for (match_shards, workers) in [(8, 1), (8, 2), (8, 4), (1, 4)] {
        let config = ParallelConfig { workers, match_shards, ..ParallelConfig::default() };
        let (report, final_wm) = run_to_wm(&rules, wm.clone(), config);
        let cell = format!("{workers} workers, {match_shards} shard(s)");
        assert_eq!(report.commits, TASKS, "{cell}");
        let partitions = if match_shards == 8 { 8 } else { 0 };
        let fanout = report.fanout;
        assert_eq!((fanout.shards, fanout.partitions), (match_shards as u64, partitions));
        for tally in final_wm.class_iter("tally") {
            let per_tally = Value::Int((TASKS / RESOURCES) as i64);
            assert_eq!(tally.get("count"), Some(&per_tally), "{cell}");
        }
        finals.push((cell, content(&final_wm)));
    }
    let (first, rest) = finals.split_first().unwrap();
    for (cell, tuples) in rest {
        assert!(*tuples == first.1, "final WM of {cell} differs from {}", first.0);
    }
}

/// Termination when the only claimable work sits in a busy shard: the
/// `idle` rule's shard never holds an instantiation, so every scan
/// finds it idle and empty and must still go on to the `bump` shard —
/// busy with the other workers' claims — before it may conclude
/// anything. A scan that skipped busy shards would strand the work or
/// declare the run done early; a lost wake-up would hang it.
#[test]
fn work_in_a_busy_shard_still_drains() {
    let rules = RuleSet::parse(
        "(p bump (cell ^n { > 0 <n> }) --> (modify 1 ^n (- <n> 1)))
         (p idle (never) --> (remove 1))",
    )
    .unwrap();
    for round in 0..200 {
        let mut wm = WorkingMemory::new();
        for _ in 0..3 {
            wm.insert(WmeData::new("cell").with("n", 4i64));
        }
        let config = ParallelConfig { workers: 4, match_shards: 2, ..ParallelConfig::default() };
        assert_eq!(run(&rules, wm, config).commits, 12, "round {round}");
    }
}
