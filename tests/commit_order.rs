//! The commit section's ordering, from outside: the own-shard match
//! update runs *after* the base mutex is released, so what keeps a
//! fired instantiation from firing twice is that its key stays claimed
//! until its shard has refracted it, and what keeps termination sound
//! is that `inflight` falls only after the watermark has risen. These
//! runs put every worker on one shard — the tightest race on both —
//! and CI loops them (50× at default threads, 50× serial).

use std::collections::HashSet;

use dbps::engine::semantics::validate_trace;
use dbps::engine::{ParallelConfig, ParallelEngine, ParallelReport};
use dbps::rules::RuleSet;
use dbps::wm::{WmeData, WorkingMemory};

fn run(rules: &RuleSet, wm: WorkingMemory, config: ParallelConfig) -> ParallelReport {
    let initial = wm.clone();
    let mut engine = ParallelEngine::new(rules, wm, config);
    let report = engine.run();
    validate_trace(rules, &initial, &report.trace).expect("semantic consistency");
    let mut fired = HashSet::new();
    for firing in &report.trace.firings {
        assert!(fired.insert(&firing.key), "{:?} fired twice", firing.key);
    }
    assert_eq!(report.commits, report.trace.len());
    assert_eq!(engine.held_locks(), 0);
    assert_eq!(engine.snapshot_pins(), 0);
    report
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
