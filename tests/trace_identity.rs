//! Pinned firing sequences: the reference interpreter, driven by Rete,
//! must fire the same instantiations in the same order on an
//! `engine_match`-shaped and an `engine_contend`-shaped input.
//!
//! The matcher's compiled network (join order, sharing, indexing) is an
//! implementation detail; the `(rule, InstKey)` sequence it produces is
//! not — conflict resolution, refraction, lock footprints and WAL records
//! all read it. Each test hashes that sequence and compares it with the
//! value recorded before the Rete compiler started planning join orders,
//! so a compiler change that reorders an instantiation's WMEs or changes
//! which instantiation wins a cycle fails here by name.

use dbps::engine::{EngineConfig, SingleThreadEngine, StepOutcome};
use dbps::rules::RuleSet;
use dbps::wm::rng::SmallRng;
use dbps::wm::{WmeData, WorkingMemory};

/// FNV-1a over the rule id and every `(id, timestamp)` of each fired
/// instantiation's key, in trace order.
fn key_sequence_hash(rules: &RuleSet, wm: WorkingMemory) -> (usize, u64) {
    let mut engine = SingleThreadEngine::new(rules, wm, EngineConfig::default());
    let report = engine.run();
    assert_eq!(report.outcome, StepOutcome::Quiescent);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in report.trace.iter() {
        eat(u64::from(f.key.rule.0));
        eat(f.key.wmes.len() as u64);
        for (id, ts) in f.key.wmes.iter() {
            eat(id.0);
            eat(*ts);
        }
    }
    (report.commits, h)
}

/// Fisher–Yates, so ids and recency do not follow construction order.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}

#[test]
fn engine_match_shaped_sequence_is_pinned() {
    const GROUPS: usize = 2;
    const KINDS: i64 = 48;
    const ITEMS: i64 = 40;
    // Written in the cross-product order: `cursor` shares no variable
    // with `kind`, only `item` connects them.
    let mut src = String::new();
    for g in 0..GROUPS {
        src.push_str(&format!(
            "(p visit-{g} (cursor-{g} ^at <i>) (kind-{g} ^kind <k> ^w <w>)
                (item-{g} ^id <i> ^kind <k> ^next <j>) -(out-{g})
               --> (modify 1 ^at <j>) (make out-{g} ^id <i> ^w <w>))
             (p fold-{g} (out-{g} ^id <i> ^w <w>) (sum-{g} ^total <s>)
               --> (remove 1) (modify 2 ^total (+ <s> <w>)))\n"
        ));
    }
    let rules = RuleSet::parse(&src).unwrap();
    let mut rng = SmallRng::seed_from_u64(42);
    let mut tuples = Vec::new();
    for g in 0..GROUPS {
        tuples.push(WmeData::new(format!("cursor-{g}")).with("at", 0i64));
        tuples.push(WmeData::new(format!("sum-{g}")).with("total", 0i64));
        for k in 0..KINDS {
            tuples.push(
                WmeData::new(format!("kind-{g}"))
                    .with("kind", k)
                    .with("w", k + 1),
            );
        }
        for i in 0..ITEMS {
            tuples.push(
                WmeData::new(format!("item-{g}"))
                    .with("id", i)
                    .with("kind", rng.range_i64(0..KINDS))
                    .with("next", i + 1),
            );
        }
    }
    shuffle(&mut tuples, &mut rng);
    let mut wm = WorkingMemory::new();
    for t in tuples {
        wm.insert(t);
    }
    let (commits, hash) = key_sequence_hash(&rules, wm);
    assert_eq!(commits, 2 * GROUPS * ITEMS as usize);
    assert_eq!(
        hash, 4_900_752_513_368_120_474,
        "engine_match-shaped (rule, InstKey) sequence moved"
    );
}

#[test]
fn engine_contend_shaped_sequence_is_pinned() {
    const RESOURCES: i64 = 8;
    const TASKS: usize = 30;
    const STEPS: i64 = 3;
    let rules = RuleSet::parse(
        "(p charge (task ^res <r> ^left { > 0 <n> }) (tally ^id <r> ^count <c>)
           --> (modify 1 ^left (- <n> 1)) (modify 2 ^count (+ <c> 1)))",
    )
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut tuples = Vec::new();
    for i in 0..200 {
        tuples.push(
            WmeData::new("task")
                .with("res", i % RESOURCES)
                .with("left", 0i64),
        );
    }
    for r in 0..RESOURCES {
        tuples.push(WmeData::new("tally").with("id", r).with("count", 0i64));
    }
    for _ in 0..TASKS {
        tuples.push(
            WmeData::new("task")
                .with("res", rng.range_i64(0..RESOURCES))
                .with("left", STEPS),
        );
    }
    shuffle(&mut tuples, &mut rng);
    let mut wm = WorkingMemory::new();
    for t in tuples {
        wm.insert(t);
    }
    let (commits, hash) = key_sequence_hash(&rules, wm);
    assert_eq!(commits, TASKS * STEPS as usize);
    assert_eq!(
        hash, 2_828_414_788_255_975_778,
        "engine_contend-shaped (rule, InstKey) sequence moved"
    );
}
