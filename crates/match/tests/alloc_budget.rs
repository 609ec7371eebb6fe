//! Allocation and work budget of one firing's copy path.
//!
//! A committed firing materialises its instantiation (under the claim
//! scan's shard lock), runs `instantiate_actions` (RHS → delta, outside
//! any lock), `WorkingMemory::apply` (inside the engine's commit critical
//! section, under `pipeline.base`) and `Rete::apply` (the own shard's
//! match update, after the base is released). What they allocate and
//! copy is paid by every worker, on every firing. This test replays
//! three families under a counting allocator, always firing the first
//! instantiation in key order, and bounds a steady-state batch of each:
//!
//! - **planned**: `visit` as `engine_match` writes it (a cursor walking
//!   400 items, each classified against 48 kinds, a negated CE the
//!   rule's own output blocks and `fold` lifts again), `kind` before
//!   `item`. The Rete compiler joins it as `cursor`, `item`, `kind`, so
//!   a batch re-derives no `cursor × kind` partial matches.
//! - **cross-product**: the negation moved between `kind` and `item`.
//!   Negations are plan barriers, so the 48-token cross product stays
//!   and every cursor move deletes and rebuilds it — the slab and token
//!   churn the planned family no longer exercises.
//! - **contend**: `engine_contend`'s `charge` over 8 hot tallies with 4
//!   live tasks each. Every firing rewrites a tally, so the 4
//!   instantiations on it are retracted and re-derived: 4 matches made
//!   and dropped per batch, 1 fired — the family that prices a match
//!   that is never fired.
//!
//! Per family it bounds `Rete::apply` allocations (worst and mean), the
//! whole firing's (materialise + `instantiate_actions` + `wm.apply` +
//! `Rete::apply`) allocations and bytes, and — the work the join order
//! decides — left activations per batch and live tokens after it.
//! Measured in release, worst / mean per batch (a debug build adds one
//! firing allocation, the key `Rete::instantiate`'s debug assertion
//! rebuilds):
//!
//! | family | build | `Rete::apply` allocs | firing allocs | firing bytes | left activations | tokens |
//! |---|---|---|---|---|---|---|
//! | planned | written-order network | 24 / 19.0 | 33 / 27.0 | 3 272 / 2 565 | 51 / 25.5 | 52 / 51.5 |
//! | planned | connected-first join order, eager instantiations | 24 / 19.0 | 33 / 27.0 | 3 272 / 2 565 | 4 / 2.0 | 5 / 4.5 |
//! | planned | instantiations by key | 11 / 9.0 | 22 / 19.0 | 1 920 / 1 636 | 4 / 2.0 | 5 / 4.5 |
//! | cross-product | eager instantiations | 75 / 46.5 | 84 / 54.5 | 7 820 / 5 799 | 98 / 73.0 | 98 / 74.5 |
//! | cross-product | instantiations by key | 62 / 36.5 | 73 / 46.5 | 6 468 / 4 870 | 98 / 73.0 | 98 / 74.5 |
//! | contend | eager instantiations | 44 / 44.0 | 54 / 54.0 | 6 092 / 6 092 | 1 / 1.0 | 64 / 64.0 |
//! | contend | instantiations by key | 14 / 14.0 | 26 / 26.0 | 2 124 / 2 124 | 1 / 1.0 | 64 / 64.0 |
//! | planned | shared tuples | 7 / 6.0 | 18 / 16.0 | 1 536 / 1 332 | 4 / 2.0 | 5 / 4.5 |
//! | cross-product | shared tuples | 58 / 33.5 | 69 / 43.5 | 6 084 / 4 566 | 98 / 73.0 | 98 / 74.5 |
//! | contend | shared tuples | 10 / 10.0 | 22 / 22.0 | 1 612 / 1 612 | 1 / 1.0 | 64 / 64.0 |
//! | planned | no hit lists, exact-size deltas | 4 / 3.0 | 15 / 13.0 | 1 280 / 1 116 | 4 / 2.0 | 5 / 4.5 |
//! | cross-product | no hit lists, exact-size deltas | 55 / 30.5 | 66 / 40.5 | 5 828 / 4 350 | 98 / 73.0 | 98 / 74.5 |
//! | contend | no hit lists, exact-size deltas | 5 / 5.0 | 17 / 17.0 | 1 320 / 1 320 | 1 / 1.0 | 64 / 64.0 |
//!
//! The eager rows made one `Instantiation` per complete match inside
//! `Rete::apply` (owned `Wme` copies, bindings, the key built twice) and
//! cloned the fired one; their firing column does not include that
//! clone. By key, `Rete::apply` builds one shared key per match and the
//! firing column includes the one materialisation. With shared tuples
//! `Rete::apply` keeps the batch's `Arc<Wme>` for each added element
//! instead of copying its payload into a new one (two allocations per
//! copy: the `Arc` and the attribute vector). Without hit lists
//! `Rete::apply` no longer collects the alpha memories an element
//! entered or left into a vector (it reads the entered ones back from
//! the memories and never read the left ones), and the firing's delta
//! and `make` attributes are allocated at their final size instead of
//! doubling from four slots. Tokens never
//! allocated (slab slots and index buckets are reused), so the join
//! order leaves the allocation rows unchanged; the written-order network
//! fails the planned family's work ceilings. Earlier rounds of the
//! planned family: 38 / 29.9 `Rete::apply` allocations while the
//! conflict set kept unread WME and rule indexes; 40 / 32.0 firing
//! allocations and 11 084 / 8 405 bytes before sorted-vector payloads
//! and interned atoms.
//!
//! The allocator lives here because an integration test is its own crate:
//! `dps-match` itself keeps `#![forbid(unsafe_code)]`. Keep this file to
//! a single `#[test]` — the counters are process-wide. CI runs it with
//! `--release`, the build the engine pays for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dps_match::{Matcher, Rete};
use dps_rules::{instantiate_actions, RuleSet};
use dps_wm::{WmeData, WorkingMemory};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` unchanged; the counters are relaxed atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` requested so far.
fn counters() -> (u64, u64) {
    (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed))
}

const KINDS: i64 = 48;
const ITEMS: i64 = 400;
const WARM_UP: usize = 100;
/// Per-batch ceilings of one family (allocations and bytes are the
/// worst over the measured batches, `rete_mean` their mean; tokens are
/// live after a batch).
struct Budget {
    rete_allocs: u64,
    rete_mean: f64,
    firing_allocs: u64,
    firing_bytes: u64,
    left_activations: u64,
    tokens: u64,
}

/// The planned family. Measured worst: 4 `Rete::apply` allocations
/// (mean 3.0) and 15 firing allocations, 1 280 bytes, 4 left
/// activations, 5 live tokens. The written-order network (parent of the
/// join planner) made 51 left activations and held 52 tokens, which
/// fails the last two ceilings; with hit lists and doubling deltas it
/// made 7 (mean 6.0), 18 and 1 536, which fails the first four.
const PLANNED_BUDGET: Budget = Budget {
    rete_allocs: 5,
    rete_mean: 4.0,
    firing_allocs: 16,
    firing_bytes: 1_400,
    left_activations: 8,
    tokens: 8,
};

/// The cross-product family, whose plan is its written order. Measured
/// worst: 55 `Rete::apply` allocations (mean 30.5) and 66 firing
/// allocations — most of them the negation's per-input result sets, one
/// per `cursor × kind` token the `out` blocks — 5 828 bytes, 98 left
/// activations, 98 live tokens. With hit lists and doubling deltas:
/// 58 (mean 33.5), 69 and 6 084.
const CROSS_BUDGET: Budget = Budget {
    rete_allocs: 56,
    rete_mean: 31.5,
    firing_allocs: 67,
    firing_bytes: 6_000,
    left_activations: 104,
    tokens: 104,
};

/// The contend family. Measured, every batch alike: 5 `Rete::apply`
/// allocations — four of them the keys of the four re-derived matches —
/// and 17 firing allocations, 1 320 bytes, 1 left activation, 64 live
/// tokens. With an eager instantiation per match (owned `Wme` copies,
/// bindings and two key builds each) `Rete::apply` made 44; copying
/// each added element into the network, 14; with hit lists and
/// doubling deltas, 10 (22 firing allocations, 1 612 bytes).
const CONTEND_BUDGET: Budget = Budget {
    rete_allocs: 6,
    rete_mean: 6.0,
    firing_allocs: 18,
    firing_bytes: 1_400,
    left_activations: 2,
    tokens: 68,
};

/// `visit` as `engine_match` writes it: `kind` before `item`, so the
/// written order is a `cursor × kind` cross product the compiler plans
/// away (`cursor`, `item`, `kind`).
const PLANNED: &str = "(p visit (cursor ^at <i>) (kind ^kind <k> ^w <w>)
          (item ^id <i> ^kind <k> ^next <j>) -(out)
   --> (modify 1 ^at <j>) (make out ^id <i> ^w <w>))";

/// The same rule with the negation moved up: it is a barrier, and
/// `cursor` and `kind` share no variable, so the `cursor × kind` product
/// cannot be avoided and every cursor move deletes and rebuilds
/// [`KINDS`] tokens — the slab and token churn this test bounds.
const CROSS: &str = "(p visit (cursor ^at <i>) (kind ^kind <k> ^w <w>) -(out)
          (item ^id <i> ^kind <k> ^next <j>)
   --> (modify 1 ^at <j>) (make out ^id <i> ^w <w>))";

const FOLD: &str = "(p fold (out ^id <i> ^w <w>) (sum ^total <s>)
   --> (remove 1) (modify 2 ^total (+ <s> <w>)))";

/// `engine_contend`'s rule: every firing rewrites one of [`TALLIES`] hot
/// tallies, which retracts the instantiations of every live task
/// charging it and re-derives them.
const CHARGE: &str = "(p charge (task ^res <r> ^left { > 0 <n> }) (tally ^id <r> ^count <c>)
   --> (modify 1 ^left (- <n> 1)) (modify 2 ^count (+ <c> 1)))";
const TALLIES: i64 = 8;
const TASKS_PER_TALLY: i64 = 4;
/// Contend batches fired: fewer than one task's charges, so all
/// `TALLIES × TASKS_PER_TALLY` tasks stay live throughout.
const CHARGES: usize = 600;

/// Worst and total of one per-batch quantity over the measured batches.
#[derive(Default)]
struct Tally {
    worst: u64,
    total: u64,
}

impl Tally {
    fn add(&mut self, x: u64) {
        self.worst = self.worst.max(x);
        self.total += x;
    }

    fn mean(&self, n: usize) -> f64 {
        self.total as f64 / n as f64
    }
}

/// Per-batch tallies of one family: `Rete::apply` allocations, and the
/// whole firing's allocations and bytes.
struct Replay {
    /// Measured batches (after the warm-up).
    batches: usize,
    /// Whether the conflict set was empty after the last batch.
    quiescent: bool,
    rete: Tally,
    firing: Tally,
    bytes: Tally,
    /// Left activations per batch, and live tokens after each batch.
    left: Tally,
    tokens: Tally,
}

/// The rules and initial working memory of a `visit` + `fold` family.
fn visit_family(visit_src: &str) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(&format!("{visit_src}\n{FOLD}")).unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("cursor").with("at", 0i64));
    wm.insert(WmeData::new("sum").with("total", 0i64));
    for k in 0..KINDS {
        wm.insert(WmeData::new("kind").with("kind", k).with("w", k + 1));
    }
    for i in 0..ITEMS {
        let item = WmeData::new("item").with("id", i).with("next", i + 1);
        wm.insert(item.with("kind", (i * 7) % KINDS));
    }
    (rules, wm)
}

/// The contend family: [`TALLIES`] tallies, [`TASKS_PER_TALLY`] live
/// tasks on each, every task with more charges left than the replay
/// fires.
fn contend_family() -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(CHARGE).unwrap();
    let mut wm = WorkingMemory::new();
    for r in 0..TALLIES {
        wm.insert(WmeData::new("tally").with("id", r).with("count", 0i64));
    }
    for t in 0..TALLIES * TASKS_PER_TALLY {
        let task = WmeData::new("task").with("res", t % TALLIES);
        wm.insert(task.with("left", 10 * CHARGES as i64));
    }
    (rules, wm)
}

/// Fires one family's first instantiation in key order until it is
/// quiescent or has fired `firings`, measuring every batch after the
/// warm-up; it must reach `firings`.
fn replay(name: &str, (rules, mut wm): (RuleSet, WorkingMemory), firings: usize) -> Replay {
    let mut rete = Rete::new(&rules, &wm);

    let mut batches = 0usize;
    let mut r = Replay {
        batches: 0,
        quiescent: false,
        rete: Tally::default(),
        firing: Tally::default(),
        bytes: Tally::default(),
        left: Tally::default(),
        tokens: Tally::default(),
    };
    while batches < firings {
        let Some(key) = rete.conflict_set().keys().next().cloned() else {
            break;
        };
        let left = rete.stats().left_activations;
        let start = counters();
        // The firing's own instantiation, materialised as a claim does.
        let inst = rete.instantiate(&key).unwrap();
        let rule = rules.get(inst.rule).unwrap();
        let (delta, _) = instantiate_actions(rule, &inst.bindings, &inst.wmes).unwrap();
        drop(inst);
        let changes = wm.apply(&delta).unwrap();
        let applied = counters();
        rete.apply(&changes);
        let end = counters();
        batches += 1;
        if batches > WARM_UP {
            r.rete.add(end.0 - applied.0);
            r.firing.add(end.0 - start.0);
            r.bytes.add(end.1 - start.1);
            let stats = rete.stats();
            r.left.add(stats.left_activations - left);
            r.tokens.add(stats.tokens as u64);
        }
    }
    assert_eq!(batches, firings, "{name}: quiescent after {batches} firings");
    r.quiescent = rete.conflict_set().is_empty();
    let n = batches - WARM_UP;
    r.batches = n;
    println!(
        "{name} over {n} batches: rete.apply worst {} mean {:.1} allocations; \
         firing worst {} mean {:.1} allocations, worst {} mean {:.0} bytes; \
         left activations worst {} mean {:.1}; live tokens worst {} mean {:.1}",
        r.rete.worst,
        r.rete.mean(n),
        r.firing.worst,
        r.firing.mean(n),
        r.bytes.worst,
        r.bytes.mean(n),
        r.left.worst,
        r.left.mean(n),
        r.tokens.worst,
        r.tokens.mean(n),
    );
    r
}

/// Fails naming the family and the ceiling it broke.
fn check(name: &str, r: &Replay, budget: &Budget) {
    let n = r.batches;
    assert!(
        r.rete.mean(n) <= budget.rete_mean,
        "{name}: Rete::apply made {:.1} allocations per batch on average (budget {})",
        r.rete.mean(n),
        budget.rete_mean
    );
    let rows = [
        ("Rete::apply allocations", r.rete.worst, budget.rete_allocs),
        ("firing allocations", r.firing.worst, budget.firing_allocs),
        ("firing bytes", r.bytes.worst, budget.firing_bytes),
        ("left activations", r.left.worst, budget.left_activations),
        ("live tokens", r.tokens.worst, budget.tokens),
    ];
    for (what, worst, ceiling) in rows {
        assert!(
            worst <= ceiling,
            "{name}: a steady-state batch reached {worst} {what} (budget {ceiling})"
        );
    }
}

#[test]
fn steady_state_batch_stays_within_the_allocation_budget() {
    // Measure every family before checking any, so one run prints all.
    let visits = 2 * ITEMS as usize;
    let planned = replay("planned", visit_family(PLANNED), visits);
    let cross = replay("cross-product", visit_family(CROSS), visits);
    let contend = replay("contend", contend_family(), CHARGES);
    assert!(planned.quiescent && cross.quiescent, "every item visited and folded");
    check("planned", &planned, &PLANNED_BUDGET);
    check("cross-product", &cross, &CROSS_BUDGET);
    check("contend", &contend, &CONTEND_BUDGET);
}
