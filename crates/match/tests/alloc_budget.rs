//! Allocation and work budget of one firing's copy path.
//!
//! A committed firing runs `instantiate_actions` (RHS → delta, outside
//! any lock), `WorkingMemory::apply` (inside the engine's commit critical
//! section, under `pipeline.base`) and `Rete::apply` (the own shard's
//! match update, after the base is released). What they
//! allocate and copy is paid by every worker, on every firing. This test
//! replays two `engine_match`-shaped families (a cursor walking 400
//! items, each classified against 48 kinds, a negated CE the rule's own
//! output blocks and `fold` lifts again) under a counting allocator and
//! bounds a steady-state batch of each:
//!
//! - **planned**: `visit` as `engine_match` writes it, `kind` before
//!   `item`. The Rete compiler joins it as `cursor`, `item`, `kind`, so
//!   a batch re-derives no `cursor × kind` partial matches.
//! - **cross-product**: the negation moved between `kind` and `item`.
//!   Negations are plan barriers, so the 48-token cross product stays
//!   and every cursor move deletes and rebuilds it — the slab and token
//!   churn the planned family no longer exercises.
//!
//! Per family it bounds `Rete::apply` allocations, the whole firing's
//! (`instantiate_actions` + `wm.apply` + `Rete::apply`) allocations and
//! bytes, and — the work the join order decides — left activations per
//! batch and live tokens after it. Measured, release and debug alike,
//! worst / mean per batch:
//!
//! | family | build | `Rete::apply` allocs | firing allocs | firing bytes | left activations | tokens |
//! |---|---|---|---|---|---|---|
//! | planned | written-order network (parent) | 24 / 19.0 | 33 / 27.0 | 3 272 / 2 565 | 51 / 25.5 | 52 / 51.5 |
//! | planned | connected-first join order | 24 / 19.0 | 33 / 27.0 | 3 272 / 2 565 | 4 / 2.0 | 5 / 4.5 |
//! | cross-product | either | 75 / 46.5 | 84 / 54.5 | 7 820 / 5 799 | 98 / 73.0 | 98 / 74.5 |
//!
//! Tokens never allocated (slab slots and index buckets are reused), so
//! the join order leaves the allocation rows unchanged; the written-order
//! network fails the planned family's work ceilings. Earlier rounds of
//! the planned family: 38 / 29.9 `Rete::apply` allocations while the
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
/// worst over the measured batches; tokens are live after a batch).
struct Budget {
    rete_allocs: u64,
    firing_allocs: u64,
    firing_bytes: u64,
    left_activations: u64,
    tokens: u64,
}

/// The planned family. Measured worst: 24 `Rete::apply` and 33 firing
/// allocations, 3 272 bytes, 4 left activations, 5 live tokens. The
/// written-order network (parent of the join planner) allocated the
/// same but made 51 left activations and held 52 tokens, which fails
/// the last two ceilings.
const PLANNED_BUDGET: Budget = Budget {
    rete_allocs: 28,
    firing_allocs: 36,
    firing_bytes: 4_096,
    left_activations: 8,
    tokens: 8,
};

/// The cross-product family, whose plan is its written order. Measured
/// worst (before and after the join planner): 75 `Rete::apply` and 84
/// firing allocations — most of them the negation's per-input result
/// sets, one per `cursor × kind` token the `out` blocks — 7 820 bytes,
/// 98 left activations, 98 live tokens.
const CROSS_BUDGET: Budget = Budget {
    rete_allocs: 80,
    firing_allocs: 88,
    firing_bytes: 8_192,
    left_activations: 104,
    tokens: 104,
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
    rete: Tally,
    firing: Tally,
    bytes: Tally,
    /// Left activations per batch, and live tokens after each batch.
    left: Tally,
    tokens: Tally,
}

/// Fires `visit_src` + `fold` to quiescence over one family, measuring
/// every batch after the warm-up.
fn replay(name: &str, visit_src: &str) -> Replay {
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
    let mut rete = Rete::new(&rules, &wm);

    let mut batches = 0usize;
    let mut r = Replay {
        rete: Tally::default(),
        firing: Tally::default(),
        bytes: Tally::default(),
        left: Tally::default(),
        tokens: Tally::default(),
    };
    loop {
        let next = rete.conflict_set().iter().next().cloned();
        let Some(inst) = next else { break };
        let rule = rules.get(inst.rule).unwrap();
        let left = rete.stats().left_activations;
        let start = counters();
        let (delta, _) = instantiate_actions(rule, &inst.bindings, &inst.wmes).unwrap();
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
    assert_eq!(
        batches as i64,
        2 * ITEMS,
        "{name}: every item visited and folded"
    );
    let n = batches - WARM_UP;
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
    // Measure both before checking either, so one run prints both.
    let planned = replay("planned", PLANNED);
    let cross = replay("cross-product", CROSS);
    check("planned", &planned, &PLANNED_BUDGET);
    check("cross-product", &cross, &CROSS_BUDGET);
}
