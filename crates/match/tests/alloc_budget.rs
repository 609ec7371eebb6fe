//! Allocation budget of the Rete hot path.
//!
//! `Rete::apply` runs inside the engine's commit critical section, so
//! what it allocates and copies is paid by every worker. This test
//! replays one `engine_match`-shaped family (a cursor × 48 kinds cross
//! product feeding an indexed join, a negated CE the rule's own output
//! blocks and `fold` lifts again) under a counting allocator and bounds
//! the heap allocations one change batch may make in steady state. What
//! legitimately remains is the `Arc` around each added WME and the one
//! `Instantiation` a batch materialises (inserted into the conflict set,
//! one ordered map with no secondary index to maintain); tokens, join
//! candidates, tests and successor lists must not allocate or copy.
//! Measured: mean 19.0, worst 24 allocations per batch (29.9 / 38 while
//! the conflict set still kept its unread WME and rule indexes).
//!
//! The allocator lives here because an integration test is its own crate:
//! `dps-match` itself keeps `#![forbid(unsafe_code)]`. Keep this file to
//! a single `#[test]` — the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dps_match::{Matcher, Rete};
use dps_rules::{instantiate_actions, RuleSet};
use dps_wm::{WmeData, WorkingMemory};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` unchanged; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KINDS: i64 = 48;
const ITEMS: i64 = 400;
const WARM_UP: usize = 100;
/// Per-batch ceiling: worst measured 24; the indexed conflict set's 38
/// fails it (and PR 12's parent measured 482).
const BUDGET: u64 = 32;

#[test]
fn steady_state_batch_stays_within_the_allocation_budget() {
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
    for k in 0..KINDS {
        wm.insert(WmeData::new("kind").with("kind", k).with("w", k + 1));
    }
    for i in 0..ITEMS {
        let item = WmeData::new("item").with("id", i).with("next", i + 1);
        wm.insert(item.with("kind", (i * 7) % KINDS));
    }
    let mut rete = Rete::new(&rules, &wm);

    let (mut batches, mut worst, mut total) = (0usize, 0u64, 0u64);
    loop {
        let next = rete.conflict_set().iter().next().cloned();
        let Some(inst) = next else { break };
        let rule = rules.get(inst.rule).unwrap();
        let (delta, _) = instantiate_actions(rule, &inst.bindings, &inst.wmes).unwrap();
        let changes = wm.apply(&delta).unwrap();
        let before = ALLOCATIONS.load(Relaxed);
        rete.apply(&changes);
        let spent = ALLOCATIONS.load(Relaxed) - before;
        batches += 1;
        if batches > WARM_UP {
            worst = worst.max(spent);
            total += spent;
        }
    }
    assert_eq!(batches as i64, 2 * ITEMS, "every item visited and folded");
    let measured = (batches - WARM_UP) as u64;
    assert!(
        worst <= BUDGET,
        "a steady-state batch made {worst} allocations (budget {BUDGET}, mean {})",
        total / measured
    );
    println!(
        "rete alloc budget: worst {worst}, mean {:.1} allocations per batch over {measured} batches",
        total as f64 / measured as f64
    );
}
