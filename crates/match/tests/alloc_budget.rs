//! Allocation budget of one firing's copy path.
//!
//! A committed firing runs `instantiate_actions` (RHS → delta, outside
//! any lock), `WorkingMemory::apply` (inside the engine's commit critical
//! section, under `pipeline.base`) and `Rete::apply` (the own shard's
//! match update, after the base is released since PR 14). What they
//! allocate and copy is paid by every worker, on every firing. This test
//! replays one `engine_match`-shaped family (a cursor × 48 kinds cross
//! product feeding an indexed join, a negated CE the rule's own output
//! blocks and `fold` lifts again) under a counting allocator and bounds
//! a steady-state batch twice:
//!
//! - `Rete::apply` alone, in allocations. What legitimately remains is
//!   the `Arc` around each added WME and the one `Instantiation` a batch
//!   materialises; tokens, join candidates, tests and successor lists
//!   must not allocate or copy. Measured: mean 19.0, worst 24 (29.9 / 38
//!   while the conflict set still kept its unread WME and rule indexes).
//! - The whole firing (`instantiate_actions` + `wm.apply` +
//!   `Rete::apply`), in allocations *and* bytes. Measured, release and
//!   debug alike, worst / mean per batch:
//!   - parent of PR 22 (`BTreeMap` payloads and change maps, a
//!     per-attribute relation index, `Arc<str>` atoms): 40 / 32.0
//!     allocations, 11 084 / 8 405 bytes;
//!   - PR 22 (sorted-vector payloads and change maps, no relation index,
//!     interned atoms, a change log sized for its modifies): 33 / 27.0
//!     allocations, 3 272 / 2 565 bytes.
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
/// `Rete::apply` per-batch ceiling: worst measured 24; the indexed
/// conflict set's 38 fails it (and PR 12's parent measured 482).
const BUDGET: u64 = 32;
/// Whole-firing per-batch ceilings: worst measured 33 allocations and
/// 3 272 bytes; the parent's 40 and 11 084 fail both.
const FIRING_BUDGET: u64 = 36;
const FIRING_BYTE_BUDGET: u64 = 4_096;

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

    let mut batches = 0usize;
    let (mut rete_allocs, mut firing_allocs, mut firing_bytes) =
        (Tally::default(), Tally::default(), Tally::default());
    loop {
        let next = rete.conflict_set().iter().next().cloned();
        let Some(inst) = next else { break };
        let rule = rules.get(inst.rule).unwrap();
        let start = counters();
        let (delta, _) = instantiate_actions(rule, &inst.bindings, &inst.wmes).unwrap();
        let changes = wm.apply(&delta).unwrap();
        let applied = counters();
        rete.apply(&changes);
        let end = counters();
        batches += 1;
        if batches > WARM_UP {
            rete_allocs.add(end.0 - applied.0);
            firing_allocs.add(end.0 - start.0);
            firing_bytes.add(end.1 - start.1);
        }
    }
    assert_eq!(batches as i64, 2 * ITEMS, "every item visited and folded");
    let measured = batches - WARM_UP;
    println!(
        "alloc budget over {measured} batches: rete.apply worst {} mean {:.1} allocations; \
         firing worst {} mean {:.1} allocations, worst {} mean {:.0} bytes",
        rete_allocs.worst,
        rete_allocs.mean(measured),
        firing_allocs.worst,
        firing_allocs.mean(measured),
        firing_bytes.worst,
        firing_bytes.mean(measured),
    );
    assert!(
        rete_allocs.worst <= BUDGET,
        "a steady-state Rete::apply made {} allocations (budget {BUDGET})",
        rete_allocs.worst
    );
    assert!(
        firing_allocs.worst <= FIRING_BUDGET,
        "a steady-state firing made {} allocations (budget {FIRING_BUDGET})",
        firing_allocs.worst
    );
    assert!(
        firing_bytes.worst <= FIRING_BYTE_BUDGET,
        "a steady-state firing requested {} bytes (budget {FIRING_BYTE_BUDGET})",
        firing_bytes.worst
    );
}
