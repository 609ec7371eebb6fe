//! `instantiate_actions` sizes what it builds to what it will hold: the
//! delta gets one slot per non-`halt` action and each `make` one slot
//! per attribute, so nothing regrows while the delta is built.
//!
//! Checked under a counting allocator: the allocations and bytes of one
//! call are exactly those of exact-size vectors. A delta grown one push
//! at a time (four slots for its first operation) fails it.
//!
//! The allocator counts per thread, so the tests may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

use dps_rules::{instantiate_actions, Bindings, RuleId, RuleSet};
use dps_wm::{Atom, Delta, Value, Wme, WmeData, WmeId};

struct Counting;

thread_local! {
    /// This thread's allocations and allocated bytes (`const`-initialised
    /// and drop-free, so the allocator may touch it at any point).
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: defers to `System` unchanged; the counter is a thread-local
// cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn instantiate_allocates_exactly_the_slots_it_fills() {
    let rules = RuleSet::parse(
        "(p r (task ^n <x>) --> (make log ^n <x> ^m <x> ^k 1) (modify 1 ^n <x>) (remove 1) (halt))",
    )
    .unwrap();
    let rule = rules.get(RuleId(0)).unwrap();
    let task = Wme { id: WmeId(1), data: WmeData::new("task").with("n", 4i64), timestamp: 1 };
    let mut bindings = Bindings::new();
    bindings.bind(Atom::from("x"), Value::Int(4));
    let matched = [Arc::new(task)];

    let before = ALLOCATED.with(Cell::get);
    let (delta, halt) = instantiate_actions(rule, &bindings, &matched).unwrap();
    let after = ALLOCATED.with(Cell::get);

    assert!(halt);
    assert_eq!(delta.len(), 3, "no slot for `halt`");
    let Delta::Create(made) = &delta.ops()[0] else { panic!("make comes first") };
    assert_eq!(made.attrs.len(), 3);
    // The delta's three slots, the `make`'s three attributes, and the
    // `modify`'s one attribute twice: the list it evaluates into and the
    // map that list becomes.
    let pair = size_of::<(Atom, Value)>();
    let exact = (4, 3 * size_of::<Delta>() + 5 * pair);
    assert_eq!((after.0 - before.0, (after.1 - before.1) as usize), exact);
}
