//! Allocation budget of checkpoint and recovery decoding.
//!
//! Recovery decodes the newest checkpoint's snapshot, and every commit
//! record it replays, through `dps_wm::codec`. This test encodes a
//! 999-tuple snapshot of three classes (`acc ^key ^total`,
//! `task ^id ^status ^cost`, `note ^owner ^text`) and decodes it
//! through `WorkingMemory::decode_snapshot` under a counting allocator.
//!
//! Measured (release), per decode:
//! - with an owned `String` per class name, attribute name, symbol and
//!   string value, turned into an atom afterwards: 5 172 allocations,
//!   5.18 per tuple (four of them strings, on average);
//! - reading strings in place and interning each distinct name once
//!   per decode: 1 176, 1.18 per tuple (the tuple's attribute vector,
//!   plus the relations' B-tree nodes and the id index's growth).
//!
//! The allocator lives here because an integration test is its own
//! crate: `dps-wm` itself forbids `unsafe_code`. Keep this file to a
//! single `#[test]` — the counters are process-wide. CI runs it with
//! `--release`, the build recovery pays for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dps_wm::{Value, WmeData, WorkingMemory};

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

/// Tuples in the snapshot, a third of each class.
const TUPLES: usize = 999;
/// Allocations a decode may make per tuple: 1.18 measured; the
/// per-string decoder's 5.18 fails it.
const PER_TUPLE: f64 = 1.25;

/// Allocations `f` makes, the least over a few runs (the first interns
/// the snapshot's names; later ones find them in the table).
fn allocations(f: impl Fn()) -> u64 {
    (0..4)
        .map(|_| {
            let before = ALLOCATIONS.load(Relaxed);
            f();
            ALLOCATIONS.load(Relaxed) - before
        })
        .min()
        .unwrap()
}

#[test]
fn snapshot_decode_stays_within_its_allocation_budget() {
    let mut wm = WorkingMemory::new();
    for i in 0..(TUPLES / 3) as i64 {
        wm.insert(WmeData::new("acc").with("key", i).with("total", 3 * i));
        let status = Value::Sym(if i % 2 == 0 { "open" } else { "done" }.into());
        wm.insert(WmeData::new("task").with("id", i).with("status", status).with("cost", 0.5));
        wm.insert(WmeData::new("note").with("owner", i).with("text", Value::Str("seen".into())));
    }
    let snapshot = wm.encode_snapshot().unwrap();
    let allocs = allocations(|| {
        black_box(WorkingMemory::decode_snapshot(black_box(&snapshot)).unwrap());
    });

    let per_tuple = allocs as f64 / TUPLES as f64;
    println!("decode_snapshot ({TUPLES} tuples): {allocs} allocations, {per_tuple:.2} per tuple");
    assert!(
        per_tuple <= PER_TUPLE,
        "a {TUPLES}-tuple snapshot decode made {allocs} allocations \
         ({per_tuple:.2} per tuple), budget {PER_TUPLE} per tuple"
    );
}
