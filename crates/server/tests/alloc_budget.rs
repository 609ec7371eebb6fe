//! Allocation budget of the wire decoder.
//!
//! A `session_mixed` read transaction's reply is a 256-row `Rows` frame
//! of `acc ^key k ^total t` tuples, and the client decodes one per read.
//! This test decodes such a frame, and one `session_zipf`-shaped
//! `Insert delta ^key k ^v 1` request, under a counting allocator and
//! bounds the allocations of each.
//!
//! Measured (release), per decode:
//! - with an owned `String` per decoded string, turned into an atom
//!   afterwards: `Rows` 1 025 allocations (four per row — class name,
//!   two attribute names, attribute vector — plus the row vector),
//!   `Insert` 4;
//! - reading strings in place and interning each distinct name once
//!   per frame: `Rows` 258 (the attribute vector per row, the row
//!   vector and the frame's name table), `Insert` 4 (the request's own
//!   `String`s and vector).
//!
//! The allocator lives here because an integration test is its own
//! crate: `dps-server` itself denies `unsafe_code`. Keep this file to a
//! single `#[test]` — the counters are process-wide. CI runs it with
//! `--release`, the build the benchmark pays for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dps_server::{Request, Response};
use dps_wm::{Value, WmeData};

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

/// Rows in a `session_mixed` `Query acc` reply.
const ROWS: usize = 256;
/// Allocations a `Rows` decode may make beyond one per row. Measured
/// 2 (row vector, name table); the per-field decoder's 1 025 in all
/// fails the budget.
const ROWS_SLACK: u64 = 4;
/// Ceiling of one `Insert` decode; measured 4 with either decoder.
const INSERT_ALLOCS: u64 = 4;

/// Allocations `f` makes, the least over a few runs (the first interns
/// the frame's names; later ones find them in the table).
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
fn wire_decodes_stay_within_their_allocation_budget() {
    let rows = (0..ROWS as i64)
        .map(|k| (k as u64 + 1, WmeData::new("acc").with("key", k).with("total", 3 * k)))
        .collect();
    let body = Response::Rows { rows }.encode();
    let rows_allocs = allocations(|| {
        black_box(Response::decode(black_box(&body)).unwrap());
    });

    let insert = Request::Insert {
        class: "delta".into(),
        attrs: vec![("key".into(), Value::Int(7)), ("v".into(), Value::Int(1))],
    }
    .encode();
    let insert_allocs = allocations(|| {
        black_box(Request::decode(black_box(&insert)).unwrap());
    });

    println!("Rows ({ROWS} rows): {rows_allocs} allocations; Insert: {insert_allocs}");
    assert!(
        rows_allocs <= ROWS as u64 + ROWS_SLACK,
        "a {ROWS}-row Rows decode made {rows_allocs} allocations, budget {}",
        ROWS as u64 + ROWS_SLACK
    );
    assert!(
        insert_allocs <= INSERT_ALLOCS,
        "an Insert decode made {insert_allocs} allocations, budget {INSERT_ALLOCS}"
    );
}
