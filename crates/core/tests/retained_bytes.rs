//! Retained-bytes budget: what the engine keeps, per record, once a run
//! is over.
//!
//! The `alloc_budget` tests count what a firing *allocates*; this one
//! counts what stays *live*. Its allocator adds each allocation's size
//! and subtracts each free, so a difference of two readings is the heap
//! a structure holds, slack included. It bounds:
//!
//! - **log bytes per committed firing** with the trace kept: the heap
//!   the trace's commit log holds (its blocks with the slack each full
//!   block leaves, its atom, shape and rule-name tables; not the last
//!   block's unused room), on the planned `visit`/`fold` shape of
//!   `engine_match` and on `engine_contend`'s `charge` shape;
//! - **bytes per tuple of an alpha memory** indexed on an attribute
//!   every tuple holds a different value of (as `engine_match`'s
//!   `item ^id`): the member map plus the index;
//! - **bytes per stored tuple** of a working memory of `engine_match`'s
//!   3-attribute `item`s and of `engine_contend`'s 2-attribute `task`s,
//!   built pair by pair with `WmeData::with`: the shared `Wme`, its pair
//!   vector and its share of the memory's tables.
//!
//! Measured (release and debug alike: the sizes are requested bytes,
//! not the allocator's rounding):
//!
//! | record | grown by doubling, a map per index value | sized to what it holds, one inline member | encoded commit log | with its txn column | the last block's spare not counted | ops as shapes | hashed index keys, pairs sized |
//! |---|---|---|---|---|---|---|---|
//! | planned firing (`visit` / `fold`) | 336 B | 216 B | 26.4 B (25.2 encoded) | 31.5 B (26.2 encoded) | 27.1 B (26.2 encoded) | 18.3 B (17.3 encoded) | 18.3 B (17.3 encoded) |
//! | contend firing (`charge`) | 288 B | 208 B | 26.3 B (22.0 encoded) | 26.3 B (23.0 encoded) | 23.7 B (23.0 encoded) | 14.2 B (13.1 encoded) | 14.2 B (13.1 encoded) |
//! | alpha-memory tuple, unique index | 205.2 B | 121.2 B | 121.2 B | 121.2 B | 121.2 B | 121.2 B | 68.8 B |
//! | stored `item` tuple (3 attributes) | | | | | | 284.8 B | 244.8 B |
//! | stored `task` tuple (2 attributes) | | | | | | 284.8 B | 204.8 B |
//!
//! The first two columns count the heap a kept `Firing` held beyond its
//! slot in the trace vector (its key, its delta, each `make`'s and
//! `modify`'s attributes). Grown one push at a time, a delta reserved
//! four operations for a rule's two and a `make`'s attribute map four
//! pairs for its two; with a map per index value, each distinct value
//! owned an id map of its own (four slots and their control bytes for
//! one member). The last two columns count everything the trace holds
//! as a commit log, block slack and tables included; "encoded" is the
//! records' own bytes. The txn column adds one byte a record here (the
//! single-thread engine writes one txn id, `NO_TXN`, so every delta is
//! 0); the planned run's 800 records then fill 6 blocks instead of 5,
//! and the sixth, nearly empty, is the 5 B of slack the per-firing
//! figure gained. So the last column leaves out the last block's unused
//! room (`CommitLog::spare`: 3 533 B planned, 1 630 B contend), and the
//! figure follows record size, not where the record count falls
//! against a block boundary. With ops as shapes a record names each
//! op's skeleton (kind, target, class, attribute atoms and value tags)
//! by its index in the log's shape table and carries only the values,
//! and the key's later timestamps as differences: the shape table, a
//! few dozen bytes for these rules' four op skeletons, is counted with
//! the other tables. With hashed index keys an alpha index entry is a
//! `u64` hash of the value beside a two-word bucket, 24 B where a
//! `Value` key beside an unboxed id map took 56 (the tuple in the bucket
//! holds the value already), and a stored tuple's pair vector holds room
//! for two pairs, then grows one at a time up to four, where doubling
//! held four for one to three.
//!
//! The allocator lives here because an integration test is its own
//! crate: `dps-core` itself forbids `unsafe_code`. It counts per thread
//! (the single-thread engine frees on the thread that allocated), so
//! the tests may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dps_core::{EngineConfig, SingleThreadEngine, StepOutcome};
use dps_match::AlphaNetwork;
use dps_rules::{parser::parse_condition_element, RuleSet};
use dps_wm::{Atom, Wme, WmeData, WmeId, WorkingMemory};

struct Counting;

thread_local! {
    /// This thread's live heap bytes (`const`-initialised and drop-free,
    /// so the allocator may touch it at any point of a thread's life).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: usize, sign: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + sign * bytes as i64));
}

// SAFETY: defers to `System` unchanged; the counter is a thread-local
// cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(layout.size(), -1);
        add(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's live heap bytes.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Ceilings, bytes per record: measured 18.3, 14.2, 68.8, 244.8 and
/// 204.8, each firing ceiling under 2 B above its measurement; inline
/// ops (27.1 and 23.7), kept `Firing`s (216 and 208), value keys
/// (121.2), a hashed key beside an unboxed bucket (95.0) and one pair
/// of slack per tuple (+40 B) fail each.
const PLANNED_FIRING_BYTES: f64 = 20.0;
const CONTEND_FIRING_BYTES: f64 = 16.0;
const ALPHA_TUPLE_BYTES: f64 = 80.0;
const ITEM_TUPLE_BYTES: f64 = 256.0;
const TASK_TUPLE_BYTES: f64 = 216.0;

/// `visit` as `engine_match` writes it, and the `fold` its output feeds.
const VISIT_FOLD: &str = "(p visit (cursor ^at <i>) (kind ^kind <k> ^w <w>)
          (item ^id <i> ^kind <k> ^next <j>) -(out)
   --> (modify 1 ^at <j>) (make out ^id <i> ^w <w>))
(p fold (out ^id <i> ^w <w>) (sum ^total <s>)
   --> (remove 1) (modify 2 ^total (+ <s> <w>)))";
const KINDS: i64 = 48;
const ITEMS: i64 = 400;

/// `engine_contend`'s rule: every firing rewrites one of `TALLIES` hot
/// tallies.
const CHARGE: &str = "(p charge (task ^res <r> ^left { > 0 <n> }) (tally ^id <r> ^count <c>)
   --> (modify 1 ^left (- <n> 1)) (modify 2 ^count (+ <c> 1)))";
const TALLIES: i64 = 8;
const TASKS: i64 = 32;
const CHARGES_PER_TASK: i64 = 20;

/// Runs `rules` over `wm` to quiescence on the single-thread engine and
/// returns the heap its trace holds, per firing: the commit log's
/// blocks with the slack each full block leaves, and its atom, shape
/// and rule-name tables. The last block's unused room is not counted: it
/// is held for the records to come, and counting it made the figure
/// jump with where the record count fell against a block boundary.
fn bytes_per_firing(name: &str, rules: &str, wm: WorkingMemory, firings: usize) -> f64 {
    let rules = RuleSet::parse(rules).unwrap();
    let mut engine = SingleThreadEngine::new(&rules, wm, EngineConfig::default());
    let report = engine.run();
    assert_eq!(report.outcome, StepOutcome::Quiescent, "{name}");
    assert_eq!(report.commits, firings, "{name}");
    drop(engine);
    let (encoded, spare) = (report.trace.firings.bytes(), report.trace.firings.spare());
    let before = live();
    drop(report);
    let held = before - live() - spare as i64;
    let per = held as f64 / firings as f64;
    println!(
        "{name}: {firings} firings hold {held} bytes beside {spare} spare, {per:.1} each \
         ({:.1} encoded)",
        encoded as f64 / firings as f64
    );
    per
}

#[test]
fn a_kept_firing_is_a_compact_log_record() {
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
    let planned = bytes_per_firing("planned", VISIT_FOLD, wm, 2 * ITEMS as usize);

    let mut wm = WorkingMemory::new();
    for r in 0..TALLIES {
        wm.insert(WmeData::new("tally").with("id", r).with("count", 0i64));
    }
    for t in 0..TASKS {
        let task = WmeData::new("task").with("res", t % TALLIES);
        wm.insert(task.with("left", CHARGES_PER_TASK));
    }
    let charges = (TASKS * CHARGES_PER_TASK) as usize;
    let contend = bytes_per_firing("contend", CHARGE, wm, charges);

    assert!(planned <= PLANNED_FIRING_BYTES, "planned: {planned:.1} B per firing");
    assert!(contend <= CONTEND_FIRING_BYTES, "contend: {contend:.1} B per firing");
}

#[test]
fn a_unique_index_value_holds_its_tuple_inline() {
    const N: u64 = 10_000;
    let tuples: Vec<Arc<Wme>> = (0..N)
        .map(|i| {
            let data = WmeData::new("item").with("id", i as i64).with("next", i as i64 + 1);
            Arc::new(Wme { id: WmeId(i + 1), data, timestamp: i + 1 })
        })
        .collect();
    let mut net = AlphaNetwork::default();
    let mem = net.register(&parse_condition_element("(item)").unwrap());
    net.ensure_index(mem, &Atom::from("id"));
    let before = live();
    for w in &tuples {
        net.add_wme(w);
    }
    let per = (live() - before) as f64 / N as f64;
    println!("alpha memory: {N} tuples on a unique index hold {per:.1} bytes each");
    assert_eq!(net.memory(mem).len(), N as usize);
    assert!(per <= ALPHA_TUPLE_BYTES, "{per:.1} B per tuple");
}

/// The heap a working memory of `n` tuples built by `make` holds, per
/// tuple: the shared `Wme`, its pair vector, and its share of the
/// relation's and the id map's tables.
fn bytes_per_stored_tuple(name: &str, n: i64, make: impl Fn(i64) -> WmeData) -> f64 {
    drop(make(0)); // interns the class and attribute names beforehand
    let before = live();
    let mut wm = WorkingMemory::new();
    for i in 0..n {
        wm.insert(make(i));
    }
    let per = (live() - before) as f64 / n as f64;
    println!("{name}: {n} stored tuples hold {per:.1} bytes each");
    assert_eq!(wm.len(), n as usize);
    per
}

#[test]
fn a_stored_tuple_holds_only_its_pairs() {
    let item = bytes_per_stored_tuple("item (3 attributes)", 10_000, |i| {
        WmeData::new("item").with("id", i).with("kind", i % KINDS).with("next", i + 1)
    });
    let task = bytes_per_stored_tuple("task (2 attributes)", 10_000, |i| {
        WmeData::new("task").with("res", i % TALLIES).with("left", 0i64)
    });
    assert!(item <= ITEM_TUPLE_BYTES, "item: {item:.1} B per stored tuple");
    assert!(task <= TASK_TUPLE_BYTES, "task: {task:.1} B per stored tuple");
}
