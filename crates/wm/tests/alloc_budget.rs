//! Allocation budget of working-memory copies: checkpoint and recovery
//! decoding, and cloning a working memory.
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
//!   plus the relations' B-tree nodes and the id index's growth);
//! - with each tuple held in its own `Arc<Wme>`, the one allocation its
//!   relation, change batches, version chains and match shards share:
//!   2 175, 2.18 per tuple — one more per tuple, paid once per tuple
//!   instead of once per holder; 2 180 with `class_of` split into one
//!   map per 4096-id range;
//! - with the attribute map grown two pairs, then one at a time up to
//!   four, and the decoder still growing it pair by pair: 2.52 per
//!   tuple; sized from the pair count it reads: 2 180, 2.18 again.
//!
//! A tuple built pair by pair with `WmeData::with` holds room for its
//! pairs only up to four: one or two attributes take 80 B (one
//! allocation), three 120 B (two), four 160 B (three), five 320 B
//! (four); by doubling, one to three took 160 B. A snapshot whose pair
//! count claims `u32::MAX` is refused before anything is reserved.
//!
//! Cloning the same working memory (the engines' retained initial
//! memory, `final_wm()`, the §3 enumerator's branches, a checkpoint)
//! copied every tuple's attribute vector while relations held `Wme`
//! values: 1 164 allocations, 1.17 per tuple. With shared tuples a clone
//! allocated only the relations' B-tree nodes and the index tables: 165
//! allocations, 0.17 per tuple. With the indexes copy-on-write (each
//! relation's id map behind an `Arc`, the id → class map one `Arc`'d
//! map per 4096-id range) a clone allocates the class table, the class
//! index and the range list: 3 allocations, for 999 tuples as for
//! 9 990. The first write after a clone copies the one relation (and id
//! range) it touches, once; removing an absent id copies nothing.
//! A last test checks that the sharing is real: a memory, its clone, the
//! `Change::Added` that `wm.apply` returns and the instantiation a
//! matcher builds over that change all hold one allocation.
//!
//! The allocator lives here because an integration test is its own
//! crate: `dps-wm` itself forbids `unsafe_code`. It counts per thread,
//! so each `#[test]` counts only its own allocations while the others
//! run. CI runs it with `--release`, the build recovery pays for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use dps_match::{Matcher, Rete};
use dps_rules::RuleSet;
use dps_wm::{Atom, Change, DeltaSet, Value, WmError, WmeData, WmeId, WorkingMemory};

struct Counting;

thread_local! {
    /// This thread's allocations, live heap bytes and largest request
    /// (`const`-initialised and drop-free, so the allocator may touch
    /// them at any point of a thread's life).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(grown: i64, request: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(request)));
}

// SAFETY: defers to `System` unchanged; the counters are thread-local
// cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Tuples in the snapshot, a third of each class.
const TUPLES: usize = 999;
/// Allocations a decode may make per tuple: 2.18 measured; the
/// per-string decoder's 6.18 (5.18 before shared tuples) fails it.
const PER_TUPLE: f64 = 2.25;
/// Allocations a clone may make per tuple: 0.003 measured (3 in all);
/// a clone that copies the index maps made 0.17, one that copies each
/// tuple 1.17.
const CLONE_PER_TUPLE: f64 = 0.01;

/// Allocations `f` makes, the least over a few runs (the first interns
/// the snapshot's names; later ones find them in the table).
fn allocations(f: impl Fn()) -> u64 {
    (0..4)
        .map(|_| {
            let before = ALLOCATIONS.with(Cell::get);
            f();
            ALLOCATIONS.with(Cell::get) - before
        })
        .min()
        .unwrap()
}

/// Allocations `f` makes, once.
fn allocations_once<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The three-class working memory the budgets measure.
fn populated() -> WorkingMemory {
    populated_with(TUPLES)
}

/// [`populated`] at `tuples` tuples, a third of each class, inserted
/// round-robin (`acc`, `task`, `note` ids are 0, 1, 2 mod 3).
fn populated_with(tuples: usize) -> WorkingMemory {
    let mut wm = WorkingMemory::new();
    for i in 0..(tuples / 3) as i64 {
        wm.insert(WmeData::new("acc").with("key", i).with("total", 3 * i));
        let status = Value::Sym(if i % 2 == 0 { "open" } else { "done" }.into());
        wm.insert(WmeData::new("task").with("id", i).with("status", status).with("cost", 0.5));
        wm.insert(WmeData::new("note").with("owner", i).with("text", Value::Str("seen".into())));
    }
    wm
}

#[test]
fn snapshot_decode_stays_within_its_allocation_budget() {
    let snapshot = populated().encode_snapshot().unwrap();
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

/// What a tuple of one to five attributes built by `WmeData::with`
/// allocates (counting each growth) and holds: its pair vector reserves
/// two pairs, then one more a pair up to four, then doubles.
#[test]
fn a_tuple_built_pair_by_pair_holds_its_pairs() {
    const PAIR: usize = std::mem::size_of::<(Atom, Value)>();
    let names: Vec<Atom> = (0..5).map(|i| Atom::from(format!("attr{i}"))).collect();
    let class = Atom::from("tuple");
    for (n, (want_allocs, want_pairs)) in
        [(1, 2), (1, 2), (2, 3), (3, 4), (4, 8)].into_iter().enumerate()
    {
        let n = n + 1;
        let before = LIVE.with(Cell::get);
        let (data, allocs) = allocations_once(|| {
            let mut data = WmeData::new(class.clone());
            for (i, name) in names.iter().take(n).enumerate() {
                data = data.with(name.clone(), i as i64);
            }
            data
        });
        let held = LIVE.with(Cell::get) - before;
        println!("a {n}-attribute tuple: {allocs} allocations, holds {held} B");
        assert_eq!(data.attrs.len(), n);
        assert_eq!(allocs, want_allocs, "allocations of a {n}-attribute tuple");
        assert_eq!(held, (want_pairs * PAIR) as i64, "bytes a {n}-attribute tuple holds");
    }
}

/// A snapshot whose one tuple claims `u32::MAX` attributes is refused
/// before its attribute map reserves anything: no request during the
/// decode reaches a kilobyte (the memory's own tables ask for 128 B;
/// room for the claimed pairs would be 160 GiB).
#[test]
fn a_hostile_attribute_count_reserves_nothing() {
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("probe").with("only_attr", 1i64));
    let mut snapshot = wm.encode_snapshot().unwrap();
    // The tuple's count (1), then its one attribute name.
    let mut pattern = 1u32.to_le_bytes().to_vec();
    pattern.extend_from_slice(&9u32.to_le_bytes());
    pattern.extend_from_slice(b"only_attr");
    let at = snapshot.windows(pattern.len()).position(|w| w == pattern).expect("the count");
    assert_eq!(WorkingMemory::decode_snapshot(&snapshot).unwrap().len(), 1);
    snapshot[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    LARGEST.with(|n| n.set(0));
    let decoded = WorkingMemory::decode_snapshot(&snapshot);
    let largest = LARGEST.with(Cell::get);
    assert!(decoded.is_err(), "a count the input cannot hold is an error");
    assert!(largest < 1024, "decoding a hostile count requested {largest} bytes at once");
}

#[test]
fn cloning_a_working_memory_copies_no_tuple() {
    let wm = populated();
    let allocs = allocations(|| {
        black_box(black_box(&wm).clone());
    });
    let per_tuple = allocs as f64 / TUPLES as f64;
    println!(
        "WorkingMemory::clone ({TUPLES} tuples): {allocs} allocations, {per_tuple:.3} per tuple"
    );
    assert!(
        per_tuple <= CLONE_PER_TUPLE,
        "cloning a {TUPLES}-tuple memory made {allocs} allocations \
         ({per_tuple:.2} per tuple), budget {CLONE_PER_TUPLE} per tuple"
    );
}

#[test]
fn a_clone_costs_the_same_at_ten_times_the_tuples() {
    let small = populated_with(TUPLES);
    let large = populated_with(10 * TUPLES);
    let clone_small = allocations(|| {
        black_box(black_box(&small).clone());
    });
    let clone_large = allocations(|| {
        black_box(black_box(&large).clone());
    });
    println!(
        "WorkingMemory::clone: {clone_small} allocations at {} tuples, {clone_large} at {}",
        small.len(),
        large.len()
    );
    assert_eq!(
        clone_small, clone_large,
        "a clone must cost O(classes), not O(tuples): {clone_small} allocations at {} tuples, \
         {clone_large} at {}",
        small.len(),
        large.len()
    );
}

/// A delta that sets `task` tuple `id`'s status.
fn set_status(id: WmeId, status: &str) -> DeltaSet {
    let mut d = DeltaSet::new();
    d.modify(id, [(Atom::from("status"), Value::Sym(status.into()))]);
    d
}

#[test]
fn a_write_after_a_clone_copies_its_own_relation_once() {
    let wm = populated();
    let tasks: Vec<WmeId> = wm.class_iter("task").map(|w| w.id).collect();
    let (first, second) = (set_status(tasks[7], "held"), set_status(tasks[8], "held"));
    // One relation's copy: a map of the same ids, built in the same
    // order, cloned into a new `Arc`.
    let mut shape = BTreeMap::new();
    for w in wm.relation("task").unwrap().handles() {
        shape.insert(w.id, Arc::clone(w));
    }
    let one_relation = allocations(|| {
        black_box(Arc::new(black_box(&shape).clone()));
    });

    // The same two modifies on a memory that shares nothing.
    let mut alone = populated();
    let (_, alone_first) = allocations_once(|| alone.apply(&first).unwrap());
    let (_, alone_second) = allocations_once(|| alone.apply(&second).unwrap());

    let mut fork = wm.clone();
    let (_, fork_first) = allocations_once(|| fork.apply(&first).unwrap());
    let (_, fork_second) = allocations_once(|| fork.apply(&second).unwrap());
    let copied = fork_first - alone_first;
    println!(
        "modify after a clone: {fork_first} allocations (unshared {alone_first}; \
         one relation's copy {one_relation}), then {fork_second} (unshared {alone_second})"
    );
    assert!(copied > 0, "the first write after a clone copies the relation it touches");
    assert!(
        copied <= one_relation,
        "the first write after a clone copied {copied} allocations, more than its own \
         relation's {one_relation}"
    );
    assert_eq!(fork_second, alone_second, "a relation is copied once per clone");
    let status = |wm: &WorkingMemory| wm.get(tasks[7]).unwrap().get("status").cloned();
    assert_eq!(status(&wm), status(&populated()), "the original keeps its tuple");
    assert_eq!(status(&fork), Some(Value::Sym("held".into())));
}

#[test]
fn removing_an_absent_id_from_a_shared_memory_allocates_nothing() {
    let wm = populated();
    let mut fork = wm.clone();
    // One id inside the memory's id range, one past every range.
    for ghost in [WmeId(TUPLES as u64 + 1), WmeId(1 << 40)] {
        let (out, allocs) = allocations_once(|| fork.remove(ghost));
        assert_eq!(out, Err(WmError::NoSuchWme(ghost)));
        assert_eq!(allocs, 0, "removing absent {ghost:?} allocated");
    }
    // Still shared: the first real write pays the relation's copy.
    let id = wm.class_iter("note").next().unwrap().id;
    let mut alone = populated();
    let (_, alone_remove) = allocations_once(|| alone.remove(id).unwrap());
    let (_, fork_remove) = allocations_once(|| fork.remove(id).unwrap());
    assert!(fork_remove > alone_remove, "a real remove copies what it touches");
}

#[test]
fn memory_clone_batch_and_instantiation_share_one_allocation() {
    let rules = RuleSet::parse("(p pair (left ^k <k>) (right ^k <k>) --> (remove 1))").unwrap();
    let mut wm = WorkingMemory::new();
    wm.insert(WmeData::new("left").with("k", 1i64));
    let mut rete = Rete::new(&rules, &wm);
    let mut delta = DeltaSet::new();
    delta.create(WmeData::new("right").with("k", 1i64));
    let changes = wm.apply(&delta).unwrap();
    let Change::Added(added) = &changes[0] else { panic!("a create adds") };
    rete.apply(&changes);
    let fork = wm.clone();

    let handle = |wm: &WorkingMemory| Arc::clone(wm.handles().find(|w| w.id == added.id).unwrap());
    let key = rete.conflict_set().keys().next().expect("the pair matches");
    let inst = rete.instantiate(key).unwrap();
    assert!(Arc::ptr_eq(&handle(&wm), added), "the batch carries the relation's tuple");
    assert!(Arc::ptr_eq(&handle(&fork), added), "a clone shares the tuple");
    assert!(Arc::ptr_eq(&inst.wmes[1], added), "the matcher holds the batch's tuple");
    // The initial load shares too.
    let left = wm.handles().find(|w| w.class().as_str() == "left").unwrap();
    assert!(Arc::ptr_eq(&inst.wmes[0], left), "the matcher holds the loaded tuple");
}
