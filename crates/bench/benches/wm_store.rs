//! Working-memory substrate benches: tuple throughput, atomic delta
//! application, snapshot codec and atomic batch replay.

use dps_bench::harness::{BenchmarkId, Criterion};
use dps_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use dps_wm::{apply_changes_atomic, Atom, DeltaSet, Value, WmeData, WorkingMemory};

fn populated(n: i64) -> WorkingMemory {
    let mut wm = WorkingMemory::new();
    for i in 0..n {
        wm.insert(
            WmeData::new(if i % 2 == 0 { "even" } else { "odd" })
                .with("k", i % 10)
                .with("name", format!("tuple-{i}")),
        );
    }
    wm
}

fn store_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("wm_store");
    g.bench_function("insert_remove_1k", |b| {
        b.iter(|| {
            let mut wm = WorkingMemory::new();
            let ids: Vec<_> = (0..1000i64)
                .map(|i| wm.insert(WmeData::new("t").with("k", i)))
                .collect();
            for id in ids {
                wm.remove(id).unwrap();
            }
            wm.len()
        })
    });
    g.bench_function("apply_modify_batch", |b| {
        let mut wm = populated(1000);
        let ids: Vec<_> = wm.iter().map(|w| w.id).take(64).collect();
        b.iter(|| {
            let mut d = DeltaSet::new();
            for &id in &ids {
                d.modify(id, [(Atom::from("k"), Value::Int(7))]);
            }
            let changes = wm.apply(&d).unwrap();
            changes.len()
        })
    });
    g.finish();
}

fn persistence(c: &mut Criterion) {
    let mut g = c.benchmark_group("wm_persistence");
    for &n in &[100i64, 10_000] {
        let wm = populated(n);
        let snap = wm.encode_snapshot().unwrap();
        g.bench_with_input(BenchmarkId::new("encode_snapshot", n), &n, |b, _| {
            b.iter(|| wm.encode_snapshot().unwrap().len())
        });
        g.bench_with_input(BenchmarkId::new("decode_snapshot", n), &n, |b, _| {
            b.iter(|| {
                WorkingMemory::decode_snapshot(black_box(&snap))
                    .unwrap()
                    .len()
            })
        });
    }
    // Recovery's redo step: 100 committed batches replayed atomically
    // onto the snapshot they were taken after.
    g.bench_function("replay_atomic_100", |b| {
        let mut wm = populated(100);
        let snap = wm.encode_snapshot().unwrap();
        let batches: Vec<_> = (0..100i64)
            .map(|i| {
                let mut d = DeltaSet::new();
                d.create(WmeData::new("log").with("i", i));
                wm.apply(&d).unwrap()
            })
            .collect();
        b.iter(|| {
            let mut recovered = WorkingMemory::decode_snapshot(&snap).unwrap();
            for batch in &batches {
                apply_changes_atomic(&mut recovered, batch).unwrap();
            }
            recovered.len()
        })
    });
    g.finish();
}

criterion_group!(benches, store_ops, persistence);
criterion_main!(benches);
