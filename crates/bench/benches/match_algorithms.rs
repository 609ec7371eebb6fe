//! X4 — match-substrate ablation: Rete vs TREAT (the two algorithms the
//! paper's §2 survey contrasts), on build cost and incremental updates;
//! X8 — the same Rete over match shards.

use dps_bench::harness::{BenchmarkId, Criterion};
use dps_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use dps_bench::workloads;
use dps_match::{Matcher, Rete, ShardedRete, Treat, DEFAULT_MATCH_SHARDS};
use dps_wm::{Change, WmeData, WorkingMemory};

fn build(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_build");
    for &jobs in &[10usize, 100] {
        let (rules, wm) = workloads::manufacturing(jobs, 8);
        g.bench_with_input(BenchmarkId::new("rete", jobs), &jobs, |b, _| {
            b.iter(|| Rete::new(black_box(&rules), black_box(&wm)))
        });
        g.bench_with_input(BenchmarkId::new("treat", jobs), &jobs, |b, _| {
            b.iter(|| Treat::new(black_box(&rules), black_box(&wm)))
        });
    }
    g.finish();
}

/// One add + one remove churned through an already-loaded matcher: the
/// incremental cost the two algorithms trade off differently.
fn churn<M: Matcher>(matcher: &mut M, wm: &mut WorkingMemory) {
    let w = wm.insert_full(WmeData::new("job").with("stage", 0i64));
    matcher.apply(&[Change::Added(w.clone())]);
    let removed = wm.remove(w.id).expect("just inserted");
    matcher.apply(&[Change::Removed(removed)]);
}

fn incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_incremental");
    for &jobs in &[10usize, 100] {
        let (rules, wm) = workloads::manufacturing(jobs, 8);
        g.bench_with_input(BenchmarkId::new("rete_churn", jobs), &jobs, |b, _| {
            let mut rete = Rete::new(&rules, &wm);
            let mut wm = wm.clone();
            b.iter(|| churn(&mut rete, &mut wm))
        });
        g.bench_with_input(BenchmarkId::new("treat_churn", jobs), &jobs, |b, _| {
            let mut treat = Treat::new(&rules, &wm);
            let mut wm = wm.clone();
            b.iter(|| churn(&mut treat, &mut wm))
        });
    }
    g.finish();
}

/// Negation-heavy churn: the case where TREAT must re-join from scratch
/// while Rete updates counters.
fn negation_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_negation");
    let (rules, mut wm) = workloads::false_conflicts(50, 0);
    // A standing population of non-matching alarms to join against.
    for z in 0..50i64 {
        wm.insert(WmeData::new("alarm").with("zone", 1000 + z));
    }
    g.bench_function("rete_alarm_churn", |b| {
        let mut rete = Rete::new(&rules, &wm);
        let mut wm = wm.clone();
        b.iter(|| {
            let w = wm.insert_full(WmeData::new("alarm").with("zone", 5000i64));
            rete.apply(&[Change::Added(w.clone())]);
            let removed = wm.remove(w.id).unwrap();
            rete.apply(&[Change::Removed(removed)]);
        })
    });
    g.bench_function("treat_alarm_churn", |b| {
        let mut treat = Treat::new(&rules, &wm);
        let mut wm = wm.clone();
        b.iter(|| {
            let w = wm.insert_full(WmeData::new("alarm").with("zone", 5000i64));
            treat.apply(&[Change::Added(w.clone())]);
            let removed = wm.remove(w.id).unwrap();
            treat.apply(&[Change::Removed(removed)]);
        })
    });
    g.finish();
}

/// X8 — intra-phase parallelism: monolithic Rete vs the same rule set
/// laid out over match shards (`ShardedRete`, serial routing: a batch
/// runs only the shards its classes reach), on a rule set with many
/// independent class families. Shards matched by concurrent workers are
/// measured through the engine pipeline by `matchbench`.
fn sharded(c: &mut Criterion) {
    use dps_rules::RuleSet;

    // 16 independent rule families, each over its own pair of classes.
    let mut src = String::new();
    for f in 0..16 {
        src.push_str(&format!(
            "(p fam{f} (a{f} ^k <x>) (b{f} ^k <x>) --> (remove 1))\n"
        ));
    }
    let rules = RuleSet::parse(&src).unwrap();
    let mut wm = WorkingMemory::new();
    for f in 0..16 {
        for k in 0..20i64 {
            wm.insert(WmeData::new(format!("a{f}")).with("k", k));
            wm.insert(WmeData::new(format!("b{f}")).with("k", k));
        }
    }
    // A batch touching every family at once.
    let mut scratch = wm.clone();
    let batch: Vec<Change> = (0..16)
        .map(|f| Change::Added(scratch.insert_full(WmeData::new(format!("a{f}")).with("k", 5i64))))
        .collect();

    let mut g = c.benchmark_group("match_sharded");
    g.bench_function("monolithic", |b| {
        let mut rete = Rete::new(&rules, &wm);
        b.iter(|| rete.apply(&batch))
    });
    for shards in [DEFAULT_MATCH_SHARDS, 16] {
        g.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |b, &shards| {
                let mut sharded = ShardedRete::new(&rules, &wm, shards);
                b.iter(|| sharded.apply(&batch))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, build, incremental, negation_churn, sharded);
criterion_main!(benches);
