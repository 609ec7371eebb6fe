//! X2 — lock-protocol comparison: the paper's `Rc`/`Ra`/`Wa` scheme vs
//! conventional 2PL, at the lock-manager level (grant latency, conflict
//! scenarios) and at the engine level (whole-run wall clock).

use dps_bench::harness::{BenchmarkId, Criterion};
use dps_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use dps_bench::workloads;
use dps_core::{ParallelConfig, ParallelEngine, WorkModel};
use dps_lock::{ConflictPolicy, LockManager, LockMode, Protocol, ResourceId};

/// Raw manager throughput: begin, lock k resources, commit.
fn manager_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock_manager");
    for &k in &[1usize, 8, 64] {
        g.bench_with_input(BenchmarkId::new("grant_commit", k), &k, |b, &k| {
            let lm = LockManager::new(ConflictPolicy::AbortReaders);
            b.iter(|| {
                let t = lm.begin();
                for i in 0..k {
                    lm.lock(t, ResourceId::Tuple(i as u64), LockMode::Rc)
                        .unwrap();
                }
                lm.commit(black_box(t)).unwrap()
            })
        });
    }
    // The paper's key cell: Wa granted under an outstanding Rc.
    g.bench_function("rc_wa_overlap_cycle", |b| {
        let lm = LockManager::new(ConflictPolicy::AbortReaders);
        b.iter(|| {
            let reader = lm.begin();
            let writer = lm.begin();
            lm.lock(reader, ResourceId::Tuple(1), LockMode::Rc).unwrap();
            lm.lock(writer, ResourceId::Tuple(1), LockMode::Wa).unwrap();
            let out = lm.commit(writer).unwrap();
            assert_eq!(out.doomed_readers.len(), 1);
            lm.commit(reader).unwrap_err()
        })
    });
    g.finish();
}

/// Whole-engine wall clock under contention: the paper's claim is that
/// the improved scheme wins when RHSs are long (condition evaluation can
/// overlap an in-flight writer).
fn engine_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_protocols");
    g.sample_size(10);
    for (label, protocol) in [
        ("two_phase", Protocol::TwoPhase),
        ("rc_ra_wa", Protocol::RcRaWa),
    ] {
        for &tallies in &[8usize, 1] {
            g.bench_with_input(
                BenchmarkId::new(label, format!("tallies_{tallies}")),
                &tallies,
                |b, &tallies| {
                    b.iter(|| {
                        let (rules, wm) = workloads::shared_resources(12, tallies);
                        let mut e = ParallelEngine::new(
                            &rules,
                            wm,
                            ParallelConfig {
                                protocol,
                                policy: ConflictPolicy::AbortReaders,
                                workers: 4,
                                work: WorkModel::FixedMicros(200),
                                max_commits: 1_000,
                                rc_escalation: None,
                                ..Default::default()
                            },
                        );
                        let r = e.run();
                        assert_eq!(r.commits, 12);
                        r.commits
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, manager_throughput, engine_protocols);
criterion_main!(benches);
