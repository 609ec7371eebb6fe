//! Live-telemetry cross-validation: tick-integrated totals must
//! reconcile with the end-of-run aggregates.
//!
//! The probe design makes this a strong invariant, not an approximate
//! one: every telemetry probe reads *the same atomic cells* the
//! [`dbps::engine::ParallelReport`] reads, and `Telemetry::stop` takes
//! one forced final sample after the workers drain — so the last sample
//! of every counter series must equal the report's number **exactly**.
//! Anything else means a probe is wired to the wrong cell, a series
//! name drifted, or the sampler outlived the run.

use dbps::engine::{ParallelConfig, ParallelEngine, WorkModel};
use dbps::lock::{ConflictPolicy, FaultPlan};
use dbps::obs::{SeriesKind, TelemetryConfig, TimelineDoc};
use dbps::rules::RuleSet;
use dbps::wm::{WmeData, WorkingMemory};
use std::time::Duration;

/// Heavy Rc–Wa conflict: many deltas folded into one shared accumulator
/// with simulated RHS work, so dooms (and lock waits) actually occur.
fn contended_workload(deltas: i64) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p apply (delta ^v <d>) (acc ^total <t>)
           --> (remove 1) (modify 2 ^total (+ <t> <d>)))",
    )
    .unwrap();
    let mut wm = WorkingMemory::new();
    for i in 1..=deltas {
        wm.insert(WmeData::new("delta").with("v", i));
    }
    wm.insert(WmeData::new("acc").with("total", 0i64));
    (rules, wm)
}

fn telemetry_cfg() -> Option<TelemetryConfig> {
    Some(TelemetryConfig {
        tick: Duration::from_millis(2),
        capacity: 8192,
    })
}

#[test]
fn counter_series_reconcile_with_the_report() {
    let (rules, wm) = contended_workload(48);
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            workers: 4,
            work: WorkModel::FixedMicros(150),
            observe: true,
            telemetry: telemetry_cfg(),
            ..Default::default()
        },
    );
    let report = engine.run();
    let doc = engine.telemetry().unwrap().doc();
    doc.validate().unwrap();
    assert!(doc.ticks >= 1, "the sampler ticked at least once (final sample)");

    // Engine counters: the last sample IS the report number.
    assert_eq!(doc.last("engine.commits"), Some(report.commits as u64));
    let by_cause = [
        ("engine.aborts.doomed", report.aborts.doomed),
        ("engine.aborts.deadlock", report.aborts.deadlock),
        ("engine.aborts.stale", report.aborts.stale),
        ("engine.aborts.revalidation", report.aborts.revalidation),
        ("engine.aborts.eval_error", report.aborts.eval_error),
        ("engine.aborts.timeout", report.aborts.timeout),
        ("engine.aborts.injected", report.aborts.injected),
        ("engine.aborts.snapshot_stale", report.aborts.snapshot_stale),
    ];
    for (name, total) in by_cause {
        assert_eq!(doc.last(name), Some(total), "series {name}");
    }
    assert_eq!(
        doc.last("engine.wasted_ns"),
        Some(report.wasted_work.as_nanos() as u64)
    );

    // Lock-manager counters reconcile with LockStats.
    assert_eq!(doc.last("lock.grants"), Some(report.lock_stats.grants));
    assert_eq!(doc.last("lock.blocks"), Some(report.lock_stats.blocks));
    assert_eq!(doc.last("lock.dooms"), Some(report.lock_stats.dooms));
    assert_eq!(doc.last("lock.deadlocks"), Some(report.lock_stats.deadlocks));

    // Pipeline fan-out counters reconcile with FanoutStats.
    assert_eq!(doc.last("pipeline.batches"), Some(report.fanout.batches));
    assert_eq!(doc.last("pipeline.applies"), Some(report.fanout.applies));
    assert_eq!(
        doc.last("pipeline.free_advances"),
        Some(report.fanout.free_advances)
    );
    assert_eq!(doc.last("pipeline.steals"), Some(report.fanout.steals));
    // Every committer catches the shards its batch was routed to up
    // before it returns, so a drained run leaves every inbox empty.
    assert_eq!(doc.last("pipeline.log_depth"), Some(0));
    assert_eq!(doc.last("pipeline.cursor_lag"), Some(0));

    // And the event-ring side agrees too: the recorder's report counts
    // the same commits/aborts the timeline integrated.
    let obs = engine.observer().unwrap().report();
    assert_eq!(doc.last("engine.commits"), Some(obs.commits));
    assert_eq!(
        doc.last("engine.aborts.doomed").unwrap()
            + doc.last("engine.aborts.deadlock").unwrap()
            + doc.last("engine.aborts.stale").unwrap()
            + doc.last("engine.aborts.revalidation").unwrap()
            + doc.last("engine.aborts.eval_error").unwrap()
            + doc.last("engine.aborts.timeout").unwrap()
            + doc.last("engine.aborts.injected").unwrap()
            + doc.last("engine.aborts.snapshot_stale").unwrap(),
        obs.aborts,
        "tick-integrated abort total == event-ring abort total"
    );
}

#[test]
fn counter_series_are_monotone_and_kinds_are_stable() {
    let (rules, wm) = contended_workload(32);
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            workers: 4,
            work: WorkModel::FixedMicros(200),
            telemetry: telemetry_cfg(),
            ..Default::default()
        },
    );
    engine.run();
    let doc = engine.telemetry().unwrap().doc();
    // validate() already rejects decreasing counters; assert the kind
    // map so a future rename/rekind breaks loudly here.
    doc.validate().unwrap();
    for name in ["engine.commits", "lock.grants", "pipeline.batches"] {
        assert_eq!(doc.series(name).unwrap().kind, SeriesKind::Counter, "{name}");
    }
    for name in ["pipeline.log_depth", "pipeline.cursor_lag", "lock.wait.p99_ns"] {
        assert_eq!(doc.series(name).unwrap().kind, SeriesKind::Gauge, "{name}");
    }
}

#[test]
fn wal_series_appear_and_reconcile() {
    let dir = std::env::temp_dir().join(format!("dps-tel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (rules, wm) = contended_workload(40);
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            policy: ConflictPolicy::AbortReaders,
            workers: 4,
            work: WorkModel::BusyMicros(300),
            fault: Some(FaultPlan::doom_storm(7)),
            durability: Some(dbps::engine::DurabilityConfig::at(&dir)),
            telemetry: telemetry_cfg(),
            ..Default::default()
        },
    );
    let report = engine.run();
    let doc = engine.telemetry().unwrap().doc();
    doc.validate().unwrap();

    let wal = report.wal.expect("durability attached");
    assert_eq!(doc.last("wal.appends"), Some(wal.appends));
    assert_eq!(doc.last("wal.fsyncs"), Some(wal.fsyncs));
    assert_eq!(doc.last("wal.piggybacked"), Some(wal.piggybacked));
    // After the quiescence flush nothing can still be pending.
    assert_eq!(doc.last("wal.pending_bytes"), Some(0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timeline_doc_roundtrips_through_report_json() {
    let (rules, wm) = contended_workload(16);
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            workers: 2,
            telemetry: telemetry_cfg(),
            ..Default::default()
        },
    );
    engine.run();
    let doc = engine.telemetry().unwrap().doc();
    let text = doc.to_json().to_string_pretty();
    let back = TimelineDoc::from_json(&dbps::obs::json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, doc);
}

#[test]
fn telemetry_off_engine_has_no_registry() {
    let (rules, wm) = contended_workload(8);
    let mut engine = ParallelEngine::new(&rules, wm, ParallelConfig::default());
    engine.run();
    assert!(engine.telemetry().is_none(), "off ⇒ one branch on a None");
}
