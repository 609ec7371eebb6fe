//! Measures the §5 speed-up factors on real threads: worker count,
//! degree of conflict, and lock protocol — the wall-clock companion to
//! the discrete-event reproduction of Figures 5.1–5.4 (run
//! `cargo run -p dps-bench --bin repro --release` for those).
//!
//! ```text
//! cargo run --release --example parallel_speedup
//! ```

use std::time::Duration;

use dbps::engine::semantics::validate_trace;
use dbps::engine::{ParallelConfig, ParallelEngine, WorkModel};
use dbps::lock::{ConflictPolicy, Protocol};
use dbps::rules::RuleSet;
use dbps::wm::{WmeData, WorkingMemory};

/// `tasks` tasks, each charging one of `tallies` shared counters.
fn workload(tasks: usize, tallies: usize) -> (RuleSet, WorkingMemory) {
    let rules = RuleSet::parse(
        "(p charge (task ^res <r> ^state todo) (tally ^id <r> ^count <c>)
           --> (modify 1 ^state done) (modify 2 ^count (+ <c> 1)))",
    )
    .expect("parses");
    let mut wm = WorkingMemory::new();
    for r in 0..tallies {
        wm.insert(
            WmeData::new("tally")
                .with("id", r as i64)
                .with("count", 0i64),
        );
    }
    for t in 0..tasks {
        wm.insert(
            WmeData::new("task")
                .with("res", (t % tallies) as i64)
                .with("state", "todo"),
        );
    }
    (rules, wm)
}

fn run(tasks: usize, tallies: usize, workers: usize, protocol: Protocol) -> (Duration, u64) {
    let (rules, wm) = workload(tasks, tallies);
    let initial = wm.clone();
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            protocol,
            policy: ConflictPolicy::AbortReaders,
            workers,
            work: WorkModel::FixedMicros(1_000), // 1 ms "database query" per RHS
            max_commits: 10_000,
            rc_escalation: None,
            ..Default::default()
        },
    );
    let report = engine.run();
    assert_eq!(report.commits, tasks);
    validate_trace(&rules, &initial, &report.trace).expect("semantically consistent");
    (report.wall, report.aborts.total())
}

fn main() {
    const TASKS: usize = 24;

    println!("-- speed-up vs number of processors (no conflict: {TASKS} disjoint tallies) --");
    let (base, _) = run(TASKS, TASKS, 1, Protocol::RcRaWa);
    println!(
        "  workers  1: {:>7.1} ms  (speedup 1.00)",
        base.as_secs_f64() * 1e3
    );
    for workers in [2usize, 4, 8] {
        let (t, _) = run(TASKS, TASKS, workers, Protocol::RcRaWa);
        println!(
            "  workers {workers:>2}: {:>7.1} ms  (speedup {:.2})",
            t.as_secs_f64() * 1e3,
            base.as_secs_f64() / t.as_secs_f64()
        );
    }

    println!("\n-- speed-up vs degree of conflict (8 workers; fewer tallies = more conflict) --");
    for tallies in [24usize, 8, 2, 1] {
        let (t, aborts) = run(TASKS, tallies, 8, Protocol::RcRaWa);
        println!(
            "  {tallies:>2} tallies: {:>7.1} ms  (speedup {:.2}, {aborts} aborts)",
            t.as_secs_f64() * 1e3,
            base.as_secs_f64() / t.as_secs_f64()
        );
    }

    println!("\n-- lock protocol at moderate conflict (8 workers, 4 tallies) --");
    for (name, protocol) in [("2PL   ", Protocol::TwoPhase), ("RcRaWa", Protocol::RcRaWa)] {
        let (t, aborts) = run(TASKS, 4, 8, protocol);
        println!(
            "  {name}: {:>7.1} ms  ({aborts} aborts)",
            t.as_secs_f64() * 1e3
        );
    }

    println!("\nall traces validated against the single-thread execution semantics — OK");
}
