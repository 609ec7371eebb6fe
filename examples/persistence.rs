//! Knowledge persistence — the paper's opening motivation ("expert
//! system users are asking for knowledge sharing and knowledge
//! persistence, features found currently in databases").
//!
//! Flow: run the parallel engine with durability on (a checkpoint at
//! the start, every commit's change batch in the group-committed WAL),
//! "crash" by walking away from the process state, then recover from
//! the directory alone — newest checkpoint plus the WAL suffix — and
//! verify the state is identical to the engine's final working memory.
//!
//! ```text
//! cargo run --example persistence
//! ```

use dbps::engine::{DurabilityConfig, ParallelConfig, ParallelEngine};
use dbps::rules::RuleSet;
use dbps::wm::{recover, Wme, WmeData, WorkingMemory};

fn main() {
    let rules = RuleSet::parse(
        "(p process (order ^state new ^qty <q>)
            --> (modify 1 ^state done) (make shipment ^qty <q>))",
    )
    .expect("parses");
    let mut wm = WorkingMemory::new();
    for q in [5i64, 10, 15] {
        wm.insert(WmeData::new("order").with("state", "new").with("qty", q));
    }

    let dir = std::env::temp_dir().join(format!("dps-persistence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- run with the durability layer: checkpoint + WAL ---
    let mut engine = ParallelEngine::new(
        &rules,
        wm,
        ParallelConfig {
            durability: Some(DurabilityConfig::at(&dir)),
            ..Default::default()
        },
    );
    let report = engine.run();
    let wal = report.wal.expect("durability attached");
    println!(
        "ran {} productions; WAL: {} records, {} fsyncs",
        report.commits, wal.appends, wal.fsyncs
    );

    // --- "crash" and recover: checkpoint + WAL suffix ---
    let recovered = recover(&dir).expect("recovery succeeds");
    println!(
        "recovered from checkpoint {} by replaying {} records (last seq {})",
        recovered.checkpoint_seq, recovered.replayed, recovered.last_seq
    );

    // --- verify bit-for-bit recovery ---
    let live = engine.final_wm();
    let live: Vec<&Wme> = live.iter().collect();
    let restored: Vec<&Wme> = recovered.wm.iter().collect();
    assert_eq!(live, restored, "recovered state differs");
    assert_eq!(recovered.wm.class_iter("shipment").count(), 3);
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nrecovered state identical to the live engine state — OK");
}
